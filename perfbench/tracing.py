"""Per-layer tracing from outside the program.

The tracer swaps the public functions of the ``crplus`` modules for
wrappers that count calls and record spans. A span opens only where a call
crosses from one layer into another (or comes from the benchmark itself);
a call inside the same layer is counted but merged into the open span, so
a layer's self time is its spans' durations minus the spans of other
layers that ran inside them.

The small pmf helpers (``mean``, ``variance``, ``quantile``,
``expected_shortfall``, ``to_csv``, ``from_dict``, ``point_mass``) are not
wrapped: their time stays with the caller, so the risk-report maths lands
in ``engine.risk_report_s`` and CSV formatting in ``cli.s``.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

WRAPPED = {
    "portfolio": ["parse_portfolio", "validate", "serialize_portfolio"],
    "pmf": ["compound_poisson", "compound_negbin", "convolve"],
    "engine": ["assemble", "sector_loss", "loss_distribution", "risk_report",
               "suggest_truncation", "LossEngine.loss_distribution", "LossEngine.sector_loss"],
    "conditional": ["loss_given_one_default", "loss_given_two_defaults",
                    "cond_default_intensity", "joint_cond_intensity",
                    "joint_default_intensity", "stressed_pd"],
    "mc": ["simulate", "estimate_conditional_one_default", "verify_fundamental_identity"],
    "cli": ["main"],
}

# (metric, unit) in report order; the README maps each to the end-to-end
# metric it should move.
PER_LAYER = [
    ("portfolio.parse_calls", "count"), ("portfolio.parse_s", "s"),
    ("engine.assemble_calls", "count"), ("engine.assemble_s", "s"),
    ("pmf.panjer_calls", "count"), ("pmf.panjer_steps", "count"), ("pmf.panjer_s", "s"),
    ("pmf.convolve_calls", "count"), ("pmf.convolve_madds", "count"), ("pmf.convolve_s", "s"),
    ("engine.loss_distribution_calls", "count"), ("engine.loss_distribution_s", "s"),
    ("engine.sector_cache_lookups", "count"), ("engine.sector_cache_hit_ratio", "ratio"),
    ("engine.risk_report_s", "s"),
    ("conditional.scenarios", "count"), ("conditional.components", "count"),
    ("conditional.s", "s"),
    ("mc.draws", "count"), ("mc.simulate_s", "s"), ("mc.estimate_s", "s"),
    ("mc.draws_per_s", "1/s"),
    ("cli.calls", "count"), ("cli.s", "s"), ("cli.bytes_written", "count"),
]


def _trimmed_size(probs):
    nz = np.flatnonzero(probs)
    return int(nz[-1]) + 1 if nz.size else 1


def _out_dir(argv):
    argv = list(argv or ())
    for i, arg in enumerate(argv[:-1]):
        if arg == "--out":
            return argv[i + 1]
    return None


def _dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


class Tracer:
    """Counters and spans for one traced round at a time.

    ``install`` swaps the wrappers in, ``uninstall`` puts the originals
    back, so untraced rounds run the program exactly as shipped. Every CLI
    call must write into a fresh ``--out`` directory: ``cli.bytes_written``
    is the size of that directory after the call.
    """

    def __init__(self, modules):
        self.modules = modules
        self.originals = []
        self.spans = []  # (span id, round, name, layer, start, end, parent span id)
        self.next_id = 0
        self.reset(0)

    def reset(self, round_no):
        """Start counting a new round; its spans carry ``round_no``."""
        self.round = round_no
        self.counts = Counter()
        self.self_time = defaultdict(float)
        self.stack = []

    # -- installation -------------------------------------------------
    def install(self):
        for layer, names in WRAPPED.items():
            mod = self.modules[layer]
            for name in names:
                owner, attr = mod, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(mod, cls)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self.originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, layer))

    def uninstall(self):
        while self.originals:
            owner, attr, fn = self.originals.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, layer):
        tracer = self
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            if count is not None:
                count(*args, **kwargs)
            stack = tracer.stack
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            frame = [tracer.next_id, layer, 0.0]
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((frame[0], tracer.round, name, layer, start, end, parent))
                tracer.self_time[name] += end - start - frame[2]
                if stack:
                    stack[-1][2] += end - start
                if name == "main":
                    out = _out_dir(args[0] if args else kwargs.get("argv"))
                    if out is not None and os.path.isdir(out):
                        tracer.counts["cli.bytes"] += _dir_bytes(out)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- argument-derived counts --------------------------------------
    def _count_compound_poisson(self, intensity, severity, limit):
        if intensity > 0 and _trimmed_size(severity.probs) > 1:
            self.counts["panjer.steps"] += limit

    def _count_compound_negbin(self, alpha, delta, severity, limit):
        if delta != 0.0 and _trimmed_size(severity.probs) > 1:
            self.counts["panjer.steps"] += limit

    def _count_convolve(self, a, b):
        self.counts["convolve.madds"] += _trimmed_size(a.probs) * _trimmed_size(b.probs)

    def _count_simulate(self, portfolio, cfg):
        self.counts["mc.draws"] += cfg.draws

    def _count_estimate_conditional_one_default(self, portfolio, obligor_id, cfg, limit):
        self.counts["mc.draws"] += cfg.draws

    def _count_LossEngine_loss_distribution(self, engine, stress=None):
        if any(f[1] == "conditional" for f in self.stack):
            self.counts["conditional.components"] += 1

    # -- reporting ----------------------------------------------------
    def round_metrics(self):
        """Per-layer metrics of the round traced since the last reset."""
        c, t = self.counts, self.self_time
        lookups = c["LossEngine.sector_loss"]
        misses = c["sector_loss"]
        mc_s = t["simulate"] + t["estimate_conditional_one_default"]
        layer_s = defaultdict(float)
        for layer, names in WRAPPED.items():
            layer_s[layer] = sum(t[n] for n in names)
        return {
            "portfolio.parse_calls": c["parse_portfolio"],
            "portfolio.parse_s": layer_s["portfolio"],
            "engine.assemble_calls": c["assemble"],
            "engine.assemble_s": t["assemble"],
            "pmf.panjer_calls": c["compound_poisson"] + c["compound_negbin"],
            "pmf.panjer_steps": c["panjer.steps"],
            "pmf.panjer_s": t["compound_poisson"] + t["compound_negbin"],
            "pmf.convolve_calls": c["convolve"],
            "pmf.convolve_madds": c["convolve.madds"],
            "pmf.convolve_s": t["convolve"],
            "engine.loss_distribution_calls": c["LossEngine.loss_distribution"],
            "engine.loss_distribution_s": t["LossEngine.loss_distribution"],
            "engine.sector_cache_lookups": lookups,
            "engine.sector_cache_hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
            "engine.risk_report_s": t["risk_report"],
            "conditional.scenarios": c["loss_given_one_default"] + c["loss_given_two_defaults"],
            "conditional.components": c["conditional.components"],
            "conditional.s": layer_s["conditional"],
            "mc.draws": c["mc.draws"],
            "mc.simulate_s": t["simulate"],
            "mc.estimate_s": t["estimate_conditional_one_default"],
            "mc.draws_per_s": c["mc.draws"] / mc_s if mc_s > 0 else 0.0,
            "cli.calls": c["main"],
            "cli.s": layer_s["cli"],
            "cli.bytes_written": c["cli.bytes"],
        }

    def write_spans(self, path):
        """Write every recorded span as JSON lines (one span per line)."""
        with open(path, "w") as fh:
            for span_id, rnd, name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "round": rnd, "name": name, "layer": layer,
                                     "start": start, "end": end, "parent": parent}) + "\n")
