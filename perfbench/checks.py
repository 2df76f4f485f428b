"""Output checks computed apart from ``crplus``.

Everything here works from the portfolio document (the JSON layout) and
from the numbers a run produced. Nothing is compared against a stored copy
of earlier output. With s_A = E[S_A] and M_k = sum_C w_Ck p_C s_C:

  E[X]       = sum_A p_A s_A
  Var[X]     = sum_A p_A E[S_A^2] + sum_k M_k^2 / alpha_k
  E[X | A]   = E[X] + s_A + sum_k w_Ak M_k / alpha_k
  E[X | A,B] = E[X] + s_A + s_B
               + (sum_k (w_Ak + w_Bk) M_k / alpha_k + 2 sum_k w_Ak w_Bk M_k / alpha_k^2)
                 / (1 + sum_k w_Ak w_Bk / alpha_k)

The write-off variants use the same formulas with the defaulted
severities set to 0 everywhere, E[X] and M_k included.
"""

from __future__ import annotations

import numpy as np

IDIO = "idiosyncratic"

# Relative agreement demanded of the truncated pmf's moments with the closed
# forms. Truncation itself moves the mean by E[X; X > L] >= (L+1) * tail,
# which the tolerances below add on top.
MEAN_RTOL = 1e-9
VAR_RTOL = 1e-7
MASS_TOL = 1e-9
# Monte Carlo: the simulated mean within MC_MEAN_Z standard errors of E[X];
# the weighted conditional estimator within MC_BIN_Z summed standard errors
# of the analytic pmf on every bucket that expects MC_BIN_MIN weighted hits.
MC_MEAN_Z = 4.0
MC_BIN_Z = 5.0
MC_BIN_MIN = 50.0


class Book:
    """Per-obligor arrays of a portfolio document."""

    def __init__(self, doc):
        self.sector_ids = [s["id"] for s in doc["sectors"]]
        self.alphas = np.array([float(s["alpha"]) for s in doc["sectors"]])
        index = {sid: k + 1 for k, sid in enumerate(self.sector_ids)}
        index[IDIO] = 0
        n = len(doc["obligors"])
        self.ids = [o["id"] for o in doc["obligors"]]
        self.pos = {oid: i for i, oid in enumerate(self.ids)}
        self.pd = np.array([float(o["pd"]) for o in doc["obligors"]])
        self.w = np.zeros((n, len(self.sector_ids) + 1))
        self.s1 = np.zeros(n)
        self.s2 = np.zeros(n)
        for i, o in enumerate(doc["obligors"]):
            for key, val in o["weights"].items():
                self.w[i, index[key]] = float(val)
            sev = o["severity"]
            if sev["type"] == "deterministic":
                pairs = [(sev["value"], 1.0)]
            else:
                pairs = sev["values"]
            self.s1[i] = sum(x * p for x, p in pairs)
            self.s2[i] = sum(x * x * p for x, p in pairs)

    def _terms(self, zeroed=()):
        s1 = self.s1.copy()
        for oid in zeroed:
            s1[self.pos[oid]] = 0.0
        mean = float(np.dot(self.pd, s1))
        m = (self.w[:, 1:] * (self.pd * s1)[:, None]).sum(axis=0)
        return mean, m, s1

    def mean(self):
        return self._terms()[0]

    def variance(self):
        _, m, _ = self._terms()
        return float(np.dot(self.pd, self.s2) + np.sum(m * m / self.alphas))

    def cond_mean(self, ids, writeoff=False):
        """E[X | the obligors in ``ids`` default], one or two of them."""
        mean, m, s1 = self._terms(ids if writeoff else ())
        rows = [self.w[self.pos[oid], 1:] for oid in ids]
        shift = sum(s1[self.pos[oid]] for oid in ids)
        if len(rows) == 1:
            return mean + shift + float(np.sum(rows[0] * m / self.alphas))
        wa, wb = rows
        cross = wa * wb / self.alphas
        num = float(np.sum((wa + wb) * m / self.alphas) + 2.0 * np.sum(cross * m / self.alphas))
        return mean + shift + num / (1.0 + float(np.sum(cross)))


def _pmf_mean_var(probs):
    x = np.arange(probs.size, dtype=float)
    m = float(np.dot(x, probs))
    return m, float(np.dot(x * x, probs) - m * m)


def check_mass(probs, tail, tail_tol):
    """Total mass is 1 and the truncated tail is within tolerance."""
    errors = []
    total = float(probs.sum()) + tail
    if abs(total - 1.0) > MASS_TOL:
        errors.append(f"sum(probs) + tail_mass = {total!r}")
    if not 0.0 <= tail <= tail_tol:
        errors.append(f"tail mass {tail:.3e} outside [0, {tail_tol:g}]")
    return errors


def check_base(probs, tail, book, tail_tol):
    errors = check_mass(probs, tail, tail_tol)
    limit = probs.size - 1
    mean, var = _pmf_mean_var(probs)
    want_mean, want_var = book.mean(), book.variance()
    if abs(mean - want_mean) > MEAN_RTOL * want_mean + 2.0 * (limit + 1) * tail:
        errors.append(f"base mean {mean!r} != closed form {want_mean!r}")
    if abs(var - want_var) > VAR_RTOL * want_var + 2.0 * (limit + 1) ** 2 * tail:
        errors.append(f"base variance {var!r} != closed form {want_var!r}")
    return errors


def check_conditional(probs, tail, book, ids, writeoff, tail_tol,
                      quantiles=None, base_quantiles=None):
    """Mass, conditional mean and (without write-off) quantile dominance."""
    errors = check_mass(probs, tail, tail_tol)
    limit = probs.size - 1
    mean, _ = _pmf_mean_var(probs)
    want = book.cond_mean(ids, writeoff=writeoff)
    if abs(mean - want) > MEAN_RTOL * want + 2.0 * (limit + 1) * tail:
        errors.append(f"E[X | {','.join(ids)}{' writeoff' if writeoff else ''}] = "
                      f"{mean!r} != closed form {want!r}")
    if not writeoff and quantiles is not None:
        for theta, q in quantiles.items():
            if q < base_quantiles[theta]:
                errors.append(f"quantile {theta} of {','.join(ids)}: {q} < base "
                              f"{base_quantiles[theta]}")
    return errors


def check_mc_mean(loss_counts, book, draws):
    """The simulated mean loss lies within MC_MEAN_Z standard errors of E[X]."""
    counts = np.asarray(loss_counts, dtype=float)
    if int(counts.sum()) != draws:
        return [f"MC tallies {int(counts.sum())} draws, expected {draws}"]
    x = np.arange(counts.size, dtype=float)
    m = float(np.dot(x, counts)) / draws
    sd = float(np.sqrt(max(np.dot(x * x, counts) / draws - m * m, 0.0)))
    se = sd / np.sqrt(draws)
    want = book.mean()
    if abs(m - want) > MC_MEAN_Z * se:
        return [f"MC mean {m:.6g} is {abs(m - want) / se:.2f} SE from E[X] = {want:.6g}"]
    return []


def check_mc_conditional(analytic, weighted, weighted_se, draws, pd):
    """Weighted conditional estimator against the analytic pmf, bin by bin.

    Adjacent bins are merged until each bucket expects MC_BIN_MIN weighted
    hits (draws * pd * mass); a bucket's standard error is bounded by the
    sum of its bins' standard errors, which can only overstate it.
    """
    need = MC_BIN_MIN / (draws * pd)
    errors = []
    buckets = 0
    acc_a = acc_w = acc_se = 0.0
    start = 0
    for x in range(analytic.size):
        acc_a += analytic[x]
        acc_w += weighted[x]
        acc_se += weighted_se[x]
        if acc_a >= need:
            buckets += 1
            if abs(acc_w - acc_a) > MC_BIN_Z * acc_se:
                errors.append(f"MC bucket {start}..{x}: weighted {acc_w:.6g} vs analytic "
                              f"{acc_a:.6g} (summed SE {acc_se:.3g})")
            acc_a = acc_w = acc_se = 0.0
            start = x + 1
    if buckets < 2:
        errors.append(f"only {buckets} MC bucket(s) with {MC_BIN_MIN:g} expected hits")
    return errors
