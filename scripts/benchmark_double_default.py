#!/usr/bin/env python3
"""Timing benchmark: double-default scenario on a 1000-obligor portfolio.

10 factor sectors, deterministic severities up to 50, truncation at
L = 50000.  Reports assembly, base-distribution and scenario timings.  The
base is one inverse FFT on the engine's Fourier grid.  A scenario takes the
kernel spectra of the sectors its obligors load on from the cached sector
log-spectra (the second pair computes only those of sectors it does not
share with the first) and its mixture by one more inverse FFT.  The
write-off conditional of o0 patches the base engine
(``LossEngine.written_off``): it keeps the base's grid with no grid
search, as writing off severities inside {0..L} can only lower the
aliasing bound, takes over the spectra of the sectors o0 does not load on,
recomputes the others' and takes its mixture by one inverse FFT.  First,
before any analytic work, it times
``mc.simulate`` at 10^6 draws on the same portfolio and prints the draw
rate and the process's peak resident set size at that point.

Exits 1 when the simulated mean loss is more than ``MAX_Z`` standard
errors from the mean of the analytic base distribution: a check of the
sampler at the criterion-12 scale.
"""

import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crplus import LossEngine, Obligor, Portfolio, Sector, SeverityDist, assemble, mean  # noqa: E402
from crplus import conditional as cd  # noqa: E402
from crplus import mc  # noqa: E402

MC_DRAWS = 1_000_000
MAX_Z = 5.0


def build_portfolio(n_obligors=1000, n_sectors=10, seed=2024):
    rng = np.random.default_rng(seed)
    sectors = tuple(Sector(f"s{k + 1}", float(a))
                    for k, a in enumerate(rng.uniform(0.5, 3.0, n_sectors)))
    obligors = []
    for i in range(n_obligors):
        w = np.zeros(n_sectors + 1)
        w[0] = rng.uniform(0.1, 0.5)
        ks = rng.choice(n_sectors, size=2, replace=False) + 1
        split = rng.uniform(0.2, 0.8)
        w[ks[0]] = (1 - w[0]) * split
        w[ks[1]] = (1 - w[0]) * (1 - split)
        obligors.append(Obligor(f"o{i}", float(rng.uniform(0.002, 0.02)), w,
                                SeverityDist({int(rng.integers(1, 51)): 1.0})))
    return Portfolio(sectors, tuple(obligors))


def main():
    port = build_portfolio()
    t = time.perf_counter()
    sim = mc.simulate(port, mc.SimConfig(draws=MC_DRAWS, seed=1))
    elapsed = time.perf_counter() - t
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"mc.simulate, {MC_DRAWS:.0e} draws: {elapsed:7.2f} s  ({MC_DRAWS / elapsed:.3g} draws/s, "
          f"peak RSS {peak_mb:.0f} MB, mean loss {sim.loss_mean()[0]:.1f})")

    t0 = time.perf_counter()
    system = assemble(port, 50_000)
    t1 = time.perf_counter()
    engine = LossEngine(system)
    base = engine.loss_distribution()
    t2 = time.perf_counter()
    rep = cd.loss_given_two_defaults(engine, port, "o0", "o1")
    t3 = time.perf_counter()
    rep2 = cd.loss_given_two_defaults(engine, port, "o2", "o3")
    t4 = time.perf_counter()
    rep3 = cd.loss_given_one_default(engine, port, "o0", writeoff=True)
    t5 = time.perf_counter()

    print(f"assemble:                 {t1 - t0:7.2f} s")
    print(f"base distribution:        {t2 - t1:7.2f} s  (mean {mean(base):.1f}, "
          f"tail {base.tail_mass:.2e})")
    print(f"first double-default:     {t3 - t2:7.2f} s  (mean {mean(rep.conditional_pmf):.1f})")
    print(f"second double-default:    {t4 - t3:7.2f} s  (mean {mean(rep2.conditional_pmf):.1f})")
    print(f"write-off o0:             {t5 - t4:7.2f} s  (mean {mean(rep3.conditional_pmf):.1f})")

    mc_mean, mc_se = sim.loss_mean()
    z = (mc_mean - mean(base)) / mc_se
    print(f"MC mean vs base mean:     z = {z:+.2f}")
    if abs(z) > MAX_Z:
        print(f"error: the simulated mean loss {mc_mean:.3f} is {z:+.2f} standard errors "
              f"from the base mean {mean(base):.3f} (bound {MAX_Z:g})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
