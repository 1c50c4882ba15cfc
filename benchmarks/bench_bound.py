"""Optimality-gap certification benchmark (``make bench-bound``).

Three measurements, all seeded:

* **headline** — certify the gap of the monolithic DMRA allocation of
  a 100k-UE / 2500-BS scenario with the Lagrangian upper bound.
  The exact ILP refuses this instance by design (the variable guard
  trips at ~850k candidate links); the whole point of
  :mod:`repro.bound` is that certification keeps working there.  The
  bound phase (problem compile + subgradient iterations) must finish
  inside a wall-clock and RSS envelope, and the certified gap must
  stay under a ceiling.
* **tightness** — at 600 UEs both bound methods run; the Lagrangian
  must land within a relative tolerance of the LP value (per-UE
  integrality means the dual optimum *is* the LP optimum, so a loose
  Lagrangian is a solver bug, not a model property).
* **refusal** — the exact ILP must still refuse the headline instance
  with its guard message.  If it ever stops refusing, the guard
  changed and this bench should be revisited.

Emits ``BENCH_pr10.json`` at the repo root and exits non-zero when:

* the headline bound phase exceeds ``BENCH_BOUND_MAX_SECONDS``
  (default 60) or peak RSS exceeds ``BENCH_BOUND_MAX_RSS_MB``
  (default 2048);
* the certified headline gap exceeds ``BENCH_BOUND_MAX_GAP``
  (default 0.10; measured ~0.031);
* the 600-UE Lagrangian deviates from the LP value by more than
  ``BENCH_BOUND_MAX_LP_DEVIATION`` (default 0.001);
* the ILP does not refuse the headline instance.

Knobs: ``BENCH_BOUND_UES`` (headline population, default 100000),
``BENCH_BOUND_ITERATIONS`` (subgradient budget, default 150).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

# Runnable straight from a checkout without an editable install.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.baselines.optimal import OptimalILPAllocator
from repro.bound import (
    certify_gap,
    compile_bound_problem,
    lagrangian_bound,
    lp_bound,
)
from repro.core.dmra import DMRAAllocator
from repro.errors import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.sim.runner import run_allocation
from repro.sim.scenario import build_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_pr10.json"

# The 100k-UE headline deployment: 15 km side, 300 m BS grid pitch,
# 2500 BSs.
CONFIG = ScenarioConfig.paper(region_side_m=15000.0, bs_per_sp=500)
SEED = 1


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, default))
    except ValueError:
        return default


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def main() -> int:
    headline_ues = _env_int("BENCH_BOUND_UES", 100_000)
    iterations = _env_int("BENCH_BOUND_ITERATIONS", 150)
    max_seconds = _env_float("BENCH_BOUND_MAX_SECONDS", 60.0)
    max_rss_mb = _env_float("BENCH_BOUND_MAX_RSS_MB", 2048.0)
    max_gap = _env_float("BENCH_BOUND_MAX_GAP", 0.10)
    max_lp_dev = _env_float("BENCH_BOUND_MAX_LP_DEVIATION", 0.001)

    failures: list[str] = []

    # --- tightness: Lagrangian vs LP at paper scale ------------------
    paper = build_scenario(ScenarioConfig.paper(), 600, 3)
    incumbent = run_allocation(
        paper, DMRAAllocator(pricing=paper.pricing)
    ).metrics.total_profit
    lp = lp_bound(paper.network, paper.radio_map, paper.pricing)
    lag = lagrangian_bound(
        compile_bound_problem(paper.network, paper.radio_map, paper.pricing),
        max_iterations=400,
        target=incumbent,
    ).upper_bound
    lp_deviation = abs(lag - lp) / max(abs(lp), 1.0)
    tightness = {
        "ues": 600,
        "seed": 3,
        "incumbent_profit": round(incumbent, 2),
        "lp_bound": round(lp, 2),
        "lagrangian_bound": round(lag, 2),
        "deviation": round(lp_deviation, 6),
    }
    print(
        f"tightness  lp={lp:.1f}  lagrangian={lag:.1f}  "
        f"deviation={lp_deviation:.2e}"
    )
    if lag < lp - 1e-6 * max(1.0, abs(lp)):
        failures.append(
            f"tightness: lagrangian {lag:.2f} below LP {lp:.2f} "
            f"(weak duality violated — solver bug)"
        )
    if lp_deviation > max_lp_dev:
        failures.append(
            f"tightness: |lagrangian - lp|/lp {lp_deviation:.2e} > "
            f"{max_lp_dev}"
        )

    # --- headline: certify a 100k-UE monolithic allocation ------------
    scenario = build_scenario(CONFIG, headline_ues, SEED)
    incumbent_outcome = run_allocation(
        scenario,
        DMRAAllocator(pricing=scenario.pricing, rho=CONFIG.rho, kernel="soa"),
    )
    headline_profit = incumbent_outcome.metrics.total_profit
    print(
        f"incumbent  ues={headline_ues}  "
        f"wall={incumbent_outcome.wall_time_s:.1f}s  "
        f"profit={headline_profit:.0f}"
    )

    bound_start = time.perf_counter()
    certificate = certify_gap(
        scenario.network,
        scenario.radio_map,
        scenario.pricing,
        incumbent_profit=headline_profit,
        method="lagrangian",
        max_iterations=iterations,
    )
    bound_wall = time.perf_counter() - bound_start
    peak_rss = _peak_rss_mb()
    problem = compile_bound_problem(
        scenario.network, scenario.radio_map, scenario.pricing
    )
    headline = {
        "ues": headline_ues,
        "bs_count": 2500,
        "candidate_pairs": problem.n_pairs,
        "problem_mb": round(problem.estimated_bytes() / 1e6, 1),
        "incumbent_profit": round(headline_profit, 2),
        "upper_bound": round(certificate.upper_bound, 2),
        "gap_fraction": round(certificate.gap_fraction, 6),
        "iterations": certificate.iterations,
        "bound_wall_s": round(bound_wall, 3),
        "peak_rss_mb": round(peak_rss, 1),
    }
    print(
        f"headline  pairs={problem.n_pairs}  "
        f"bound_wall={bound_wall:.2f}s  "
        f"gap={certificate.gap_fraction * 100:.2f}%  "
        f"peak_rss={peak_rss:.0f}MB"
    )
    if bound_wall > max_seconds:
        failures.append(
            f"headline: bound wall {bound_wall:.1f}s > {max_seconds:.0f}s"
        )
    if peak_rss > max_rss_mb:
        failures.append(
            f"headline: peak RSS {peak_rss:.0f}MB > {max_rss_mb:.0f}MB"
        )
    if certificate.gap_fraction > max_gap:
        failures.append(
            f"headline: certified gap {certificate.gap_fraction:.4f} > "
            f"{max_gap}"
        )

    # --- refusal: the exact ILP must not handle this instance --------
    ilp_refused = False
    guard_message = ""
    try:
        OptimalILPAllocator(pricing=scenario.pricing).allocate(
            scenario.network, scenario.radio_map
        )
    except ConfigurationError as error:
        ilp_refused = True
        guard_message = str(error)
    if not ilp_refused:
        failures.append(
            "refusal: OptimalILPAllocator accepted the headline instance"
        )
    print(f"refusal   ilp_refused={ilp_refused}")

    report = {
        "bench": "bound",
        "seed": SEED,
        "scenario": {
            "region_side_m": 15000.0,
            "bs_per_sp": 500,
            "bs_count": 2500,
        },
        "caps": {
            "max_seconds": max_seconds,
            "max_rss_mb": max_rss_mb,
            "max_gap": max_gap,
            "max_lp_deviation": max_lp_dev,
        },
        "tightness": tightness,
        "headline": headline,
        "ilp_guard_message": guard_message,
        "failures": failures,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
