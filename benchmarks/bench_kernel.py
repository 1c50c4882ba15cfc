"""Matching-kernel benchmark: SoA vs object engine (``make bench-kernel``).

Two measurements, both seeded:

* **kernel duel** — one mid-size monolithic scenario (12k UEs, 200 BSs
  by default) matched by both kernels on the same network and radio
  map.  The assignments must be **bit-identical** (grants tuple, cloud
  set, rounds — the SoA parity contract), and the SoA kernel must beat
  the object engine by at least ``BENCH_KERNEL_MIN_SPEEDUP``.
* **headline** — the 100k-UE, 2500-BS scenario allocated by
  ``DMRAAllocator(kernel="soa")`` through
  :func:`~repro.sim.runner.run_allocation`: the allocation must finish
  under ``BENCH_KERNEL_MAX_MATCH_SECONDS`` (default 10) inside the
  peak-RSS cap, with every UE accounted for.

Emits ``BENCH_pr6.json`` at the repo root and exits non-zero on parity
drift, a missed floor/cap, or unaccounted UEs.

Knobs: ``BENCH_KERNEL_UES`` (duel population, default 12000),
``BENCH_KERNEL_MIN_SPEEDUP`` (default 3.0; relaxed in CI),
``BENCH_KERNEL_HEADLINE_UES`` (default 100000),
``BENCH_KERNEL_REPEATS`` (duel best-of, default 3),
``BENCH_KERNEL_MAX_MATCH_SECONDS`` (default 10; relaxed in CI),
``BENCH_KERNEL_MAX_RSS_MB`` (default 1024).
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

from repro.core.dmra import DMRAAllocator, DMRAPolicy
from repro.core.soa import make_matching_engine
from repro.sim.config import ScenarioConfig
from repro.sim.runner import run_allocation
from repro.sim.scenario import build_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_pr6.json"

# Mid-size monolithic duel: big enough that the round loop dominates,
# small enough to keep the object engine's run in seconds.
DUEL_CONFIG = ScenarioConfig.paper(region_side_m=5000.0, bs_per_sp=40)
DUEL_SEED = 2

# The 100k-UE headline deployment (15 km side, 50 x 50 BS grid).
SCALE_CONFIG = ScenarioConfig.paper(region_side_m=15000.0, bs_per_sp=500)
SCALE_SEED = 1


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


def _duel(ue_count: int, repeats: int, failures: list[str]) -> dict:
    scenario = build_scenario(DUEL_CONFIG, ue_count, DUEL_SEED)
    times = {}
    runs = {}
    for kernel in ("object", "soa"):
        engine = make_matching_engine(
            DMRAPolicy(pricing=scenario.pricing, rho=DUEL_CONFIG.rho),
            kernel=kernel,
        )
        # Best-of-N: the runs are deterministic, so the minimum is the
        # least-noise measurement (same convention as bench_smoke).
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            runs[kernel] = engine.run(scenario.network, scenario.radio_map)
            best = min(best, time.perf_counter() - start)
        times[kernel] = best
        print(
            f"duel  kernel={kernel:6s}  match={times[kernel]:6.2f}s  "
            f"grants={len(runs[kernel].grants)}  "
            f"rounds={runs[kernel].rounds}"
        )
    if runs["soa"].grants != runs["object"].grants:
        failures.append("duel: SoA grants differ from object engine")
    if runs["soa"].cloud_ue_ids != runs["object"].cloud_ue_ids:
        failures.append("duel: SoA cloud set differs from object engine")
    if runs["soa"].rounds != runs["object"].rounds:
        failures.append("duel: SoA round count differs from object engine")
    speedup = times["object"] / times["soa"] if times["soa"] > 0 else 0.0
    return {
        "ues": ue_count,
        "seed": DUEL_SEED,
        "bs_count": 200,
        "object_s": round(times["object"], 3),
        "soa_s": round(times["soa"], 3),
        "speedup": round(speedup, 2),
        "grants": len(runs["soa"].grants),
        "rounds": runs["soa"].rounds,
    }


def main() -> int:
    duel_ues = _env_int("BENCH_KERNEL_UES", 12_000)
    duel_repeats = _env_int("BENCH_KERNEL_REPEATS", 3)
    min_speedup = _env_float("BENCH_KERNEL_MIN_SPEEDUP", 3.0)
    headline_ues = _env_int("BENCH_KERNEL_HEADLINE_UES", 100_000)
    max_match_s = _env_float("BENCH_KERNEL_MAX_MATCH_SECONDS", 10.0)
    max_rss_mb = _env_float("BENCH_KERNEL_MAX_RSS_MB", 1024.0)

    failures: list[str] = []

    duel = _duel(duel_ues, duel_repeats, failures)
    if duel["speedup"] < min_speedup:
        failures.append(
            f"duel: speedup {duel['speedup']:.2f}x < "
            f"{min_speedup:.2f}x floor"
        )

    # --- headline: 100k UEs, one monolithic SoA allocation ------------
    scenario = build_scenario(SCALE_CONFIG, headline_ues, SCALE_SEED)
    outcome = run_allocation(
        scenario,
        DMRAAllocator(
            pricing=scenario.pricing, rho=SCALE_CONFIG.rho, kernel="soa"
        ),
    )
    peak_rss = _peak_rss_mb()
    headline = {
        "ues": headline_ues,
        "match_s": round(outcome.wall_time_s, 3),
        "total_profit": round(outcome.metrics.total_profit, 2),
        "edge_served": outcome.metrics.edge_served,
        "cloud_forwarded": outcome.metrics.cloud_forwarded,
        "rounds": outcome.metrics.rounds,
        "peak_rss_mb": round(peak_rss, 1),
    }
    print(
        f"headline  match={headline['match_s']:.2f}s  "
        f"peak_rss={peak_rss:.0f}MB  "
        f"profit={headline['total_profit']:.2f}"
    )

    accounted = outcome.metrics.edge_served + outcome.metrics.cloud_forwarded
    if accounted != headline_ues:
        failures.append(
            f"headline: {accounted} UEs accounted != {headline_ues}"
        )
    if outcome.wall_time_s > max_match_s:
        failures.append(
            f"headline: match {outcome.wall_time_s:.1f}s > "
            f"{max_match_s:.0f}s cap"
        )
    if peak_rss > max_rss_mb:
        failures.append(
            f"headline: peak RSS {peak_rss:.0f}MB > {max_rss_mb:.0f}MB cap"
        )

    report = {
        "bench": "kernel",
        "caps": {
            "min_speedup": min_speedup,
            "max_match_seconds": max_match_s,
            "max_rss_mb": max_rss_mb,
        },
        "duel": duel,
        "headline": headline,
        "failures": failures,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("kernel bench OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
