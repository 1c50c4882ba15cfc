# Convenience targets for the DMRA reproduction.

PYTHON ?= python

.PHONY: install test bench bench-smoke bench-kernel bench-stream bench-bound metrics-baseline metrics-baseline-grid gap-baseline bench-paper figures extensions examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Seeded smoke bench: times a 2000-UE DMRA allocation (optimized vs
# reference engine), scalar-vs-vectorized radio-map construction at
# 2000 UEs, a workers=1-vs-4 sweep, incremental-vs-full mobility
# epochs on both sides of the displaced-fraction crossover, and
# telemetry overhead (null/recorded spans, recorded-vs-disabled engine
# runs, interleaved); writes BENCH_pr4.json and fails on parity drift
# or measurements outside the floors/ceilings (see bench_smoke.py).
bench-smoke:
	bash -c 'time $(PYTHON) benchmarks/bench_smoke.py'

# Kernel bench: SoA vs object matching kernel on one mid-size
# monolithic scenario (bit-parity + BENCH_KERNEL_MIN_SPEEDUP floor),
# plus the 100k-UE headline allocated on the SoA kernel (allocation
# wall cap, peak-RSS cap); writes BENCH_pr6.json (knobs via
# BENCH_KERNEL_*, see benchmarks/bench_kernel.py).
bench-kernel:
	bash -c 'time $(PYTHON) benchmarks/bench_kernel.py'

# Streaming bench: sustained events/sec over steady churn through the
# event-driven engine, with two in-bench equivalence gates pinning the
# incremental engine to a from-scratch re-solve of the same event tape
# (bit-identical digest on a saturated small scenario; tolerance-
# diffed metrics documents at scale) plus an events/sec floor, a peak-
# RSS cap, and a rolling-population >= 10x active-set check; writes
# BENCH_pr7.json (caps/knobs via BENCH_STREAM_*, see
# benchmarks/bench_stream.py and docs/streaming.md).
bench-stream:
	bash -c 'time $(PYTHON) benchmarks/bench_stream.py'

# Bound bench: certify the optimality gap of the 100k-UE / 2500-BS
# DMRA allocation with the Lagrangian upper bound (a scale where the exact
# ILP refuses), gate the certified gap, the bound-phase wall/RSS, and
# Lagrangian-vs-LP tightness at 600 UEs; writes BENCH_pr10.json
# (caps/knobs via BENCH_BOUND_*, see benchmarks/bench_bound.py and
# docs/bounds.md).
bench-bound:
	bash -c 'time $(PYTHON) benchmarks/bench_bound.py'

# Regenerate the committed metrics baseline the CI regression gate
# diffs against.  Do this only when a PR deliberately changes domain
# behaviour; commit the result together with the change.
metrics-baseline:
	$(PYTHON) -m repro run --ues 300 --seed 3 \
		--metrics benchmarks/results/baseline_metrics.json

# The 400-BS / 20k-UE scale gate: the metrics gate at 400 BSs x 20000
# UEs.
metrics-baseline-grid:
	$(PYTHON) -m repro run --ues 20000 --region-m 6000 --bs-per-sp 80 \
		--seed 3 --metrics benchmarks/results/baseline_metrics_grid.json

# Regenerate the committed gap baseline the gap-gate CI job diffs
# against (certified gap + bound values + strategic-baseline profits
# on the contention scenario).  Regenerate only when a PR deliberately
# changes allocation or bound behaviour; commit with the change.
gap-baseline:
	$(PYTHON) -m repro bound --ues 600 --seed 3 --method both \
		--baselines auction best-response potential-game \
		--metrics benchmarks/results/baseline_gap_metrics.json

bench-paper:
	BENCH_SCALE=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only

figures:
	$(PYTHON) -m repro figure all --scale paper --out results/

extensions:
	$(PYTHON) -m repro figure extensions --scale paper --out results/

examples:
	for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/results/reduced
	find . -name __pycache__ -type d -exec rm -rf {} +
