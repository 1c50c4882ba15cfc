# Convenience targets for the DMRA reproduction.

PYTHON ?= python

.PHONY: install test bench metrics-baseline metrics-baseline-grid gap-baseline bench-paper figures extensions examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

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
