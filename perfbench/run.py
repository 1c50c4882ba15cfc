"""The repository benchmark: one workload per process, on one thread.

Run from the root of a checkout::

    python3 perfbench/run.py --workload static-100k --seed 1 --seconds 15 --trace 0

Workloads (see ``NOTES.md`` for why each exists): ``static-100k``,
``certify-100k``, ``stream-saturated``.  The run sets up (imports, inputs,
one untimed warm-up op; repeated, median reported), then runs whole
units of ops until ``--seconds`` are used, checking every op's output.

``--trace 0`` reports the end-to-end metrics: ``setup_s``,
``peak_rss_mb`` and ``op_p50_ms``.  The two timings are in reference
seconds: each timed step's wall time scaled by the speed probe
(``probe.py``) sampled right before and after it, so that the host's
drift in speed does not read as a change in the program.  The record
keeps the wall times.  ``--trace 1`` alternates traced and
untraced units and reports the per-layer split of the traced ops
(``layers.py``), the untraced ``op_p99_ms`` and ``ops_per_s`` and the
workload facts (gap, blocking), and writes the ``dmra.trace`` file
``perfbench/out/<workload>.trace.jsonl``.

Every run writes its run record (machine, versions, commit, ``src/``
size, exact counts, digest) to ``perfbench/out/`` and prints it on the
line before the result.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One thread: no BLAS or OpenMP pool may start under numpy.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1

clock = time.perf_counter


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without a subprocess."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record() -> dict:
    """Machine, toolchain and code-size facts every result carries."""
    import numpy as np

    meminfo = Path("/proc/meminfo").read_text().split()
    mem_kb = int(meminfo[meminfo.index("MemTotal:") + 1])
    status = Path("/proc/self/status").read_text().split()
    src_lines = sum(
        len(path.read_bytes().splitlines())
        for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "memory_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "src_lines": src_lines,
        "threads": int(status[status.index("Threads:") + 1]),
    }


class Run:
    """Measures one workload and checks that its outputs repeat."""

    def __init__(self, workload, seconds: float, trace: bool, probe) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: tuple | None = None
        self.trace_reference: dict | None = None
        self.units: list = []  # (unit, recorder or None)
        self.scales: list[float] = []  # per unit: the probe's scale around it

    def expect(self, unit, counts: dict | None = None) -> None:
        """The unit repeats the run's first outcome (and its counts)."""
        from workloads import CheckFailed

        key = (unit.digest, unit.counts)
        if self.reference is None:
            self.reference = key
        elif key != self.reference:
            raise CheckFailed(f"outcome differs from the first unit: {key}")
        if counts is not None:
            if self.trace_reference is None:
                self.trace_reference = counts
            elif counts != self.trace_reference:
                raise CheckFailed(f"counts differ from the first unit: {counts}")

    def set_up(self, import_s: float) -> tuple[float, float, list[float]]:
        """Set up ``setup_repeats`` times after the imports.

        Returns the set-up time (imports plus the median set-up) in wall
        and in reference seconds, and each set-up's wall seconds.
        """
        times, scaled = [], []
        self.probe.sample(4)
        import_scale = self.probe.scale()
        for _ in range(self.workload.setup_repeats):
            gc.collect()
            mark = len(self.probe)
            start = clock()
            warm = self.workload.set_up()
            times.append(clock() - start)
            scaled.append(times[-1] * self.probe.around(mark, 2))
            if warm is not None:
                self.expect(warm)
        return (
            import_s + statistics.median(times),
            import_s * import_scale + statistics.median(scaled),
            times,
        )

    def measure(self) -> None:
        from layers import traced, unit_counts
        from workloads import CheckFailed, OpsFailed

        patches = self.workload.patches() if self.trace else []
        started = clock()
        walls: list[float] = []
        index = 0
        min_units = 3 if self.trace else self.workload.min_units
        while index < min_units or (
            clock() - started + 0.5 * statistics.median(walls) < self.seconds
        ):
            gc.collect()
            is_traced = self.trace and index % 2 == 0
            index += 1
            mark = len(self.probe)
            t0 = clock()
            rec = unit = None
            try:
                if is_traced:
                    with traced(patches, {"workload": self.workload.name}) as rec:
                        unit = self.workload.unit(rec)
                else:
                    unit = self.workload.unit()
            except OpsFailed as exc:
                self.attempted += exc.attempted
                self.failed += exc.attempted
                self.errors.append(repr(exc))
            walls.append(clock() - t0)
            scale = self.probe.around(mark, 3)
            if unit is not None:
                self.attempted += len(unit.latencies)
                try:
                    self.expect(unit, None if rec is None else unit_counts(rec))
                except CheckFailed as exc:
                    self.failed += len(unit.latencies)
                    self.errors.append(repr(exc))
                else:
                    self.units.append((unit, rec))
                    self.scales.append(scale)
            if len(self.errors) >= 3:
                break

    def check_expected(self, seed: int) -> None:
        """At a pinned seed, outcomes must match the recorded ones."""
        expected = json.loads((HERE / "expected.json").read_text())
        pinned = expected.get(self.workload.name, {}).get(str(seed))
        if pinned is None or self.reference is None:
            return
        observed = {
            "digest": self.reference[0], "counts": self.reference[1],
        }
        if self.trace_reference is not None:
            observed["trace_counts"] = self.trace_reference
        wrong = sorted(k for k in observed if observed[k] != pinned.get(k))
        if wrong:
            self.errors.append(f"differs from expected.json in {wrong}")
            self.failed = self.attempted

    def untraced_latencies(self, scaled: bool = False) -> list[float]:
        """Untraced op latencies: wall, or reference seconds if ``scaled``."""
        return [
            t * (scale if scaled else 1.0)
            for (unit, rec), scale in zip(self.units, self.scales)
            if rec is None
            for t in unit.latencies
        ]


def end_to_end(run: Run, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
        ),
        "op_p50_ms": (
            statistics.median(run.untraced_latencies(scaled=True)) * 1e3, "ms",
        ),
    }


#: Exact counts per traced unit -> per-layer count metrics.
_COUNT_METRICS = {
    "radio.links": "radio.links",
    "radio.calls": "radio.calls",
    "core.soa.rounds": "core.soa.rounds",
    "core.soa.proposals": "core.soa.proposals",
    "core.soa.evictions": "core.soa.evictions",
    "core.soa.calls": "core.soa.calls",
    "core.match.object.calls": "core.match.object_calls",
    "model.batchnet.calls": "model.batchnet.calls",
    "bound.pairs": "bound.pairs",
    "bound.iterations": "bound.iterations",
    "stream.flushes": "stream.flushes",
    "stream.batch_ues": "stream.batch_ues",
    "stream.reproposed": "stream.reproposed",
}


def per_layer(run: Run) -> tuple[dict, str]:
    """Per-op layer self times and counts over the traced units."""
    from layers import LAYERS, self_times, unit_counts
    from repro.obs import (
        Recorder, render_top_spans, trace_from_recorder, write_trace,
    )
    from workloads import CheckFailed

    layer_s = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, float] = {}
    op_s = 0.0
    ops = 0
    traced_latencies: list[float] = []
    info: dict[str, list[float]] = {}
    readmitted = 0
    merged = Recorder(meta={"workload": run.workload.name})
    for unit, rec in run.units:
        if rec is None:
            continue
        traced_latencies.extend(unit.latencies)
        readmitted += unit.counts.get("readmitted", 0)
        for key, value in unit.info.items():
            info.setdefault(key, []).append(value)
        for key, value in unit_counts(rec).items():
            counts[key] = counts.get(key, 0) + value
        for root in rec.roots:
            if root.name != "bench.op":
                continue
            split, duration = self_times(root)
            for layer, seconds in split.items():
                layer_s[layer] += seconds
            op_s += duration
            ops += 1
        merged.absorb(rec)
    if not ops:
        raise CheckFailed("no traced op completed")
    if abs(sum(layer_s.values()) - op_s) > 1e-9 * max(op_s, 1.0):
        raise CheckFailed("layer self times do not add up to the op time")

    metrics = {f"{layer}_ms": (s * 1e3 / ops, "ms") for layer, s in layer_s.items()}
    for key, name in _COUNT_METRICS.items():
        metrics[name] = (counts.get(key, 0) / ops, "count")
    proposals = counts.get("core.soa.proposals", 0)
    iterations = counts.get("bound.iterations", 0)
    reproposed = counts.get("stream.reproposed", 0)
    untraced = run.untraced_latencies()
    metrics.update({
        "bench.op_ms": (op_s * 1e3 / ops, "ms"),
        "op_p99_ms": (_percentile(untraced, 99) * 1e3, "ms"),
        "probe_ms": (run.probe.seconds() * 1e3, "ms"),
        "ops_per_s": (statistics.median(
            unit.ops_per_s for unit, rec in run.units if rec is None
        ), "1/s"),
        "core.soa.grant_ratio": (
            counts.get("core.soa.accepted", 0) / proposals if proposals else 0.0,
            "ratio",
        ),
        "bound.ms_per_iteration": (
            layer_s["bound.iterate"] * 1e3 / iterations if iterations else 0.0,
            "ms",
        ),
        "bound.converged": (counts.get("bound.converged", 0) / ops, "count"),
        "bound.gap_fraction": (
            statistics.median(info.get("gap_fraction", [0.0])), "ratio",
        ),
        "stream.readmit_ratio": (
            readmitted / reproposed if reproposed else 0.0, "ratio",
        ),
        "stream.blocking": (
            statistics.median(info.get("blocking", [0.0])), "ratio",
        ),
        "obs.trace_overhead": (
            statistics.median(traced_latencies) / statistics.median(untraced),
            "ratio",
        ),
    })
    write_trace(OUT / f"{run.workload.name}.trace.jsonl", merged)
    return metrics, render_top_spans(trace_from_recorder(merged), top=15)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    import_s = clock() - START
    from probe import Probe

    run = Run(workload, args.seconds, bool(args.trace), Probe())
    setup_wall_s, setup_s, setup_times = run.set_up(import_s)
    run.measure()
    run.check_expected(args.seed)
    if not run.units:
        print("every unit failed: " + "; ".join(run.errors), file=sys.stderr)
        return 1

    top_spans = ""
    if args.trace:
        from workloads import CheckFailed

        try:
            metrics, top_spans = per_layer(run)
        except CheckFailed as exc:
            run.errors.append(repr(exc))
            run.failed = run.attempted
            metrics = {}
    else:
        metrics = end_to_end(run, setup_s)

    record = run_record()
    if record["threads"] != 1:
        run.errors.append(f"{record['threads']} threads running")
        run.failed = run.attempted
    record.update({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "setup_wall_s": setup_wall_s,
        "op_p50_wall_ms": statistics.median(run.untraced_latencies()) * 1e3,
        "unit_p50_ms": [
            statistics.median(unit.latencies) * 1e3 for unit, _ in run.units
        ],
        "unit_scales": run.scales,
        "probe_s": run.probe.seconds(),
        "probe_interpreted_ms": [t * 1e3 for t in run.probe.interpreted],
        "probe_vectorised_ms": [t * 1e3 for t in run.probe.vectorised],
        "units": len(run.units),
        "op_samples": len(run.untraced_latencies()),
        "digest": run.reference[0] if run.reference else None,
        "counts": run.reference[1] if run.reference else None,
        "trace_counts": run.trace_reference,
        "info": [unit.info for unit, _ in run.units],
        "errors": run.errors,
    })
    result = {
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2) + "\n"
    )
    for error in run.errors:
        print(f"error: {error}", file=sys.stderr)
    if top_spans:
        print(top_spans, file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
