"""The traced run: layer spans around public calls, and self-time split.

A traced unit installs a :class:`repro.obs.Recorder` and wraps a
workload's public callees (module functions or class methods) in spans
named after the layer they belong to.  The program's own spans
(``match``, ``match.round``, ``radio.build``) nest under those wrappers.

Self time follows :func:`repro.obs.render_top_spans`: a span's duration
minus the durations of its direct children.  Every span is charged to
one layer -- its own when the benchmark named it, otherwise the layer of
the benchmark span that encloses it -- so the layer self times of one
op plus the root's own self time (the unattributed residual) add up to
the op's traced duration.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable

#: Benchmark span name -> the layer its self time is charged to.
LAYER_OF_SPAN = {
    "bench.op": "bench.residual",
    "sim.scenario": "sim.scenario.entities",
    "model.network": "model.network",
    "radio": "radio.build",
    "core.soa": "core.soa.compile",
    "core.match.object": "core.match.object",
    "core.assignment.validate": "core.assignment.validate",
    "sim.metrics": "sim.metrics.accounting",
    "econ.accounting": "econ.accounting",
    "bound.compile": "bound.compile",
    "bound.iterate": "bound.iterate",
    "model.batchnet": "model.batchnet.network_for",
    "stream.dispatch": "stream.dispatch",
    "stream.flush": "stream.index",
}

#: Program spans below a benchmark span inherit its layer, except that
#: the SoA kernel's own ``match`` spans are its rounds: what remains of
#: ``SoAMatchingEngine.run`` outside them is the CSR compile.
INNER_LAYER = {"core.soa.compile": "core.soa.rounds"}

#: Every layer a self time can land in, in report order.
LAYERS = tuple(dict.fromkeys(
    list(LAYER_OF_SPAN.values()) + list(INNER_LAYER.values())
))


class Patch:
    """Wrap ``owner.attr`` in a span named ``span`` while a unit is traced.

    ``annotate(result, args, kwargs)`` returns extra span attributes.
    """

    def __init__(
        self,
        owner,
        attr: str,
        span: str,
        annotate: Callable[..., dict] | None = None,
    ) -> None:
        self.owner = owner
        self.attr = attr
        self.span = span
        self.annotate = annotate

    def install(self, recorder) -> Callable[[], None]:
        original = getattr(self.owner, self.attr)
        name, annotate = self.span, self.annotate

        def wrapper(*args, **kwargs):
            with recorder.span(name) as span:
                result = original(*args, **kwargs)
                if annotate is not None:
                    span.set(**annotate(result, args, kwargs))
            return result

        setattr(self.owner, self.attr, wrapper)
        return lambda: setattr(self.owner, self.attr, original)


@contextmanager
def traced(patches: Iterable[Patch], meta: dict | None = None):
    """Install a fresh recorder and the patches; yield the recorder."""
    from repro.obs import Recorder, set_telemetry

    recorder = Recorder(meta=meta)
    previous = set_telemetry(recorder)
    undo = [patch.install(recorder) for patch in patches]
    try:
        yield recorder
    finally:
        for restore in reversed(undo):
            restore()
        set_telemetry(previous)


def self_times(root) -> tuple[dict[str, float], float]:
    """``({layer: self seconds}, root duration)`` for one op's span tree."""
    out: dict[str, float] = defaultdict(float)

    def visit(span, enclosing: str) -> None:
        layer = LAYER_OF_SPAN.get(span.name)
        if layer is None:
            layer = INNER_LAYER.get(enclosing, enclosing)
        child_s = sum(child.duration_s for child in span.children)
        out[layer] += max(span.duration_s - child_s, 0.0)
        for child in span.children:
            visit(child, layer)

    visit(root, "bench.residual")
    return dict(out), root.duration_s


def unit_counts(recorder) -> dict[str, int]:
    """Exact work counts over every span a traced unit recorded."""
    counts: dict[str, int] = defaultdict(int)

    def visit(span, engine: str | None) -> None:
        name, attrs = span.name, span.attrs
        if name in ("core.soa", "core.match.object"):
            engine = name
            counts[f"{name}.calls"] += 1
        elif name == "match" and engine is not None:
            counts[f"{engine}.rounds"] += attrs.get("rounds", 0)
        elif name == "match.round" and engine is not None:
            counts[f"{engine}.proposals"] += attrs.get("proposals", 0)
            counts[f"{engine}.accepted"] += attrs.get("accepted", 0)
            counts[f"{engine}.evictions"] += attrs.get("evictions", 0)
        elif name == "radio":
            counts["radio.calls"] += 1
            counts["radio.links"] += attrs["links"]
        elif name == "model.batchnet":
            counts["model.batchnet.calls"] += 1
        elif name == "stream.flush":
            counts["stream.flushes"] += 1
        elif name == "bound.compile":
            counts["bound.pairs"] += attrs["pairs"]
        elif name == "bound.iterate":
            counts["bound.iterations"] += attrs["iterations"]
            counts["bound.converged"] += attrs["converged"]
        if "reproposed" in attrs:
            counts["stream.reproposed"] += attrs["reproposed"]
            counts["stream.batch_ues"] += attrs["ues"]
        for child in span.children:
            visit(child, engine)

    for root in recorder.roots:
        visit(root, None)
    return dict(counts)
