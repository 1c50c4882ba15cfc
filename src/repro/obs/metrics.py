"""Typed domain metrics: the ``dmra.metrics/1`` document.

The trace layer (:mod:`repro.obs.trace`) records *what happened*; this
module turns a run into *answers*: which SP earned what, which BS's
CRU/RRB pools saturated, how Alg. 1 converged, what the online
simulation's occupancy looked like.  Metrics live in a small typed
model —

* :class:`MetricSample` — one ``(labels, value)`` point;
* :class:`MetricFamily` — a named, typed (counter/gauge) set of
  samples with help text, Prometheus-style;
* :class:`MetricsDocument` — all families of one run plus its
  :mod:`manifest <repro.obs.manifest>` under the versioned schema
  ``dmra.metrics/1``

— derived from a live outcome (:func:`metrics_from_outcome`,
:func:`metrics_from_online`) or from a recorded ``dmra.trace/1`` file
(:func:`metrics_from_trace`), and exported two ways: a canonical JSON
document that round-trips exactly (``write -> parse -> re-emit`` is
byte-identical, like the trace format) and Prometheus text exposition
(:func:`prometheus_exposition`) for scrape endpoints and dashboards.

``dmra trace diff`` (:mod:`repro.obs.diff`) compares two of these
documents family by family.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.histogram import Histogram
from repro.obs.trace import Trace

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_V2",
    "MetricFamily",
    "MetricSample",
    "MetricsDocument",
    "histogram_family",
    "metrics_from_online",
    "metrics_from_outcome",
    "metrics_from_stream",
    "metrics_from_trace",
    "metrics_json",
    "parse_exposition",
    "parse_metrics",
    "prometheus_exposition",
    "read_metrics",
    "validate_histogram_family",
    "write_metrics",
]

#: Schema identifier; bump the suffix on any incompatible layout change.
METRICS_SCHEMA = "dmra.metrics/1"

#: The v2 schema adds the ``histogram`` family kind.  A document with
#: no histogram family serializes as v1 byte-identically to before, so
#: existing artifacts (notably the committed metrics-gate baseline)
#: stay valid; the reader accepts both.
METRICS_SCHEMA_V2 = "dmra.metrics/2"

_KNOWN_METRICS_SCHEMAS = (METRICS_SCHEMA, METRICS_SCHEMA_V2)

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_VALID_KINDS = ("counter", "gauge", "histogram")

#: Flat telemetry histogram prefixes that encode an entity id as their
#: last dot-segment; trace derivation folds them into one labeled
#: histogram family (e.g. ``dist.phase_wall_s.bcast`` becomes a
#: ``phase="bcast"`` label group of ``dmra_dist_phase_wall_s``).
_LABELED_HISTOGRAM_PREFIXES = {
    "stream.event_latency_s": "event",
    "dist.phase_wall_s": "phase",
    "dist.node_msgs": "phase",
}

#: Flat telemetry counter prefixes that encode an entity id as their
#: last dot-segment; trace derivation folds them into labeled families.
_LABELED_COUNTER_PREFIXES = {
    "online.sp_profit": "sp",
    "stream.sp_profit": "sp",
    "dist.messages": "kind",
    "dist.bytes": "kind",
    "dist.sp_requests": "sp",
    "dist.sp_grants": "sp",
    "dist.sp_retries": "sp",
    "dist.faults": "event",
}


@dataclass(frozen=True)
class MetricSample:
    """One measured point: a label set and a float value."""

    labels: tuple[tuple[str, str], ...]
    value: float

    @staticmethod
    def of(value: float, **labels: object) -> "MetricSample":
        """Build a sample with sorted, stringified labels."""
        return MetricSample(
            labels=tuple(sorted((k, str(v)) for k, v in labels.items())),
            value=float(value),
        )

    @property
    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)


@dataclass(frozen=True)
class MetricFamily:
    """A named set of samples sharing a type and meaning."""

    name: str
    kind: str
    help: str
    samples: tuple[MetricSample, ...]
    unit: str = ""

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ConfigurationError(
                f"invalid metric family name {self.name!r}"
            )
        if self.kind not in _VALID_KINDS:
            raise ConfigurationError(
                f"family {self.name}: kind must be one of {_VALID_KINDS}, "
                f"got {self.kind!r}"
            )

    def sample(self, **labels: object) -> float:
        """The value at an exact label set; raises when absent."""
        wanted = tuple(sorted((k, str(v)) for k, v in labels.items()))
        for sample in self.samples:
            if sample.labels == wanted:
                return sample.value
        raise ConfigurationError(
            f"family {self.name} has no sample with labels {dict(wanted)}"
        )


@dataclass(frozen=True)
class MetricsDocument:
    """Every metric family of one run, plus the run's manifest."""

    families: tuple[MetricFamily, ...]
    manifest: dict | None = None

    def family(self, name: str) -> MetricFamily:
        """The family with the given name; raises when absent."""
        for fam in self.families:
            if fam.name == name:
                return fam
        raise ConfigurationError(f"no metric family named {name!r}")

    def family_names(self) -> tuple[str, ...]:
        """All family names, in document order."""
        return tuple(fam.name for fam in self.families)

    def has_family(self, name: str) -> bool:
        """Whether a family with the given name exists."""
        return any(fam.name == name for fam in self.families)


# ----------------------------------------------------------------------
# Canonical JSON serialization (exact round-trip)
# ----------------------------------------------------------------------


def metrics_json(doc: MetricsDocument) -> str:
    """Serialize a document to its canonical JSON text.

    Families sort by name, samples by label set; keys sort and
    separators are compact, so the encoding is unique for a given
    document and ``metrics_json(parse_metrics(metrics_json(d)))``
    reproduces the text byte for byte.
    """
    schema = (
        METRICS_SCHEMA_V2
        if any(f.kind == "histogram" for f in doc.families)
        else METRICS_SCHEMA
    )
    payload = {
        "schema": schema,
        "manifest": doc.manifest,
        "families": [
            {
                "name": fam.name,
                "kind": fam.kind,
                "help": fam.help,
                "unit": fam.unit,
                "samples": [
                    {"labels": dict(sample.labels), "value": sample.value}
                    for sample in sorted(fam.samples, key=lambda s: s.labels)
                ],
            }
            for fam in sorted(doc.families, key=lambda f: f.name)
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def parse_metrics(text: str) -> MetricsDocument:
    """Parse canonical JSON text back into a :class:`MetricsDocument`.

    Raises :class:`ConfigurationError` on malformed JSON, a
    missing/unknown schema, invalid family kinds/names, or non-numeric
    sample values.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"metrics document: malformed JSON ({exc})"
        ) from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(
            "metrics document must be a JSON object"
        )
    schema = payload.get("schema")
    if schema not in _KNOWN_METRICS_SCHEMAS:
        raise ConfigurationError(
            f"unsupported metrics schema {schema!r}; this reader "
            f"understands "
            f"{', '.join(repr(s) for s in _KNOWN_METRICS_SCHEMAS)}"
        )
    families = []
    for raw in payload.get("families", []):
        try:
            samples = tuple(
                MetricSample(
                    labels=tuple(sorted(
                        (str(k), str(v))
                        for k, v in raw_sample["labels"].items()
                    )),
                    value=float(raw_sample["value"]),
                )
                for raw_sample in raw["samples"]
            )
            families.append(MetricFamily(
                name=raw["name"],
                kind=raw["kind"],
                help=raw.get("help", ""),
                unit=raw.get("unit", ""),
                samples=samples,
            ))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigurationError(
                f"metrics document: malformed family entry ({exc!r})"
            ) from exc
    manifest = payload.get("manifest")
    if manifest is not None and not isinstance(manifest, dict):
        raise ConfigurationError("metrics manifest must be an object")
    return MetricsDocument(families=tuple(families), manifest=manifest)


def write_metrics(path: str | Path, doc: MetricsDocument) -> Path:
    """Write a document as canonical JSON (one line, trailing newline)."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(metrics_json(doc) + "\n")
    return target


def read_metrics(path: str | Path) -> MetricsDocument:
    """Read and parse a metrics JSON file."""
    source = Path(path)
    try:
        text = source.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {source}: {exc}") from exc
    return parse_metrics(text)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help_text(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_sample(name: str, labels, value: float) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label_value(val)}"' for key, val in labels
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _le_sort_key(le: str) -> float:
    return float("inf") if le == "+Inf" else float(le)


def _histogram_groups(fam: MetricFamily) -> dict:
    """Histogram samples regrouped by their extra (non-le/stat) labels.

    Returns ``{extra_labels: {"buckets": [(le, value)...],
    "sum": float|None, "count": float|None}}`` with buckets sorted by
    numeric ``le`` (``+Inf`` last), groups sorted by label set.
    """
    groups: dict = {}
    for sample in fam.samples:
        labels = dict(sample.labels)
        le = labels.pop("le", None)
        stat = labels.pop("stat", None)
        extra = tuple(sorted(labels.items()))
        group = groups.setdefault(
            extra, {"buckets": [], "sum": None, "count": None}
        )
        if le is not None:
            group["buckets"].append((le, sample.value))
        elif stat in ("sum", "count"):
            group[stat] = sample.value
        else:
            raise ConfigurationError(
                f"histogram family {fam.name}: sample needs an 'le' "
                f"bucket label or stat=sum/count, got "
                f"{dict(sample.labels)}"
            )
    for group in groups.values():
        group["buckets"].sort(key=lambda b: _le_sort_key(b[0]))
    return dict(sorted(groups.items()))


def prometheus_exposition(doc: MetricsDocument) -> str:
    """Render a document in the Prometheus text exposition format.

    One ``# HELP`` / ``# TYPE`` pair per family (HELP first, escaped),
    then one line per sample with its sorted label set.  Histogram
    families render as the conventional ``<name>_bucket`` (cumulative,
    sorted by numeric ``le`` ending at ``+Inf``), ``<name>_sum``, and
    ``<name>_count`` series per label group.  Suitable for a textfile
    collector or a scrape endpoint; :func:`parse_exposition` reads it
    back.
    """
    lines: list[str] = []
    for fam in sorted(doc.families, key=lambda f: f.name):
        if fam.help:
            lines.append(
                f"# HELP {fam.name} {_escape_help_text(fam.help)}"
            )
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        if fam.kind == "histogram":
            for extra, group in _histogram_groups(fam).items():
                for le, value in group["buckets"]:
                    labels = tuple(sorted(extra + (("le", le),)))
                    lines.append(
                        _render_sample(f"{fam.name}_bucket", labels, value)
                    )
                if group["sum"] is not None:
                    lines.append(_render_sample(
                        f"{fam.name}_sum", extra, group["sum"]
                    ))
                if group["count"] is not None:
                    lines.append(_render_sample(
                        f"{fam.name}_count", extra, group["count"]
                    ))
            continue
        for sample in sorted(fam.samples, key=lambda s: s.labels):
            lines.append(
                _render_sample(fam.name, sample.labels, sample.value)
            )
    return "\n".join(lines) + ("\n" if lines else "")


_LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(,|$)'
)
_UNESCAPE = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}


def _unescape_label_value(value: str) -> str:
    return re.sub(
        r"\\.", lambda m: _UNESCAPE.get(m.group(0), m.group(0)), value
    )


def _parse_sample_line(raw: str, line_number: int) -> tuple[str, tuple, float]:
    """``name{k="v"} 1.5`` -> ``(name, ((k, v),), 1.5)``."""
    brace = raw.find("{")
    if brace == -1:
        try:
            name, value = raw.split()
        except ValueError:
            raise ConfigurationError(
                f"exposition line {line_number}: malformed sample {raw!r}"
            ) from None
        return name, (), float(value)
    name = raw[:brace]
    close = raw.rfind("}")
    if close == -1:
        raise ConfigurationError(
            f"exposition line {line_number}: unterminated label set"
        )
    label_text, value_text = raw[brace + 1:close], raw[close + 1:].strip()
    labels = []
    pos = 0
    while pos < len(label_text):
        match = _LABEL_RE.match(label_text, pos)
        if match is None:
            raise ConfigurationError(
                f"exposition line {line_number}: malformed label set "
                f"{label_text!r}"
            )
        labels.append((match.group(1), _unescape_label_value(match.group(2))))
        pos = match.end()
    try:
        value = float(value_text)
    except ValueError:
        raise ConfigurationError(
            f"exposition line {line_number}: non-numeric value "
            f"{value_text!r}"
        ) from None
    return name, tuple(sorted(labels)), value


def parse_exposition(text: str) -> MetricsDocument:
    """Parse Prometheus text exposition back into a document.

    The inverse of :func:`prometheus_exposition` for documents this
    module renders: HELP text is unescaped, histogram ``_bucket`` /
    ``_sum`` / ``_count`` series fold back into one ``histogram``
    family (buckets keep their ``le`` label; sum and count become
    ``stat``-labeled samples).  Units and the manifest do not survive
    the text format and come back empty/None.  Every sample must be
    covered by a preceding ``# TYPE`` declaration.
    """
    helps: dict[str, str] = {}
    kinds: dict[str, str] = {}
    samples: dict[str, list[MetricSample]] = {}
    order: list[str] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        if raw.startswith("# HELP "):
            name, _, help_text = raw[len("# HELP "):].partition(" ")
            helps[name] = _unescape_label_value(help_text)
            continue
        if raw.startswith("# TYPE "):
            name, _, kind = raw[len("# TYPE "):].partition(" ")
            kind = kind.strip()
            if kind not in _VALID_KINDS:
                raise ConfigurationError(
                    f"exposition line {line_number}: unsupported type "
                    f"{kind!r} for {name}"
                )
            kinds[name] = kind
            if name not in order:
                order.append(name)
            samples.setdefault(name, [])
            continue
        if raw.startswith("#"):
            continue  # comments
        name, labels, value = _parse_sample_line(raw, line_number)
        family = name
        if name not in kinds:
            for suffix, stat in (
                ("_bucket", None), ("_sum", "sum"), ("_count", "count"),
            ):
                base = name[: -len(suffix)] if name.endswith(suffix) else None
                if base and kinds.get(base) == "histogram":
                    family = base
                    if stat is not None:
                        labels = tuple(sorted(labels + (("stat", stat),)))
                    break
            else:
                raise ConfigurationError(
                    f"exposition line {line_number}: sample {name!r} has "
                    f"no # TYPE declaration"
                )
        samples.setdefault(family, []).append(
            MetricSample(labels=labels, value=value)
        )
    families = tuple(
        MetricFamily(
            name=name, kind=kinds[name], help=helps.get(name, ""),
            samples=tuple(samples.get(name, ())),
        )
        for name in order
    )
    return MetricsDocument(families=families, manifest=None)


# ----------------------------------------------------------------------
# Histogram families
# ----------------------------------------------------------------------


def _format_le(bound: float) -> str:
    return "+Inf" if bound == float("inf") else _format_value(bound)


def histogram_family(
    name: str,
    help: str,
    hists: Histogram | dict,
    unit: str = "",
) -> MetricFamily:
    """Build a ``histogram`` family from telemetry histograms.

    ``hists`` is either one unlabeled :class:`Histogram` or a mapping
    ``{(label_name, label_value): Histogram}`` — in practice callers
    pass ``{("phase", "bcast"): h, ...}``.  The family's samples are
    the cumulative ``le`` buckets (ending at ``+Inf`` == count) plus
    ``stat=sum`` / ``stat=count`` samples per label group, exactly the
    shape the text exposition renders as ``_bucket`` / ``_sum`` /
    ``_count``.
    """
    if isinstance(hists, Histogram):
        items: list[tuple[tuple, Histogram]] = [((), hists)]
    else:
        items = [((key,), h) for key, h in sorted(hists.items())]
    samples: list[MetricSample] = []
    for extra, hist in items:
        extra_labels = dict(extra)
        for bound, cumulative in hist.cumulative():
            samples.append(
                MetricSample.of(
                    cumulative, le=_format_le(bound), **extra_labels
                )
            )
        samples.append(MetricSample.of(hist.sum, stat="sum", **extra_labels))
        samples.append(
            MetricSample.of(hist.count, stat="count", **extra_labels)
        )
    return MetricFamily(
        name=name, kind="histogram", help=help,
        samples=tuple(samples), unit=unit,
    )


def validate_histogram_family(fam: MetricFamily) -> None:
    """Check the Prometheus histogram invariants; raises on violation.

    Per label group: buckets are cumulative (non-decreasing in ``le``
    order), a ``+Inf`` bucket exists and equals the ``stat=count``
    sample, both ``stat=sum`` and ``stat=count`` are present, and an
    empty histogram has zero sum.
    """
    if fam.kind != "histogram":
        raise ConfigurationError(
            f"family {fam.name} is {fam.kind!r}, not histogram"
        )
    groups = _histogram_groups(fam)
    if not groups:
        raise ConfigurationError(
            f"histogram family {fam.name} has no samples"
        )
    for extra, group in groups.items():
        where = f"{fam.name}{dict(extra) if extra else ''}"
        buckets = group["buckets"]
        if not buckets or buckets[-1][0] != "+Inf":
            raise ConfigurationError(
                f"{where}: missing +Inf bucket"
            )
        running = None
        for le, value in buckets:
            if running is not None and value < running:
                raise ConfigurationError(
                    f"{where}: bucket le={le} not cumulative "
                    f"({value} < {running})"
                )
            running = value
        if group["sum"] is None or group["count"] is None:
            raise ConfigurationError(
                f"{where}: missing stat=sum or stat=count sample"
            )
        if buckets[-1][1] != group["count"]:
            raise ConfigurationError(
                f"{where}: +Inf bucket ({buckets[-1][1]}) != count "
                f"({group['count']})"
            )
        if group["count"] == 0 and group["sum"] != 0:
            raise ConfigurationError(
                f"{where}: empty histogram with nonzero sum"
            )


# ----------------------------------------------------------------------
# Derivation: live allocation outcome
# ----------------------------------------------------------------------


@dataclass
class _Builder:
    """Accumulates families in derivation order, then freezes."""

    families: list[MetricFamily] = field(default_factory=list)

    def add(
        self,
        name: str,
        kind: str,
        help: str,
        samples: list[MetricSample],
        unit: str = "",
    ) -> None:
        self.families.append(MetricFamily(
            name=name, kind=kind, help=help,
            samples=tuple(samples), unit=unit,
        ))

    def scalar(self, name: str, kind: str, help: str, value: float,
               unit: str = "") -> None:
        self.add(name, kind, help, [MetricSample.of(value)], unit=unit)

    def document(self, manifest: dict | None) -> MetricsDocument:
        return MetricsDocument(
            families=tuple(
                sorted(self.families, key=lambda f: f.name)
            ),
            manifest=manifest,
        )


def metrics_from_outcome(
    network,
    assignment,
    pricing,
    manifest: dict | None = None,
    wall_time_s: float | None = None,
) -> MetricsDocument:
    """Derive the domain metrics of one static allocation.

    Covers the paper's reported quantities (per-SP profit and
    forwarded traffic — Figs. 2--7) plus the saturation picture: per-BS
    and per-service CRU/RRB utilization, edge/cloud split, and the
    Alg. 1 round count.
    """
    from repro.sim.metrics import (
        compute_metrics,
        per_bs_utilization,
        per_service_cru_utilization,
        per_sp_forwarded_traffic,
    )

    metrics = compute_metrics(network, assignment, pricing)
    build = _Builder()
    build.scalar(
        "dmra_total_profit", "gauge",
        "Total SP profit of the allocation (Def. 1 TPM objective)",
        metrics.total_profit,
    )
    build.add(
        "dmra_sp_profit", "gauge", "Per-SP profit",
        [
            MetricSample.of(profit, sp=sp_id)
            for sp_id, profit in sorted(metrics.profit_by_sp.items())
        ],
    )
    forwarded = per_sp_forwarded_traffic(network, assignment)
    build.add(
        "dmra_sp_forwarded_traffic_bps", "gauge",
        "Per-SP traffic forwarded to the remote cloud",
        [
            MetricSample.of(bps, sp=sp_id)
            for sp_id, bps in sorted(forwarded.items())
        ],
        unit="bps",
    )
    build.scalar(
        "dmra_edge_served", "gauge", "UEs served at the edge",
        metrics.edge_served,
    )
    build.scalar(
        "dmra_cloud_forwarded", "gauge", "UEs forwarded to the cloud",
        metrics.cloud_forwarded,
    )
    build.scalar(
        "dmra_forwarded_traffic_bps", "gauge",
        "Total traffic forwarded to the remote cloud",
        metrics.forwarded_traffic_bps, unit="bps",
    )
    build.scalar(
        "dmra_same_sp_fraction", "gauge",
        "Fraction of edge-served UEs on their subscribed SP's BSs",
        metrics.same_sp_fraction,
    )
    utilization = per_bs_utilization(network, assignment)
    build.add(
        "dmra_bs_cru_utilization", "gauge",
        "Per-BS CRU pool utilization",
        [
            MetricSample.of(cru, bs=bs_id)
            for bs_id, (cru, _rrb) in sorted(utilization.items())
        ],
    )
    build.add(
        "dmra_bs_rrb_utilization", "gauge",
        "Per-BS RRB pool utilization",
        [
            MetricSample.of(rrb, bs=bs_id)
            for bs_id, (_cru, rrb) in sorted(utilization.items())
        ],
    )
    build.add(
        "dmra_service_cru_utilization", "gauge",
        "Per-service CRU utilization across all hosting BSs",
        [
            MetricSample.of(util, service=service_id)
            for service_id, util in sorted(
                per_service_cru_utilization(network, assignment).items()
            )
        ],
    )
    build.scalar(
        "dmra_match_rounds", "gauge",
        "Productive Alg. 1 rounds until convergence",
        metrics.rounds,
    )
    if wall_time_s is not None:
        build.scalar(
            "dmra_wall_seconds", "gauge",
            "Allocator wall time (timing; ignored by diffs by default)",
            wall_time_s, unit="seconds",
        )
    return build.document(manifest)


# ----------------------------------------------------------------------
# Derivation: optimality-gap certificates (repro.bound)
# ----------------------------------------------------------------------


def metrics_from_certificates(
    certificates,
    baseline_profits: dict | None = None,
    manifest: dict | None = None,
) -> MetricsDocument:
    """Derive gap-certification families from :mod:`repro.bound` output.

    One sample per bound method (``lp`` / ``lagrangian``) for the upper
    bound, the certified gap fraction, and the iteration count; plus one
    sample per strategic baseline allocator's achieved profit.  These
    are the families the ``gap-gate`` CI job diffs against its committed
    baseline — a gap that widens is a solution-quality regression even
    when every unit test still passes.
    """
    certificates = list(certificates)
    if not certificates:
        raise ConfigurationError(
            "metrics_from_certificates needs at least one certificate"
        )
    build = _Builder()
    build.add(
        "dmra_bound_upper", "gauge",
        "Certified upper bound on the TPM objective (Def. 1), per method",
        [
            MetricSample.of(cert.upper_bound, method=cert.method)
            for cert in certificates
        ],
    )
    build.add(
        "dmra_gap_fraction", "gauge",
        "Certified optimality gap: (upper - incumbent) / upper, per method",
        [
            MetricSample.of(cert.gap_fraction, method=cert.method)
            for cert in certificates
        ],
    )
    build.add(
        "dmra_bound_iterations", "gauge",
        "Bound-solver iterations (subgradient steps; 1 for the LP)",
        [
            MetricSample.of(cert.iterations, method=cert.method)
            for cert in certificates
        ],
    )
    build.add(
        "dmra_bound_converged", "gauge",
        "Whether the bound solver converged (1) or hit its budget (0)",
        [
            MetricSample.of(1.0 if cert.converged else 0.0, method=cert.method)
            for cert in certificates
        ],
    )
    build.add(
        "dmra_wall_bound_seconds", "gauge",
        "Bound-solver wall time (timing; ignored by diffs by default)",
        [
            MetricSample.of(cert.wall_time_s, method=cert.method)
            for cert in certificates
        ],
        unit="seconds",
    )
    build.scalar(
        "dmra_incumbent_profit", "gauge",
        "The feasible profit the gap is certified against",
        certificates[0].incumbent_profit,
    )
    if baseline_profits:
        build.add(
            "dmra_baseline_profit", "gauge",
            "Achieved profit of each comparison allocator",
            [
                MetricSample.of(profit, allocator=name)
                for name, profit in sorted(baseline_profits.items())
            ],
        )
    return build.document(manifest)


# ----------------------------------------------------------------------
# Derivation: online simulation outcome
# ----------------------------------------------------------------------


def metrics_from_online(
    outcome, manifest: dict | None = None
) -> MetricsDocument:
    """Derive operator metrics from one online-simulation outcome.

    Blocking probability, profit throughput, per-SP admitted profit,
    and the occupancy series the load-aware evaluations plot:
    time-averaged and peak edge/cloud occupancy and RRB utilization.
    """
    build = _Builder()
    build.scalar(
        "dmra_online_arrivals_total", "counter", "Tasks that arrived",
        outcome.arrivals,
    )
    build.scalar(
        "dmra_online_admitted_edge_total", "counter",
        "Tasks admitted at the edge", outcome.admitted_edge,
    )
    build.scalar(
        "dmra_online_admitted_cloud_total", "counter",
        "Tasks the edge could not absorb", outcome.admitted_cloud,
    )
    build.scalar(
        "dmra_online_blocking_probability", "gauge",
        "Fraction of tasks forwarded to the cloud",
        outcome.blocking_probability,
    )
    build.scalar(
        "dmra_online_profit_rate_per_s", "gauge",
        "Admitted profit per simulated second",
        outcome.profit_rate_per_s,
    )
    build.add(
        "dmra_online_sp_profit", "gauge",
        "Per-SP admitted profit over the horizon",
        [
            MetricSample.of(profit, sp=sp_id)
            for sp_id, profit in sorted(outcome.profit_by_sp.items())
        ],
    )
    horizon = outcome.horizon_s
    for series, base, help_text in (
        (outcome.edge_active, "dmra_online_edge_active",
         "Concurrent edge-served tasks"),
        (outcome.cloud_active, "dmra_online_cloud_active",
         "Concurrent cloud-forwarded tasks"),
        (outcome.rrb_utilization, "dmra_online_rrb_utilization",
         "Aggregate RRB pool occupancy"),
    ):
        build.add(
            base, "gauge", f"{help_text} (occupancy series summary)",
            [
                MetricSample.of(series.time_average(horizon), stat="mean"),
                MetricSample.of(series.peak, stat="peak"),
                MetricSample.of(series.last_value, stat="last"),
            ],
        )
    return build.document(manifest)


# ----------------------------------------------------------------------
# Derivation: streaming replay outcome
# ----------------------------------------------------------------------


def metrics_from_stream(
    outcome, manifest: dict | None = None
) -> MetricsDocument:
    """Derive operator metrics from one streaming replay outcome.

    Every family here is an *outcome* fact — counters, profits,
    occupancy — that the equivalence invariant makes identical between
    the incremental engine and a from-scratch replay of the same tape,
    so ``dmra trace diff`` of two such documents must say OK.  The
    only quantity that depends on how the replay ran (wall-clock
    throughput) lives under the ``dmra_wall_`` prefix, which diffs
    ignore by default.
    """
    build = _Builder()
    build.scalar(
        "dmra_stream_events_total", "counter",
        "Tape events processed (arrivals + departures + moves)",
        outcome.events_processed,
    )
    build.scalar(
        "dmra_stream_arrivals_total", "counter", "Tasks that arrived",
        outcome.arrivals,
    )
    build.scalar(
        "dmra_stream_departures_total", "counter", "Tasks that departed",
        outcome.departures,
    )
    build.scalar(
        "dmra_stream_moves_total", "counter",
        "Mobility deltas applied", outcome.moves,
    )
    build.scalar(
        "dmra_stream_cancelled_total", "counter",
        "Arrivals departed before their first re-match",
        outcome.cancelled,
    )
    build.scalar(
        "dmra_stream_admitted_edge_total", "counter",
        "Tasks first admitted at the edge", outcome.admitted_edge,
    )
    build.scalar(
        "dmra_stream_admitted_cloud_total", "counter",
        "Tasks the edge could not absorb on arrival",
        outcome.admitted_cloud,
    )
    build.scalar(
        "dmra_stream_readmitted_total", "counter",
        "Cloud or displaced tasks later (re-)admitted to the edge",
        outcome.readmitted,
    )
    build.scalar(
        "dmra_stream_displaced_total", "counter",
        "Edge/cloud tasks displaced by a mobility delta",
        outcome.displaced,
    )
    build.scalar(
        "dmra_stream_blocking_probability", "gauge",
        "Fraction of admitted tasks forwarded to the cloud",
        outcome.blocking_probability,
    )
    build.scalar(
        "dmra_stream_profit_rate_per_s", "gauge",
        "Admitted profit per simulated second",
        outcome.profit_rate_per_s,
    )
    build.add(
        "dmra_stream_sp_profit", "gauge",
        "Per-SP admitted profit over the horizon",
        [
            MetricSample.of(profit, sp=sp_id)
            for sp_id, profit in sorted(outcome.profit_by_sp.items())
        ],
    )
    build.scalar(
        "dmra_stream_peak_edge_active", "gauge",
        "Peak concurrent edge-served tasks", outcome.peak_edge_active,
    )
    build.scalar(
        "dmra_stream_peak_active", "gauge",
        "Peak concurrent active tasks (edge + cloud)",
        outcome.peak_active,
    )
    horizon = outcome.horizon_s
    for series, base, help_text in (
        (outcome.edge_active, "dmra_stream_edge_active",
         "Concurrent edge-served tasks"),
        (outcome.cloud_active, "dmra_stream_cloud_active",
         "Concurrent cloud-forwarded tasks"),
        (outcome.rrb_utilization, "dmra_stream_rrb_utilization",
         "Aggregate RRB pool occupancy"),
    ):
        build.add(
            base, "gauge", f"{help_text} (occupancy series summary)",
            [
                MetricSample.of(series.time_average(horizon), stat="mean"),
                MetricSample.of(series.peak, stat="peak"),
                MetricSample.of(series.last_value, stat="last"),
            ],
        )
    # Wall-clock throughput depends on the host and the engine, so it
    # lives under the diff-ignored dmra_wall_ prefix.
    build.scalar(
        "dmra_wall_stream_events_per_s", "gauge",
        "Sustained events per wall second (timing; diffs ignore)",
        outcome.events_per_s,
    )
    return build.document(manifest)


# ----------------------------------------------------------------------
# Derivation: recorded trace
# ----------------------------------------------------------------------


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_]", cleaned[0]):
        cleaned = f"m_{cleaned}"
    return cleaned


def _split_labeled_counter(name: str) -> tuple[str, str, str] | None:
    """``online.sp_profit.3`` -> ``(online.sp_profit, sp, 3)``, or None."""
    prefix, _, tail = name.rpartition(".")
    label = _LABELED_COUNTER_PREFIXES.get(prefix)
    if label is not None and tail:
        return prefix, label, tail
    return None


def metrics_from_trace(
    trace: Trace, manifest: dict | None = None
) -> MetricsDocument:
    """Derive a metrics document from a recorded ``dmra.trace/1`` trace.

    * counters become ``*_total`` counter families (flat names with a
      trailing entity id — e.g. ``online.sp_profit.3`` — fold into one
      labeled family);
    * gauges become gauge families with ``stat`` label
      (last/min/max/samples);
    * timers become ``dmra_timer_seconds_total`` /
      ``dmra_timer_events_total`` (ignored by diffs by default —
      wall-clock does not transfer across runs);
    * ``match.round`` spans aggregate into per-round convergence series
      (proposals, acceptances, evictions, cloud fallbacks by round
      number), and ``match`` spans into the convergence-round
      distribution.

    ``manifest`` defaults to the one embedded in the trace header meta.
    """
    if manifest is None:
        embedded = trace.meta.get("manifest")
        manifest = embedded if isinstance(embedded, dict) else None
    build = _Builder()

    labeled: dict[str, list[MetricSample]] = {}
    for name in sorted(trace.counters):
        value = trace.counters[name]
        split = _split_labeled_counter(name)
        if split is not None:
            prefix, label, entity = split
            labeled.setdefault(prefix, []).append(
                MetricSample.of(value, **{label: entity})
            )
            continue
        build.scalar(
            f"dmra_{_sanitize(name)}_total", "counter",
            f"Telemetry counter {name}", value,
        )
    for prefix in sorted(labeled):
        build.add(
            f"dmra_{_sanitize(prefix)}_total", "counter",
            f"Telemetry counter family {prefix}.<id>", labeled[prefix],
        )

    for name in sorted(trace.gauges):
        stat = trace.gauges[name]
        build.add(
            f"dmra_{_sanitize(name)}", "gauge",
            f"Telemetry gauge {name}",
            [
                MetricSample.of(stat.value, stat="last"),
                MetricSample.of(stat.min, stat="min"),
                MetricSample.of(stat.max, stat="max"),
                MetricSample.of(stat.count, stat="samples"),
            ],
        )

    if trace.timers:
        build.add(
            "dmra_timer_seconds_total", "counter",
            "Total time in each telemetry timer (timing; diffs ignore)",
            [
                MetricSample.of(trace.timers[name].total_s, timer=name)
                for name in sorted(trace.timers)
            ],
            unit="seconds",
        )
        build.add(
            "dmra_timer_events_total", "counter",
            "Events measured by each telemetry timer",
            [
                MetricSample.of(trace.timers[name].count, timer=name)
                for name in sorted(trace.timers)
            ],
        )

    if trace.histograms:
        labeled_hists: dict[str, dict[tuple[str, str], Histogram]] = {}
        for name in sorted(trace.histograms):
            hist = trace.histograms[name]
            prefix, _, tail = name.rpartition(".")
            label = _LABELED_HISTOGRAM_PREFIXES.get(prefix)
            if label is not None and tail:
                labeled_hists.setdefault(prefix, {})[(label, tail)] = hist
                continue
            build.families.append(histogram_family(
                f"dmra_{_sanitize(name)}",
                f"Telemetry histogram {name}", hist,
            ))
        for prefix in sorted(labeled_hists):
            build.families.append(histogram_family(
                f"dmra_{_sanitize(prefix)}",
                f"Telemetry histogram family {prefix}.<id>",
                labeled_hists[prefix],
            ))

    round_fields = {
        "proposals": "dmra_match_round_proposals",
        "accepted": "dmra_match_round_accepted",
        "evictions": "dmra_match_round_evictions",
        "newly_cloud": "dmra_match_round_cloud_fallbacks",
        "fu_retired": "dmra_match_round_fu_retired",
    }
    per_round: dict[str, dict[int, float]] = {
        attr: {} for attr in round_fields
    }
    rounds_per_match: list[float] = []
    for span in trace.all_spans():
        if span.name == "match":
            rounds = span.attrs.get("rounds")
            if rounds is not None:
                rounds_per_match.append(float(rounds))
        elif span.name == "match.round":
            round_number = span.attrs.get("round")
            if round_number is None:
                continue
            for attr, series in per_round.items():
                value = span.attrs.get(attr)
                if value is not None:
                    series[int(round_number)] = (
                        series.get(int(round_number), 0.0) + value
                    )
    for attr, family_name in round_fields.items():
        series = per_round[attr]
        if series:
            build.add(
                family_name, "gauge",
                f"Alg. 1 {attr} by round number (summed over engine runs)",
                [
                    MetricSample.of(value, round=round_number)
                    for round_number, value in sorted(series.items())
                ],
            )
    if rounds_per_match:
        build.add(
            "dmra_match_convergence_rounds", "gauge",
            "Productive Alg. 1 rounds per engine run",
            [
                MetricSample.of(max(rounds_per_match), stat="max"),
                MetricSample.of(min(rounds_per_match), stat="min"),
                MetricSample.of(
                    sum(rounds_per_match) / len(rounds_per_match),
                    stat="mean",
                ),
                MetricSample.of(len(rounds_per_match), stat="runs"),
            ],
        )
    return build.document(manifest)
