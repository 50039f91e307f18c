"""Metrics derived from the trace: histograms, counters, gauges.

The span tracer's records are the run's only telemetry store; this
module reads the metrics off them.  :func:`derive_metrics` turns a
record list (plus, mid-run, the published
:class:`~repro.obs.trace.TraceSnapshot`) into metric families:

* log-bucketed :class:`Histogram` families binned from the finished
  spans that :data:`SPAN_HISTOGRAMS` maps (SAT-call latency,
  incremental-validation latency, candidate screen time, journal
  appends, ...) and from the ``nodes`` tag of ``bdd.session`` spans;
* one ``repro_counter_total{counter=...}`` family holding the run's
  ``RunCounters`` totals;
* point-in-time gauges: run progress and the stall verdict, live BDD
  nodes, the ``tracemalloc`` peak and the degradation flag.

:func:`render_prometheus` emits families in strict exposition format —
``# HELP``/``# TYPE`` for every family, histogram
``_bucket``/``_sum``/``_count`` series with cumulative counts and a
``+Inf`` bucket — and :func:`parse_prometheus_text` is the matching
strict parser (used by the conformance tests, the CI smoke job and the
``repro watch`` live dashboard).

A derivation reads finished records only and builds fresh families
each time, so nothing here is shared between threads and nothing needs
a lock.  Stdlib only.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.obs.sampler import NON_COUNTER_TAGS, SAMPLE_EVENT
from repro.obs.trace import TraceSnapshot

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Coerce ``name`` into a legal Prometheus metric name.

    Illegal characters (``.`` in phase names, ``-``, whitespace, ...)
    become ``_``; a leading digit is prefixed with ``_``.
    """
    cleaned = _METRIC_NAME_RE.sub("_", name) or "_"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def log_buckets(start: float, factor: float, count: int) -> List[float]:
    """Geometric bucket boundaries: ``start * factor**i``.

    The implicit ``+Inf`` bucket is not included — every histogram
    gets it for free at render time.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("log_buckets needs start>0, factor>1, count>=1")
    return [start * factor ** i for i in range(count)]


#: default latency boundaries: 100 us .. ~52 s, x2 per bucket
LATENCY_BUCKETS = log_buckets(0.0001, 2.0, 20)

#: default size boundaries (BDD nodes, bytes, ...): 64 .. ~1.07 G, x4
SIZE_BUCKETS = log_buckets(64, 4.0, 13)


class Histogram:
    """One log-bucketed histogram series.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    *non-cumulatively*; the exposition renderer accumulates.  The
    overflow count (observations above the last bound) lands in the
    implicit ``+Inf`` bucket.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Sequence[float]):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Approximate ``q``-quantile (``0 < q <= 1``) from the buckets.

        Linear interpolation inside the containing bucket; the overflow
        bucket reports its lower bound (the last finite boundary) — a
        conservative answer for an unbounded tail.  ``0.0`` when empty.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                if i >= len(self.bounds):     # +Inf bucket
                    return self.bounds[-1] if self.bounds else 0.0
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                fraction = (rank - cumulative) / n
                return lo + (hi - lo) * fraction
            cumulative += n
        return self.bounds[-1] if self.bounds else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Serializable state: count/sum/cumulative buckets + derived
        percentiles — the form persisted into ``RunRecord.histograms``.
        """
        cumulative = 0
        buckets: List[List[Any]] = []
        for bound, n in zip(self.bounds, self.bucket_counts):
            cumulative += n
            buckets.append([bound, cumulative])
        buckets.append(["+Inf", self.count])
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "buckets": buckets,
            "p50": round(self.percentile(0.50), 9),
            "p95": round(self.percentile(0.95), 9),
            "p99": round(self.percentile(0.99), 9),
        }


# ----------------------------------------------------------------------
# derivation from trace records
# ----------------------------------------------------------------------
#: instrumented span names whose durations bin into latency histogram
#: families
SPAN_HISTOGRAMS: Dict[str, Tuple[str, str]] = {
    "sat.validate": ("repro_sat_call_seconds",
                     "supervised SAT validation call latency"),
    "eco.validate": ("repro_validation_seconds",
                     "full-domain candidate validation latency"),
    "sim.screen": ("repro_screen_seconds",
                   "simulation candidate-screen latency"),
    "lint.screen": ("repro_lint_screen_seconds",
                    "static candidate-screen latency"),
    "eco.output": ("repro_output_seconds",
                   "per-output rectification latency"),
    "eco.search": ("repro_search_seconds",
                   "symbolic search attempt latency"),
    "journal.append": ("repro_journal_append_seconds",
                       "checkpoint-journal append latency"),
}

#: span name whose node count feeds the BDD-growth size histogram
BDD_SESSION_SPAN = "bdd.session"
BDD_NODES_HISTOGRAM = ("repro_bdd_session_nodes",
                       "BDD nodes grown per symbolic session")

_HISTOGRAM_HELP = dict([*SPAN_HISTOGRAMS.values(), BDD_NODES_HISTOGRAM])


class Family(NamedTuple):
    """One metric family, ready to render.

    ``series`` pairs each label tuple with its value: a number for
    counters and gauges, a :class:`Histogram` for histograms.
    """

    name: str
    kind: str
    help: str
    series: Tuple[Tuple[LabelPairs, Any], ...]


def _bin_span(hists: Dict[str, Histogram], rec: Dict[str, Any]) -> None:
    tags = rec.get("tags") or {}
    if tags.get("partial"):
        # synthesized for a worker that died mid-span: the duration
        # runs to the worker's last message, not to a real finish
        return
    name = rec.get("name")
    if name == BDD_SESSION_SPAN:
        nodes = tags.get("nodes")
        if nodes is None:
            return
        family, value, bounds = (BDD_NODES_HISTOGRAM[0], float(nodes),
                                 SIZE_BUCKETS)
    else:
        mapped = SPAN_HISTOGRAMS.get(name)
        if mapped is None:
            return
        family, value, bounds = (mapped[0], rec.get("dur", 0.0),
                                 LATENCY_BUCKETS)
    hist = hists.get(family)
    if hist is None:
        hist = hists[family] = Histogram(bounds)
    hist.observe(value)


def derive_metrics(records: Iterable[Dict[str, Any]],
                   snapshot: Optional[TraceSnapshot] = None,
                   now: Optional[float] = None) -> List[Family]:
    """The metric families of a run, read off its trace records.

    ``records`` is a :meth:`~repro.obs.trace.Trace.records` list — of a
    finished run, of the prefix a published snapshot counts, or
    reloaded from a trace file.  The families are:

    * one histogram per mapped span name with at least one finished,
      non-``partial`` span;
    * ``repro_counter_total``: the meta record's final counters, or —
      before the run has finished — the latest ``obs.sample``'s;
    * ``repro_run_degraded``, from the meta record or a
      ``run.degraded`` event;
    * ``repro_bdd_live_nodes`` and ``repro_mem_peak_kib`` from the
      latest sample, when it carries them;
    * with a ``snapshot``, ``repro_trace_progress`` and
      ``repro_run_stalled`` (the snapshot's stall verdict at trace
      time ``now``; 0 without ``now``).
    """
    meta: Dict[str, Any] = {}
    sample: Dict[str, Any] = {}
    degraded = False
    hists: Dict[str, Histogram] = {}
    for rec in records:
        kind = rec.get("type")
        if kind == "span":
            _bin_span(hists, rec)
        elif kind == "event":
            name = rec.get("name")
            if name == SAMPLE_EVENT:
                sample = rec.get("tags") or {}
            elif name == "run.degraded":
                degraded = True
        elif kind == "meta":
            meta = rec

    families = [Family(name, "histogram", _HISTOGRAM_HELP[name],
                       (((), hist),))
                for name, hist in sorted(hists.items())]
    counters = meta.get("counters")
    if counters is None:
        counters = {k: v for k, v in sample.items()
                    if v and k not in NON_COUNTER_TAGS}
    if counters:
        families.append(Family(
            "repro_counter_total", "counter",
            "RunCounters totals of the run",
            tuple(((("counter", k),), v)
                  for k, v in sorted(counters.items()))))

    gauges: List[Tuple[str, str, Any]] = [
        ("repro_run_degraded",
         "1 when the run degraded to the guaranteed fallback",
         int(bool(meta.get("degraded")) or degraded))]
    if "bdd_nodes" in sample:
        gauges.append(("repro_bdd_live_nodes",
                       "cumulative BDD nodes incl. live sessions",
                       sample["bdd_nodes"]))
    if "mem_peak_kib" in sample:
        gauges.append(("repro_mem_peak_kib",
                       "tracemalloc peak of the current run (KiB)",
                       sample["mem_peak_kib"]))
    if snapshot is not None:
        gauges.append(("repro_trace_progress",
                       "monotone span-activity counter",
                       snapshot.progress))
        gauges.append(("repro_run_stalled",
                       "1 while a phase has been idle for the stall "
                       "window",
                       int(now is not None and snapshot.stalled(now))))
    families.extend(Family(name, "gauge", help_, (((), value),))
                    for name, help_, value in gauges)
    return families


def histogram_snapshots(families: Iterable[Family]
                        ) -> Dict[str, Dict[str, Any]]:
    """``{family: Histogram.snapshot()}`` for the histogram families —
    what :func:`repro.obs.store.record_from_result` persists into
    ``RunRecord.histograms`` so ``repro runs diff/regress`` can gate on
    tail latency."""
    return {fam.name: fam.series[0][1].snapshot()
            for fam in families if fam.kind == "histogram"}


# ----------------------------------------------------------------------
# exposition rendering
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if value != value:                      # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_bound(bound: float) -> str:
    return "+Inf" if bound == math.inf else _fmt_value(bound)


def _labels_text(pairs: Iterable[Tuple[str, Any]]) -> str:
    inner = ",".join(
        f'{sanitize_metric_name(k)}="{_escape_label(str(v))}"'
        for k, v in pairs)
    return "{" + inner + "}" if inner else ""


def render_prometheus(families: Iterable[Family]) -> str:
    """``families`` in strict Prometheus exposition format, in order.

    One ``# HELP`` + ``# TYPE`` pair per family, histogram families as
    cumulative ``_bucket`` series (``le`` labels, terminal ``+Inf``)
    plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    for fam in families:
        name = sanitize_metric_name(fam.name)
        lines.append(f"# HELP {name} {_escape_help(fam.help)}")
        lines.append(f"# TYPE {name} {fam.kind}")
        for labels, value in fam.series:
            if fam.kind != "histogram":
                lines.append(f"{name}{_labels_text(labels)} "
                             f"{_fmt_value(value)}")
                continue
            cumulative = 0
            for bound, n in zip(value.bounds, value.bucket_counts):
                cumulative += n
                le = labels + (("le", _fmt_bound(bound)),)
                lines.append(f"{name}_bucket{_labels_text(le)} "
                             f"{cumulative}")
            le = labels + (("le", "+Inf"),)
            lines.append(f"{name}_bucket{_labels_text(le)} {value.count}")
            lines.append(f"{name}_sum{_labels_text(labels)} "
                         f"{_fmt_value(value.sum)}")
            lines.append(f"{name}_count{_labels_text(labels)} "
                         f"{value.count}")
    return "\n".join(lines) + "\n"




# ----------------------------------------------------------------------
# strict exposition parsing (conformance tests + `repro watch`)
# ----------------------------------------------------------------------
class PrometheusParseError(ValueError):
    """The text violates the exposition format contract."""


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$")
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:\\.|[^"\\])*)"')


def _unescape_label(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(text: Optional[str], line: str) -> Dict[str, str]:
    if not text:
        return {}
    labels: Dict[str, str] = {}
    rest = text
    while rest:
        match = _LABEL_RE.match(rest)
        if match is None:
            raise PrometheusParseError(f"malformed labels in: {line!r}")
        labels[match.group("key")] = _unescape_label(match.group("val"))
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise PrometheusParseError(f"malformed labels in: {line!r}")
    return labels


def _parse_value(text: str, line: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise PrometheusParseError(
            f"unparsable sample value in: {line!r}") from None


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse exposition text into family dicts.

    Returns ``{family: {"type": ..., "help": ..., "samples":
    [(name, labels, value), ...]}}`` and *validates* the contract the
    conformance satellite demands:

    * every sample belongs to a family announced by ``# TYPE`` (the
      ``_bucket``/``_sum``/``_count`` suffixes of a histogram family
      included) and every ``# TYPE`` has a ``# HELP``;
    * histogram bucket series carry ``le`` labels, end with ``+Inf``,
      have non-decreasing cumulative counts, and the ``+Inf`` bucket
      equals the family ``_count``.
    """
    families: Dict[str, Dict[str, Any]] = {}
    help_seen: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_ = rest.partition(" ")
            if not _NAME_RE.match(name):
                raise PrometheusParseError(f"bad HELP name in: {line!r}")
            help_seen[name] = help_
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if not _NAME_RE.match(name):
                raise PrometheusParseError(f"bad TYPE name in: {line!r}")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise PrometheusParseError(
                    f"unknown metric type {kind!r} in: {line!r}")
            if name in families:
                raise PrometheusParseError(
                    f"duplicate # TYPE for family {name!r}")
            if name not in help_seen:
                raise PrometheusParseError(
                    f"family {name!r} has # TYPE but no # HELP")
            families[name] = {"type": kind, "help": help_seen[name],
                              "samples": []}
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise PrometheusParseError(f"unparsable sample: {line!r}")
        sample_name = match.group("name")
        family = _family_of(sample_name, families)
        if family is None:
            raise PrometheusParseError(
                f"sample {sample_name!r} has no # TYPE family")
        labels = _parse_labels(match.group("labels"), line)
        value = _parse_value(match.group("value"), line)
        families[family]["samples"].append((sample_name, labels, value))
    _validate_histograms(families)
    return families


def _family_of(sample_name: str,
               families: Dict[str, Dict[str, Any]]) -> Optional[str]:
    if sample_name in families:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[:-len(suffix)]
            if base in families and families[base]["type"] == "histogram":
                return base
    return None


def _validate_histograms(families: Dict[str, Dict[str, Any]]) -> None:
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        series: Dict[LabelPairs, Dict[str, Any]] = {}
        for sample_name, labels, value in family["samples"]:
            base_labels = _label_key(
                {k: v for k, v in labels.items() if k != "le"})
            entry = series.setdefault(
                base_labels, {"buckets": [], "count": None, "sum": None})
            if sample_name == name + "_bucket":
                if "le" not in labels:
                    raise PrometheusParseError(
                        f"{name}_bucket sample without le label")
                entry["buckets"].append(
                    (_parse_value(labels["le"], labels["le"]), value))
            elif sample_name == name + "_count":
                entry["count"] = value
            elif sample_name == name + "_sum":
                entry["sum"] = value
        for labels_key, entry in series.items():
            buckets = entry["buckets"]
            if not buckets:
                raise PrometheusParseError(
                    f"histogram {name!r} has no _bucket series")
            bounds = [b for b, _ in buckets]
            if bounds != sorted(bounds):
                raise PrometheusParseError(
                    f"histogram {name!r} buckets out of le order")
            counts = [c for _, c in buckets]
            if any(b > a for a, b in zip(counts[1:], counts)):
                raise PrometheusParseError(
                    f"histogram {name!r} bucket counts not cumulative")
            if bounds[-1] != math.inf:
                raise PrometheusParseError(
                    f"histogram {name!r} is missing the +Inf bucket")
            if entry["count"] is None or entry["sum"] is None:
                raise PrometheusParseError(
                    f"histogram {name!r} is missing _count or _sum")
            if counts[-1] != entry["count"]:
                raise PrometheusParseError(
                    f"histogram {name!r} +Inf bucket ({counts[-1]}) != "
                    f"_count ({entry['count']})")


def histogram_percentiles(family: Dict[str, Any]
                          ) -> Dict[LabelPairs, Dict[str, float]]:
    """Derive p50/p95/p99 from a parsed histogram family's buckets.

    The ``repro watch`` live dashboard uses this on scraped
    ``/metrics`` payloads.
    """
    out: Dict[LabelPairs, Dict[str, float]] = {}
    series: Dict[LabelPairs, List[Tuple[float, float]]] = {}
    for sample_name, labels, value in family["samples"]:
        if not sample_name.endswith("_bucket"):
            continue
        base = _label_key({k: v for k, v in labels.items() if k != "le"})
        series.setdefault(base, []).append(
            (_parse_value(labels["le"], labels["le"]), value))
    for labels_key, buckets in series.items():
        buckets.sort()
        finite = [(b, c) for b, c in buckets if b != math.inf]
        total = buckets[-1][1] if buckets else 0
        hist = Histogram([b for b, _ in finite] or [1.0])
        previous = 0
        for i, (_, cumulative) in enumerate(finite):
            hist.bucket_counts[i] = int(cumulative - previous)
            previous = int(cumulative)
        hist.bucket_counts[len(finite)] = int(total - previous)
        hist.count = int(total)
        out[labels_key] = {"p50": hist.percentile(0.50),
                           "p95": hist.percentile(0.95),
                           "p99": hist.percentile(0.99),
                           "count": float(total)}
    return out
