"""Observability: hierarchical run tracing, exporters, summaries.

The engine is instrumented with :class:`Trace` spans end to end — per
failing output, point-set enumeration, candidate ranking, choice
search, the simulation screen, every supervised SAT validation, every
BDD session, resynthesis, and the degradation events.  A finished
trace exports as JSONL, Chrome trace-event JSON (Perfetto /
``chrome://tracing``), or a Prometheus-style metrics snapshot, and
renders as a phase tree with SAT-conflict and BDD-node attribution
(``repro trace <file>``).  The trace's records are the only telemetry
store: latency histograms, counter totals and gauges are derived from
them (:func:`derive_metrics`), never booked a second time.

When no trace is requested the engine threads :data:`NULL_TRACE`,
whose calls are inert — instrumentation costs one attribute lookup
and one call per site.

All telemetry work happens on the thread that runs the engine: the
sampler at span boundaries, the live worker bus while the dispatcher
waits on its workers, and the :class:`TraceSnapshot` publication the
``--serve-metrics`` endpoint reads.  That endpoint's HTTP threads are
the only threads this package starts.

Like ``runtime``, this package sits at the bottom of the layering: it
depends on the standard library only and is driven by ``eco`` and
``cli``.
"""

from repro.obs.trace import (
    NULL_TRACE,
    Event,
    NullTrace,
    Span,
    Trace,
    TraceSnapshot,
    ensure_trace,
)
from repro.obs.atomicio import (
    atomic_write_text,
    detect_torn_tail,
    salvage_jsonl,
)
from repro.obs.export import (
    chrome_payload,
    prometheus_text,
    read_trace,
    write_chrome,
    write_jsonl,
    write_prometheus,
)
from repro.obs.live import LiveAggregator, LiveBus, WorkerPublisher
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    SPAN_HISTOGRAMS,
    Family,
    Histogram,
    PrometheusParseError,
    derive_metrics,
    histogram_percentiles,
    log_buckets,
    parse_prometheus_text,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.sampler import RunSampler, maybe_sampler
from repro.obs.serve import MetricsServer, maybe_serve
from repro.obs.store import (
    DEFAULT_STORE_DIR,
    MetricDelta,
    Regression,
    RegressionThresholds,
    RunRecord,
    RunStore,
    RunStoreError,
    check_regressions,
    diff_records,
    record_from_result,
)
from repro.obs.summary import (
    HotOutput,
    PhaseNode,
    TraceSummary,
    brief_phase_lines,
    format_summary,
    summarize,
)

__all__ = [
    "NULL_TRACE",
    "Event",
    "NullTrace",
    "Span",
    "Trace",
    "TraceSnapshot",
    "ensure_trace",
    "atomic_write_text",
    "detect_torn_tail",
    "salvage_jsonl",
    "chrome_payload",
    "prometheus_text",
    "read_trace",
    "sanitize_metric_name",
    "write_chrome",
    "write_jsonl",
    "write_prometheus",
    "LiveAggregator",
    "LiveBus",
    "WorkerPublisher",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "SPAN_HISTOGRAMS",
    "Family",
    "Histogram",
    "PrometheusParseError",
    "derive_metrics",
    "histogram_percentiles",
    "log_buckets",
    "parse_prometheus_text",
    "render_prometheus",
    "MetricsServer",
    "maybe_serve",
    "RunSampler",
    "maybe_sampler",
    "DEFAULT_STORE_DIR",
    "MetricDelta",
    "Regression",
    "RegressionThresholds",
    "RunRecord",
    "RunStore",
    "RunStoreError",
    "check_regressions",
    "diff_records",
    "record_from_result",
    "HotOutput",
    "PhaseNode",
    "TraceSummary",
    "brief_phase_lines",
    "format_summary",
    "summarize",
]
