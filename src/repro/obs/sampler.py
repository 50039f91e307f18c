"""In-run telemetry sampling: counter time-series and stall detection.

Span traces attribute *deltas* to phases, but a long phase is a black
box while it runs.  :class:`RunSampler` fixes that: it snapshots the
run's :class:`~repro.runtime.counters.RunCounters`, the live BDD node
count (via a supervisor callback) and — when enabled — the
``tracemalloc`` peak, emitting each snapshot as an ``obs.sample``
event on the trace.  The result is a *timeline*: BDD-node growth,
SAT-conflict spend and memory high-water marks over the run, exported
and summarized like any other trace content and persisted per run by
:mod:`repro.obs.store`.

The sampler starts no thread.  While it runs it is the trace's span
listener, so every span open and finish is a *boundary* on the thread
running the engine; a boundary takes a sample once ``interval_s`` has
passed on the trace clock since the previous one.  Each sample also
publishes the trace's :class:`~repro.obs.trace.TraceSnapshot`, the
view the ``--serve-metrics`` endpoint reads.  Under a deterministic
clock the sample sequence is deterministic too.

Every boundary runs the **stall detector**: when the gap since the
previous span activity reaches ``stall_window_s``, the sampler emits
one ``run.stalled`` event carrying the measured idle time and a
degradation hint (``--deadline`` / ``--total-sat-budget``).  Without
a thread the event lands when the run moves again; a live verdict
during the stall comes from ``/healthz``, which compares the published
snapshot's last-progress time with the window.

When tracing is disabled the engine never constructs a sampler at all
(the ``NULL_TRACE`` no-op path allocates nothing); with tracing on but
``interval_s=0`` the sampler takes two snapshots — one at
:meth:`start`, one at :meth:`stop` — so every traced run still gets a
(short) timeline.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Callable, Dict, Optional

#: event kinds emitted by the sampler
SAMPLE_EVENT = "obs.sample"
STALL_EVENT = "run.stalled"

STALL_HINT = ("no span progress; consider --deadline / "
              "--total-sat-budget / --total-bdd-nodes")

#: ``obs.sample`` tags that are not ``RunCounters`` totals: the
#: sequence number, the live BDD node count and the memory readings
NON_COUNTER_TAGS = frozenset({"seq", "bdd_nodes", "mem_kib",
                              "mem_peak_kib"})


class RunSampler:
    """Telemetry snapshots of one run, taken at span boundaries.

    Args:
        trace: the run's :class:`~repro.obs.trace.Trace`.  Callers must
            not construct a sampler for a disabled trace — use
            :func:`maybe_sampler`.
        counters: a ``RunCounters``-shaped object (``as_dict()``);
            every snapshot embeds its nonzero values.
        bdd_stats: zero-argument callable returning a dict of live BDD
            statistics (the run supervisor's ``live_bdd_stats``);
            cumulative, so sampled node counts are non-decreasing.
        interval_s: minimum seconds between boundary samples; ``0``
            keeps only the start/stop snapshots.
        stall_window_s: span-progress silence that counts as a stall.
        clock: time source; the trace's own clock by default.
        trace_malloc: start ``tracemalloc`` for the duration of the run
            and record the traced-memory peak per sample (KiB).  When
            False, the peak is still recorded if the caller already has
            ``tracemalloc`` tracing.
    """

    def __init__(self, trace, counters=None,
                 bdd_stats: Optional[Callable[[], Dict[str, int]]] = None,
                 interval_s: float = 0.05,
                 stall_window_s: float = 30.0,
                 clock: Optional[Callable[[], float]] = None,
                 trace_malloc: bool = False):
        self.trace = trace
        self.counters = counters
        self.bdd_stats = bdd_stats
        self.interval_s = max(0.0, float(interval_s))
        self.stall_window_s = float(stall_window_s)
        self._clock = clock if clock is not None else trace.clock
        self._trace_malloc = trace_malloc
        self._started_malloc = False
        self._seq = 0
        self._stalled = False
        self._last_progress = trace.progress
        self._last_change = self._last_sample = self._clock()
        #: the trace listener the sampler forwards to while bound
        self._inner: Optional[Any] = None

    # ------------------------------------------------------------------
    def start(self) -> "RunSampler":
        """Take the initial sample and bind to the trace's boundaries."""
        if self._trace_malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_malloc = True
        self._last_progress = self.trace.progress
        self._last_change = self._clock()
        self.sample()
        self._inner, self.trace.listener = self.trace.listener, self
        return self

    def stop(self) -> None:
        """Unbind from the trace and take the final sample.

        Exception-safe: the previous listener is restored and
        ``tracemalloc`` stopped even when the final sample raises.
        """
        if self.trace.listener is self:
            self.trace.listener = self._inner
        try:
            self.sample()
        finally:
            if self._started_malloc:
                tracemalloc.stop()
                self._started_malloc = False

    def __enter__(self) -> "RunSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- trace listener protocol ----------------------------------------
    def span_open(self, span) -> None:
        if self._inner is not None:
            self._inner.span_open(span)
        self._boundary()

    def span_close(self, span) -> None:
        if self._inner is not None:
            self._inner.span_close(span)
        self._boundary()

    def _boundary(self) -> None:
        now = self._clock()
        self._check_stall(now)
        if self.interval_s > 0 and now - self._last_sample \
                >= self.interval_s:
            self.sample()

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One forced heartbeat: snapshot plus stall check."""
        self.sample()
        self._check_stall(self._clock())

    def sample(self) -> None:
        """Emit one ``obs.sample`` event and publish the trace snapshot.

        The latest sample is where ``/metrics`` reads the counter
        totals and the BDD/memory gauges of a run still in flight.
        """
        self._last_sample = self._clock()
        self._seq += 1
        tags: Dict[str, Any] = {"seq": self._seq}
        if self.counters is not None:
            for key, value in self.counters.as_dict().items():
                if value:
                    tags[key] = value
        if self.bdd_stats is not None:
            tags.update(self.bdd_stats())
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            tags["mem_kib"] = current // 1024
            tags["mem_peak_kib"] = peak // 1024
        self.trace.event(SAMPLE_EVENT, **tags)
        self.trace.publish(self.stall_window_s)

    def _check_stall(self, now: float) -> None:
        idle = now - self._last_change
        if idle >= self.stall_window_s and not self._stalled:
            self._stalled = True
            self.trace.event(STALL_EVENT,
                             idle_s=round(idle, 3),
                             window_s=self.stall_window_s,
                             progress=self.trace.progress,
                             hint=STALL_HINT)
        progress = self.trace.progress
        if progress != self._last_progress:
            self._last_progress = progress
            self._last_change = now
            self._stalled = False  # re-arm once the run moves again

    @property
    def stalled(self) -> bool:
        """True from a detected stall until the next span activity."""
        return self._stalled


def maybe_sampler(trace, **kwargs) -> Optional[RunSampler]:
    """A sampler for an enabled trace; ``None`` (no allocation) when
    tracing is off."""
    if not getattr(trace, "enabled", False):
        return None
    return RunSampler(trace, **kwargs)
