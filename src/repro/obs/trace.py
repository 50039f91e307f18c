"""Hierarchical span tracing for the rectification engine.

A :class:`Trace` records a tree of named, timed *spans* — one per
phase of a run (per-output rectification, point-set enumeration,
choice search, SAT validation, BDD sessions, ...) — plus instant
*events* (degradation, escalation retries, node-limit hits).  Each
span carries free-form tags and, when the trace is bound to a
:class:`~repro.runtime.counters.RunCounters` object, the *delta* of
every counter over the span's lifetime, so SAT conflicts and BDD nodes
can be attributed phase by phase.

Spans are context managers::

    with trace.span("eco.output", output="o3") as sp:
        ...
        sp.tag(how="rewire")

or started/finished manually when the boundaries are not lexical
(the supervisor's BDD sessions use this)::

    sp = trace.span("bdd.session")
    ...
    sp.tag(nodes=manager.num_nodes).finish()

When tracing is off the engine threads :data:`NULL_TRACE` instead — a
singleton whose ``span``/``event`` calls return a shared inert object,
so the instrumented hot paths pay one attribute lookup and one call,
nothing else.

A trace is written by one thread, the one running the engine.  Readers
on other threads (the ``--serve-metrics`` endpoint) see only
:attr:`Trace.snapshot`, which the writer replaces whole at each sample
point, plus the prefixes of the append-only ``spans`` and ``events``
lists that the snapshot counts.

The module depends on nothing but the standard library; ``runtime``
and ``eco`` sit above it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Span:
    """One timed, tagged phase of a run.

    Timestamps are seconds relative to the owning trace's epoch
    (monotonic clock).  ``counters`` holds the nonzero deltas of the
    bound counters object between enter and finish.
    """

    __slots__ = ("trace", "span_id", "parent_id", "name", "tags",
                 "t_start", "t_end", "counters", "_snapshot")

    def __init__(self, trace: "Trace", span_id: int,
                 parent_id: Optional[int], name: str,
                 tags: Dict[str, Any], t_start: float,
                 snapshot: Optional[Dict[str, int]]):
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags = tags
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.counters: Dict[str, int] = {}
        self._snapshot = snapshot

    # ------------------------------------------------------------------
    def tag(self, **tags: Any) -> "Span":
        """Attach or overwrite tags; returns self for chaining."""
        self.tags.update(tags)
        return self

    def finish(self) -> None:
        if self.t_end is None:
            self.trace._finish(self)

    @property
    def duration(self) -> float:
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and "error" not in self.tags:
            self.tags["error"] = exc_type.__name__
        self.finish()
        return False

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"t={self.t_start:.4f}..{self.t_end}, tags={self.tags})")


class Event:
    """An instant, tagged occurrence attached to the enclosing span."""

    __slots__ = ("name", "t", "span_id", "tags")

    def __init__(self, name: str, t: float, span_id: Optional[int],
                 tags: Dict[str, Any]):
        self.name = name
        self.t = t
        self.span_id = span_id
        self.tags = tags


class TraceSnapshot(NamedTuple):
    """The run's state as of its last sample point.

    Immutable and replaced whole by :meth:`Trace.publish`, so another
    thread reads a consistent view with one attribute load.  ``spans``
    and ``events`` count the finished spans and events at publication;
    those list prefixes never change afterwards.
    """

    #: names of the open spans, outermost first
    phase: Tuple[str, ...] = ()
    progress: int = 0
    #: trace time (seconds since the epoch) of the last span open/finish
    last_progress_t: float = 0.0
    spans: int = 0
    events: int = 0
    #: idle time that counts as a stall (the sampler's window); ``None``
    #: when no stall detector runs
    stall_window_s: Optional[float] = None

    def stalled(self, now: float) -> bool:
        """True while a phase is open and has been idle, at trace time
        ``now``, for at least the stall window."""
        return (self.stall_window_s is not None and bool(self.phase)
                and now - self.last_progress_t >= self.stall_window_s)


class Trace:
    """Collects the spans and events of one rectification run.

    Args:
        name: run label (usually the implementation's name).
        clock: monotonic time source (injectable for tests).

    The records are also the run's metrics source:
    :func:`repro.obs.metrics.derive_metrics` reads histograms, counter
    totals and gauges off :meth:`records`.
    """

    enabled = True

    def __init__(self, name: str = "run",
                 clock: Callable[[], float] = time.monotonic):
        self.name = name
        self.clock = clock
        self.epoch = clock()
        #: optional live listener (``span_open(span)`` /
        #: ``span_close(span)``) — parallel workers bind a
        #: :class:`~repro.obs.live.WorkerPublisher` here to stream
        #: span activity to the supervisor while they run
        self.listener = None
        #: finished spans, in finish order
        self.spans: List[Span] = []
        self.events: List[Event] = []
        #: run-level metadata (final counters, degradation, ...)
        self.meta: Dict[str, Any] = {"name": name}
        #: monotone span-activity counter (bumped on every span open /
        #: finish); the sampler's stall detector watches it to tell a
        #: long-running span from a wedged run
        self.progress = 0
        #: trace time of the latest progress bump
        self.last_progress_t = 0.0
        #: the state as of the last :meth:`publish`
        self.snapshot = TraceSnapshot()
        self._stack: List[Span] = []
        self._counters = None
        self._next_id = 1

    # ------------------------------------------------------------------
    def set_counters(self, counters) -> None:
        """Bind a ``RunCounters``-shaped object (needs ``as_dict()``);
        subsequent spans capture its per-span deltas."""
        self._counters = counters

    def span(self, name: str, **tags: Any) -> Span:
        """Open a child span of the currently-open span."""
        parent = self._stack[-1].span_id if self._stack else None
        snapshot = (self._counters.as_dict()
                    if self._counters is not None else None)
        t = self.now()
        sp = Span(self, self._next_id, parent, name, dict(tags), t,
                  snapshot)
        self._next_id += 1
        self.progress += 1
        self.last_progress_t = t
        self._stack.append(sp)
        if self.listener is not None:
            self.listener.span_open(sp)
        return sp

    def event(self, name: str, **tags: Any) -> None:
        parent = self._stack[-1].span_id if self._stack else None
        self.events.append(
            Event(name, self.now(), parent, dict(tags)))

    def now(self) -> float:
        """Seconds since the trace's epoch, on the trace clock."""
        return self.clock() - self.epoch

    def publish(self, stall_window_s: Optional[float] = None
                ) -> TraceSnapshot:
        """Replace :attr:`snapshot` with the current state.

        Called on the writing thread only; the single attribute store
        is what makes the snapshot safe to read from another thread.
        """
        self.snapshot = TraceSnapshot(
            phase=tuple(sp.name for sp in self._stack),
            progress=self.progress,
            last_progress_t=self.last_progress_t,
            spans=len(self.spans),
            events=len(self.events),
            stall_window_s=stall_window_s)
        return self.snapshot

    def _finish(self, span: Span) -> None:
        span.t_end = self.now()
        if span._snapshot is not None and self._counters is not None:
            now = self._counters.as_dict()
            before = span._snapshot
            span.counters = {k: v - before.get(k, 0)
                             for k, v in now.items()
                             if v != before.get(k, 0)}
        try:
            self._stack.remove(span)
        except ValueError:
            pass
        self.progress += 1
        self.last_progress_t = span.t_end
        self.spans.append(span)
        if self.listener is not None:
            self.listener.span_close(span)

    # ------------------------------------------------------------------
    def absorb(self, records: List[Dict[str, Any]],
               parent: Optional[int] = None,
               offset_s: float = 0.0) -> None:
        """Graft another trace's :meth:`records` into this trace.

        Parallel workers trace into private :class:`Trace` objects and
        ship the serialized records back; absorbing re-ids every span
        (offset by this trace's id counter, so ids stay unique), hangs
        worker roots under ``parent`` (or under the currently open span
        when ``None``) and shifts timestamps by ``offset_s``.  ``meta``
        records are dropped — the parent run owns the metadata.
        """
        base = self._next_id
        if parent is None and self._stack:
            parent = self._stack[-1].span_id
        max_id = 0
        for rec in records:
            kind = rec.get("type")
            if kind == "span":
                max_id = max(max_id, rec["id"])
                sp = Span(self, base + rec["id"],
                          (parent if rec.get("parent") is None
                           else base + rec["parent"]),
                          rec["name"], dict(rec.get("tags", {})),
                          rec["ts"] + offset_s, None)
                sp.t_end = sp.t_start + rec.get("dur", 0.0)
                sp.counters = dict(rec.get("counters", {}))
                self.spans.append(sp)
            elif kind == "event":
                span_id = rec.get("span")
                self.events.append(Event(
                    rec["name"], rec["ts"] + offset_s,
                    parent if span_id is None else base + span_id,
                    dict(rec.get("tags", {}))))
        self._next_id = base + max_id + 1
        self.progress += 1
        self.last_progress_t = self.now()

    # ------------------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        """End of the latest finished span (= attributed wall time)."""
        return max((s.t_end for s in self.spans if s.t_end is not None),
                   default=0.0)

    def records(self, upto: Optional[TraceSnapshot] = None
                ) -> List[Dict[str, Any]]:
        """The trace as plain serializable records.

        One ``meta`` record, then every finished span (start order) and
        every event, merged in timestamp order.  This is the canonical
        interchange form: the exporters serialize it and the summary
        renderer consumes it (from a live trace or re-loaded file).
        With ``upto``, only the spans and events that snapshot counts
        are included — the form a reader on another thread may use.
        """
        spans, events = self.spans, self.events
        if upto is not None:
            spans, events = spans[:upto.spans], events[:upto.events]
        out: List[Dict[str, Any]] = [dict(self.meta, type="meta")]
        items: List[Dict[str, Any]] = []
        for s in spans:
            items.append({
                "type": "span",
                "id": s.span_id,
                "parent": s.parent_id,
                "name": s.name,
                "ts": s.t_start,
                "dur": s.duration,
                "tags": dict(s.tags),
                "counters": dict(s.counters),
            })
        for e in events:
            items.append({
                "type": "event",
                "name": e.name,
                "ts": e.t,
                "span": e.span_id,
                "tags": dict(e.tags),
            })
        items.sort(key=lambda r: r["ts"])
        out.extend(items)
        return out


class _NullSpan:
    """Inert span: accepts the full :class:`Span` surface, does nothing."""

    __slots__ = ()
    tags: Dict[str, Any] = {}
    counters: Dict[str, int] = {}
    duration = 0.0

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTrace:
    """No-op trace: the default when observability is not requested.

    ``span``/``event`` cost one attribute lookup and one call; nothing
    is allocated or recorded, so instrumented code needs no ``if
    enabled`` guards.
    """

    enabled = False
    spans: List[Span] = []
    events: List[Event] = []
    wall_seconds = 0.0
    progress = 0
    listener = None

    @property
    def meta(self) -> Dict[str, Any]:
        # a fresh throwaway dict per access: writes vanish silently
        return {}

    def set_counters(self, counters) -> None:
        pass

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **tags: Any) -> None:
        pass

    def absorb(self, records: List[Dict[str, Any]],
               parent: Optional[int] = None,
               offset_s: float = 0.0) -> None:
        pass

    def records(self) -> List[Dict[str, Any]]:
        return []


NULL_TRACE = NullTrace()


def ensure_trace(trace: Optional[Trace]):
    """``trace`` itself, or :data:`NULL_TRACE` for ``None``."""
    return trace if trace is not None else NULL_TRACE
