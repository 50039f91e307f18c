"""Streaming worker telemetry: the live event bus.

With ``--jobs N`` the search workers trace into private
:class:`~repro.obs.trace.Trace` objects and ship the records back in
their :class:`~repro.eco.parallel.WorkerResult` — a *post-hoc* graft.
That leaves two holes: nothing is visible while a worker runs, and a
worker killed mid-task (PR 6 retry/quarantine paths) loses its entire
span history.  This module closes both:

* :class:`LiveBus` — the transport.  Real pools use a
  ``multiprocessing.Manager().Queue()`` proxy (picklable through
  ``ProcessPoolExecutor.submit``, unlike a bare ``mp.Queue``); the
  deterministic inline mode (``REPRO_ECO_JOBS_INLINE=1``) swaps in a
  plain ``queue.Queue``.
* :class:`WorkerPublisher` — the worker side.  Bound to the worker's
  trace as its ``listener``, it publishes ``span_open`` immediately
  and ``span_close`` with the full span record; counter totals ride as
  throttled ``heartbeat`` events (piggybacked on span activity, plus
  one at worker start and one final flush at close).  Publishing is
  best-effort: a broken queue (dead supervisor) degrades to silence,
  never to a worker crash.
* :class:`LiveAggregator` — the supervisor side.  The dispatcher
  calls its :meth:`~LiveAggregator.pump` on the engine's own thread
  while it waits for the workers; each pump buffers the streamed
  records per worker.  Reconciliation against the final graft is
  exact: a worker that returns normally has its buffer *discarded*
  (the ``Trace.absorb`` graft of its shipped records is
  authoritative); a worker that *dies* has its buffer
  **materialized** — closed spans grafted as-is, still-open spans
  synthesized with a ``partial=True`` tag, and the last counter
  snapshot returned so the supervisor can charge the real spend.
  Partial telemetry therefore survives ``output.quarantined`` instead
  of vanishing.  Either way a worker's spans enter the main trace —
  and the metrics derived from it — once, when its partition returns
  or is flushed.

Stdlib only.
"""

from __future__ import annotations

import queue as _queue
import time
from typing import Any, Callable, Dict, List, Optional

#: queue message kinds
SPAN_OPEN = "span_open"
SPAN_CLOSE = "span_close"
HEARTBEAT = "heartbeat"
WORKER_BYE = "bye"

#: minimum seconds between piggybacked counter heartbeats
HEARTBEAT_INTERVAL_S = 0.2


class LiveBus:
    """Owns the queue the workers publish on.

    Use :meth:`create`; ``bus.queue`` is the handle to ship in worker
    payloads.  :meth:`close` tears the manager process down (no-op for
    the inline queue).
    """

    def __init__(self, q, manager=None):
        self.queue = q
        self._manager = manager

    @classmethod
    def create(cls, inline: bool) -> Optional["LiveBus"]:
        if inline:
            return cls(_queue.Queue())
        try:
            import multiprocessing
            manager = multiprocessing.Manager()
            return cls(manager.Queue(), manager)
        except (OSError, ImportError, EOFError):  # restricted sandboxes
            return None

    def drain(self) -> List[Dict[str, Any]]:
        """All currently-queued messages, non-blocking."""
        out: List[Dict[str, Any]] = []
        while True:
            try:
                out.append(self.queue.get_nowait())
            except _queue.Empty:
                return out
            except (OSError, EOFError, BrokenPipeError):
                return out

    def close(self) -> None:
        if self._manager is not None:
            try:
                self._manager.shutdown()
            except (OSError, EOFError):
                pass
            self._manager = None


class WorkerPublisher:
    """Publishes one worker's trace activity onto the bus.

    Implements the trace ``listener`` protocol (``span_open`` /
    ``span_close``); every publish is wrapped so a torn-down queue can
    never take the worker with it.
    """

    def __init__(self, q, worker_id: str,
                 counters=None,
                 clock: Callable[[], float] = time.monotonic,
                 heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S):
        self._queue = q
        self.worker_id = worker_id
        self._counters = counters
        self._clock = clock
        self._interval = heartbeat_interval_s
        self._last_heartbeat = -1.0

    # -- trace listener protocol ---------------------------------------
    def span_open(self, span) -> None:
        self._put({"kind": SPAN_OPEN, "worker": self.worker_id,
                   "id": span.span_id, "parent": span.parent_id,
                   "name": span.name, "ts": span.t_start,
                   "tags": dict(span.tags)})
        self._maybe_heartbeat()

    def span_close(self, span) -> None:
        self._put({"kind": SPAN_CLOSE, "worker": self.worker_id,
                   "record": {
                       "type": "span",
                       "id": span.span_id,
                       "parent": span.parent_id,
                       "name": span.name,
                       "ts": span.t_start,
                       "dur": span.duration,
                       "tags": dict(span.tags),
                       "counters": dict(span.counters),
                   }})
        self._maybe_heartbeat()

    # ------------------------------------------------------------------
    def heartbeat(self, force: bool = False) -> None:
        """Publish a heartbeat with the current counter totals."""
        now = self._clock()
        if not force and now - self._last_heartbeat < self._interval:
            return
        self._last_heartbeat = now
        totals = (self._counters.as_dict()
                  if self._counters is not None else {})
        self._put({"kind": HEARTBEAT, "worker": self.worker_id,
                   "counters": {k: v for k, v in totals.items() if v}})

    def _maybe_heartbeat(self) -> None:
        self.heartbeat(force=False)

    def close(self) -> None:
        """Final flush: one forced heartbeat, then the goodbye marker."""
        self.heartbeat(force=True)
        self._put({"kind": WORKER_BYE, "worker": self.worker_id})

    def _put(self, message: Dict[str, Any]) -> None:
        try:
            self._queue.put_nowait(message)
        except (OSError, EOFError, BrokenPipeError, _queue.Full):
            pass


class _WorkerState:
    __slots__ = ("open_spans", "closed", "counters", "last_seen", "gone")

    def __init__(self):
        #: span_id -> span_open message (still running)
        self.open_spans: Dict[int, Dict[str, Any]] = {}
        #: finished span records, in close order
        self.closed: List[Dict[str, Any]] = []
        #: last streamed counter totals
        self.counters: Dict[str, int] = {}
        self.last_seen = 0.0
        self.gone = False


class LiveAggregator:
    """Supervisor-side consumer of the live bus.

    Single-threaded: :meth:`pump` drains whatever is queued and is
    called by the dispatcher while it waits on the workers.
    :meth:`discard` / :meth:`flush_dead` implement the graft
    reconciliation described in the module docstring.
    """

    def __init__(self, trace, bus: LiveBus,
                 clock: Callable[[], float] = time.monotonic):
        self.trace = trace
        self.bus = bus
        self._clock = clock
        self._workers: Dict[str, _WorkerState] = {}
        #: workers already reconciled (discarded or flushed): late bus
        #: messages from them must not resurrect a state entry, or a
        #: later pump could re-synthesize spans a flush already grafted
        self._finalized: set = set()

    def pump(self) -> int:
        """Drain everything queued right now; returns the count."""
        messages = self.bus.drain()
        for message in messages:
            self._handle(message)
        return len(messages)

    # ------------------------------------------------------------------
    def _state(self, worker_id: str) -> _WorkerState:
        state = self._workers.get(worker_id)
        if state is None:
            state = self._workers[worker_id] = _WorkerState()
        return state

    def _handle(self, message: Dict[str, Any]) -> None:
        kind = message.get("kind")
        worker_id = str(message.get("worker"))
        if worker_id in self._finalized:
            return
        state = self._state(worker_id)
        state.last_seen = self._clock()
        if kind == SPAN_OPEN:
            state.open_spans[message["id"]] = message
        elif kind == SPAN_CLOSE:
            record = message["record"]
            state.open_spans.pop(record["id"], None)
            state.closed.append(record)
        elif kind == HEARTBEAT:
            state.counters = dict(message.get("counters", {}))
        elif kind == WORKER_BYE:
            state.gone = True

    # -- reconciliation -------------------------------------------------
    def discard(self, worker_id: str) -> None:
        """The worker returned normally: its shipped records are the
        truth, drop the live buffer."""
        self._workers.pop(worker_id, None)
        self._finalized.add(worker_id)

    def flush_dead(self, worker_id: str,
                   parent: Optional[int] = None) -> Dict[str, int]:
        """The worker died: graft its partial telemetry into the main
        trace and return its last counter totals (for
        ``RunSupervisor.absorb_worker`` — real spend must be charged).

        Closed spans graft verbatim; spans still open at death are
        synthesized with ``partial=True`` and a duration running to the
        worker's last published activity.
        """
        state = self._workers.pop(worker_id, None)
        self._finalized.add(worker_id)
        if state is None:
            return {}
        records = list(state.closed)
        last_ts = max(
            [r["ts"] + r.get("dur", 0.0) for r in records]
            + [m["ts"] for m in state.open_spans.values()], default=0.0)
        for message in sorted(state.open_spans.values(),
                              key=lambda m: m["id"]):
            records.append({
                "type": "span",
                "id": message["id"],
                "parent": message["parent"],
                "name": message["name"],
                "ts": message["ts"],
                "dur": max(0.0, last_ts - message["ts"]),
                "tags": dict(message["tags"], partial=True,
                             worker=worker_id),
                "counters": {},
            })
        if records:
            records.sort(key=lambda r: r["id"])
            self.trace.absorb(records, parent=parent)
            self.trace.event("worker.partial_telemetry",
                             worker=worker_id, spans=len(records),
                             counters=sum(state.counters.values()))
        return dict(state.counters)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Per-worker view of the live buffers (open/closed spans, age)."""
        now = self._clock()
        return {
            worker_id: {
                "open_spans": len(state.open_spans),
                "closed_spans": len(state.closed),
                "age_s": round(now - state.last_seen, 3),
                "gone": state.gone,
            }
            for worker_id, state in self._workers.items()
        }
