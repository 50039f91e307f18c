"""Live-bus telemetry: publisher, aggregator, graft reconciliation.

Everything runs on the deterministic inline transport (a plain
``queue.Queue``) with an injected clock; the multiprocessing manager
path is exercised by the parallel-engine integration tests.
"""

import queue

from repro.obs.live import LiveAggregator, LiveBus, WorkerPublisher
from repro.obs.metrics import derive_metrics
from repro.obs.trace import Trace


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


class FakeCounters:
    def __init__(self, **totals):
        self.totals = totals

    def as_dict(self):
        return dict(self.totals)


def histogram_counts(trace):
    """``{family: count}`` of the histograms derived from ``trace``."""
    return {f.name: f.series[0][1].count
            for f in derive_metrics(trace.records())
            if f.kind == "histogram"}


def make_pair():
    """A worker trace publishing onto a bus an aggregator consumes."""
    clock = FakeClock()
    bus = LiveBus.create(inline=True)
    counters = FakeCounters()
    publisher = WorkerPublisher(bus.queue, "o1@1", counters=counters,
                                clock=clock)
    worker_trace = Trace(name="worker", clock=clock)
    worker_trace.listener = publisher
    main = Trace(name="main", clock=clock)
    aggregator = LiveAggregator(main, bus, clock=clock)
    return clock, counters, worker_trace, main, aggregator


class TestWorkerPublisher:
    def test_span_lifecycle_is_published(self):
        _, _, worker_trace, _, aggregator = make_pair()
        with worker_trace.span("sat.validate", result="eq"):
            pass
        messages = aggregator.bus.drain()
        kinds = [m["kind"] for m in messages]
        assert kinds.count("span_open") == 1
        assert kinds.count("span_close") == 1
        close = next(m for m in messages if m["kind"] == "span_close")
        assert close["worker"] == "o1@1"
        assert close["record"]["name"] == "sat.validate"
        assert close["record"]["tags"] == {"result": "eq"}

    def test_heartbeats_are_throttled(self):
        clock, counters, worker_trace, _, aggregator = make_pair()
        counters.totals = {"sat_validations": 3, "zero": 0}
        publisher = worker_trace.listener
        publisher.heartbeat(force=True)
        publisher.heartbeat()                  # same instant: suppressed
        clock.t += 1.0
        publisher.heartbeat()
        beats = [m for m in aggregator.bus.drain()
                 if m["kind"] == "heartbeat"]
        assert len(beats) == 2
        assert beats[-1]["counters"] == {"sat_validations": 3}

    def test_close_flushes_then_says_bye(self):
        _, _, worker_trace, _, aggregator = make_pair()
        worker_trace.listener.close()
        kinds = [m["kind"] for m in aggregator.bus.drain()]
        assert kinds == ["heartbeat", "bye"]

    def test_broken_queue_never_raises(self):
        class Broken:
            def put_nowait(self, message):
                raise BrokenPipeError

        publisher = WorkerPublisher(Broken(), "w", clock=FakeClock())
        publisher.heartbeat(force=True)
        publisher.close()


class TestLiveAggregator:
    def test_streamed_close_waits_for_reconciliation(self):
        """A streamed span reaches the main trace, and so the derived
        metrics, only when its worker is reconciled."""
        _, _, worker_trace, main, aggregator = make_pair()
        with worker_trace.span("sat.validate"):
            pass
        aggregator.pump()
        assert histogram_counts(main) == {}
        aggregator.flush_dead("o1@1")
        assert histogram_counts(main) == {"repro_sat_call_seconds": 1}

    def test_heartbeat_updates_worker_counters(self):
        clock, counters, worker_trace, _, aggregator = make_pair()
        counters.totals = {"plan_evals": 5}
        worker_trace.listener.heartbeat(force=True)
        aggregator.pump()
        clock.t += 1.5
        assert aggregator.snapshot()["o1@1"]["age_s"] == 1.5
        assert aggregator.flush_dead("o1@1") == {"plan_evals": 5}

    def test_discard_drops_the_buffer(self):
        """A worker that returns normally grafts via its shipped
        records; the live buffer must vanish without touching the main
        trace."""
        _, _, worker_trace, main, aggregator = make_pair()
        with worker_trace.span("eco.worker"):
            pass
        aggregator.pump()
        aggregator.discard("o1@1")
        assert aggregator.snapshot() == {}
        assert main.spans == []
        assert aggregator.flush_dead("o1@1") == {}

    def test_flush_dead_grafts_closed_and_synthesizes_open(self):
        clock, counters, worker_trace, main, aggregator = make_pair()
        counters.totals = {"sat_conflicts_spent": 40, "plan_evals": 7}
        outer = worker_trace.span("eco.worker")
        inner = worker_trace.span("sat.validate")
        clock.t += 2.0
        inner.finish()                               # dies after this
        aggregator.pump()

        totals = aggregator.flush_dead("o1@1")
        assert totals == {"sat_conflicts_spent": 40, "plan_evals": 7}
        names = {s.name: s for s in main.spans}
        assert set(names) == {"eco.worker", "sat.validate"}
        partial = names["eco.worker"]
        assert partial.tags["partial"] is True
        assert partial.tags["worker"] == "o1@1"
        # runs to the last published span activity, not zero
        assert partial.duration == 2.0
        assert "partial" not in names["sat.validate"].tags
        (event,) = [e for e in main.events
                    if e.name == "worker.partial_telemetry"]
        assert event.tags["worker"] == "o1@1"
        assert event.tags["spans"] == 2
        outer.finish()

    def test_flush_dead_partial_spans_are_not_counted(self):
        """A span still open at the worker's death is grafted with
        ``partial=True``; its made-up duration must not reach the
        latency histograms."""
        clock, _, worker_trace, main, aggregator = make_pair()
        worker_trace.span("eco.output")                # open at death
        with worker_trace.span("sat.validate"):
            clock.t += 1.0
        worker_trace.span("sat.validate")              # open at death
        aggregator.pump()
        aggregator.flush_dead("o1@1")
        partial = [s.name for s in main.spans if s.tags.get("partial")]
        assert sorted(partial) == ["eco.output", "sat.validate"]
        assert histogram_counts(main) == {"repro_sat_call_seconds": 1}

    def test_flush_dead_unknown_worker_is_empty(self):
        _, _, _, main, aggregator = make_pair()
        assert aggregator.flush_dead("nobody") == {}
        assert main.spans == []

    def test_snapshot_reports_worker_state(self):
        clock, _, worker_trace, _, aggregator = make_pair()
        worker_trace.span("eco.worker")                # left open
        aggregator.pump()
        clock.t += 3.0
        snap = aggregator.snapshot()
        assert snap["o1@1"]["open_spans"] == 1
        assert snap["o1@1"]["closed_spans"] == 0
        assert snap["o1@1"]["age_s"] == 3.0
        assert snap["o1@1"]["gone"] is False


class TestLiveBus:
    def test_inline_bus_is_a_plain_queue(self):
        bus = LiveBus.create(inline=True)
        assert isinstance(bus.queue, queue.Queue)
        bus.queue.put_nowait({"kind": "heartbeat", "worker": "w"})
        assert len(bus.drain()) == 1
        assert bus.drain() == []
        bus.close()                                   # no-op, no error


class TestFlushDeadRaces:
    """``flush_dead`` vs. messages still in flight: the graft must
    happen at most once whenever the late messages are pumped."""

    def _open_message(self, i, worker="w1"):
        return {"kind": "span_open", "worker": worker, "id": i,
                "parent": None, "name": f"sat.validate{i % 3}",
                "ts": float(i), "tags": {}}

    def test_finalized_worker_ignores_late_messages(self):
        trace = Trace(name="late")
        bus = LiveBus(queue.Queue())
        agg = LiveAggregator(trace, bus)
        bus.queue.put_nowait(self._open_message(1))
        agg.pump()
        flushed = agg.flush_dead("w1")
        assert flushed == {}
        spans_after_flush = len(trace.spans)
        # a message that was in flight when the worker was declared
        # dead arrives now: it must be dropped, not re-buffered
        bus.queue.put_nowait(self._open_message(2))
        agg.pump()
        assert "w1" not in agg.snapshot()
        assert agg.flush_dead("w1") == {}
        assert len(trace.spans) == spans_after_flush

    def test_retry_attempt_worker_ids_are_distinct(self):
        # the engine keys workers as "<targets>@<attempt>", so a
        # retried partition publishes under a fresh id and is not
        # silenced by its dead predecessor's tombstone
        trace = Trace(name="retry")
        bus = LiveBus(queue.Queue())
        agg = LiveAggregator(trace, bus)
        bus.queue.put_nowait(self._open_message(1, worker="o1@0"))
        agg.pump()
        agg.flush_dead("o1@0")
        bus.queue.put_nowait(self._open_message(2, worker="o1@1"))
        agg.pump()
        assert "o1@1" in agg.snapshot()
