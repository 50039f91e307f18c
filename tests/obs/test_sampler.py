"""Sampler tests: timelines, stall detection, and the no-op path.

The sampler runs on the thread that writes the trace: it samples at
span boundaries, so these tests drive it with spans and fake clocks.
"""

import threading

from repro.obs.sampler import (
    RunSampler,
    SAMPLE_EVENT,
    STALL_EVENT,
    maybe_sampler,
)
from repro.obs.trace import NULL_TRACE, Trace


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class FakeCounters:
    def __init__(self):
        self.values = {}

    def as_dict(self):
        return dict(self.values)


def sample_events(trace):
    return [e for e in trace.events if e.name == SAMPLE_EVENT]


def stall_events(trace):
    return [e for e in trace.events if e.name == STALL_EVENT]


class TestSampling:
    def test_start_stop_snapshots_without_thread(self):
        trace = Trace(name="t")
        before = threading.active_count()
        with trace.span("root"):
            sampler = RunSampler(trace, interval_s=0)
            sampler.start()
            assert threading.active_count() == before
            with trace.span("work"):   # boundaries do not sample at 0
                pass
            sampler.stop()
        samples = sample_events(trace)
        assert len(samples) == 2
        assert [e.tags["seq"] for e in samples] == [1, 2]

    def test_counters_and_bdd_stats_embedded(self):
        trace = Trace(name="t")
        counters = FakeCounters()
        nodes = {"n": 0}
        clock = FakeClock()
        sampler = RunSampler(
            trace, counters=counters,
            bdd_stats=lambda: {"bdd_nodes": nodes["n"]},
            interval_s=0, clock=clock)
        with trace.span("root"):
            sampler.start()
            counters.values = {"sat_conflicts_spent": 7, "zero": 0}
            nodes["n"] = 120
            sampler.tick()
            nodes["n"] = 450
            sampler.stop()
        samples = sample_events(trace)
        series = [e.tags["bdd_nodes"] for e in samples]
        assert series == [0, 120, 450]
        assert series == sorted(series)  # monotone timeline
        assert samples[1].tags["sat_conflicts_spent"] == 7
        assert "zero" not in samples[1].tags  # zeros are elided

    def test_context_manager(self):
        trace = Trace(name="t")
        with trace.span("root"):
            with RunSampler(trace, interval_s=0):
                pass
        assert len(sample_events(trace)) == 2

    def test_boundaries_sample_once_the_interval_passed(self):
        clock = FakeClock()
        trace = Trace(name="t", clock=clock)
        sampler = RunSampler(trace, interval_s=1.0).start()
        for t in (0.4, 0.8, 1.2, 1.6, 2.0, 2.4):
            clock.t = t
            with trace.span("step"):
                pass
        sampler.stop()
        times = [e.t for e in sample_events(trace)]
        # start, first boundary at/after 1.0, next at/after 2.2, stop
        assert times == [0.0, 1.2, 2.4, 2.4]

    def test_sample_publishes_the_trace_snapshot(self):
        trace = Trace(name="t")
        sampler = RunSampler(trace, interval_s=0)
        outer = trace.span("eco.rectify")
        trace.span("eco.output").finish()
        assert trace.snapshot.phase == ()          # nothing published yet
        sampler.start()
        snap = trace.snapshot
        assert snap.phase == ("eco.rectify",)
        assert snap.spans == 1
        assert snap.progress == trace.progress
        outer.finish()
        sampler.stop()
        assert trace.snapshot.phase == ()
        assert trace.snapshot.spans == 2

    def test_listener_is_chained_and_restored(self):
        seen = []

        class Listener:
            def span_open(self, span):
                seen.append(("open", span.name))

            def span_close(self, span):
                seen.append(("close", span.name))

        trace = Trace(name="t")
        listener = Listener()
        trace.listener = listener
        sampler = RunSampler(trace, interval_s=0).start()
        assert trace.listener is sampler
        with trace.span("work"):
            pass
        sampler.stop()
        assert trace.listener is listener
        assert seen == [("open", "work"), ("close", "work")]

    def test_stop_restores_listener_when_final_sample_raises(self):
        trace = Trace(name="t")
        sampler = RunSampler(trace, interval_s=0,
                             bdd_stats=lambda: {"bdd_nodes": 1}).start()
        sampler.bdd_stats = lambda: 1 // 0
        try:
            sampler.stop()
        except ZeroDivisionError:
            pass
        assert trace.listener is None


class TestStallDetector:
    def test_fires_once_and_rearms_on_progress(self):
        clock = FakeClock()
        trace = Trace(name="t")
        sampler = RunSampler(trace, interval_s=0, stall_window_s=5.0,
                             clock=clock)
        with trace.span("root"):
            sampler.start()
            clock.t = 3.0
            sampler.tick()          # idle < window: no stall
            assert not stall_events(trace)
            clock.t = 6.0
            sampler.tick()          # idle >= window: stall fires
            clock.t = 9.0
            sampler.tick()          # still stalled: no duplicate
            assert len(stall_events(trace)) == 1
            (stall,) = stall_events(trace)
            assert stall.tags["idle_s"] >= 5.0
            assert "--deadline" in stall.tags["hint"]
            with trace.span("work"):  # span progress re-arms
                pass
            clock.t = 10.0
            sampler.tick()
            assert len(stall_events(trace)) == 1
            clock.t = 16.0
            sampler.tick()          # a second silent window fires again
            assert len(stall_events(trace)) == 2
            sampler.stop()

    def test_progress_resets_idle_clock(self):
        clock = FakeClock()
        trace = Trace(name="t")
        sampler = RunSampler(trace, interval_s=0, stall_window_s=5.0,
                             clock=clock)
        with trace.span("root"):
            sampler.start()
            for t in (2.0, 4.0, 6.0, 8.0):
                clock.t = t
                with trace.span("step"):
                    pass
                sampler.tick()
            assert not stall_events(trace)
            sampler.stop()


    def test_span_held_past_the_window_stalls_exactly_once(self):
        clock = FakeClock()
        trace = Trace(name="t", clock=clock)
        sampler = RunSampler(trace, interval_s=0, stall_window_s=5.0)
        with trace.span("root"):
            sampler.start()
            with trace.span("held"):
                clock.t = 12.0                     # no boundary meanwhile
            clock.t = 13.0
            with trace.span("after"):
                pass
            sampler.stop()
        (stall,) = stall_events(trace)
        assert stall.tags["idle_s"] == 12.0        # measured at the close
        assert stall.t == 12.0
        assert not sampler.stalled                 # re-armed by progress

    def test_stall_gauge_follows_the_detector(self):
        """The derived ``repro_run_stalled`` gauge reads the published
        snapshot's stall verdict, as a mid-run scrape sees it."""
        from repro.obs.metrics import derive_metrics

        def stalled_gauge():
            snap = trace.snapshot
            (family,) = [f for f in derive_metrics(
                trace.records(upto=snap), snap, now=trace.now())
                if f.name == "repro_run_stalled"]
            return family.series[0][1]

        clock = FakeClock()
        trace = Trace(name="t", clock=clock)
        sampler = RunSampler(trace, interval_s=0, stall_window_s=5.0)
        with trace.span("root"):
            sampler.start()
            assert stalled_gauge() == 0
            clock.t = 6.0
            sampler.tick()
            assert stalled_gauge() == 1
            with trace.span("work"):
                pass
            sampler.tick()
            assert stalled_gauge() == 0
            sampler.stop()


class TestNoopPath:
    def test_maybe_sampler_is_none_for_null_trace(self):
        assert maybe_sampler(NULL_TRACE) is None
        assert maybe_sampler(None) is None

    def test_maybe_sampler_builds_for_enabled_trace(self):
        trace = Trace(name="t")
        sampler = maybe_sampler(trace, interval_s=0)
        assert isinstance(sampler, RunSampler)

    def test_untraced_run_starts_no_thread(self):
        """The NULL_TRACE path allocates no sampler and no thread."""
        before = threading.active_count()
        assert maybe_sampler(NULL_TRACE, interval_s=0.001) is None
        assert threading.active_count() == before
