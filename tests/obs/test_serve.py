"""The ``--serve-metrics`` HTTP endpoint: conformance and liveness."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import parse_prometheus_text
from repro.obs.sampler import RunSampler
from repro.obs.serve import MetricsServer, maybe_serve
from repro.obs.trace import Trace


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def fetch(url):
    with urllib.request.urlopen(url, timeout=2.0) as resp:
        return resp.status, resp.headers.get("Content-Type"), \
            resp.read().decode("utf-8")


@pytest.fixture
def traced():
    """A trace with one SAT call and one sample, published."""
    trace = Trace(name="t")
    with trace.span("eco.rectify"):
        with trace.span("sat.validate"):
            pass
        trace.event("obs.sample", seq=1, sat_validations=9)
    trace.publish()
    return trace


class TestMetricsEndpoint:
    def test_metrics_payload_is_conformant(self, traced):
        with MetricsServer(traced) as server:
            status, ctype, body = fetch(server.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        families = parse_prometheus_text(body)      # strict: raises
        assert families["repro_sat_call_seconds"]["type"] == "histogram"
        assert families["repro_counter_total"]["samples"][0][2] == 9.0

    def test_metrics_include_trace_phase_snapshot(self, traced):
        with MetricsServer(traced) as server:
            _, _, body = fetch(server.url + "/metrics")
        families = parse_prometheus_text(body)
        # derived metric families and the phase table coexist in one
        # conformant payload
        assert "repro_sat_call_seconds" in families
        assert families["repro_trace_progress"]["samples"][0][2] == 4.0
        assert any(name.startswith("repro_phase_") or
                   name.startswith("repro_run_") for name in families)

    def test_phase_table_covers_only_published_spans(self):
        trace = Trace(name="t")
        with trace.span("eco.diagnose"):
            pass
        trace.publish()
        with trace.span("eco.output"):   # finished after the snapshot
            pass
        server = MetricsServer(trace)
        families = parse_prometheus_text(server.metrics_text())
        server.stop()
        phases = {dict(labels)["phase"] for _, labels, _ in
                  families["repro_phase_calls_total"]["samples"]}
        assert phases == {"eco.diagnose"}

    def test_unknown_path_is_404(self, traced):
        with MetricsServer(traced) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch(server.url + "/nope")
            assert err.value.code == 404


class TestHealthz:
    def test_health_reports_phase_stack_and_progress(self):
        trace = Trace(name="demo")
        span = trace.span("eco.rectify")
        inner = trace.span("eco.output", output="o1")
        trace.publish()                 # what the sampler does per sample
        with MetricsServer(trace) as server:
            _, ctype, body = fetch(server.url + "/healthz")
        inner.finish()
        span.finish()
        assert ctype == "application/json"
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["run"] == "demo"
        assert doc["phase"] == ["eco.rectify", "eco.output"]
        assert doc["progress"] == 2
        assert doc["stalled"] is False

    def test_health_reads_only_the_published_snapshot(self):
        trace = Trace(name="demo")
        trace.publish()
        span = trace.span("eco.rectify")  # not published yet
        server = MetricsServer(trace)
        doc = server.health()
        assert doc["phase"] == []
        assert doc["progress"] == 0
        trace.publish()
        assert server.health()["phase"] == ["eco.rectify"]
        span.finish()
        server.stop()

    def test_stall_event_flips_the_status(self):
        clock = FakeClock()
        trace = Trace(name="demo", clock=clock)
        trace.span("eco.rectify")
        trace.publish(stall_window_s=5.0)
        server = MetricsServer(trace)
        clock.t = 4.0
        assert server.health()["status"] == "ok"
        clock.t = 6.0
        doc = server.health()
        assert doc["status"] == "stalled"
        assert doc["stalled"] is True
        assert doc["idle_s"] == 6.0
        server.stop()

    def test_status_recovers_once_the_run_moves_again(self):
        """A stall, then progress: ``/healthz`` reads ``ok`` again even
        though the trace keeps its ``run.stalled`` event."""
        clock = FakeClock()
        trace = Trace(name="demo", clock=clock)
        root = trace.span("eco.rectify")
        sampler = RunSampler(trace, interval_s=1.0, stall_window_s=5.0)
        sampler.start()
        server = MetricsServer(trace)
        clock.t = 10.0
        assert server.health()["status"] == "stalled"
        with trace.span("eco.output"):      # progress, and a sample
            pass
        assert [e.name for e in trace.events].count("run.stalled") == 1
        doc = server.health()
        assert doc["status"] == "ok"
        assert doc["stalled"] is False
        root.finish()
        sampler.stop()
        server.stop()

    def test_finished_run_is_not_stalled(self):
        clock = FakeClock()
        trace = Trace(name="demo", clock=clock)
        trace.span("eco.rectify").finish()
        trace.publish(stall_window_s=5.0)
        server = MetricsServer(trace)
        clock.t = 60.0
        assert server.health()["status"] == "ok"
        server.stop()

    def test_health_provider_merges_and_degrades(self):
        server = MetricsServer(
            health_provider=lambda: {"outputs_done": 3})
        assert server.health()["outputs_done"] == 3
        server.health_provider = lambda: 1 // 0
        doc = server.health()
        assert "ZeroDivisionError" in doc["health_provider_error"]
        server.stop()


class TestMaybeServe:
    def test_none_port_means_no_server(self, traced):
        assert maybe_serve(traced, None) is None

    def test_port_zero_binds_ephemeral(self, traced):
        server = maybe_serve(traced, 0)
        try:
            assert server is not None
            assert server.port != 0
        finally:
            server.stop()

    def test_bind_failure_degrades_to_none(self, traced):
        holder = MetricsServer(traced).start()
        try:
            # the exact port is taken; telemetry must not take the
            # run down
            assert maybe_serve(traced, holder.port) is None
        finally:
            holder.stop()


class TestShutdown:
    """Idempotent, leak-free teardown: the PR's port-rebind satellite."""

    def test_stop_is_idempotent(self, traced):
        server = MetricsServer(traced).start()
        server.stop()
        server.stop()
        server.stop()  # any number of times, no raise

    def test_stop_without_start_closes_socket(self, traced):
        server = MetricsServer(traced)
        port = server.port
        server.stop()  # never started: must still release the socket
        rebound = MetricsServer(traced, port=port)
        rebound.stop()

    def test_sequential_runs_bind_the_same_port(self, traced):
        first = MetricsServer(traced).start()
        port = first.port
        status, _, _ = fetch(first.url + "/healthz")
        assert status == 200
        first.stop()

        # the exact port the first run used must be free immediately
        second = MetricsServer(traced, port=port).start()
        try:
            assert second.port == port
            status, _, _ = fetch(second.url + "/metrics")
            assert status == 200
        finally:
            second.stop()

    def test_serve_thread_joined_on_stop(self, traced):
        import threading

        server = MetricsServer(traced).start()
        server.stop()
        assert not [t for t in threading.enumerate()
                    if t.name == "repro-obs-serve" and t.is_alive()]
