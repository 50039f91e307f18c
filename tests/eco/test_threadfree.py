"""The engine's telemetry runs on the thread that runs ``rectify``.

A traced or untraced run, sequential or with a real worker pool,
starts no thread of its own: samples, stall checks, live-bus drains
and snapshot publication all happen at span boundaries or while the
dispatcher waits on its futures.  The only threads a ``jobs=2`` run
may see are the standard library's own pool helpers.  Because the
process stays single-threaded, its pools keep the ``fork`` start
method wherever the platform offers it.
"""

import multiprocessing
import threading
from concurrent.futures import process as cf_process

import pytest

from repro.cec.equivalence import check_equivalence
from repro.eco import parallel
from repro.eco.config import EcoConfig
from repro.eco.engine import rectify
from repro.obs import Trace
from repro.workloads.figures import example1_circuits

from tests.eco.test_parallel import multi_bug_circuits


def _settle_threads():
    """Join threads earlier tests left finishing (HTTP request
    daemons), so each test starts single-threaded."""
    for t in threading.enumerate():
        if t is not threading.main_thread():
            t.join(timeout=5.0)
    assert threading.active_count() == 1


def _pool_helper(thread):
    """Threads ``ProcessPoolExecutor`` starts in the parent process."""
    return (isinstance(thread, cf_process._ExecutorManagerThread)
            or thread.name == "QueueFeederThread")


class ThreadAudit:
    """A trace listener recording, at every span close, the closing
    thread and every other thread alive."""

    def __init__(self):
        self.closing = []
        self.others = []

    def span_open(self, span):
        pass

    def span_close(self, span):
        self.closing.append(threading.current_thread().name)
        self.others.extend(t for t in threading.enumerate()
                           if t is not threading.main_thread())


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs."""
    _settle_threads()
    threads = []
    real_start = threading.Thread.start

    def start(self):
        threads.append(self)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return threads


@pytest.fixture
def contexts(monkeypatch):
    """Start methods of every pool context the engine asks for."""
    methods = []
    real = parallel.safe_mp_context

    def recording():
        ctx = real()
        methods.append(ctx.get_start_method())
        return ctx

    monkeypatch.setattr(parallel, "safe_mp_context", recording)
    return methods


def traced(config, impl, spec):
    trace = Trace(name=impl.name)
    audit = ThreadAudit()
    trace.listener = audit
    result = rectify(impl, spec, config, trace=trace)
    assert check_equivalence(result.patched, spec).equivalent is True
    assert trace.listener is audit      # the sampler unbound itself
    return result, trace, audit


class TestSingleThreadedRun:
    def test_traced_jobs1_run_starts_no_thread(self, started):
        impl, spec = example1_circuits(width=2)
        _, trace, audit = traced(EcoConfig(num_samples=8), impl, spec)
        assert len(audit.closing) == len(trace.spans)
        assert set(audit.closing) == {"MainThread"}
        assert audit.others == []
        assert started == []

    def test_untraced_jobs1_run_starts_no_thread(self, started):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        assert check_equivalence(result.patched, spec).equivalent is True
        assert started == []

    def test_inline_jobs2_run_starts_no_thread(self, started,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_ECO_JOBS_INLINE", "1")
        impl, spec = multi_bug_circuits(3)
        result, _, audit = traced(
            EcoConfig(num_samples=8, jobs=2), impl, spec)
        assert result.counters.parallel_workers == 2
        assert set(audit.closing) == {"MainThread"}
        assert started == []


class TestRealPoolRun:
    def test_traced_jobs2_pool_forks_from_the_main_thread(
            self, started, contexts, monkeypatch):
        monkeypatch.delenv("REPRO_ECO_JOBS_INLINE", raising=False)
        impl, spec = multi_bug_circuits(3)
        result, _, audit = traced(
            EcoConfig(num_samples=8, jobs=2), impl, spec)
        assert set(audit.closing) == {"MainThread"}
        assert all(_pool_helper(t) for t in audit.others)
        assert all(_pool_helper(t) for t in started)
        if result.counters.parallel_workers == 0:
            pytest.skip("process pools unavailable here")
        assert contexts, "the parallel phase built no pool"
        if "fork" in multiprocessing.get_all_start_methods():
            assert set(contexts) == {"fork"}

    def test_untraced_jobs2_pool_starts_no_repro_thread(
            self, started, contexts, monkeypatch):
        monkeypatch.delenv("REPRO_ECO_JOBS_INLINE", raising=False)
        impl, spec = multi_bug_circuits(3)
        result = rectify(impl, spec, EcoConfig(num_samples=8, jobs=2))
        assert check_equivalence(result.patched, spec).equivalent is True
        assert all(_pool_helper(t) for t in started)
        if "fork" in multiprocessing.get_all_start_methods():
            assert set(contexts) <= {"fork"}


class SteppedClock:
    """Advances by a fixed step on every read."""

    def __init__(self, step=0.004):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class TestDeterministicSamples:
    def test_same_clock_gives_identical_sample_tags(self):
        def sample_tags():
            impl, spec = example1_circuits(width=2)
            trace = Trace(name=impl.name, clock=SteppedClock())
            rectify(impl, spec, EcoConfig(num_samples=8), trace=trace)
            return [e.tags for e in trace.events
                    if e.name == "obs.sample"]

        first, second = sample_tags(), sample_tags()
        assert len(first) > 2       # boundary samples, not just start/stop
        assert first == second
