"""Tests for the concurrency-discipline rules (``CC...``)."""

import textwrap

from repro.lint.concur_rules import lint_concur_source_text


def codes(text, module="repro/somemod.py"):
    report = lint_concur_source_text(textwrap.dedent(text), module)
    return [d.code for d in report.diagnostics]


class TestCC002BareAcquire:
    def test_unprotected_acquire(self):
        assert "CC002" in codes("""
            def f(lock):
                lock.acquire()
                work()
                lock.release()
        """)

    def test_try_finally_shape_ok(self):
        assert "CC002" not in codes("""
            def f(lock):
                lock.acquire()
                try:
                    work()
                finally:
                    lock.release()
        """)

    def test_with_statement_ok(self):
        assert "CC002" not in codes("""
            def f(lock):
                with lock:
                    work()
        """)


class TestCC003BlockingUnderLock:
    def test_sleep_under_lock(self):
        assert "CC003" in codes("""
            import time
            def f(lock):
                with lock:
                    time.sleep(1.0)
        """)

    def test_sleep_outside_lock_ok(self):
        assert "CC003" not in codes("""
            import time
            def f(lock):
                with lock:
                    pass
                time.sleep(1.0)
        """)

    def test_unbounded_join_under_lock(self):
        found = codes("""
            def f(lock, thread):
                with lock:
                    thread.join()
        """)
        assert "CC003" in found


class TestCC005PoolContext:
    def test_ppe_without_context(self):
        assert "CC005" in codes("""
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=2)
        """)

    def test_ppe_with_context_ok(self):
        assert "CC005" not in codes("""
            from concurrent.futures import ProcessPoolExecutor
            from repro.eco.parallel import safe_mp_context
            pool = ProcessPoolExecutor(max_workers=2,
                                       mp_context=safe_mp_context())
        """)

    def test_multiprocessing_pool(self):
        assert "CC005" in codes("""
            import multiprocessing
            pool = multiprocessing.Pool(2)
        """)


class TestCC006ThreadLifecycle:
    def test_class_without_join_flagged(self):
        assert "CC006" in codes("""
            import threading
            class Server:
                def start(self):
                    self.t = threading.Thread(target=print)
                    self.t.start()
        """)

    def test_class_joining_on_stop_ok(self):
        assert "CC006" not in codes("""
            import threading
            class Server:
                def start(self):
                    self.t = threading.Thread(target=print)
                    self.t.start()
                def stop(self):
                    self.t.join(timeout=5.0)
        """)

    def test_unowned_start_flagged(self):
        assert "CC006" in codes("""
            from threading import Thread
            Thread(target=print).start()
        """)

    def test_raw_primitives_allowed(self):
        # the make_* factory rule went with the sync-tracing runtime
        assert codes("""
            import threading
            lock = threading.Lock()
        """) == []


class TestCC008UnboundedJoin:
    def test_zero_arg_join(self):
        assert "CC008" in codes("""
            def f(thread):
                thread.join()
        """)

    def test_join_with_timeout_ok(self):
        assert "CC008" not in codes("""
            def f(thread):
                thread.join(timeout=5.0)
        """)

    def test_str_join_not_confused(self):
        # str.join always takes an argument; zero-arg join is the
        # only shape flagged, so this cannot false-positive
        assert "CC008" not in codes("""
            def f(parts):
                return ", ".join(parts)
        """)


class TestCC009StartMethod:
    def test_set_start_method(self):
        assert "CC009" in codes("""
            import multiprocessing
            multiprocessing.set_start_method("fork")
        """)

    def test_os_fork(self):
        assert "CC009" in codes("""
            import os
            os.fork()
        """)


class TestPlumbing:
    def test_syntax_error_cc000(self):
        assert codes("def broken(:\n") == ["CC000"]

    def test_merged_into_self_lint(self):
        from repro.lint.pylint_rules import lint_sources
        report = lint_sources()
        assert not [d for d in report.diagnostics
                    if d.code.startswith("CC")
                    and d.severity.value == "error"]
