"""Executor recovery: retries, re-dispatch, fallback, genuine errors.

The threads executor runs the shared recovery planner's assignment
(``repro.faults.recovery.plan_assignment``); these tests check the
recovery a body observes — which ranges reach which worker — and that
no pool thread outlives a run.  Every test runs the pool in a helper
thread with a hard join timeout so a reintroduced hang fails the test
instead of hanging the suite.
"""

import threading

import numpy as np
import pytest

from repro.exec import MorselExecutor, MorselFailedError, execute_build
from repro.faults import (
    CrashWorker,
    FaultPlan,
    ResilienceLog,
    RetryPolicy,
    TransientError,
)

#: generous wall-clock bound — the pool normally drains in milliseconds.
DRAIN_TIMEOUT = 20.0


def run_with_timeout(fn, timeout=DRAIN_TIMEOUT):
    """Run ``fn`` on a helper thread; fail the test if it doesn't drain."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: B036 - re-raised on the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "executor failed to drain (deadlock?)"
    if "error" in box:
        raise box["error"]
    return box["value"]


def identity_starts(total, executor):
    """Run an identity body; return sorted range starts and the
    ``{range start: worker}`` map of who ran what."""
    summaries = executor.run(
        total, lambda worker, ranges: [work.start for work in ranges]
    )
    runner = {
        start: worker for worker, starts in summaries.items() for start in starts
    }
    return sorted(runner), runner


class TestRetry:
    def test_transient_fault_retries_in_place(self):
        log = ResilienceLog()
        executor = MorselExecutor(workers=2, morsel_tuples=64, resilience=log)
        plan = FaultPlan(seed=1, rules=[TransientError(probability=0.4, times=3)])
        with plan.install():
            starts, _ = run_with_timeout(lambda: identity_starts(64 * 20, executor))
        assert starts == list(range(0, 64 * 20, 64))
        assert plan.injected_counts().get("transient", 0) == 3
        assert log.count("retry") == 3

    def test_exhausted_budget_raises_typed_error_naming_the_range(self):
        executor = MorselExecutor(
            workers=2,
            morsel_tuples=64,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        plan = FaultPlan(
            seed=1, rules=[TransientError(probability=1.0, attempts=None, times=None)]
        )
        with plan.install():
            with pytest.raises(MorselFailedError) as info:
                run_with_timeout(lambda: identity_starts(64 * 20, executor))
        err = info.value
        assert err.attempts == 2
        assert f"[{err.work.start}, {err.work.end})" in str(err)
        assert err.worker.startswith("exec-w")
        # No stranded threads: the failure is decided before any pool
        # thread starts.
        assert not [
            t for t in threading.enumerate() if t.name.startswith("exec-w")
        ]

    def test_backoff_delays_are_bounded(self):
        policy = RetryPolicy(base_delay=0.01, factor=2.0, max_delay=0.03)
        assert policy.delay(1) == 0.01
        assert policy.delay(2) == 0.02
        assert policy.delay(3) == 0.03  # capped
        assert policy.delay(10) == 0.03
        assert RetryPolicy(base_delay=0.0).delay(5) == 0.0


class TestRedispatch:
    def test_crashed_workers_range_runs_on_a_survivor(self):
        log = ResilienceLog()
        executor = MorselExecutor(workers=4, morsel_tuples=64, resilience=log)
        plan = FaultPlan(seed=2, rules=[CrashWorker(worker="exec-w0", ordinal=1)])
        with plan.install():
            starts, runner = run_with_timeout(
                lambda: identity_starts(64 * 40, executor)
            )
        assert starts == list(range(0, 64 * 40, 64))
        assert log.count("redispatch") == 1
        assert plan.injected_counts() == {"crash": 1}
        # The re-dispatched range ran on some *other* worker.
        (event,) = [e for e in log.events if e.action == "redispatch"]
        assert runner[event.detail["start"]] != "exec-w0"
        assert runner[event.detail["start"]] == event.detail["worker"]

    def test_all_workers_dead_falls_back_to_serial_replay(self):
        log = ResilienceLog()
        # A generous retry budget: a range can be crashed up to three
        # times (once per worker picking it up) before the pool is empty.
        executor = MorselExecutor(
            workers=3,
            morsel_tuples=64,
            resilience=log,
            retry=RetryPolicy(max_attempts=5, base_delay=0.0),
        )
        plan = FaultPlan(
            seed=3, rules=[CrashWorker(worker=None, ordinal=0, times=3)]
        )
        with plan.install():
            starts, runner = run_with_timeout(
                lambda: identity_starts(64 * 20, executor)
            )
        assert starts == list(range(0, 64 * 20, 64))
        assert log.count("serial_fallback") == 1
        assert set(runner.values()) == {"exec-fallback"}


class TestChainingBuild:
    """Unsharded chaining builds apply morsels one at a time, so the
    threads backend builds them serially — bit-identical to serial."""

    @staticmethod
    def build(executor):
        from repro.core.hashtable import create_hash_table

        n = 64 * 40
        rng = np.random.default_rng(4)
        keys = rng.permutation(4 * n)[:n].astype(np.int64)
        table = create_hash_table("chaining", n, keys.dtype, keys.dtype)
        execute_build(table, keys, keys * 3, executor)
        return table

    def test_threads_chaining_build_is_bit_identical_to_serial(self):
        serial = self.build(None)
        executor = MorselExecutor(workers=4, morsel_tuples=64)
        plan = FaultPlan(seed=4, rules=[CrashWorker(worker="exec-w0", ordinal=2)])
        with plan.install():
            threaded = run_with_timeout(lambda: self.build(executor))
        for attr in ("keys", "values", "heads", "next"):
            assert np.array_equal(getattr(threaded, attr), getattr(serial, attr))
        assert threaded.stats.as_tuple() == serial.stats.as_tuple()
        assert threaded.size == serial.size
        # The serial build never visits a morsel fault site.
        assert plan.injected_counts() == {}


class TestGenuineErrors:
    def test_non_injected_exception_propagates_with_failed_range(self):
        executor = MorselExecutor(workers=4, morsel_tuples=64)
        holder = {}

        def boom(worker, ranges):
            for work in ranges:
                if work.start == 64 * 7:
                    holder["worker"] = worker
                    raise ZeroDivisionError("genuine bug")

        with pytest.raises(ZeroDivisionError) as info:
            run_with_timeout(lambda: executor.run(64 * 20, boom))
        # The failing range's owner is named on the exception.
        assert info.value.failed_worker == holder["worker"] == "exec-w3"

    def test_retries_do_not_mask_genuine_bugs(self):
        # A genuine exception must not be retried even under a plan that
        # injects transients elsewhere.
        calls = []
        executor = MorselExecutor(workers=2, morsel_tuples=64)

        def boom(worker, ranges):
            for work in ranges:
                if work.start == 0:
                    calls.append(work.start)
                    raise KeyError("not transient")

        plan = FaultPlan(seed=6, rules=[TransientError(probability=0.0)])
        with plan.install():
            with pytest.raises(KeyError):
                run_with_timeout(lambda: executor.run(64 * 10, boom))
        assert calls == [0]
