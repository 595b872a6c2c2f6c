"""The ``processes`` backend: bit-identical to serial, past the GIL.

Same determinism contract ``tests/exec`` enforces for threads: for
every operator, scheme, shard count, and worker count, the forked
backend produces the same functional results, the same ``TableStats``,
the same priced phase costs, and the same metric snapshots as the
serial path — plus the resilience semantics (retry, re-dispatch,
fallback) and shared-memory hygiene specific to processes.
"""

import os

import numpy as np
import pytest

from repro.core.hashtable import create_hash_table
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.ops.q6 import TpchQ6
from repro.core.ops.scan import Predicate, SelectionScan
from repro.exec import (
    ProcessExecutor,
    execute_build,
    execute_masks,
    execute_probe,
    fork_available,
    make_executor,
)
from repro.exec.pool import MorselFailedError
from repro.faults.plan import CrashWorker, FaultPlan, TransientError
from repro.faults.recovery import RetryPolicy
from repro.faults.resilience import ResilienceLog
from repro.hardware.topology import ibm_ac922
from repro.workloads.builders import workload_a
from repro.workloads.tpch import lineitem_q6

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="processes backend requires fork"
)

SCALE = 2.0**-13
SCHEMES = ("perfect", "open_addressing", "chaining")
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def machine():
    return ibm_ac922()


@pytest.fixture(scope="module")
def workload():
    return workload_a(scale=SCALE)


def table_workload(n=5000, domain=20000, probe_n=8000, seed=7):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(domain)[:n].astype(np.int64)
    values = keys * 3 + 1
    probe = rng.integers(0, domain, size=probe_n).astype(np.int64)
    return keys, values, probe


def run_functional(scheme, shards, executor):
    keys, values, probe = table_workload()
    table = create_hash_table(
        scheme,
        20000 if scheme == "perfect" else len(keys),
        keys.dtype,
        values.dtype,
        shards=shards,
    )
    execute_build(table, keys, values, executor)
    found, got = execute_probe(table, probe, executor)
    return found, got, table.stats.as_tuple(), table.size


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("shards", (1, 4))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_to_serial(self, scheme, shards, workers):
        serial = run_functional(scheme, shards, None)
        executor = ProcessExecutor(workers=workers, morsel_tuples=512)
        parallel = run_functional(scheme, shards, executor)
        assert np.array_equal(parallel[0], serial[0])
        assert np.array_equal(parallel[1], serial[1])
        assert parallel[2] == serial[2]  # TableStats.as_tuple()
        assert parallel[3] == serial[3]  # size

    def test_masks_identical_including_non_bool_dtypes(self):
        rng = np.random.default_rng(4)
        x = rng.random(4096)
        evaluators = [
            lambda s, e: x[s:e] > 0.5,
            lambda s, e: x[s:e] * 2.0,  # float output, like Q6's revenue
        ]
        serial = execute_masks(len(x), evaluators)
        executor = ProcessExecutor(workers=3, morsel_tuples=256)
        parallel = execute_masks(len(x), evaluators, executor)
        for a, b in zip(serial, parallel):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_make_executor_builds_process_backend(self):
        executor = make_executor("processes", 3, 512, name="x")
        assert isinstance(executor, ProcessExecutor)
        assert executor.worker_names() == ["x-w0", "x-w1", "x-w2"]

    def test_no_shared_memory_leaked(self):
        before = set(os.listdir("/dev/shm"))
        run_functional("chaining", 4, ProcessExecutor(workers=3, morsel_tuples=512))
        leaked = [
            name
            for name in set(os.listdir("/dev/shm")) - before
            if name.startswith("psm_")
        ]
        assert leaked == []


class TestOperatorEquivalence:
    @pytest.mark.parametrize("shards", (1, 4))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_nopa_matches_serial(self, machine, workload, shards, workers):
        serial = NoPartitioningJoin(
            machine,
            hash_table_placement="gpu",
            output="materialize",
            shards=shards,
        ).run(workload.r, workload.s)
        parallel = NoPartitioningJoin(
            machine,
            hash_table_placement="gpu",
            output="materialize",
            backend="processes",
            workers=workers,
            exec_morsel_tuples=1 << 12,
            shards=shards,
        ).run(workload.r, workload.s)
        assert parallel.matches == serial.matches
        assert parallel.aggregate == serial.aggregate
        assert parallel.build_cost.seconds == serial.build_cost.seconds
        assert parallel.probe_cost.seconds == serial.probe_cost.seconds
        for column in serial.materialized:
            assert np.array_equal(
                parallel.materialized[column], serial.materialized[column]
            )

    def test_obs_metric_snapshots_identical(self, machine, workload):
        snapshots = {}
        for backend in ("serial", "processes"):
            join = NoPartitioningJoin(
                machine, hash_table_placement="gpu", backend=backend, workers=3
            )
            join.run(workload.r, workload.s)
            snapshots[backend] = join.obs.metrics.snapshot()
        assert snapshots["serial"] == snapshots["processes"]

    def test_q6_matches_serial(self, machine):
        wl = lineitem_q6(scale_factor=0.02)
        serial = TpchQ6(machine, variant="branching").run(wl)
        parallel = TpchQ6(
            machine,
            variant="branching",
            backend="processes",
            workers=3,
            exec_morsel_tuples=512,
        ).run(wl)
        assert parallel.revenue == serial.revenue
        assert parallel.qualifying_rows == serial.qualifying_rows
        assert parallel.cost.seconds == serial.cost.seconds

    def test_selection_scan_matches_serial(self, machine):
        rng = np.random.default_rng(5)
        columns = {
            "a": rng.integers(0, 100, 50_000).astype(np.int32),
            "b": rng.random(50_000).astype(np.float32),
        }
        predicates = [
            Predicate("a", lambda c: c < 40),
            Predicate("b", lambda c: c > 0.5),
        ]

        def total_b(cols):
            return float(cols["b"].sum())

        serial = SelectionScan(
            machine, predicates, ["b"], total_b, variant="branching"
        ).run(columns)
        parallel = SelectionScan(
            machine,
            predicates,
            ["b"],
            total_b,
            variant="branching",
            backend="processes",
            workers=3,
            exec_morsel_tuples=1 << 12,
        ).run(columns)
        assert parallel.aggregate == serial.aggregate
        assert parallel.qualifying_rows == serial.qualifying_rows
        assert parallel.cost.seconds == serial.cost.seconds


def chaos_executor(workers=3, max_attempts=4):
    return ProcessExecutor(
        workers=workers,
        morsel_tuples=512,
        name="t",
        retry=RetryPolicy(max_attempts=max_attempts),
        resilience=ResilienceLog(),
    )


class TestResilience:
    """The shared recovery plan, executed by forked children."""

    def run_with_plan(self, plan, executor):
        keys, values, probe = table_workload()
        table = create_hash_table("perfect", 20000, keys.dtype, values.dtype, shards=4)
        if plan is None:
            execute_build(table, keys, values, executor)
            found, got = execute_probe(table, probe, executor)
        else:
            with plan.install():
                execute_build(table, keys, values, executor)
                found, got = execute_probe(table, probe, executor)
        return found, got, table.stats.as_tuple()

    def test_crashed_shard_builder_redispatched_bit_identically(self):
        base = self.run_with_plan(None, chaos_executor())
        executor = chaos_executor()
        plan = FaultPlan(11, [CrashWorker(worker="t-w0", ordinal=0)])
        result = self.run_with_plan(plan, executor)
        assert np.array_equal(result[0], base[0])
        assert np.array_equal(result[1], base[1])
        assert result[2] == base[2]
        assert executor.resilience.count("redispatch") >= 1
        assert plan.injected_counts() == {"crash": 1}

    def test_transient_fault_retries_in_place(self):
        base = self.run_with_plan(None, chaos_executor())
        executor = chaos_executor()
        plan = FaultPlan(12, [TransientError(ordinal=1)])
        result = self.run_with_plan(plan, executor)
        assert np.array_equal(result[0], base[0])
        assert result[2] == base[2]
        assert executor.resilience.count("retry") >= 1

    def test_whole_pool_death_degrades_to_parent_serial_fallback(self):
        base = self.run_with_plan(None, chaos_executor())
        executor = chaos_executor()
        plan = FaultPlan(13, [CrashWorker(worker=None, ordinal=0, times=3)])
        result = self.run_with_plan(plan, executor)
        assert np.array_equal(result[0], base[0])
        assert result[2] == base[2]
        assert executor.resilience.count("serial_fallback") >= 1

    def test_budget_exhaustion_raises_morsel_failed(self):
        executor = chaos_executor(max_attempts=3)
        plan = FaultPlan(
            14, [TransientError(probability=1.0, attempts=None, times=None)]
        )
        with pytest.raises(MorselFailedError) as info:
            self.run_with_plan(plan, executor)
        assert info.value.attempts == 3

    def test_child_exception_propagates_to_parent(self):
        executor = ProcessExecutor(workers=2, morsel_tuples=64, name="boom")

        def body(worker, ranges):
            if worker == "boom-w1":
                raise ValueError("kernel exploded")
            return worker

        with pytest.raises(ValueError, match="kernel exploded"):
            executor.run(256, body)

    def test_child_death_without_result_raises(self):
        executor = ProcessExecutor(workers=2, morsel_tuples=64, name="dead")

        def body(worker, ranges):
            if worker == "dead-w1":
                os._exit(3)
            return worker

        with pytest.raises(RuntimeError, match="exit code 3") as info:
            executor.run(256, body)
        assert info.value.failed_worker == "dead-w1"

    def test_summary_larger_than_the_pipe_buffer_is_received(self):
        executor = ProcessExecutor(workers=2, morsel_tuples=64, name="big")
        summaries = executor.run(256, lambda worker, ranges: bytes(1 << 20))
        assert {len(s) for s in summaries.values()} == {1 << 20}

    def test_unpicklable_summary_is_reported(self):
        executor = ProcessExecutor(workers=1, morsel_tuples=64, name="np")
        with pytest.raises(RuntimeError, match="unpicklable summary"):
            executor.run(64, lambda worker, ranges: lambda: None)


class TestValidation:
    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            ProcessExecutor(workers=0)

    def test_morsel_size_validated(self):
        with pytest.raises(ValueError):
            ProcessExecutor(morsel_tuples=0)
