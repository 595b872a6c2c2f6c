"""The shared fault-recovery planner, ``plan_assignment``.

Three layers of evidence that the one planner keeps the recovery
semantics both executor backends used to implement separately:

* a golden fixture (``golden/planner_golden.json``) recorded from the
  process pool's former parent-side replay — the CI chaos seeds and the
  ``tests/exec`` chaos plans — must be reproduced exactly: assignment,
  resilience events, injected-fault records, and typed failures;
* a Hypothesis property over seeded plans checks the invariants the
  executors rely on (exact partition, start order, one recovery action
  per injected morsel fault);
* the same property runs both backends end to end: threads and
  processes record identical resilience events and bit-identical
  outputs for every plan.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashtable import create_hash_table
from repro.core.scheduler.morsel import WorkRange
from repro.exec import MorselExecutor, execute_build, execute_probe
from repro.exec.process import ProcessExecutor, fork_available
from repro.faults import (
    CrashWorker,
    FaultPlan,
    MorselFailedError,
    ResilienceLog,
    RetryPolicy,
    TransientError,
    plan_assignment,
)
from repro.obs.metrics import MetricsRegistry

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "planner_golden.json")

#: resilience actions the morsel planner records.
MORSEL_ACTIONS = ("retry", "redispatch", "serial_fallback")

_RULES = {"CrashWorker": CrashWorker, "TransientError": TransientError}


def _load_cases():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def _rule(spec):
    spec = dict(spec)
    cls = _RULES[spec.pop("type")]
    if spec.get("attempts") is not None:
        spec["attempts"] = tuple(spec["attempts"])
    return cls(**spec)


def _ranges(total, morsel_tuples):
    return [
        WorkRange(start, min(start + morsel_tuples, total))
        for start in range(0, total, morsel_tuples)
    ]


def _plan(ranges, workers, plan, retry, log, name="exec"):
    names = [f"{name}-w{i}" for i in range(workers)]
    return plan_assignment(
        ranges, names, plan, retry, log, MetricsRegistry(), f"{name}-fallback"
    )


def _event_list(log):
    return [(e.action, e.detail) for e in log.events]


CASES = _load_cases()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_planner_reproduces_recorded_replay(case):
    plan = FaultPlan(
        seed=case["plan"]["seed"],
        name=case["plan"]["name"],
        rules=[_rule(r) for r in case["plan"]["rules"]],
    )
    log = ResilienceLog()
    for run in case["runs"]:
        ranges = _ranges(run["total"], run["morsel_tuples"])
        retry = RetryPolicy(max_attempts=run["max_attempts"])
        if "error" in run:
            with pytest.raises(MorselFailedError) as info:
                _plan(ranges, run["workers"], plan, retry, log, run["name"])
            err = info.value
            assert {
                "start": err.work.start,
                "end": err.work.end,
                "worker": err.worker,
                "attempts": err.attempts,
            } == run["error"]
            continue
        assignment = _plan(ranges, run["workers"], plan, retry, log, run["name"])
        got = {w: [[r.start, r.end] for r in works] for w, works in assignment.items()}
        expected = {w: works for w, works in run["assignment"].items() if works}
        assert got == expected
    assert [
        {"action": action, "detail": detail} for action, detail in _event_list(log)
    ] == case["events"]
    assert [
        {"kind": r.kind, "rule": r.rule, "site": r.site} for r in plan.injected
    ] == case["injected"]


def test_golden_covers_every_recovery_path():
    actions = {e["action"] for case in CASES for e in case["events"]}
    assert actions == set(MORSEL_ACTIONS)
    assert any("error" in run for case in CASES for run in case["runs"])


def test_no_plan_is_plain_round_robin():
    log = ResilienceLog()
    assignment = _plan(_ranges(10 * 64, 64), 3, None, RetryPolicy(), log)
    assert {w: [r.start // 64 for r in works] for w, works in assignment.items()} == {
        "exec-w0": [0, 3, 6, 9],
        "exec-w1": [1, 4, 7],
        "exec-w2": [2, 5, 8],
    }
    assert len(log) == 0


def test_more_workers_than_ranges_omits_idle_workers():
    assignment = _plan(_ranges(128, 64), 4, None, RetryPolicy(), ResilienceLog())
    assert list(assignment) == ["exec-w0", "exec-w1"]


# ---------------------------------------------------------------------------
# Property: any seeded recoverable plan
# ---------------------------------------------------------------------------

#: generous enough that the bounded rules below can never exhaust it:
#: crashes fire at most 3 times per rule and transients at most 3 times
#: (or only on attempt 0), so no range sees 8 faults.
MAX_ATTEMPTS = 8


@st.composite
def fault_plans(draw):
    """(workers, rule list) for one seeded, recoverable plan."""
    workers = draw(st.integers(min_value=1, max_value=4))
    target = st.one_of(
        st.none(), st.integers(0, workers - 1).map(lambda i: f"exec-w{i}")
    )
    rules = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(("crash", "transient")))
        by_ordinal = draw(st.booleans())
        if kind == "crash":
            rules.append(
                CrashWorker(
                    worker=draw(target),
                    ordinal=draw(st.integers(0, 6)) if by_ordinal else 0,
                    probability=None
                    if by_ordinal
                    else draw(st.floats(0.0, 0.4)),
                    times=draw(st.integers(1, 3)),
                )
            )
        else:
            retry_any_attempt = draw(st.booleans())
            rules.append(
                TransientError(
                    worker=draw(target),
                    ordinal=draw(st.integers(0, 6)) if by_ordinal else None,
                    probability=draw(st.floats(0.0, 0.6)),
                    attempts=None if retry_any_attempt else (0,),
                    times=draw(st.integers(1, 3))
                    if retry_any_attempt
                    else draw(st.one_of(st.none(), st.integers(1, 3))),
                )
            )
    return workers, rules


def _morsel_faults(plan):
    counts = plan.injected_counts()
    return counts.get("transient", 0) + counts.get("crash", 0)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spec=fault_plans(),
    n_ranges=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=150, deadline=None)
def test_assignment_partitions_ranges_and_answers_every_fault(seed, spec, n_ranges):
    workers, rules = spec
    plan = FaultPlan(seed=seed, rules=rules)
    log = ResilienceLog()
    ranges = _ranges(n_ranges * 16, 16)
    assignment = _plan(
        ranges, workers, plan, RetryPolicy(max_attempts=MAX_ATTEMPTS), log
    )
    assigned = [work for works in assignment.values() for work in works]
    assert sorted(assigned, key=lambda w: w.start) == ranges
    for works in assignment.values():
        assert works, "idle workers are omitted"
        assert [w.start for w in works] == sorted(w.start for w in works)
    assert log.count("retry") + log.count("redispatch") == _morsel_faults(plan)
    fallback_used = "exec-fallback" in assignment
    assert log.count("serial_fallback") == int(fallback_used)


def table_workload(n=3000, domain=12000, probe_n=5000, seed=7):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(domain)[:n].astype(np.int64)
    values = keys * 3 + 1
    probe = rng.integers(0, domain, size=probe_n).astype(np.int64)
    return keys, values, probe


def _join(executor, plan):
    """Sharded perfect build + probe; returns outputs and TableStats."""
    keys, values, probe = table_workload()
    table = create_hash_table("perfect", 12000, keys.dtype, values.dtype, shards=4)
    with plan.install():
        execute_build(table, keys, values, executor)
        found, got = execute_probe(table, probe, executor)
    return found, got, table.stats.as_tuple()


@pytest.mark.skipif(not fork_available(), reason="processes backend requires fork")
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), spec=fault_plans())
@settings(max_examples=20, deadline=None)
def test_threads_and_processes_record_identical_recovery(seed, spec):
    workers, rules = spec
    baseline = _join(None, FaultPlan(seed=seed, rules=[]))
    outcomes = {}
    for cls in (MorselExecutor, ProcessExecutor):
        log = ResilienceLog()
        executor = cls(
            workers=workers,
            morsel_tuples=512,
            retry=RetryPolicy(max_attempts=MAX_ATTEMPTS),
            resilience=log,
        )
        plan = FaultPlan(seed=seed, rules=rules)
        found, got, stats = _join(executor, plan)
        assert np.array_equal(found, baseline[0])
        assert np.array_equal(got, baseline[1])
        assert got.dtype == baseline[1].dtype
        assert stats == baseline[2]
        assert log.count("retry") + log.count("redispatch") == _morsel_faults(plan)
        outcomes[cls.__name__] = (_event_list(log), plan.injected)
    assert outcomes["MorselExecutor"] == outcomes["ProcessExecutor"]
