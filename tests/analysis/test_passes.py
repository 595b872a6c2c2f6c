"""Each rule must fire on its bad fixture and stay silent on the good one.

The acceptance bar for the analyzer: deliberately-seeded violations
under ``tests/analysis/fixtures/`` are each detected by their pass, and
idiomatic code in the same scope produces zero findings.
"""

import os

import pytest

from repro.analysis import analyze_paths, get_passes
from repro.analysis.passes import ALL_PASSES
from repro.analysis.runner import analyze_source

from tests.analysis.conftest import REPO_ROOT, fixture_path

BAD_FIXTURES = {
    "unit-safety": (fixture_path("costmodel", "bad_units.py"), 6),
    "determinism": (fixture_path("sim", "bad_determinism.py"), 5),
    "vectorization": (fixture_path("core", "join", "bad_vectorization.py"), 2),
    "simulated-coherence": (
        fixture_path("core", "join", "coop_bad_writes.py"),
        3,
    ),
    "executor-boundary": (
        fixture_path("core", "ops", "bad_direct_pricing.py"),
        4,
    ),
    "fault-hook-coverage": (fixture_path("exec", "bad_worker_loop.py"), 1),
    "manifest-schema": (fixture_path("obs", "bad_manifest.py"), 2),
}

GOOD_FIXTURES = {
    "unit-safety": fixture_path("costmodel", "good_units.py"),
    "determinism": fixture_path("sim", "good_determinism.py"),
    "vectorization": fixture_path("core", "join", "good_vectorization.py"),
    "simulated-coherence": fixture_path(
        "core", "join", "coop_good_accessors.py"
    ),
    "executor-boundary": fixture_path("core", "ops", "good_plan_compile.py"),
    "lock-discipline": fixture_path("exec", "good_pool.py"),
    "fault-hook-coverage": fixture_path("exec", "good_pool.py"),
    "manifest-schema": fixture_path("obs", "good_manifest.py"),
}


@pytest.mark.parametrize("rule", sorted(BAD_FIXTURES))
def test_bad_fixture_triggers_rule(rule):
    path, expected = BAD_FIXTURES[rule]
    report = analyze_paths([path], passes=get_passes([rule]))
    assert len(report.findings) == expected, [str(f) for f in report.findings]
    assert all(f.rule == rule for f in report.findings)
    assert all(not f.baselined for f in report.findings)


@pytest.mark.parametrize("rule", sorted(GOOD_FIXTURES))
def test_good_fixture_is_clean(rule):
    report = analyze_paths([GOOD_FIXTURES[rule]], passes=get_passes([rule]))
    assert report.findings == [], [str(f) for f in report.findings]


def test_scheduler_scope_write_triggers_coherence():
    path = fixture_path("core", "scheduler", "bad_dispatch_write.py")
    report = analyze_paths([path], passes=get_passes(["simulated-coherence"]))
    assert len(report.findings) == 1
    assert "shared_table" in report.findings[0].message


def test_fixture_tree_total_counts():
    """Running every pass over the whole fixture tree finds exactly the
    seeded violations — nothing more (no cross-rule false positives)."""
    report = analyze_paths([fixture_path()])
    by_rule = {}
    for finding in report.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    assert by_rule == {
        "unit-safety": 6,
        "determinism": 5,
        "vectorization": 2,
        "simulated-coherence": 4,
        "executor-boundary": 4,
        "lock-discipline": 4,
        "fault-hook-coverage": 1,
        "manifest-schema": 2,
    }


def test_lock_discipline_race_severities():
    """Unguarded write -> ERROR; unguarded read -> WARNING unless the
    reader is reachable from a worker entry point (then ERROR)."""
    path = fixture_path("exec", "bad_pool_race.py")
    report = analyze_paths([path], passes=get_passes(["lock-discipline"]))
    assert len(report.findings) == 3, [str(f) for f in report.findings]
    reads = [f for f in report.findings if " read in " in f.message]
    writes = [f for f in report.findings if " write in " in f.message]
    assert len(writes) == 1 and writes[0].severity.value == "error"
    assert sorted(f.severity.value for f in reads) == ["error", "warning"]
    worker_read = next(f for f in reads if f.severity.value == "error")
    assert "worker" in worker_read.message


def test_lock_order_cycle_detected():
    path = fixture_path("exec", "bad_lock_order.py")
    report = analyze_paths([path], passes=get_passes(["lock-discipline"]))
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.severity.value == "error"
    assert "deadlock candidate" in finding.message
    assert "LOCK_A" in finding.message and "LOCK_B" in finding.message


def test_manifest_schema_severities():
    path = fixture_path("obs", "bad_manifest.py")
    report = analyze_paths([path], passes=get_passes(["manifest-schema"]))
    by_severity = {f.severity.value: f.message for f in report.findings}
    assert "latency_ns" in by_severity["error"]
    assert "seconds" in by_severity["warning"]


def test_finding_ids_are_stable_across_line_shifts():
    """The finding id hashes rule|path|context|message — inserting lines
    above a violation must not change its id (baselines survive)."""
    path = fixture_path("exec", "bad_worker_loop.py")
    report = analyze_paths([path], passes=get_passes(["fault-hook-coverage"]))
    (finding,) = report.findings
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    shifted = '"""Shifted."""\n\n\n' + source.split('"""', 2)[2].lstrip("\n")
    findings = analyze_source(
        shifted, path=path, passes=get_passes(["fault-hook-coverage"])
    )
    (moved,) = findings
    assert moved.line != finding.line
    assert moved.id == finding.id


def test_out_of_scope_module_is_ignored():
    source = "LINK_BANDWIDTH = 900e9\n"
    findings = analyze_source(source, path="src/repro/utils/whatever.py")
    assert findings == []


def test_executor_boundary_exempts_pricing_layer():
    """The executor and the cost model itself may price directly."""
    source = "def price(model, profile):\n    return model.phase_cost(profile)\n"
    for exempt_path in (
        "src/repro/plan/executor.py",
        "src/repro/costmodel/model.py",
    ):
        assert analyze_source(source, path=exempt_path) == []
    findings = analyze_source(source, path="src/repro/core/join/nopa.py")
    assert [f.rule for f in findings] == ["executor-boundary"]


def test_executor_boundary_bans_hand_built_plans():
    """Plans are compiler output; only repro.logical/repro.plan build them."""
    source = "def compile_it(specs):\n    return Plan(specs, label='x')\n"
    findings = analyze_source(source, path="src/repro/core/join/custom.py")
    assert [f.rule for f in findings] == ["executor-boundary"]
    assert "hand-built" in findings[0].message
    for exempt_path in (
        "src/repro/logical/lower.py",
        "src/repro/plan/builders.py",
    ):
        assert analyze_source(source, path=exempt_path) == []
    # Unrelated *Plan classes (FaultPlan, ...) are not plan construction.
    other = "def make():\n    return FaultPlan(seed=7)\n"
    assert analyze_source(other, path="src/repro/core/join/custom.py") == []


def test_executor_boundary_bans_rogue_simulators():
    """Only the sanctioned DES drivers construct Simulator; multi-query
    workloads must share one virtual clock via repro.serve.scheduler."""
    source = "def drive():\n    sim = Simulator()\n    return sim.run()\n"
    findings = analyze_source(source, path="src/repro/core/join/custom.py")
    assert [f.rule for f in findings] == ["executor-boundary"]
    assert "repro.serve.scheduler" in findings[0].message
    for exempt_path in (
        "src/repro/sim/engine.py",
        "src/repro/serve/scheduler.py",
        "src/repro/transfer/stream.py",
        "src/repro/plan/executor.py",
    ):
        assert analyze_source(source, path=exempt_path) == []
    # A service module queuing work for the scheduler must not spin up
    # a private simulator of its own.
    findings = analyze_source(source, path="src/repro/serve/service.py")
    assert [f.rule for f in findings] == ["executor-boundary"]


def test_executor_boundary_bans_rogue_des_driving():
    """schedule_at/cancel_event carry the scheduler's epoch-accounted
    deadline/retry semantics; driving them outside the sanctioned DES
    drivers races the cancellation path."""
    source = (
        "def hijack(sim, event):\n"
        "    sim.cancel_event(event)\n"
        "    return sim.schedule_at(1.0, lambda s: None)\n"
    )
    findings = analyze_source(source, path="src/repro/serve/service.py")
    assert [f.rule for f in findings] == [
        "executor-boundary",
        "executor-boundary",
    ]
    assert "cancel_event" in findings[0].message
    for exempt_path in (
        "src/repro/sim/engine.py",
        "src/repro/serve/scheduler.py",
        "src/repro/transfer/stream.py",
        "src/repro/plan/executor.py",
    ):
        assert analyze_source(source, path=exempt_path) == []


def test_syntax_error_becomes_finding():
    findings = analyze_source("def broken(:\n", path="src/repro/core/x.py")
    assert len(findings) == 1
    assert findings[0].rule == "syntax-error"


def test_unknown_rule_selection_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        get_passes(["no-such-rule"])


def test_rule_registry_is_stable():
    assert [p.name for p in ALL_PASSES] == [
        "unit-safety",
        "determinism",
        "vectorization",
        "simulated-coherence",
        "executor-boundary",
        "lock-discipline",
        "fault-hook-coverage",
        "manifest-schema",
    ]
    for p in ALL_PASSES:
        assert p.description
        # Every pass constrains where it applies: an inclusion scope,
        # or (executor-boundary) repo-wide with an exemption list.
        assert p.scope or getattr(p, "exempt", ())


def _exec_copy(tmp_path, bypass):
    """A copy of the shipped exec/ and faults/ packages; with ``bypass``
    the thread executor deals ranges round-robin itself instead of
    calling the shared recovery planner."""
    import shutil

    src = os.path.join(REPO_ROOT, "src", "repro")
    root = tmp_path / "repro"
    for package in ("exec", "faults"):
        shutil.copytree(os.path.join(src, package), root / package)
    pool = root / "exec" / "pool.py"
    source = pool.read_text()
    if bypass:
        assert "plan_assignment(" in source
        source = source.replace("plan_assignment(", "_round_robin(")
        source += (
            "\n\ndef _round_robin(ranges, workers, *_):\n"
            "    return {w: list(ranges[i::len(workers)])"
            " for i, w in enumerate(workers)}\n"
        )
        pool.write_text(source)
    return str(root)


def test_executor_bypassing_the_recovery_planner_is_flagged(tmp_path):
    passes = get_passes(["fault-hook-coverage"])
    clean = analyze_paths([_exec_copy(tmp_path / "clean", False)], passes=passes)
    assert clean.findings == [], [str(f) for f in clean.findings]
    report = analyze_paths([_exec_copy(tmp_path / "bypass", True)], passes=passes)
    messages = [f.message for f in report.findings]
    assert len(messages) == 1, messages
    assert "MorselExecutor.run" in messages[0]
    assert "plan_ranges" in messages[0]
