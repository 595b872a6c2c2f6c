"""Each correctness check fails when one modeled value changes.

Run from the repository root (not part of the tier-1 suite)::

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure_summary():
    """fig01 (held by BENCH_pr2.json) and fig11 (digest-pinned) only."""
    from repro.bench import fig01_bandwidth, fig11_placement

    figures = workloads.Figures()
    inputs = [fig01_bandwidth, fig11_placement]
    _timings, outputs = figures.run(inputs)
    return figures.summary(inputs, outputs)


def _figure_check(summary, reference):
    subset = copy.deepcopy(reference)
    subset["figures"]["text_sha"] = {
        short: sha
        for short, sha in reference["figures"]["text_sha"].items()
        if short in summary["modules"]
    }
    return workloads.check_figures(
        summary, subset, workloads.bench_pr2_figures(ROOT)
    )


def test_figures_match_references(figure_summary, reference):
    attempted, failed, problems = _figure_check(figure_summary, reference)
    assert (attempted, failed, problems) == (2, 0, [])


@pytest.mark.parametrize("module", ["fig01_bandwidth", "fig11_placement"])
def test_figures_check_fails_on_changed_value(figure_summary, reference, module):
    mutated = copy.deepcopy(figure_summary)
    row = mutated["modules"][module]["figures"][0]["rows"][0]["simulated"]
    series = sorted(row)[0]
    row[series] = row[series] * (1 + 1e-12)
    _attempted, failed, problems = _figure_check(mutated, reference)
    assert failed == 1
    assert module in problems[0]


def test_figures_check_fails_on_changed_printed_output(figure_summary, reference):
    mutated = copy.deepcopy(figure_summary)
    mutated["modules"]["fig11_placement"]["text_sha"] = "0" * 64
    assert _figure_check(mutated, reference)[1] == 1


def test_figures_check_fails_on_missing_module(figure_summary, reference):
    mutated = copy.deepcopy(figure_summary)
    del mutated["modules"]["fig01_bandwidth"]
    attempted, failed, _problems = workloads.check_figures(
        mutated, reference, workloads.bench_pr2_figures(ROOT)
    )
    assert attempted == len(reference["figures"]["text_sha"])
    assert failed == attempted - 1  # only fig11 ran and matches


# ----------------------------------------------------------------------
# serving / serving-overload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["serving", "serving-overload"])
def served(request):
    workload = workloads.WORKLOADS[request.param]
    inputs = workload.setup(workloads.DEFAULT_SEED)
    _timings, report = workload.run(inputs)
    return request.param, workload.summary(inputs, report), report


def test_serving_matches_pin(served, reference):
    name, summary, _report = served
    assert workloads.check_pass(
        name, summary, workloads.DEFAULT_SEED, reference, ROOT
    ) == (summary["submitted"], 0, [])


def test_serving_check_fails_on_changed_finish_time(served, reference):
    name, summary, report = served
    records = workloads.serving_records(report)
    finished = next(r for r in records if r[1] == "finished")
    finished[3] += 1e-9
    mutated = dict(summary, records_sha=workloads.digest(records))
    attempted, failed, problems = workloads.check_pass(
        name, mutated, workloads.DEFAULT_SEED, reference, ROOT
    )
    assert failed == attempted > 0
    assert "pinned digest" in problems[0]


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_serving_check_fails_on_broken_conservation(served, reference, seed):
    name, summary, _report = served
    mutated = copy.deepcopy(summary)
    mutated["outcomes"]["finished"] -= 1
    _attempted, failed, problems = workloads.check_pass(
        name, mutated, seed, reference, ROOT
    )
    assert failed > 0
    assert "conservation" in problems[0]


def test_overload_check_fails_without_shedding(reference):
    summary = {
        "submitted": 10,
        "outcomes": {"finished": 10, "deadline_exceeded": 0, "failed": 0,
                     "rejected": 0, "shed": 0},
        "retries": 0,
    }
    problems = workloads.check_serving("serving-overload", summary, 7, reference)
    assert len(problems) == 3


def test_check_fails_when_a_pass_differs_from_the_first(served, reference):
    name, summary, _report = served
    other = dict(summary, records_sha="0" * 64)
    _attempted, failed, problems = workloads.check_pass(
        name, summary, 7, reference, ROOT, first=other
    )
    assert failed > 0
    assert "first pass" in problems[-1]


# ----------------------------------------------------------------------
# join
# ----------------------------------------------------------------------
def small_join_inputs(join):
    scale = workloads.JOIN_SCALE
    workloads.JOIN_SCALE = 2.0**-14
    try:
        return join.setup(3)
    finally:
        workloads.JOIN_SCALE = scale


@pytest.fixture(scope="module")
def join_summary():
    """The three backends at a small scale (the pin is for 2^-7)."""
    join = workloads.Join()
    inputs = small_join_inputs(join)
    _timings, results = join.run(inputs)
    return join.summary(inputs, results)


def test_each_part_is_normalised_by_the_readings_around_it():
    join = workloads.Join()
    readings = [0.1, 0.3, 0.1, 0.05]
    timings, _results = join.run(small_join_inputs(join), speed=iter(readings).__next__)
    assert timings["refs"] == readings
    parts = timings["parts"]
    assert list(parts) == list(workloads.JOIN_BACKENDS)
    normalised = run.normalised_parts({"timings": timings})
    nominal = hostspeed.NOMINAL_S
    assert normalised == pytest.approx({
        "serial": parts["serial"] * nominal / 0.2,
        "threads": parts["threads"] * nominal / 0.2,
        "processes": parts["processes"] * nominal / 0.075,
    })


def test_join_backends_agree(join_summary, reference):
    assert workloads.check_join(join_summary, 3, reference) == (3, 0, [])


@pytest.mark.parametrize(
    "path",
    [
        ("aggregate",),
        ("matches",),
        ("probe", "seconds"),
        ("build", "occupancy"),
        ("table_stats",),
    ],
)
def test_join_check_fails_on_changed_value(join_summary, reference, path):
    mutated = copy.deepcopy(join_summary)
    target = mutated["backends"]["threads"]
    for key in path[:-1]:
        target = target[key]
    value = target[path[-1]]
    if isinstance(value, dict):
        first = sorted(value)[0]
        value[first] *= 1 + 1e-12
    elif isinstance(value, list):
        value[0] += 1
    elif isinstance(value, float):
        target[path[-1]] = value * (1 + 1e-12)
    else:
        target[path[-1]] = value + 1
    _attempted, failed, problems = workloads.check_join(mutated, 3, reference)
    assert failed == 1
    assert "threads" in problems[0]


def test_join_check_pins_default_seed(join_summary, reference):
    # At the default seed the pinned (2^-7) digest applies, and the
    # small-scale outputs cannot match it.
    assert workloads.check_join(join_summary, workloads.DEFAULT_SEED, reference)[1] == 3


# ----------------------------------------------------------------------
# tracing and the metric contract
# ----------------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    spans = [
        (1, "parent", 0.0, 10.0, 0, 1),
        (2, "child", 1.0, 4.0, 1, 1),
        (3, "child", 3.0, 6.0, 1, 2),  # overlaps child 2 on another thread
        (4, "grandchild", 1.5, 2.0, 2, 1),
    ]
    stats = tracer.span_stats(spans)
    assert stats["parent"]["self_s"] == pytest.approx(5.0)
    assert stats["child"]["self_s"] == pytest.approx(5.5)
    assert stats["child"]["calls"] == 2


def test_instrument_wraps_every_import_site():
    from repro.plan import executor
    from repro.serve import scheduler
    from repro.sim import resources

    original = resources.solve_concurrent_rates
    run = tracer.Tracer("test")
    replaced = tracer.instrument(
        run, [("sim.solver", "repro.sim.resources", "solve_concurrent_rates", None)]
    )
    try:
        assert executor.solve_concurrent_rates is resources.solve_concurrent_rates
        assert scheduler.solve_concurrent_rates is not original
        scheduler.solve_concurrent_rates({"a": {"r": 1.0}})
    finally:
        tracer.restore(replaced)
    assert scheduler.solve_concurrent_rates is original
    assert [span[1] for span in run.spans] == ["sim.solver"]


def test_benchmark_json_lists_every_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
