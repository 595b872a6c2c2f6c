"""The four host-speed workloads and their correctness checks.

Each workload is driven through public entry points only:

* ``figures`` — every ``repro.bench.run_all.MODULES`` figure's
  ``main()`` at its default scale (the figure suite's wall-clock).
* ``serving`` — the fair-weather open-loop load of
  ``repro.bench.serving_latency`` through one ``QueryService.serve()``.
* ``serving-overload`` — the same mix at a 0.15 s mean gap under
  ``serving_resilience.OVERLOAD_POLICY`` with ``serving_chaos_plan(404)``.
* ``join`` — ``NoPartitioningJoin.run`` on workload A at 2^-7 once per
  functional backend (serial, threads, processes).

A worker process calls :meth:`Workload.setup` (input generation) and
:meth:`Workload.run` (the timed section), then :meth:`Workload.summary`
turns the modeled outputs into a JSON-ready record.  The orchestrator
checks every record with :func:`check_pass`: against the pinned
references at the default seed, and with the seed-independent
cross-checks (conservation, serial == parallel, closed-form join
aggregate, repeat == first pass, traced == untraced) at every seed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

#: the seed whose outputs the pinned references describe.
DEFAULT_SEED = 0

#: fixed serving request count (the input size ``serve_qps`` is stated at).
SERVING_REQUESTS = 2000

#: serving-overload mean inter-arrival gap (virtual seconds).
OVERLOAD_GAP = 0.15

#: join workload: workload A at this execution scale (1M x 16M tuples).
JOIN_SCALE = 2.0**-7
JOIN_BACKENDS = ("serial", "threads", "processes")
JOIN_WORKERS = 2


def digest(obj: Any) -> str:
    """SHA-256 of ``obj``'s canonical JSON (floats written exactly)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_ready(obj: Any) -> Any:
    """``obj`` as it reads back from JSON (tuples -> lists, str keys)."""
    return json.loads(json.dumps(obj))


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _read_speed(speed, refs: List[float]) -> None:
    if speed is not None:
        refs.append(speed())


class Workload:
    """One benchmark workload: inputs, timed section, modeled outputs."""

    name = ""
    #: modules imported before set-up is timed as done (part of setup_s).
    modules: Tuple[str, ...] = ()
    #: a pass runs on one CPU, so passes can run side by side.
    single_threaded = True

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, inputs: Any, tracer=None, speed=None) -> Tuple[Dict[str, Any], Any]:
        """The timed section: returns (timings, modeled outputs).

        ``timings["parts"]`` splits the pass into parts timed on their
        own (figure modules, join backends); ``pass_s`` is their sum.
        ``speed`` (``hostspeed.SpeedProbe.read``) is read before the
        first part and after each part: ``timings["refs"]`` holds one
        reading more than there are parts.
        """
        raise NotImplementedError

    def summary(self, inputs: Any, outputs: Any) -> Dict[str, Any]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
class Figures(Workload):
    """The figure suite: ``main()`` of every ``run_all.MODULES`` entry.

    The seed only permutes the module order (seed 0 keeps ``run_all``'s
    order), so every seed checks the same pinned figures and, in
    passing, that no module's output depends on what ran before it.
    """

    name = "figures"
    modules = ("repro.bench.run_all", "repro.bench.export")

    def setup(self, seed: int) -> List[Any]:
        from repro.bench import run_all

        order = list(run_all.MODULES)
        if seed != DEFAULT_SEED:
            random.Random(seed).shuffle(order)
        return order

    def run(self, inputs, tracer=None, speed=None):
        from repro.bench.common import FigureResult

        # main() prints each figure via FigureResult.render(); recording
        # the rendered objects captures the full-precision outputs.
        rendered: List[Any] = []
        original = FigureResult.render

        def render(self):
            rendered.append(self)
            return original(self)

        outputs: Dict[str, Any] = {}
        parts: Dict[str, float] = {}
        refs: List[float] = []
        FigureResult.render = render
        try:
            gc.collect()
            _read_speed(speed, refs)
            for module in inputs:
                short = module.__name__.rsplit(".", 1)[-1]
                text = io.StringIO()
                with _span(tracer, f"figures.{short}"):
                    with contextlib.redirect_stdout(text):
                        start = perf_counter()
                        module.main()
                        parts[short] = perf_counter() - start
                outputs[short] = (list(rendered), text.getvalue())
                rendered.clear()
                _read_speed(speed, refs)
        finally:
            FigureResult.render = original
        return {"pass_s": sum(parts.values()), "parts": parts, "refs": refs}, outputs

    def summary(self, inputs, outputs):
        from repro.bench.export import figure_to_dict

        return {
            "modules": {
                short: {
                    "figures": [
                        _json_ready(figure_to_dict(figure)) for figure in figures
                    ],
                    "text_sha": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                }
                for short, (figures, text) in outputs.items()
            }
        }


# ----------------------------------------------------------------------
# serving / serving-overload
# ----------------------------------------------------------------------
def serving_records(report) -> List[List[Any]]:
    """Each request's outcome and virtual times, in request-id order."""
    records: List[List[Any]] = []
    for bucket in (report.served, report.deadline_exceeded, report.failed):
        for query in bucket:
            records.append([
                query.request.request_id, query.outcome, query.start,
                query.finish, query.cancelled_at, query.retries,
                query.cache_hit,
            ])
    for rejection in report.rejections:
        records.append([
            rejection.request.request_id, "rejected",
            type(rejection.error).__name__,
        ])
    for shed in report.shed:
        records.append([
            shed.request.request_id, "shed", shed.reason, shed.at, shed.detail,
        ])
    records.sort(key=lambda record: record[0])
    return records


class Serving(Workload):
    """Fair-weather open-loop serving: ``serving_latency``'s load."""

    name = "serving"
    modules = ("repro.bench.serving_latency", "repro.serve")

    def _arrival_seed(self, seed: int) -> int:
        from repro.bench import serving_latency

        return serving_latency.SEED + seed

    def _service(self):
        from repro.bench import serving_latency

        return serving_latency.build_service()

    def _submit(self, service, seed: int) -> int:
        import numpy as np

        from repro.bench import serving_latency as sl

        rng = np.random.default_rng(self._arrival_seed(seed))
        gaps = rng.exponential(sl.MEAN_GAP, size=SERVING_REQUESTS)
        picks = rng.integers(0, len(sl.MIX), size=SERVING_REQUESTS)
        arrival = 0.0
        for i in range(SERVING_REQUESTS):
            arrival += float(gaps[i])
            service.submit(
                sl.TENANTS[i % len(sl.TENANTS)], sl.MIX[int(picks[i])], arrival
            )
        for _ in range(sl.GREEDY_BURST):
            service.submit(sl.GREEDY_TENANT, "join-b", 0.0)
        return SERVING_REQUESTS + sl.GREEDY_BURST

    def setup(self, seed: int):
        service = self._service()
        submitted = self._submit(service, seed)
        return service, submitted

    def _fault_plan(self):
        return contextlib.nullcontext()

    def run(self, inputs, tracer=None, speed=None):
        service, _submitted = inputs
        refs: List[float] = []
        gc.collect()
        _read_speed(speed, refs)
        with self._fault_plan():
            start = perf_counter()
            report = service.serve()
            wall = perf_counter() - start
        _read_speed(speed, refs)
        return {"pass_s": wall, "parts": {"serve": wall}, "refs": refs}, report

    def summary(self, inputs, report):
        _service, submitted = inputs
        shed_reasons: Dict[str, int] = {}
        for shed in report.shed:
            shed_reasons[shed.reason] = shed_reasons.get(shed.reason, 0) + 1
        return {
            "submitted": submitted,
            "outcomes": report.outcome_counts(),
            "retries": report.total_retries(),
            "shed_reasons": shed_reasons,
            "cache": report.cache,
            "records_sha": digest(serving_records(report)),
        }


class ServingOverload(Serving):
    """Overload + chaos: shedding, deadline cancellation and retries."""

    name = "serving-overload"
    modules = (
        "repro.bench.serving_resilience",
        "repro.faults.scenarios",
        "repro.serve",
    )

    def _arrival_seed(self, seed: int) -> int:
        from repro.bench import serving_resilience

        return serving_resilience.OVERLOAD_SEED + seed

    def _service(self):
        from repro.bench import serving_resilience as sr
        from repro.serve import QueryService

        return QueryService(machine=sr.MACHINE, policy=sr.OVERLOAD_POLICY)

    def _submit(self, service, seed: int) -> int:
        import numpy as np

        from repro.bench import serving_resilience as sr

        rng = np.random.default_rng(self._arrival_seed(seed))
        gaps = rng.exponential(OVERLOAD_GAP, size=SERVING_REQUESTS)
        picks = rng.integers(0, len(sr.MIX), size=SERVING_REQUESTS)
        arrival = 0.0
        for i in range(SERVING_REQUESTS):
            arrival += float(gaps[i])
            service.submit("tenant-r", sr.MIX[int(picks[i])], arrival)
        return SERVING_REQUESTS

    def _fault_plan(self):
        from repro.faults.scenarios import serving_chaos_plan

        return serving_chaos_plan(404).install()


# ----------------------------------------------------------------------
# join
# ----------------------------------------------------------------------
def _phase(cost) -> Dict[str, Any]:
    return {
        "seconds": cost.seconds,
        "bottleneck": cost.bottleneck,
        "occupancy": dict(cost.occupancy),
        "label": cost.label,
    }


class Join(Workload):
    """Functional NOPA join (GPU table, coherence) per backend."""

    name = "join"
    single_threaded = False  # threads and processes backends use 2 CPUs
    modules = (
        "repro.core.join.nopa",
        "repro.exec.process",
        "repro.hardware.topology",
        "repro.workloads.builders",
    )

    def setup(self, seed: int):
        from repro.workloads.builders import workload_a

        return workload_a(scale=JOIN_SCALE, seed=42 + seed)

    def run(self, inputs, tracer=None, speed=None):
        from repro.core.join import nopa
        from repro.hardware.topology import ibm_ac922

        # The hash table the join builds carries the TableStats the
        # cross-backend check compares; record it as it is created.
        tables: List[Any] = []
        create = nopa.create_hash_table

        def recording_create(*args, **kwargs):
            table = create(*args, **kwargs)
            tables.append(table)
            return table

        parts: Dict[str, float] = {}
        refs: List[float] = []
        results: Dict[str, Any] = {}
        nopa.create_hash_table = recording_create
        try:
            for backend in JOIN_BACKENDS:
                join = nopa.NoPartitioningJoin(
                    ibm_ac922(),
                    hash_table_placement="gpu",
                    transfer_method="coherence",
                    backend=backend,
                    workers=JOIN_WORKERS,
                )
                gc.collect()
                if not refs:
                    _read_speed(speed, refs)
                with _span(tracer, f"join.{backend}"):
                    start = perf_counter()
                    result = join.run(inputs.r, inputs.s)
                    parts[backend] = perf_counter() - start
                _read_speed(speed, refs)
                results[backend] = (result, tables[-1].stats.as_tuple())
        finally:
            nopa.create_hash_table = create
        return {"pass_s": sum(parts.values()), "parts": parts, "refs": refs}, results

    def summary(self, inputs, results):
        import numpy as np

        s_keys = inputs.s.key.astype(np.int64)
        return {
            "tuples": inputs.r.executed_tuples + inputs.s.executed_tuples,
            # R's payload is 3*key + 1 and every S key hits R's dense key
            # domain, so the aggregate has a closed form.
            "oracle": {
                "matches": int(len(s_keys)),
                "aggregate": int(3 * int(s_keys.sum()) + len(s_keys)),
            },
            "backends": {
                backend: {
                    "matches": result.matches,
                    "aggregate": result.aggregate,
                    "build": _phase(result.build_cost),
                    "probe": _phase(result.probe_cost),
                    "table_stats": list(stats),
                }
                for backend, (result, stats) in results.items()
            },
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Figures(), Serving(), ServingOverload(), Join())
}


# ----------------------------------------------------------------------
# checks (run by the orchestrator on worker summaries)
# ----------------------------------------------------------------------
def bench_pr2_figures(root) -> Dict[str, Any]:
    """``BENCH_pr2.json``'s figures, keyed by figure name."""
    with open(root / "BENCH_pr2.json", encoding="utf-8") as handle:
        return {fig["figure"]: fig for fig in json.load(handle)["figures"]}


def check_figures(summary, reference, bench_pr2) -> Tuple[int, int, List[str]]:
    """One operation per figure module: its printed output and figures."""
    problems: List[str] = []
    failed = 0
    modules = summary["modules"]
    expected = reference["figures"]["text_sha"]
    names = sorted(set(expected) | set(modules))
    for short in names:
        if short not in modules or short not in expected:
            bad = ["no output" if short not in modules else "no pinned reference"]
        else:
            bad = []
            if modules[short]["text_sha"] != expected[short]:
                bad.append("printed output differs from the pinned digest")
            for figure in modules[short]["figures"]:
                name = figure["figure"]
                if name in bench_pr2:
                    if figure != bench_pr2[name]:
                        bad.append(f"{name!r} differs from BENCH_pr2.json")
                elif digest(figure) != reference["figures"]["figure_sha"].get(name):
                    bad.append(f"{name!r} differs from its pinned digest")
        if bad:
            failed += 1
            problems.append(f"figures: {short}: " + "; ".join(bad))
    return len(names), failed, problems


def check_serving(name, summary, seed, reference) -> List[str]:
    problems: List[str] = []
    outcomes = summary["outcomes"]
    accounted = sum(outcomes.values())
    if summary["submitted"] != accounted:
        problems.append(
            f"{name}: conservation broken: submitted {summary['submitted']} "
            f"!= accounted {accounted} {outcomes}"
        )
    if name == "serving-overload":
        # The workload exists to exercise these paths; one that stopped
        # shedding, cancelling or retrying no longer measures them.
        for key, value in (
            ("shed", outcomes["shed"]),
            ("deadline_exceeded", outcomes["deadline_exceeded"]),
            ("retries", summary["retries"]),
        ):
            if value <= 0:
                problems.append(f"{name}: expected {key} > 0, got {value}")
    if seed == DEFAULT_SEED:
        pinned = reference[name]
        if summary["records_sha"] != pinned["records_sha"]:
            problems.append(f"{name}: request outcomes differ from the pinned digest")
        if outcomes != pinned["outcomes"]:
            problems.append(
                f"{name}: outcome counts {outcomes} != pinned {pinned['outcomes']}"
            )
    return problems


def check_join(summary, seed, reference) -> Tuple[int, int, List[str]]:
    """One operation per backend: its result against the others and oracle."""
    problems: List[str] = []
    failed = 0
    backends = summary["backends"]
    serial = backends.get("serial")
    oracle = summary["oracle"]
    for backend in JOIN_BACKENDS:
        got = backends.get(backend)
        if got is None:
            bad = ["no result"]
        else:
            bad = []
            if got["matches"] != oracle["matches"]:
                bad.append(f"matches {got['matches']} != {oracle['matches']}")
            if got["aggregate"] != oracle["aggregate"]:
                bad.append(f"aggregate {got['aggregate']} != {oracle['aggregate']}")
            if serial is not None and got != serial:
                diff = sorted(k for k in got if got[k] != serial.get(k))
                bad.append(f"differs from serial in {diff}")
            if seed == DEFAULT_SEED and digest(got) != reference["join"]["backend_sha"]:
                bad.append("differs from the pinned digest")
        if bad:
            failed += 1
            problems.append(f"join: {backend}: " + "; ".join(bad))
    return len(JOIN_BACKENDS), failed, problems


def check_pass(
    name: str,
    summary: Dict[str, Any],
    seed: int,
    reference: Dict[str, Any],
    root,
    first: Optional[Dict[str, Any]] = None,
) -> Tuple[int, int, List[str]]:
    """Check one pass: (operations attempted, operations failed, problems).

    ``first`` is an earlier pass of the same run and seed (untraced);
    every later pass, traced ones included, must repeat its modeled
    outputs bit for bit.
    """
    if name == "figures":
        attempted, failed, problems = check_figures(
            summary, reference, bench_pr2_figures(root)
        )
    elif name == "join":
        attempted, failed, problems = check_join(summary, seed, reference)
    else:
        problems = check_serving(name, summary, seed, reference)
        attempted = summary["submitted"]
        failed = attempted if problems else 0
    if first is not None and summary != first:
        problems.append(f"{name}: outputs differ from the run's first pass")
        failed = attempted
    return attempted, failed, problems
