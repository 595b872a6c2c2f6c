"""Per-layer metrics of the traced run, derived from span statistics.

Every traced run reports every metric below, whichever workload it
ran: a layer a workload bypasses reads 0, which is itself the
prediction for a change to that layer.  ``_s`` metrics are self time
(span minus child spans) unless noted inclusive; ``_calls`` count
spans.  Each metric names the end-to-end metric and workload(s) a
change to its layer should move.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

SERVING = "pass_norm_s on serving and serving-overload; no change elsewhere"
FIGURES = "pass_norm_s on figures"
DES = "pass_norm_s on figures (morsel replay) and both serving workloads (re-solves)"
JOIN = "pass_norm_s on join, slightly on figures"
MODELED = "modeled count: expected constant; a change means the model changed"
NONE = "none: tracing cost and its bases"

#: (metric, unit, (kind, span names), moves); kind is "self" (self
#: time), "total" (inclusive time) or "calls" (span count).
SPAN_METRICS: Tuple[Tuple[str, str, Tuple[str, Tuple[str, ...]], str], ...] = (
    ("serve.serve_s", "s", ("self", ("serve.serve",)), SERVING),
    ("serve.manifest_copy_s", "s", ("self", ("serve.manifest_copy",)), SERVING),
    ("serve.manifest_copy_calls", "count", ("calls", ("serve.manifest_copy",)), SERVING),
    ("serve.scheduler_s", "s", ("self", ("serve.scheduler",)), SERVING),
    ("serve.admit_calls", "count", ("calls", ("serve.admit",)), SERVING),
    ("serve.cache_lookups", "count", ("calls", ("serve.cache_get",)), SERVING),
    # Simulator.step self time includes the event callbacks' bodies
    # (scheduler and morsel-replay logic not wrapped themselves).
    ("sim.run_s", "s", ("self", ("sim.run", "sim.step")), DES),
    ("sim.events", "count", ("calls", ("sim.step",)), DES),
    ("sim.cancels", "count", ("calls", ("sim.cancel",)), "pass_norm_s on serving-overload"),
    ("sim.solver_s", "s", ("self", ("sim.solver",)), DES),
    ("sim.solver_calls", "count", ("calls", ("sim.solver",)), DES),
    ("plan.execute_s", "s", ("self", ("plan.execute",)), FIGURES),
    ("plan.execute_calls", "count", ("calls", ("plan.execute",)), FIGURES),
    ("costmodel.phase_cost_s", "s", ("self", ("costmodel.phase_cost",)), FIGURES),
    ("costmodel.phase_cost_calls", "count", ("calls", ("costmodel.phase_cost",)), FIGURES),
    ("logical.compile_s", "s", ("self", ("logical.compile",)), FIGURES),
    ("logical.compile_calls", "count", ("calls", ("logical.compile",)), FIGURES),
    ("logical.optimize_s", "s", ("self", ("logical.optimize",)), SERVING),
    ("logical.optimize_calls", "count", ("calls", ("logical.optimize",)), SERVING),
    ("core.dispatch_s", "s", ("self", ("core.dispatch",)), FIGURES),
    ("core.dispatch_calls", "count", ("calls", ("core.dispatch",)), FIGURES),
    ("obs.metric_s", "s", ("self", ("obs.metric",)), FIGURES),
    ("obs.metric_calls", "count", ("calls", ("obs.metric",)), FIGURES),
    ("obs.timeline_records", "count", ("calls", ("obs.timeline",)), FIGURES),
    ("obs.build_manifest_s", "s", ("self", ("obs.build_manifest",)), FIGURES),
    # Inclusive: the whole functional build/probe, hash-table work too.
    ("exec.build_s", "s", ("total", ("exec.build",)), JOIN),
    ("exec.probe_s", "s", ("total", ("exec.probe",)), JOIN),
    # exec self time: dispatch, merge and fork/shm around the hash table
    # (forked children record no spans, so processes count whole here).
    ("exec.overhead_s", "s", ("self", ("exec.build", "exec.probe")), JOIN),
    ("core.hashtable.insert_s", "s", ("self", ("core.hashtable.insert",)), JOIN),
    ("core.hashtable.lookup_s", "s", ("self", ("core.hashtable.lookup",)), JOIN),
    ("workloads.gen_s", "s", ("self", ("workloads.gen",)),
     "setup_s on join, pass_norm_s on figures"),
    ("faults.check_s", "s", ("self", ("faults.check",)), "pass_norm_s on serving-overload only"),
    ("faults.check_calls", "count", ("calls", ("faults.check",)), "pass_norm_s on serving-overload only"),
    # Harness code outside every wrapped layer: bench modules, hardware,
    # transfer and memory models.
    ("trace.other_s", "s", ("self", ("pass",)), FIGURES),
)

#: ``figures.<module>_s``: inclusive wall time of the module's main().
FIGURE_MODULES = (
    "fig01_bandwidth",
    "fig03_microbench",
    "fig11_placement",
    "fig12_transfer_methods",
    "fig13_data_locality",
    "fig14_hashtable_locality",
    "fig15_tpch_q6",
    "fig16_probe_scaling",
    "fig17_build_scaling",
    "fig18_build_probe_ratio",
    "fig19_skew",
    "fig20_selectivity",
    "fig21_coprocessing",
    "ablations",
    "multi_gpu",
)

#: (metric, unit, moves) filled by :func:`traced_pass_metrics` or run.py.
OTHER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("serve.cache_hit_ratio", "ratio", SERVING + " (base: serve.cache_lookups)"),
    ("serve.finished", "count", MODELED),
    ("serve.shed", "count", MODELED),
    ("serve.deadline_exceeded", "count", MODELED),
    ("serve.retries", "count", MODELED),
    ("logical.candidates", "count", SERVING),
    ("exec.tuples", "count", JOIN),
    # From the traced run's untraced passes: one throughput per backend.
    ("join.serial_mtps", "Mtuples/s", "pass_norm_s on join"),
    ("join.threads_mtps", "Mtuples/s", "pass_norm_s on join"),
    ("join.processes_mtps", "Mtuples/s", "pass_norm_s on join"),
    ("trace.spans", "count", NONE),
    ("trace.traced_s", "s", NONE),
    ("trace.untraced_s", "s", NONE),
    ("trace.overhead_ratio", "ratio", NONE + " (trace.traced_s / trace.untraced_s)"),
)


def metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    units = [(name, unit) for name, unit, _how, _moves in SPAN_METRICS]
    units += [(f"figures.{module}_s", "s") for module in FIGURE_MODULES]
    units += [(name, unit) for name, unit, _moves in OTHER_METRICS]
    return units


def traced_pass_metrics(worker: Dict[str, Any]) -> Dict[str, float]:
    """The span- and count-derived metrics of one traced pass."""
    spans = worker["spans"]
    counts = worker["counts"]
    out: Dict[str, float] = {}
    for name, _unit, (kind, span_names), _moves in SPAN_METRICS:
        key = {"self": "self_s", "total": "total_s", "calls": "calls"}[kind]
        out[name] = float(sum(spans.get(s, {}).get(key, 0) for s in span_names))
    for module in FIGURE_MODULES:
        out[f"figures.{module}_s"] = float(
            spans.get(f"figures.{module}", {}).get("total_s", 0.0)
        )
    lookups = out["serve.cache_lookups"]
    out["serve.cache_hit_ratio"] = (
        counts.get("cache_hit", 0.0) / lookups if lookups else 0.0
    )
    summary = worker["summary"]
    outcomes = summary.get("outcomes", {})
    out["serve.finished"] = float(outcomes.get("finished", 0))
    out["serve.shed"] = float(outcomes.get("shed", 0))
    out["serve.deadline_exceeded"] = float(outcomes.get("deadline_exceeded", 0))
    out["serve.retries"] = float(summary.get("retries", 0))
    out["logical.candidates"] = float(counts.get("candidates", 0))
    out["exec.tuples"] = float(counts.get("exec_tuples", 0))
    out["trace.spans"] = float(sum(s["calls"] for s in spans.values()))
    return out
