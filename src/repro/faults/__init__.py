"""Fault injection & resilience (``repro.faults``).

The paper's thesis is graceful degradation: the hybrid hash table spills
to CPU memory instead of aborting (Section 5.3, Figure 8) and Het morsel
scheduling tolerates an arbitrarily slow co-processor (Section 6.1).
This package makes the reproduction behave the same way under *induced*
failure:

* **Injection** — a seeded, declarative :class:`FaultPlan` installs
  hooks (worker crashes, transient kernel faults, OOM at an allocation
  ordinal, degraded link bandwidth) into the executor, the allocator,
  the placement logic, and the transfer methods; production paths pay
  ~zero overhead when no plan is active.
* **Recovery** — :class:`RetryPolicy` bounds retry-with-backoff;
  :func:`plan_assignment`, the one morsel recovery planner every
  executor backend runs, retries transients in place, re-dispatches
  crashed workers' ranges, and falls back to the calling thread as a
  last resort; the join operators can degrade an out-of-memory
  placement to the hybrid (GPU-first, CPU-spill) layout.
* **Observability** — every injected fault and recovery action lands in
  a :class:`ResilienceLog`, serialized into the schema-versioned
  ``resilience`` section of the run manifest.

The re-exports resolve lazily: the hook sites (allocator, placement,
transfer methods) import :mod:`repro.faults.runtime`, and an eager
``__init__`` here would drag :mod:`repro.faults.plan` — which imports
the allocator right back for ``OutOfMemoryError`` — into their import,
a cycle.  Deferring to first attribute access keeps ``import
repro.faults.runtime`` free of the rest of the package.

See ``docs/robustness.md`` for the fault taxonomy and recovery matrix.
"""

_LAZY = {
    "CrashWorker": "repro.faults.plan",
    "DegradeLink": "repro.faults.plan",
    "FailQuery": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "FaultRecord": "repro.faults.plan",
    "InjectedFault": "repro.faults.plan",
    "InjectedOutOfMemoryError": "repro.faults.plan",
    "OomAt": "repro.faults.plan",
    "QueryFault": "repro.faults.plan",
    "TransientError": "repro.faults.plan",
    "TransientKernelFault": "repro.faults.plan",
    "WorkerCrashFault": "repro.faults.plan",
    "DEFAULT_RETRY_POLICY": "repro.faults.recovery",
    "MorselFailedError": "repro.faults.recovery",
    "RetryPolicy": "repro.faults.recovery",
    "plan_assignment": "repro.faults.recovery",
    "CHAOS_SEEDS": "repro.faults.scenarios",
    "SERVING_CHAOS_SEEDS": "repro.faults.scenarios",
    "chaos_plan": "repro.faults.scenarios",
    "serving_chaos_plan": "repro.faults.scenarios",
    "RESILIENCE_ACTIONS": "repro.faults.resilience",
    "RESILIENCE_SCHEMA_VERSION": "repro.faults.resilience",
    "ResilienceEvent": "repro.faults.resilience",
    "ResilienceLog": "repro.faults.resilience",
    "active_plan": "repro.faults.runtime",
}

__all__ = list(_LAZY)


def __getattr__(name):
    """Resolve the package re-exports on first access (see module doc)."""
    import importlib

    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.faults' has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(module_name), name)
