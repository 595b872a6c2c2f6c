"""In-memory host-time spans around the public functions of each layer.

The traced run wraps functions of ``repro``'s layers from outside the
package: each wrapper records one span (name, start, end, parent span,
thread) per call into a list held by a :class:`Tracer`, and the spans
are written once, when the run ends.  Nothing under ``src/`` changes.

A function is wrapped where its callers look it up.  A module-level
function is replaced in every loaded ``repro`` module that holds it
(``solve_concurrent_rates`` is imported by name into both
``repro.plan.executor`` and ``repro.serve.scheduler``); a method is
replaced on its class, so instances and subclasses see the wrapper.

A layer's self time is its span's duration minus the union of its
child spans' intervals.  Spans opened on a worker thread with no open
span of their own take the main thread's innermost open span as parent,
so hash-table work done by ``repro.exec`` worker threads is subtracted
from the ``exec`` span that waited for it.  Work done in forked child
processes records no spans in the parent.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (span name, module, attribute path, counter hook name or None).
#: A dotted attribute path names a method on a class.
TARGETS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("serve.serve", "repro.serve.service", "QueryService.serve", None),
    ("serve.manifest_copy", "repro.serve.cache", "PlanCacheEntry.manifest_copy", None),
    ("serve.scheduler", "repro.serve.scheduler", "ContentionScheduler.run", None),
    ("serve.admit", "repro.serve.admission", "AdmissionController.admit", None),
    ("serve.cache_get", "repro.serve.cache", "PlanCache.get", "cache_hit"),
    ("sim.run", "repro.sim.engine", "Simulator.run", None),
    ("sim.step", "repro.sim.engine", "Simulator.step", None),
    ("sim.cancel", "repro.sim.engine", "Simulator.cancel_event", None),
    ("sim.solver", "repro.sim.resources", "solve_concurrent_rates", None),
    ("plan.execute", "repro.plan.executor", "PlanExecutor.execute", None),
    ("costmodel.phase_cost", "repro.costmodel.model", "CostModel.phase_cost", None),
    ("logical.compile", "repro.logical.lower", "compile_query", None),
    ("logical.optimize", "repro.logical.optimizer", "optimize", "candidates"),
    ("core.dispatch", "repro.core.scheduler.morsel", "MorselDispatcher.next_batch", None),
    ("obs.metric", "repro.obs.metrics", "MetricsRegistry.counter", None),
    ("obs.metric", "repro.obs.metrics", "MetricsRegistry.gauge", None),
    ("obs.metric", "repro.obs.metrics", "MetricsRegistry.histogram", None),
    ("obs.timeline", "repro.obs.trace", "Timeline.record", None),
    ("obs.build_manifest", "repro.obs.manifest", "build_manifest", None),
    ("exec.build", "repro.exec.functional", "execute_build", "exec_tuples"),
    ("exec.probe", "repro.exec.functional", "execute_probe", "exec_tuples"),
    ("core.hashtable.insert", "repro.core.hashtable.base", "HashTableBase.insert_batch", None),
    ("core.hashtable.insert", "repro.core.hashtable.perfect", "PerfectHashTable.insert_batch", None),
    ("core.hashtable.insert", "repro.core.hashtable.chaining", "ChainingHashTable.insert_batch", None),
    ("core.hashtable.insert", "repro.core.hashtable.open_addressing", "OpenAddressingHashTable.insert_batch", None),
    ("core.hashtable.insert", "repro.core.hashtable.sharded", "ShardedHashTable.insert_batch", None),
    ("core.hashtable.lookup", "repro.core.hashtable.base", "HashTableBase.lookup_batch", None),
    ("core.hashtable.lookup", "repro.core.hashtable.perfect", "PerfectHashTable.lookup_batch", None),
    ("core.hashtable.lookup", "repro.core.hashtable.chaining", "ChainingHashTable.lookup_batch", None),
    ("core.hashtable.lookup", "repro.core.hashtable.open_addressing", "OpenAddressingHashTable.lookup_batch", None),
    ("core.hashtable.lookup", "repro.core.hashtable.sharded", "ShardedHashTable.lookup_batch", None),
    ("workloads.gen", "repro.workloads.builders", "workload_a", None),
    ("workloads.gen", "repro.workloads.builders", "workload_b", None),
    ("workloads.gen", "repro.workloads.builders", "workload_c", None),
    ("workloads.gen", "repro.workloads.builders", "workload_skewed", None),
    ("workloads.gen", "repro.workloads.builders", "workload_selectivity", None),
    ("workloads.gen", "repro.workloads.builders", "workload_ratio", None),
    ("workloads.gen", "repro.workloads.tpch", "lineitem_q6", None),
    ("workloads.gen", "repro.workloads.zipf", "zipf_ranks", None),
    ("faults.check", "repro.faults.plan", "FaultPlan.check_query", None),
    ("faults.check", "repro.faults.plan", "FaultPlan.check_morsel", None),
    ("faults.check", "repro.faults.plan", "FaultPlan.check_alloc", None),
)

#: Counter hooks: called with (args, kwargs, result), return the amount.
COUNTERS: Dict[str, Callable[[tuple, dict, Any], float]] = {
    "cache_hit": lambda args, kwargs, result: 0 if result is None else 1,
    "candidates": lambda args, kwargs, result: len(result.candidates),
    "exec_tuples": lambda args, kwargs, result: len(
        args[1] if len(args) > 1 else kwargs["keys"]
    ),
}


class Tracer:
    """Collects spans of one traced workload run in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: completed spans: (id, name, start, end, parent id, thread id).
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        #: counter-hook totals, keyed by hook name.
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main: List[int] = []
        self._local.stack = self._main

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[List[int], int, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main
            parent = main[-1] if main else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, span_id, parent

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around the body of a ``with`` block."""
        stack, span_id, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident())
            )

    def wrap(
        self, name: str, fn: Callable[..., Any], counter: Optional[str] = None
    ) -> Callable[..., Any]:
        """``fn`` recording one span named ``name`` per call."""
        spans = self.spans
        counts = self.counts
        hook = COUNTERS[counter] if counter is not None else None
        get_ident = threading.get_ident
        open_span = self._open

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack, span_id, parent = open_span()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, get_ident()))
            if hook is not None:
                counts[counter] += hook(args, kwargs, result)
            return result

        return traced

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span once, gzip-compressed JSON."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            "meta": meta,
            "columns": ["id", "name", "start", "end", "parent", "thread"],
            "names": names,
            "spans": [
                [s[0], index[s[1]], s[2], s[3], s[4], s[5]]
                for s in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle)


def instrument(
    tracer: Tracer, targets: Sequence = TARGETS
) -> List[Tuple[Any, str, Any]]:
    """Wrap every target where callers look it up.

    Returns the replaced bindings as (owner, attribute, original) so
    :func:`restore` can undo them.
    """
    replaced: List[Tuple[Any, str, Any]] = []
    by_function: Dict[int, Callable[..., Any]] = {}
    for name, module_name, path, counter in targets:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(name, original, counter))
            replaced.append((owner, attr, original))
        else:
            original = getattr(module, attr)
            by_function[id(original)] = tracer.wrap(name, original, counter)
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            wrapped = by_function.get(id(value))
            if wrapped is not None:
                setattr(module, key, wrapped)
                replaced.append((module, key, value))
    return replaced


def restore(replaced: Sequence[Tuple[Any, str, Any]]) -> None:
    """Put back the bindings :func:`instrument` replaced."""
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)


def span_stats(
    spans: Sequence[Tuple[int, str, float, float, int, int]]
) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    Self time is the span's duration minus the union of its children's
    intervals (clipped to the span), so overlapping children on worker
    threads are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _id, _name, start, end, parent, _thread in spans:
        if parent:
            children[parent].append((start, end))
    stats: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span_id, name, start, end, _parent, _thread in spans:
        covered = 0.0
        kids = children.get(span_id)
        if kids:
            kids.sort()
            cur_start = cur_end = None
            for k_start, k_end in kids:
                k_start = max(k_start, start)
                k_end = min(k_end, end)
                if k_end <= k_start:
                    continue
                if cur_end is None or k_start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = k_start, k_end
                elif k_end > cur_end:
                    cur_end = k_end
            if cur_end is not None:
                covered += cur_end - cur_start
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered
    return dict(stats)
