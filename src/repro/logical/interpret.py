"""Lower a logical plan to a ``repro.engine.operators`` pipeline.

This is the *functional* lowering: it produces actual result tuples by
interpreting the logical plan with the vectorized pull-based engine.
The priced lowering (``repro.logical.lower``) produces the cost-model
:class:`repro.plan.Plan` for the same query; facades run both and the
golden harness pins that the pair stays consistent.
"""

from __future__ import annotations

from repro.engine import operators as ops
from repro.logical.algebra import (
    Aggregate,
    Filter,
    HashJoin,
    LogicalError,
    Project,
    Query,
    Scan,
)


def to_operators(
    node,
    morsel_rows: int = 1 << 16,
    hash_scheme: str = "open_addressing",
) -> ops.Operator:
    """Recursively translate a logical tree into engine operators."""
    if isinstance(node, Query):
        node = node.node
    if isinstance(node, Scan):
        return ops.TableScan(node.data, morsel_rows=morsel_rows)
    if isinstance(node, Filter):
        child = to_operators(node.child, morsel_rows, hash_scheme)
        predicate = node.predicate
        return ops.Filter(
            child, lambda batch: predicate.mask(batch[predicate.column])
        )
    if isinstance(node, Project):
        child = to_operators(node.child, morsel_rows, hash_scheme)
        return ops.Project(child, node.expressions)
    if isinstance(node, HashJoin):
        build = to_operators(node.build, morsel_rows, hash_scheme)
        probe = to_operators(node.probe, morsel_rows, hash_scheme)
        return ops.HashJoinOp(
            build,
            probe,
            build_key=node.build_key,
            probe_key=node.probe_key,
            hash_scheme=hash_scheme,
            output_prefix=node.output_prefix,
        )
    if isinstance(node, Aggregate):
        child = to_operators(node.child, morsel_rows, hash_scheme)
        return ops.HashAggregate(child, node.group_by, node.aggregates)
    raise LogicalError(
        f"no engine lowering for logical node {type(node).__name__}"
    )


def run_pipeline(
    query,
    morsel_rows: int = 1 << 16,
    hash_scheme: str = "open_addressing",
) -> ops.Batch:
    """Interpret a logical plan; returns the collected result batch."""
    return ops.collect(to_operators(query, morsel_rows, hash_scheme))
