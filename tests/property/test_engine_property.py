"""Property-based tests of the query engine.

Invariant: any operator tree computes the same answer as the equivalent
whole-array numpy expression, for any data and any morsel size.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Filter,
    HashAggregate,
    HashJoinOp,
    Limit,
    Project,
    TableScan,
    collect,
)


def arrays(max_n=300):
    return st.lists(
        st.integers(0, 50), min_size=0, max_size=max_n
    ).map(lambda xs: np.array(xs, dtype=np.int64))


class TestScanFilterProject:
    @given(data=arrays(), morsel=st.integers(1, 64), threshold=st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_filter_equals_numpy(self, data, morsel, threshold):
        if len(data) == 0:
            return
        scan = TableScan({"v": data}, morsel_rows=morsel)
        out = collect(Filter(scan, lambda b: b["v"] < threshold))
        expected = data[data < threshold]
        got = out["v"] if len(out["v"]) else np.array([], dtype=np.int64)
        assert np.array_equal(np.asarray(got, dtype=np.int64), expected)

    @given(data=arrays(), morsel=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_project_preserves_row_order(self, data, morsel):
        if len(data) == 0:
            return
        scan = TableScan({"v": data}, morsel_rows=morsel)
        out = collect(Project(scan, {"w": lambda b: b["v"] * 3}))
        assert np.array_equal(out["w"], data * 3)

    @given(data=arrays(), morsel=st.integers(1, 64), n=st.integers(0, 400))
    @settings(max_examples=50, deadline=None)
    def test_limit_prefix(self, data, morsel, n):
        if len(data) == 0:
            return
        scan = TableScan({"v": data}, morsel_rows=morsel)
        out = collect(Limit(scan, n))
        got = out["v"] if len(out["v"]) else np.array([], dtype=np.int64)
        assert np.array_equal(np.asarray(got, dtype=np.int64), data[:n])


class TestAggregateProperties:
    @given(
        values=arrays(),
        groups=arrays(),
        morsel=st.integers(1, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_group_sums_partition_the_total(self, values, groups, morsel):
        n = min(len(values), len(groups))
        if n == 0:
            return
        values, groups = values[:n], groups[:n]
        scan = TableScan({"v": values, "g": groups}, morsel_rows=morsel)
        out = collect(
            HashAggregate(scan, ("g",), {"s": ("v", "sum"), "n": ("*", "count")})
        )
        assert out["s"].sum() == values.sum()
        assert out["n"].sum() == n
        # Groups are exactly the distinct values.
        assert np.array_equal(np.sort(out["g"]), np.unique(groups))

    @given(values=arrays(), morsel=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_min_max_bounds(self, values, morsel):
        if len(values) == 0:
            return
        scan = TableScan({"v": values}, morsel_rows=morsel)
        out = collect(
            HashAggregate(scan, (), {"lo": ("v", "min"), "hi": ("v", "max")})
        )
        assert out["lo"][0] == values.min()
        assert out["hi"][0] == values.max()


class TestJoinProperties:
    @given(
        build_keys=st.sets(st.integers(0, 60), max_size=40),
        probe_keys=arrays(max_n=150),
        morsel=st.integers(1, 32),
    )
    @settings(max_examples=50, deadline=None)
    def test_join_equals_set_semantics(self, build_keys, probe_keys, morsel):
        build_arr = np.array(sorted(build_keys), dtype=np.int64)
        build = TableScan(
            {"k": build_arr, "p": build_arr * 2}, morsel_rows=max(1, morsel)
        )
        probe = TableScan({"fk": probe_keys}, morsel_rows=morsel)
        out = collect(HashJoinOp(build, probe, "k", "fk"))
        expected = probe_keys[np.isin(probe_keys, build_arr)]
        got = out["fk"] if len(out["fk"]) else np.array([], dtype=np.int64)
        assert np.array_equal(np.asarray(got, dtype=np.int64), expected)
        if len(got):
            assert np.array_equal(out["build_p"], np.asarray(got) * 2)
