"""The storage catalog."""

import numpy as np
import pytest

from repro.hardware.memory import MemoryKind
from repro.memory.allocator import OutOfMemoryError
from repro.storage import Catalog, TableExistsError


def columns(n=100):
    return {
        "id": np.arange(n, dtype=np.int64),
        "value": np.arange(n, dtype=np.int32),
    }


@pytest.fixture
def catalog(ibm):
    return Catalog(ibm)


class TestCreateDrop:
    def test_create_reserves_modeled_bytes(self, catalog):
        catalog.create_table("t", columns(100), modeled_rows=10**9)
        assert catalog.used_bytes("cpu0-mem") == 12 * 10**9

    def test_drop_releases(self, catalog):
        catalog.create_table("t", columns())
        catalog.drop_table("t")
        assert catalog.used_bytes("cpu0-mem") == 0
        assert "t" not in catalog

    def test_duplicate_name_rejected(self, catalog):
        catalog.create_table("t", columns())
        with pytest.raises(TableExistsError):
            catalog.create_table("t", columns())

    def test_empty_and_ragged_rejected(self, catalog):
        with pytest.raises(ValueError):
            catalog.create_table("empty", {})
        with pytest.raises(ValueError):
            catalog.create_table(
                "ragged", {"a": np.arange(3), "b": np.arange(4)}
            )

    def test_oversized_rejected(self, catalog):
        with pytest.raises(OutOfMemoryError):
            catalog.create_table(
                "huge", columns(), modeled_rows=200 * 10**9
            )

    def test_unknown_table(self, catalog):
        with pytest.raises(KeyError):
            catalog.table("ghost")
        with pytest.raises(KeyError):
            catalog.drop_table("ghost")

    def test_listing(self, catalog):
        catalog.create_table("b", columns())
        catalog.create_table("a", columns())
        assert catalog.tables() == ["a", "b"]


class TestTableViews:
    def test_column_access(self, catalog):
        table = catalog.create_table("t", columns(10))
        assert np.array_equal(table.column("id"), np.arange(10))
        with pytest.raises(KeyError):
            table.column("ghost")

    def test_as_relation_carries_placement(self, catalog):
        table = catalog.create_table(
            "t", columns(10), location="cpu1-mem", kind=MemoryKind.PINNED
        )
        relation = table.as_relation("id", "value")
        assert relation.location == "cpu1-mem"
        assert relation.kind is MemoryKind.PINNED
        assert relation.executed_tuples == 10

    def test_relation_feeds_join(self, catalog, ibm):
        from repro.core.join.nopa import NoPartitioningJoin

        n = 256
        catalog.create_table("r", columns(n))
        rng = np.random.default_rng(0)
        catalog.create_table(
            "s",
            {
                "id": rng.integers(0, n, 4 * n).astype(np.int64),
                "value": np.zeros(4 * n, dtype=np.int32),
            },
        )
        r = catalog.table("r").as_relation("id", "value")
        s = catalog.table("s").as_relation("id", "value")
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(r, s)
        assert res.matches == 4 * n

    def test_str(self, catalog):
        table = catalog.create_table("t", columns(10))
        assert "t" in str(table) and "cpu0-mem" in str(table)


class TestMigration:
    def test_migrate_moves_capacity(self, catalog):
        catalog.create_table("t", columns(100), modeled_rows=10**8)
        seconds = catalog.migrate("t", "cpu1-mem")
        assert seconds > 0
        assert catalog.used_bytes("cpu0-mem") == 0
        assert catalog.used_bytes("cpu1-mem") == 12 * 10**8
        assert catalog.table("t").location == "cpu1-mem"

    def test_migrate_to_same_region_is_free(self, catalog):
        catalog.create_table("t", columns())
        assert catalog.migrate("t", "cpu0-mem") == 0.0

    def test_migration_time_scales_with_size(self, catalog):
        catalog.create_table("small", columns(10), modeled_rows=10**7)
        catalog.create_table("large", columns(10), modeled_rows=10**9)
        t_small = catalog.migrate("small", "cpu1-mem")
        t_large = catalog.migrate("large", "cpu1-mem")
        assert t_large == pytest.approx(100 * t_small, rel=0.01)

    def test_migrate_into_full_region_fails_cleanly(self, catalog, ibm):
        catalog.create_table("t", columns(), modeled_rows=10**8)
        filler = catalog.allocator.alloc(
            "cpu1-mem", ibm.memory("cpu1-mem").free_bytes
        )
        with pytest.raises(OutOfMemoryError):
            catalog.migrate("t", "cpu1-mem")
        # The table must still be intact at the source.
        assert catalog.table("t").location == "cpu0-mem"
        catalog.allocator.free(filler)

    def test_total_modeled_bytes(self, catalog):
        catalog.create_table("a", columns(10), modeled_rows=100)
        catalog.create_table("b", columns(10), modeled_rows=200)
        assert catalog.total_modeled_bytes() == 12 * 300
