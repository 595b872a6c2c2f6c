"""The paper's join throughput metric, shared by every join result."""

from __future__ import annotations


class JoinThroughput:
    """Throughput properties of a join result over ``modeled_tuples``."""

    modeled_tuples: int

    @property
    def runtime(self) -> float:
        """Simulated end-to-end seconds; each result sums its phases."""
        raise NotImplementedError

    @property
    def throughput_tuples(self) -> float:
        """(|R| + |S|) / runtime — the paper's throughput metric."""
        if self.runtime == 0:
            return float("inf")
        return self.modeled_tuples / self.runtime

    @property
    def throughput_gtuples(self) -> float:
        return self.throughput_tuples / 1e9
