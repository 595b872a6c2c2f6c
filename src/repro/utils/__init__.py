"""Shared utilities: units and table rendering."""

from repro.utils.units import (
    KIB,
    MIB,
    GIB,
    KB,
    MB,
    GB,
    NS,
    US,
    MS,
    SECOND,
    format_bytes,
    format_time,
    format_throughput,
    gib_per_s,
)
from repro.utils.tables import Table

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "KB",
    "MB",
    "GB",
    "NS",
    "US",
    "MS",
    "SECOND",
    "format_bytes",
    "format_time",
    "format_throughput",
    "gib_per_s",
    "Table",
]
