"""Multi-hop communication substrate (Section 4's connectivity argument)."""

from repro.network.graph import (
    BASE_STATION,
    add_base_stations,
    build_connectivity_graph,
)
from repro.network.latency import (
    delivery_report,
    hop_counts,
    hop_counts_to_nearest,
)

__all__ = [
    "BASE_STATION",
    "add_base_stations",
    "build_connectivity_graph",
    "delivery_report",
    "hop_counts",
    "hop_counts_to_nearest",
]
