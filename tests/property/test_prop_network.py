"""Property-based tests for the network substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import BASE_STATION, build_connectivity_graph
from repro.network.latency import delivery_report, hop_counts


def deployment_strategy():
    @st.composite
    def build(draw):
        seed = draw(st.integers(0, 2**31))
        count = draw(st.integers(2, 50))
        side = draw(st.floats(50.0, 500.0))
        comm_range = draw(st.floats(10.0, 300.0))
        rng = np.random.default_rng(seed)
        return rng.uniform(0, side, size=(count, 2)), comm_range, side

    return build()


class TestGraphProperties:
    @given(data=deployment_strategy())
    @settings(max_examples=100, deadline=None)
    def test_edges_iff_within_range(self, data):
        positions, comm_range, _ = data
        graph = build_connectivity_graph(positions, comm_range)
        for a, b in graph.edges:
            assert np.hypot(*(positions[a] - positions[b])) <= comm_range + 1e-9
        # Spot-check some non-edges.
        nodes = list(graph.nodes)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.choice(nodes, 2, replace=False)
            distance = np.hypot(*(positions[a] - positions[b]))
            assert graph.has_edge(int(a), int(b)) == (distance <= comm_range)


class TestDeliveryProperties:
    @given(data=deployment_strategy(), latency=st.floats(0.5, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_report_internally_consistent(self, data, latency):
        positions, comm_range, side = data
        graph = build_connectivity_graph(
            positions, comm_range, base_station=(side / 2, side / 2)
        )
        report = delivery_report(graph, period_length=60.0, per_hop_latency=latency)
        assert 0 <= report.deliverable_nodes <= report.connected_nodes
        assert report.connected_nodes <= report.total_nodes
        assert 0.0 <= report.deliverable_fraction <= report.connected_fraction <= 1.0
        hops = hop_counts(graph)
        assert report.connected_nodes == len(hops)
        if hops:
            assert report.max_hops == max(hops.values())

    @given(data=deployment_strategy())
    @settings(max_examples=40, deadline=None)
    def test_generous_budget_delivers_all_connected(self, data):
        positions, comm_range, side = data
        graph = build_connectivity_graph(
            positions, comm_range, base_station=(side / 2, side / 2)
        )
        report = delivery_report(graph, period_length=1e9, per_hop_latency=1.0)
        assert report.deliverable_nodes == report.connected_nodes
