"""Unit tests for the gossip overlay."""

from __future__ import annotations

import random

import pytest

from repro.errors import NetworkError
from repro.sim import network as network_module
from repro.sim.network import build_random_overlay


class TestOverlay:
    def test_every_node_has_at_least_fanout_neighbors(self):
        overlay = build_random_overlay(list(range(20)), 5, random.Random(0))
        for neighbors in overlay.values():
            assert len(neighbors) >= 5

    def test_no_self_loops(self):
        overlay = build_random_overlay(list(range(20)), 5, random.Random(0))
        for node, neighbors in overlay.items():
            assert node not in neighbors

    def test_links_are_symmetric(self):
        overlay = build_random_overlay(list(range(20)), 5, random.Random(0))
        for node, neighbors in overlay.items():
            for peer in neighbors:
                assert node in overlay[peer]

    def test_overlay_is_connected(self):
        import networkx as nx

        overlay = build_random_overlay(list(range(30)), 3, random.Random(1))
        graph = nx.Graph(
            (a, b) for a, peers in overlay.items() for b in peers
        )
        assert nx.is_connected(graph)

    def test_connectivity_check_agrees_with_networkx(self, monkeypatch):
        """Every attempt, kept or retried, gets ``nx.is_connected``'s verdict."""
        import networkx as nx

        walk = network_module._connected
        verdicts = []

        def checked(neighbors):
            graph = nx.Graph()
            graph.add_nodes_from(neighbors)
            graph.add_edges_from((a, b) for a, peers in neighbors.items() for b in peers)
            verdict = walk(neighbors)
            assert verdict == nx.is_connected(graph)
            verdicts.append(verdict)
            return verdict

        monkeypatch.setattr(network_module, "_connected", checked)
        for seed in range(40):
            build_random_overlay(list(range(12)), 1, random.Random(seed))
        assert True in verdicts and False in verdicts

    def test_single_node_overlay_is_connected(self):
        assert build_random_overlay([7], 0, random.Random(0)) == {7: []}

    def test_fanout_must_be_below_node_count(self):
        with pytest.raises(NetworkError):
            build_random_overlay([1, 2, 3], 3, random.Random(0))

