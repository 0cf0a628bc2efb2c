"""Unit tests for the DES gossip layer."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

import pytest

from repro.errors import NetworkError
from repro.sim.crypto import VrfOutput
from repro.sim.network import build_random_overlay
from repro.sim.sortition import Role, SortitionProof

from des.engine import EventEngine
from des.messages import BlockProposalMessage, CredentialMessage
from des.network import GossipNetwork
from oracles import honest_subgraph


@dataclass
class StubNode:
    """Minimal gossip participant for network-layer tests."""

    node_id: int
    relays: bool = True
    online: bool = True
    relay_decision: bool = True
    received: List[object] = field(default_factory=list)

    def on_receive(self, message, now):
        self.received.append(message)
        return self.relay_decision

    @property
    def relays_gossip(self):
        return self.relays

    @property
    def is_online(self):
        return self.online


def _proof(priority: float) -> SortitionProof:
    return SortitionProof(
        public_key=1,
        role=Role.PROPOSER,
        round_index=1,
        step=0,
        vrf=VrfOutput(value=0.5, proof=1),
        weight=1,
        priority=priority,
        stake=10,
        total_stake=100,
        expected_size=5,
    )


def _make_network(n=8, fanout=3, seed=0, drop=0.0):
    engine = EventEngine()
    rng = random.Random(seed)
    overlay = build_random_overlay(list(range(n)), fanout, rng)
    network = GossipNetwork(
        engine,
        overlay,
        delay_sampler=lambda: 0.1,
        drop_probability=drop,
        drop_rng=random.Random(seed + 1) if drop else None,
    )
    nodes = [StubNode(i) for i in range(n)]
    for node in nodes:
        network.register(node)
    return engine, network, nodes


class TestDissemination:
    def test_broadcast_reaches_all_nodes(self):
        engine, network, nodes = _make_network()
        message = CredentialMessage(sender=0, block_round=1, proof=_proof(0.5))
        network.broadcast(0, message)
        engine.run()
        assert all(len(node.received) == 1 for node in nodes)

    def test_duplicates_are_suppressed(self):
        engine, network, nodes = _make_network()
        message = CredentialMessage(sender=0, block_round=1, proof=_proof(0.5))
        network.broadcast(0, message)
        engine.run()
        assert network.stats.duplicates_suppressed > 0
        assert all(len(node.received) == 1 for node in nodes)

    def test_offline_origin_sends_nothing(self):
        engine, network, nodes = _make_network()
        nodes[0].online = False
        network.broadcast(0, CredentialMessage(sender=0, block_round=1, proof=_proof(0.5)))
        engine.run()
        assert all(not node.received for node in nodes)

    def test_offline_target_receives_nothing(self):
        engine, network, nodes = _make_network()
        nodes[3].online = False
        network.broadcast(0, CredentialMessage(sender=0, block_round=1, proof=_proof(0.5)))
        engine.run()
        assert not nodes[3].received

    def test_non_relaying_nodes_still_receive(self):
        engine, network, nodes = _make_network(n=10, fanout=3)
        for node in nodes[1:]:
            node.relays = False
        network.broadcast(0, CredentialMessage(sender=0, block_round=1, proof=_proof(0.5)))
        engine.run()
        # Only direct neighbours of node 0 get the message (no relaying).
        receivers = [node.node_id for node in nodes if node.received]
        assert set(receivers) == {0, *network.neighbors_of(0)}

    def test_relay_decision_false_stops_forwarding(self):
        engine, network, nodes = _make_network(n=10, fanout=3)
        for node in nodes:
            node.relay_decision = False
        network.broadcast(0, CredentialMessage(sender=0, block_round=1, proof=_proof(0.5)))
        engine.run()
        receivers = {node.node_id for node in nodes if node.received}
        assert receivers == {0, *network.neighbors_of(0)}

    def test_delay_scale_slows_delivery(self):
        engine, network, nodes = _make_network()
        network.delay_scale = 10.0
        network.broadcast(0, CredentialMessage(sender=0, block_round=1, proof=_proof(0.5)))
        engine.run(until=0.5)
        # One hop takes 1.0 simulated seconds now; nothing beyond node 0 yet.
        reached = sum(1 for node in nodes if node.received)
        assert reached == 1

    def test_drops_lose_hops(self):
        engine, network, nodes = _make_network(n=16, fanout=3, drop=0.95)
        network.broadcast(0, CredentialMessage(sender=0, block_round=1, proof=_proof(0.5)))
        engine.run()
        assert network.stats.drops > 0


class TestPriorityFiltering:
    def test_worse_proposal_not_relayed_after_better_seen(self):
        engine, network, nodes = _make_network(n=6, fanout=2)
        good = BlockProposalMessage(sender=0, block_hash=1, block_round=1, proof=_proof(0.1))
        bad = BlockProposalMessage(sender=1, block_hash=2, block_round=1, proof=_proof(0.9))
        network.broadcast(0, good)
        engine.run()
        network.broadcast(1, bad)
        engine.run()
        assert network.stats.relay_filtered > 0

    def test_credentials_prime_the_filter(self):
        engine, network, nodes = _make_network(n=6, fanout=2)
        credential = CredentialMessage(sender=0, block_round=1, proof=_proof(0.05))
        network.broadcast(0, credential)
        engine.run()
        worse = BlockProposalMessage(sender=1, block_hash=2, block_round=1, proof=_proof(0.5))
        network.broadcast(1, worse)
        engine.run()
        assert network.stats.relay_filtered > 0

    def test_begin_round_resets_filter(self):
        engine, network, nodes = _make_network(n=6, fanout=2)
        network.broadcast(0, CredentialMessage(sender=0, block_round=1, proof=_proof(0.05)))
        engine.run()
        network.begin_round()
        fresh = BlockProposalMessage(sender=1, block_hash=2, block_round=2, proof=_proof(0.5))
        filtered_before = network.stats.relay_filtered
        network.broadcast(1, fresh)
        engine.run()
        assert network.stats.relay_filtered == filtered_before


class TestRegistration:
    def test_unknown_node_registration_fails(self):
        engine, network, nodes = _make_network(n=4, fanout=2)
        with pytest.raises(NetworkError):
            network.register(StubNode(99))

    def test_neighbors_of_unknown_node_fails(self):
        engine, network, nodes = _make_network(n=4, fanout=2)
        with pytest.raises(NetworkError):
            network.neighbors_of(99)

    def test_drop_probability_requires_rng(self):
        engine = EventEngine()
        overlay = build_random_overlay([0, 1, 2], 1, random.Random(0))
        with pytest.raises(NetworkError):
            GossipNetwork(engine, overlay, lambda: 0.1, drop_probability=0.5)


class TestHonestSubgraph:
    def test_honest_subgraph_excludes_non_relaying(self):
        engine, network, nodes = _make_network(n=8, fanout=3)
        nodes[2].relays = False
        nodes[5].online = False
        subgraph = honest_subgraph(network)
        assert 2 not in subgraph.nodes
        assert 5 not in subgraph.nodes
        assert 0 in subgraph.nodes
