"""The gossip overlay (paper Sections II-B2 and III-C).

Each node maintains ``gossip_fanout`` outgoing links to uniformly random
peers (the paper uses 5).  The fast kernel (:mod:`repro.sim.fastpath`)
models dissemination as hop distances through this overlay's relaying
subgraph; the per-message gossip layer it is checked against lives with
the test suite's discrete-event oracle (``tests/des``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.errors import NetworkError


def build_random_overlay(
    node_ids: Sequence[int], fanout: int, rng
) -> Dict[int, List[int]]:
    """Build the neighbour lists of the gossip overlay.

    Each node *selects* ``fanout`` distinct random peers, never itself
    (paper Section III-C: "each node sends the messages to 5 other nodes
    that are randomly selected").  Peer links are TCP connections (paper
    Section II-B2), so messages relay in both directions: a node's
    neighbour set is the union of the peers it selected and the peers that
    selected it.  The construction retries until the resulting undirected
    graph is connected, so a fully honest network can always disseminate.
    """
    ids = list(node_ids)
    if fanout >= len(ids):
        raise NetworkError(
            f"fanout {fanout} must be smaller than the number of nodes {len(ids)}"
        )
    for _attempt in range(100):
        selected: Dict[int, List[int]] = {}
        for node_id in ids:
            candidates = [other for other in ids if other != node_id]
            selected[node_id] = rng.sample(candidates, fanout)
        neighbors: Dict[int, Set[int]] = {node_id: set() for node_id in ids}
        for source, targets in selected.items():
            for target in targets:
                neighbors[source].add(target)
                neighbors[target].add(source)
        if _connected(neighbors):
            return {node_id: sorted(peers) for node_id, peers in neighbors.items()}
    raise NetworkError("failed to build a connected overlay in 100 attempts")


def _connected(neighbors: Dict[int, Set[int]]) -> bool:
    """Whether the undirected overlay is one component (a stack walk)."""
    start = next(iter(neighbors))
    reached = {start}
    stack = [start]
    while stack:
        for peer in neighbors[stack.pop()]:
            if peer not in reached:
                reached.add(peer)
                stack.append(peer)
    return len(reached) == len(neighbors)
