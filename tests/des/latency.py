"""Calibration of the fast kernel's latency model against DES gossip."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sim.config import SimulationConfig
from repro.sim.fastpath import UNREACHABLE, LatencyModel, _bfs_hops
from repro.sim.network import build_random_overlay
from repro.sim.rng import RngStreams

from des.engine import EventEngine
from des.messages import Message
from des.network import GossipNetwork


def fit_latency_model(
    config: Optional[SimulationConfig] = None,
    n_probes: int = 8,
    seed: int = 0,
) -> LatencyModel:
    """Fit the per-hop latency quantile from the event-driven gossip layer.

    Floods probe messages from ``n_probes`` sources through a real
    :class:`~des.network.GossipNetwork` (every node relaying), records
    each node's first-arrival time, divides by its BFS hop distance, and
    maps the median effective per-hop delay back to a quantile of the
    configured ``U(delay_min, delay_max)`` distribution.  This is the
    "fitted once from the DES" calibration behind
    :data:`repro.sim.fastpath.DEFAULT_HOP_QUANTILE`; re-run it to
    recalibrate after changing the gossip layer.
    """
    if config is None:
        config = SimulationConfig(n_nodes=60, seed=seed)
    span = config.delay_max - config.delay_min
    if span <= 0:
        return LatencyModel(hop_quantile=0.0)

    streams = RngStreams(config.seed)
    ids = list(range(config.n_nodes))
    overlay = build_random_overlay(ids, config.gossip_fanout, streams.get("topology"))
    engine = EventEngine()
    delay_rng = streams.get("net.delay")

    class _Probe:
        relays_gossip = True
        is_online = True

        def __init__(self, node_id: int) -> None:
            self.node_id = node_id
            self.arrived_at: Optional[float] = None

        def on_receive(self, message: Message, now: float) -> bool:
            if self.arrived_at is None:
                self.arrived_at = now
            return True

    network = GossipNetwork(
        engine=engine,
        neighbors=overlay,
        delay_sampler=lambda: delay_rng.uniform(config.delay_min, config.delay_max),
    )
    network.delay_scale = config.delay_scale
    probes = [_Probe(node_id) for node_id in ids]
    for probe in probes:
        network.register(probe)

    # All nodes relay, so hop distances are plain BFS on the overlay.
    hops = _bfs_hops(
        overlay,
        online=np.ones(config.n_nodes, dtype=bool),
        relays=np.ones(config.n_nodes, dtype=bool),
    )

    per_hop: List[float] = []
    for source in range(min(n_probes, config.n_nodes)):
        for probe in probes:
            probe.arrived_at = None
        network.reset_seen()
        start = engine.now
        network.broadcast(source, Message(sender=source))
        engine.run()
        for probe in probes:
            h = int(hops[source, probe.node_id])
            if probe.arrived_at is None or h <= 0 or h >= UNREACHABLE:
                continue
            per_hop.append((probe.arrived_at - start) / h)
    if not per_hop:
        return LatencyModel()
    effective = float(np.median(per_hop)) / config.delay_scale
    quantile = (effective - config.delay_min) / span
    return LatencyModel(hop_quantile=float(np.clip(quantile, 0.0, 1.0)))
