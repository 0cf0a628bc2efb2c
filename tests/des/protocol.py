"""Round orchestration: the DES's top-level Algorand simulation driver.

One :class:`AlgorandSimulation` owns the event engine, the gossip network,
the node population and an authoritative ledger (the omniscient observer's
view, used for catch-up and ground-truth metrics).  Each round follows the
paper's Figure 1 timeline:

1. every online node runs proposer sortition; selected cooperating leaders
   gossip a credential and their block proposal,
2. after the proposal window, committee members vote through Reduction
   (2 steps) and BinaryBA* (bounded steps), each step a fixed time window,
3. at the end, every node extracts FINAL / TENTATIVE / NONE from the votes
   it received, ledgers are updated (with catch-up on observed finality),
   roles are classified by performed task, and the plugged-in reward
   mechanism distributes the round's reward, which compounds into stakes.

The driver advances the engine phase by phase (``engine.run(until=...)``),
which keeps runs deterministic while all message traffic remains genuinely
event-driven underneath.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim import crypto
from repro.sim.ba_star import EMPTY_HASH, FINAL_STEP
from repro.sim.behavior import Behavior
from repro.sim.blocks import Block, ConsensusLabel, Ledger, make_empty_block
from repro.sim.config import SimulationConfig
from repro.sim.fastpath import (
    RewardMechanism,
    RoundContext,
    TransactionSource,
    initial_stakes,
    resolve_behaviors,
)
from repro.sim.metrics import RoundRecord, SimulationMetrics
from repro.sim.network import build_random_overlay
from repro.sim.rng import RngStreams
from repro.sim.roles import RoleSnapshot

from des.engine import EventEngine
from des.messages import BlockProposalMessage, Message, VoteMessage
from des.network import GossipNetwork
from des.node import Node, count_votes


class AlgorandSimulation:
    """A reproducible multi-round Algorand network simulation."""

    def __init__(
        self,
        config: SimulationConfig,
        mechanism: Optional[RewardMechanism] = None,
        transaction_source: Optional[TransactionSource] = None,
        behaviors: Optional[Sequence[Behavior]] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.mechanism = mechanism
        self.transaction_source = transaction_source
        self.streams = RngStreams(config.seed)
        self.engine = EventEngine()
        self.metrics = SimulationMetrics()
        self.round_index = 0
        self.sortition_seed = crypto.sha256_int("genesis-seed", config.seed) % 2**64

        stakes = initial_stakes(config, self.streams)
        node_behaviors = resolve_behaviors(config, self.streams, behaviors)
        self.nodes: List[Node] = []
        key_registry: Dict[int, crypto.KeyPair] = {}
        for node_id in range(config.n_nodes):
            keypair = crypto.KeyPair.generate((config.seed, node_id))
            key_registry[node_id] = keypair
            node = Node(
                node_id=node_id,
                keypair=keypair,
                stake=stakes[node_id],
                behavior=node_behaviors[node_id],
                config=config,
                rng=self.streams.get(f"node.{node_id}"),
            )
            self.nodes.append(node)
        for node in self.nodes:
            node.key_registry = key_registry

        overlay = build_random_overlay(
            [node.node_id for node in self.nodes],
            config.gossip_fanout,
            self.streams.get("topology"),
        )
        delay_rng = self.streams.get("net.delay")
        # The sampler runs once per gossip hop; the flattened form below is
        # bit-identical to ``delay_rng.uniform(delay_min, delay_max)``
        # (same ``a + (b - a) * random()`` arithmetic) minus a Python call.
        delay_random = delay_rng.random
        delay_min, delay_span = config.delay_min, config.delay_max - config.delay_min
        self.network = GossipNetwork(
            engine=self.engine,
            neighbors=overlay,
            delay_sampler=lambda: delay_min + delay_span * delay_random(),
            drop_probability=config.drop_probability,
            drop_rng=self.streams.get("net.drop") if config.drop_probability else None,
        )
        self.network.delay_scale = config.delay_scale
        for node in self.nodes:
            self.network.register(node)

        self.authoritative = Ledger(genesis_seed=0)
        self._block_registry: Dict[int, Block] = {}
        self._final_votes: Dict[int, VoteMessage] = {}

    # -- public accessors ----------------------------------------------------------

    @property
    def online_nodes(self) -> List[Node]:
        """All nodes whose behavior is online."""
        return [node for node in self.nodes if node.behavior.is_online]

    def total_stake(self) -> float:
        """Total stake across all nodes (defectors included)."""
        return sum(node.stake for node in self.nodes)

    def stake_vector(self) -> Dict[int, float]:
        """Current stakes keyed by node id."""
        return {node.node_id: node.stake for node in self.nodes}

    # -- round driver -----------------------------------------------------------------

    def run(self, n_rounds: int) -> SimulationMetrics:
        """Run ``n_rounds`` consecutive rounds and return the metrics."""
        if n_rounds < 1:
            raise SimulationError(f"n_rounds must be >= 1, got {n_rounds}")
        for _ in range(n_rounds):
            self.run_round()
        return self.metrics

    def run_round(self) -> RoundRecord:
        """Simulate one full round and return its metric record."""
        config = self.config
        self.round_index += 1
        ctx = RoundContext(
            round_index=self.round_index,
            sortition_seed=self.sortition_seed,
            total_stake=self.total_stake(),
            tau_proposer=config.tau_proposer,
            tau_step=config.tau_step,
            tau_final=config.tau_final,
            t_step=config.t_step,
            t_final=config.t_final,
            max_binary_steps=config.max_binary_steps,
            coin_seed=self.sortition_seed,
        )
        self.network.begin_round()
        self._block_registry.clear()
        self._final_votes.clear()
        t0 = self.engine.now

        pending = self.transaction_source(self.round_index) if self.transaction_source else []
        for node in self.nodes:
            self._broadcast_all(node, node.begin_round(ctx, pending))

        self.engine.run(until=t0 + config.proposal_wait)
        for node in self.online_nodes:
            self._broadcast_all(node, node.start_reduction())

        steps_used = 0
        for step in range(1, config.total_step_count() + 1):
            deadline = t0 + config.proposal_wait + step * config.step_timeout
            self.engine.run(until=deadline)
            for node in self.online_nodes:
                self._broadcast_all(node, node.handle_step_deadline(step))
            steps_used = step
            if config.short_circuit_rounds and self._all_settled():
                break

        # Let trailing helper and FINAL votes propagate before extraction.
        self.engine.run(until=self.engine.now + config.step_timeout)
        return self._finalize_round(ctx, steps_used)

    def _all_settled(self) -> bool:
        """True when every online node's BA* machine concluded or failed."""
        for node in self.online_nodes:
            machine = node._machine
            if machine is None:
                return False
            if not (machine.concluded or machine.failed):
                return False
        return True

    def _broadcast_all(self, node: Node, messages: Sequence[Message]) -> None:
        for message in messages:
            if isinstance(message, BlockProposalMessage) and isinstance(message.block, Block):
                self._block_registry[message.block_hash] = message.block
            if isinstance(message, VoteMessage) and message.step == FINAL_STEP:
                # Omniscient registry (first vote per sender) for ground truth.
                self._final_votes.setdefault(message.sender, message)
            self.network.broadcast(node.node_id, message)

    # -- finalization --------------------------------------------------------------------

    def _finalize_round(self, ctx: RoundContext, steps_used: int) -> RoundRecord:
        authoritative_value, authoritative_label = self._authoritative_outcome(ctx)

        outcomes = [
            node.finalize_round(self.authoritative.entries())
            for node in self.nodes
            if node.behavior.is_online
        ]
        n_final = sum(1 for o in outcomes if o.label is ConsensusLabel.FINAL)
        n_tentative = sum(1 for o in outcomes if o.label is ConsensusLabel.TENTATIVE)
        n_none = sum(1 for o in outcomes if o.label is ConsensusLabel.NONE)

        snapshot = self.role_snapshot(ctx.round_index)
        reward_total = 0.0
        reward_params: Dict[str, float] = {}
        if self.mechanism is not None:
            allocation = self.mechanism.allocate(snapshot)
            reward_total = allocation.total
            reward_params = dict(allocation.params)
            by_id = {node.node_id: node for node in self.nodes}
            for node_id, amount in allocation.per_node.items():
                node = by_id[node_id]
                node.stake += amount
                node.rewards_received += amount

        self.sortition_seed, _refreshed = crypto.refresh_seed(
            self.sortition_seed, self.round_index, self.config.seed_refresh_interval
        )
        for node in self.online_nodes:
            node.counters.seeds_generated += 1

        record = RoundRecord(
            round_index=ctx.round_index,
            n_online=len(outcomes),
            n_final=n_final,
            n_tentative=n_tentative,
            n_none=n_none,
            n_concluded_empty=sum(1 for o in outcomes if o.concluded_empty),
            n_desynced=sum(1 for o in outcomes if o.desynced),
            n_caught_up=sum(1 for o in outcomes if o.caught_up),
            authoritative_label=authoritative_label,
            authoritative_value=authoritative_value,
            steps_used=steps_used,
            reward_total=reward_total,
            reward_params=reward_params,
            n_leaders=len(snapshot.leaders),
            n_committee=len(snapshot.committee),
        )
        self.metrics.record(record)
        return record

    def _authoritative_outcome(self, ctx: RoundContext):
        """Ground-truth block for the round: the plurality BA* conclusion.

        The label is FINAL when the union of FINAL-committee votes (seen by
        an omniscient observer) certifies the winning value, TENTATIVE for
        any other conclusion, NONE when no node concluded (the network
        failed to produce a block this round).
        """
        conclusions = Counter(
            node.machine_conclusion()
            for node in self.online_nodes
            if node.machine_conclusion() is not None
        )
        if not conclusions:
            return None, ConsensusLabel.NONE
        winner, _count = min(
            conclusions.items(), key=lambda item: (-item[1], item[0])
        )
        final_tally = count_votes(
            self._final_votes.values(), ctx.tau_final, ctx.t_final
        )
        if winner == EMPTY_HASH:
            block = make_empty_block(
                ctx.round_index,
                self.authoritative.tip().block_hash(),
                crypto.next_round_seed(ctx.sortition_seed, ctx.round_index),
            )
            self.authoritative.append(block, ConsensusLabel.TENTATIVE)
            return EMPTY_HASH, ConsensusLabel.TENTATIVE
        block = self._block_registry.get(winner)
        if block is None or block.previous_hash != self.authoritative.tip().block_hash():
            return winner, ConsensusLabel.NONE
        label = (
            ConsensusLabel.FINAL if final_tally == winner else ConsensusLabel.TENTATIVE
        )
        self.authoritative.append(block, label)
        return winner, label

    # -- role classification ----------------------------------------------------------------

    def role_snapshot(self, round_index: int) -> RoleSnapshot:
        """Classify online nodes into L / M / K by *performed* role.

        Defectors (and selected-but-silent leaders) land in K, matching the
        paper's observation that a defecting leader "acts as an online
        node" and is rewarded as such under role-based sharing.
        """
        leaders: Dict[int, float] = {}
        committee: Dict[int, float] = {}
        others: Dict[int, float] = {}
        for node in self.online_nodes:
            if node.performed_leader:
                leaders[node.node_id] = node.stake
            elif node.performed_committee:
                committee[node.node_id] = node.stake
            else:
                others[node.node_id] = node.stake
        return RoleSnapshot(
            round_index=round_index,
            leaders=leaders,
            committee=committee,
            others=others,
        )
