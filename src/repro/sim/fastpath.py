"""Vectorized round-level simulation kernel: the protocol simulator.

This is the one simulation engine the experiments run.  It implements the
paper's round semantics (Figure 1 timeline, Section III-C network) as
batched array work instead of per-message events:

* **Sortition** evaluates every node's VRF for a (round, step) domain in
  one batch and inverts the binomial CDF with the batched
  :func:`repro.sim.sortition.binomial_weights` primitive, so committee
  weights are exactly what per-node :func:`repro.sim.sortition.sortition`
  calls would give.  The steps every round that reaches BinaryBA* votes
  in (1 through ``FIRST_BINARY_STEP + 3``) are hashed and inverted as one
  batch; later steps and the FINAL committee are drawn on first use.
* **Gossip** is a reachability model: hop distances through the relaying
  subgraph (defectors and offline nodes do not forward) plus a calibrated
  :class:`LatencyModel` mapping time windows to hop budgets.  A message
  cast at one step deadline reaches a node by a later deadline iff its
  hop distance fits the window's budget.  In a healthy network the budget
  exceeds the overlay diameter; under heavy defection the thinned relay
  graph disconnects and finality collapses — the mechanism that drives
  the paper's Figure 3.
* **Agreement (BA*)** runs the pure
  :class:`~repro.sim.ba_star.ConsensusStateMachine` once per *cohort*:
  online nodes that hold the same best proposal start in the same state,
  every directive is cast for all members as one array operation, and a
  cohort splits (each part copying the machine) only when its members'
  tallies differ.  Transitions are pure in (state, counted value, shared
  coin), so this is exact and the work scales with the distinct
  behaviours in a round, not nodes x steps.  Each step's CountVotes is
  one matrix product of the vote reach matrix and the one-hot vote
  weights, feeding the shared :func:`~repro.sim.ba_star.resolve_quorum`
  threshold rule.

The per-message discrete-event simulator (the DES) this kernel replaced
lives with the test suite (``tests/des``) as its differential oracle: on
paired seeds in the calibrated regime the two agree record for record
(``tests/sim/test_fastpath_oracle.py``, ``BENCH_des.json``), and
``tests/sim/test_fastpath_golden.py`` pins the kernel's full output.

Known approximations of per-message gossip (tolerance-tested against the
oracle, never silently wrong):

* per-hop delays are collapsed to a fitted quantile (arrival becomes a
  deterministic hop-budget test instead of a random sum of uniforms),
* ``drop_probability`` thins the overlay once per round instead of per
  message, and
* malicious equivocation draws from a dedicated fast-path stream (a
  per-message simulator consumes per-node streams in arrival order,
  which has no analogue here).
"""

from __future__ import annotations

import copy
import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim import crypto
from repro.sim.ba_star import (
    EMPTY_HASH,
    FINAL_STEP,
    FIRST_BINARY_STEP,
    ConsensusStateMachine,
    make_common_coin,
    resolve_quorum,
)
from repro.sim.behavior import Behavior, assign_behaviors
from repro.sim.blocks import Block, ConsensusLabel, Ledger, Transaction, make_empty_block
from repro.sim.config import SimulationConfig
from repro.sim.metrics import RoundRecord, SimulationMetrics
from repro.sim.network import build_random_overlay
from repro.sim.rng import RngStreams, derive_seed
from repro.sim.roles import RewardAllocation, RoleSnapshot
from repro.sim.sortition import Role, binomial_weights
from repro.telemetry.metrics import DEFAULT_SIZE_BUCKETS, DEFAULT_TIME_BUCKETS
from repro.telemetry.runtime import get_registry

#: A source of pending transactions for each round.
TransactionSource = Callable[[int], List[Transaction]]


class RewardMechanism(Protocol):
    """Structural interface every reward-sharing mechanism implements."""

    def allocate(self, snapshot: RoleSnapshot) -> RewardAllocation:
        """Compute the round's per-node reward payments."""


@dataclass(frozen=True)
class RoundContext:
    """Public per-round constants every node works against."""

    round_index: int
    sortition_seed: int
    total_stake: float
    tau_proposer: float
    tau_step: float
    tau_final: float
    t_step: float
    t_final: float
    max_binary_steps: int
    coin_seed: int


def initial_stakes(config: SimulationConfig, streams: RngStreams) -> List[float]:
    """The run's starting stake vector, drawn from the ``"stakes"`` stream.

    Paper Section III-C: stakes uniform between 1 and 50 Algos.  The test
    suite's per-message oracle draws through this same function, which
    paired-seed agreement depends on.
    """
    if config.stakes is not None:
        return [float(s) for s in config.stakes]
    rng = streams.get("stakes")
    low, high = config.stake_low, config.stake_high
    return [float(rng.randint(int(low), int(high))) for _ in range(config.n_nodes)]


def resolve_behaviors(
    config: SimulationConfig,
    streams: RngStreams,
    explicit: Optional[Sequence[Behavior]],
) -> List[Behavior]:
    """The run's behaviour vector: explicit, or drawn from ``"behaviors"``.

    Shared with the test suite's per-message oracle for the same reason
    as :func:`initial_stakes`.
    """
    if explicit is not None:
        if len(explicit) != config.n_nodes:
            raise ConfigurationError(
                f"behaviors has length {len(explicit)}, expected {config.n_nodes}"
            )
        return list(explicit)
    return assign_behaviors(
        config.n_nodes,
        config.defection_rate,
        config.malicious_rate,
        config.offline_rate,
        streams.get("behaviors"),
    )


#: Hop-distance sentinel for "no path through the relaying subgraph".
UNREACHABLE = np.iinfo(np.int32).max

#: Default per-hop latency quantile, fitted once from the DES's gossip
#: layer (``tests/des/latency.py``) on the reference configuration (60 nodes,
#: fanout 5, U(0.05, 0.30) hop delays): first-arrival times divided by hop
#: distance land near the 35th percentile of the per-hop delay
#: distribution — path multiplicity makes the effective hop cheaper than
#: the mean.  ``tests/sim/test_fastpath_oracle.py`` re-fits and checks
#: this constant stays in band.
DEFAULT_HOP_QUANTILE = 0.35


@dataclass(frozen=True)
class LatencyModel:
    """Maps gossip time windows to hop budgets.

    The DES delivers a message over ``h`` hops after a sum of ``h``
    independent ``U(delay_min, delay_max) * delay_scale`` draws, minimized
    over all paths.  The fast kernel collapses that distribution to one
    *effective per-hop delay* — the ``hop_quantile`` of the hop-delay
    distribution — and admits a message within a window iff
    ``hops * effective_delay <= window``.
    """

    hop_quantile: float = DEFAULT_HOP_QUANTILE

    def __post_init__(self) -> None:
        if not 0.0 <= self.hop_quantile <= 1.0:
            raise ConfigurationError(
                f"hop quantile must be in [0, 1], got {self.hop_quantile}"
            )

    def effective_hop_delay(self, config: SimulationConfig) -> float:
        """The modelled cost of one gossip hop, in simulated seconds."""
        span = config.delay_max - config.delay_min
        return (config.delay_min + span * self.hop_quantile) * config.delay_scale

    def hop_budget(self, window: float, config: SimulationConfig) -> int:
        """Largest hop count that completes within ``window`` seconds."""
        delay = self.effective_hop_delay(config)
        if delay <= 0.0:
            return UNREACHABLE - 1
        return int(window / delay)


def _bfs_hops(
    neighbors: Dict[int, List[int]],
    online: np.ndarray,
    relays: np.ndarray,
    edge_keep: Optional[np.ndarray] = None,
) -> np.ndarray:
    """All-pairs hop distances through the relaying subgraph.

    ``hops[i, j]`` is the minimum number of gossip hops from ``i`` to
    ``j`` where every *intermediate* node forwards (``relays`` — the
    origin always forwards its own message, matching the DES's
    ``GossipNetwork.broadcast``) and endpoints are online.  Offline nodes
    neither send nor receive.  ``edge_keep`` optionally thins the overlay
    (per-round drop realizations).  Runs one synchronous frontier
    expansion per hop — a handful of boolean matmuls per round.
    """
    n = len(neighbors)
    adjacency = np.zeros((n, n), dtype=bool)
    for node_id, peers in neighbors.items():
        adjacency[node_id, peers] = True
    if edge_keep is not None:
        adjacency &= edge_keep
    adjacency &= online[:, None] & online[None, :]

    hops = np.full((n, n), UNREACHABLE, dtype=np.int32)
    sources = online.copy()
    hops[np.diag_indices(n)] = np.where(sources, 0, UNREACHABLE)
    visited = np.eye(n, dtype=bool)
    frontier = np.diag(sources).astype(bool)
    relay_row = (relays & online)[None, :]
    hop = 0
    adjacency_int = adjacency.astype(np.int16)
    while frontier.any():
        hop += 1
        # The origin forwards its own broadcast regardless of its relay
        # flag; every later hop requires a relaying intermediate.
        expanding = frontier if hop == 1 else (frontier & relay_row)
        reached = (expanding.astype(np.int16) @ adjacency_int) > 0
        reached &= ~visited
        if not reached.any():
            break
        hops[reached] = hop
        visited |= reached
        frontier = reached
    return hops


@dataclass
class _Proposal:
    """One proposed block as the fast kernel tracks it."""

    sender: int
    block: Block
    block_hash: int
    priority: float


#: One batch of same-step votes cast at one deadline: ``(senders, weights,
#: value indices, cast deadline index)``.
_VoteBatch = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


@dataclass
class _Ballot:
    """Per-round voting context shared by every cast."""

    value_index: Dict[int, int]
    #: Proposal hashes in priority order: the equivocators' choices.
    ranked_hashes: List[int]
    #: Which nodes cast at least one vote this round.
    voted: np.ndarray


@dataclass
class _Cohort:
    """Online nodes whose BA* machines are in one state."""

    machine: ConsensusStateMachine
    members: np.ndarray  # ascending node ids


def _split(cohorts: List[_Cohort], won: np.ndarray) -> List[Tuple[_Cohort, int]]:
    """Pair each cohort with its members' tally, splitting where they differ.

    Each part of a split cohort gets its own copy of the machine, taken
    before any part advances.  A shallow copy suffices while the machine
    holds only immutable fields and the shared coin.
    """
    parts: List[Tuple[_Cohort, int]] = []
    for cohort in cohorts:
        counted = won[cohort.members]
        if (counted == counted[0]).all():
            parts.append((cohort, int(counted[0])))
            continue
        for k in np.unique(counted).tolist():
            parts.append(
                (
                    _Cohort(copy.copy(cohort.machine), cohort.members[counted == k]),
                    k,
                )
            )
    return parts


class FastSimulation:
    """A reproducible multi-round Algorand network simulation.

    Takes the DES's constructor arguments plus an optional
    :class:`LatencyModel` and produces the same
    :class:`~repro.sim.metrics.SimulationMetrics` schema.  Runs are a pure
    function of ``(config, behaviors, latency)``, so orchestrated sweeps
    remain bit-identical at any worker count.
    """

    def __init__(
        self,
        config: SimulationConfig,
        mechanism: Optional[RewardMechanism] = None,
        transaction_source: Optional[TransactionSource] = None,
        behaviors: Optional[Sequence[Behavior]] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.mechanism = mechanism
        self.transaction_source = transaction_source
        self.latency = latency if latency is not None else LatencyModel()
        self.streams = RngStreams(config.seed)
        self.metrics = SimulationMetrics()
        self.round_index = 0
        self.sortition_seed = crypto.sha256_int("genesis-seed", config.seed) % 2**64

        n = config.n_nodes
        # Same substreams and draw logic as the DES constructor (shared
        # functions), so stakes, behaviours and the gossip overlay are
        # identical on paired seeds.
        self.stakes: List[float] = initial_stakes(config, self.streams)
        self.behaviors: List[Behavior] = resolve_behaviors(
            config, self.streams, behaviors
        )
        self._keypairs = [
            crypto.KeyPair.generate((config.seed, node_id)) for node_id in range(n)
        ]
        self._private_keys = [keypair.private for keypair in self._keypairs]
        # Per-key SHA-256 states pre-absorbed with the constant payload
        # prefix ("'vrf'\x1f<private>"); _vrf_digests copies a state and
        # appends only the per-(round, step) suffix, saving the prefix
        # hashing and bytes construction on every sortition evaluation.
        self._vrf_states = [
            hashlib.sha256(b"'vrf'\x1f%d" % private)
            for private in self._private_keys
        ]
        self.rewards_received: List[float] = [0.0] * n
        self._neighbors = build_random_overlay(
            list(range(n)), config.gossip_fanout, self.streams.get("topology")
        )

        self._online = np.array([b.is_online for b in self.behaviors], dtype=bool)
        self._relays = np.array([b.relays for b in self.behaviors], dtype=bool)
        self._votes_mask = np.array([b.votes for b in self.behaviors], dtype=bool)
        self._equivocates_mask = np.array(
            [b.equivocates for b in self.behaviors], dtype=bool
        )
        self._online_idx = np.flatnonzero(self._online)
        self._online_ids = self._online_idx.tolist()

        self.authoritative = Ledger(genesis_seed=0)
        genesis_hash = self.authoritative.tip().block_hash()
        self._tips: List[int] = [genesis_hash] * n

        self._drop_rng = (
            np.random.default_rng(derive_seed(config.seed, "fastpath:drop"))
            if config.drop_probability
            else None
        )
        self._equiv_rngs: Dict[int, random.Random] = {
            i: random.Random(derive_seed(config.seed, f"fastpath:equivocate:{i}"))
            for i in range(n)
            if self.behaviors[i].equivocates
        }
        self._static_hops = (
            None
            if config.drop_probability
            else _bfs_hops(self._neighbors, self._online, self._relays)
        )

        # Telemetry instruments are resolved once at construction from the
        # process's active registry, down to the child level (``labels()``
        # memoizes; holding the children skips per-event lookups).  With
        # telemetry disabled (the default) these are shared no-op objects
        # and ``_telemetry`` is False, which gates every perf_counter read
        # in the hot path — the enabled check is the only per-round cost.
        _registry = get_registry()
        self._telemetry = _registry.enabled
        self._m_rounds = _registry.counter(
            "repro_fastpath_rounds_total", "Rounds simulated by the fast kernel"
        ).labels()
        self._m_round_seconds = _registry.histogram(
            "repro_fastpath_round_seconds",
            "Wall time of one fast-kernel round",
            buckets=DEFAULT_TIME_BUCKETS,
        ).labels()
        # VRF batch count rides on the histogram's _count; only the key
        # total (the batch-size numerator, constant per simulation) needs
        # its own counter.
        self._m_vrf_keys = _registry.counter(
            "repro_fastpath_vrf_keys_total",
            "Keys hashed across all VRF batches (batch-size numerator)",
        ).labels()
        self._m_vrf_seconds = _registry.histogram(
            "repro_fastpath_vrf_batch_seconds",
            "Wall time of one batched population VRF evaluation over one "
            "or more step domains (its _count is the batch total)",
            buckets=DEFAULT_TIME_BUCKETS,
        ).labels()
        _committee = _registry.histogram(
            "repro_fastpath_committee_weight",
            "Total sortition committee weight per (role, step) a round uses",
            labels=("role",),
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_committee = {
            role: _committee.labels(role=role.name.lower()) for role in Role
        }
        self._n_keys = float(n)

    # -- public accessors ----------------------------------------------------

    def total_stake(self) -> float:
        """Total stake across all nodes (defectors included)."""
        return sum(self.stakes)

    def stake_vector(self) -> Dict[int, float]:
        """Current stakes keyed by node id."""
        return {node_id: stake for node_id, stake in enumerate(self.stakes)}

    # -- round driver --------------------------------------------------------

    def run(self, n_rounds: int) -> SimulationMetrics:
        """Run ``n_rounds`` consecutive rounds and return the metrics."""
        if n_rounds < 1:
            raise SimulationError(f"n_rounds must be >= 1, got {n_rounds}")
        for _ in range(n_rounds):
            self.run_round()
        return self.metrics

    def run_round(self) -> RoundRecord:
        """Simulate one full round as batched array work."""
        round_started = time.perf_counter() if self._telemetry else 0.0
        config = self.config
        n = config.n_nodes
        self.round_index += 1
        round_index = self.round_index
        round_seed = self.sortition_seed
        total_stake = self.total_stake()
        ctx = RoundContext(
            round_index=round_index,
            sortition_seed=round_seed,
            total_stake=total_stake,
            tau_proposer=config.tau_proposer,
            tau_step=config.tau_step,
            tau_final=config.tau_final,
            t_step=config.t_step,
            t_final=config.t_final,
            max_binary_steps=config.max_binary_steps,
            coin_seed=round_seed,
        )
        hops = self._round_hops()
        stake_units = np.array([int(s) for s in self.stakes], dtype=np.int64)
        total_steps = config.total_step_count()

        # Every round that reaches BinaryBA* votes in steps 1 through
        # FIRST_BINARY_STEP + 3 (a conclusion at the first binary step
        # casts helper votes for the next three), so their sortition runs
        # as one batch; later steps and the FINAL committee stay lazy.  The
        # committee histogram is observed once per (role, step) the round
        # uses, not per prefetched row, in one batch at the round's end.
        prefetched = tuple(range(1, min(FIRST_BINARY_STEP + 3, total_steps) + 1))
        rows = self._sortition(
            Role.STEP, prefetched, round_index, round_seed, stake_units, total_stake
        )
        step_rows: Dict[int, np.ndarray] = dict(zip(prefetched, rows))
        # Committee totals for the histogram, summed only under telemetry.
        step_totals: Dict[int, float] = (
            dict(zip(prefetched, rows.sum(axis=1).tolist()))
            if self._telemetry
            else {}
        )
        used_steps = set()

        def step_weights(step: int) -> np.ndarray:
            weights = step_rows.get(step)
            if weights is None:
                weights = step_rows[step] = self._sortition(
                    Role.STEP,
                    (step,),
                    round_index,
                    round_seed,
                    stake_units,
                    total_stake,
                )[0]
                if self._telemetry:
                    step_totals[step] = float(weights.sum())
            used_steps.add(step)
            return weights

        final_weight_cache: List[Optional[np.ndarray]] = [None]

        def final_weights() -> np.ndarray:
            if final_weight_cache[0] is None:
                final_weight_cache[0] = self._role_weights(
                    Role.FINAL,
                    FINAL_STEP,
                    round_index,
                    round_seed,
                    stake_units,
                    total_stake,
                )
            return final_weight_cache[0]

        # -- phase A: proposals ---------------------------------------------
        proposals = self._propose(ctx, stake_units, total_stake)
        registry: Dict[int, _Proposal] = {p.block_hash: p for p in proposals}
        candidates = [EMPTY_HASH] + sorted(registry)
        value_index = {value: k for k, value in enumerate(candidates)}

        budget_prop = self.latency.hop_budget(config.proposal_wait, config)
        best = self._best_proposals(proposals, hops, budget_prop, value_index)

        # -- phase B: reduction + BinaryBA*, one machine per cohort ---------
        # Nodes holding the same best proposal start in the same machine
        # state; a cohort splits only when its members' tallies differ.
        # Transitions are pure in (state, counted, shared coin), so
        # stepping one machine per cohort is exact.
        ranked = sorted(proposals, key=lambda p: (p.priority, p.block_hash))
        ballot = _Ballot(
            value_index, [p.block_hash for p in ranked], np.zeros(n, dtype=bool)
        )
        coin = make_common_coin(round_seed, round_index)
        proposed = {p.sender for p in proposals}
        # votes[s]: batches of step-s votes; step-s votes are tallied at
        # deadline index s, normal votes are cast at index s-1 (one window
        # of travel), helper votes earlier.
        votes: Dict[int, List[_VoteBatch]] = {}
        final_votes: List[_VoteBatch] = []

        first_weights = step_weights(1)
        online_best = best[self._online_idx]
        active: List[_Cohort] = []
        for k in np.unique(online_best).tolist():
            machine = ConsensusStateMachine(config.max_binary_steps, coin)
            members = self._online_idx[online_best == k]
            step, value = machine.start(None if k < 0 else candidates[k])
            self._cast(
                votes.setdefault(step, []), members, value, 0, first_weights, ballot
            )
            active.append(_Cohort(machine, members))

        needed_step = config.t_step * config.tau_step
        settled: List[_Cohort] = []
        steps_used = 0
        for step in range(1, total_steps + 1):
            won = self._tally(
                votes.get(step, ()), step, hops, len(candidates), needed_step
            )
            running: List[_Cohort] = []
            for cohort, counted in _split(active, won):
                machine, members = cohort.machine, cohort.members
                directive = machine.on_step_result(
                    step, None if counted < 0 else candidates[counted]
                )
                step_votes = [] if directive.vote is None else [directive.vote]
                for vstep, vvalue in step_votes + directive.helper_votes:
                    self._cast(
                        votes.setdefault(vstep, []),
                        members,
                        vvalue,
                        step,
                        step_weights(vstep),
                        ballot,
                    )
                if (
                    directive.final_vote is not None
                    and self._votes_mask[members].any()
                ):
                    self._cast(
                        final_votes,
                        members,
                        directive.final_vote,
                        step,
                        final_weights(),
                        ballot,
                    )
                if machine.concluded or machine.failed:
                    settled.append(cohort)
                else:
                    running.append(cohort)
            active = running
            steps_used = step
            if config.short_circuit_rounds and not active:
                break

        # -- phase C: extraction and rewards ---------------------------------
        record = self._finalize_round(
            ctx,
            steps_used,
            settled + active,
            registry,
            candidates,
            proposed,
            set(np.flatnonzero(ballot.voted).tolist()),
            final_votes,
            hops,
        )
        if self._telemetry:
            self._m_committee[Role.STEP].observe_many(
                [step_totals[step] for step in used_steps]
            )
            self._m_rounds.inc()
            self._m_round_seconds.observe(time.perf_counter() - round_started)
        return record

    # -- sortition ------------------------------------------------------------

    def _sortition(
        self,
        role: Role,
        steps: Sequence[int],
        round_index: int,
        round_seed: int,
        stake_units: np.ndarray,
        total_stake: float,
        digests: Optional[bytes] = None,
    ) -> np.ndarray:
        """Exact per-node sortition weights for one role at several steps.

        Recomputes the same VRFs the event-driven nodes evaluate (same
        keypairs, seed and domain separation) and inverts the binomial
        CDF for every (step, node) in one batched call, so the
        ``(len(steps), n)`` result matches the DES bit-for-bit on paired
        seeds: every element runs the scalar float sequence.
        ``digests`` passes in the batch's :meth:`_vrf_digests` when the
        caller also reads the proofs.
        """
        base = {Role.PROPOSER: 0, Role.STEP: 1_000, Role.FINAL: 2_000}[role]
        expected = {
            Role.PROPOSER: self.config.tau_proposer,
            Role.STEP: self.config.tau_step,
            Role.FINAL: self.config.tau_final,
        }[role]
        tags = [base + s for s in steps]
        values = self._vrf_values(round_seed, round_index, tags, digests)
        probability = min(1.0, expected / total_stake)
        # Flat (step-major) operands: element for element the same
        # inversion as a 2-D broadcast, and the batch's length is its
        # element count, which the perfbench layer tracer records.
        weights = binomial_weights(
            values.ravel(), np.tile(stake_units, len(steps)), probability
        ).reshape(values.shape)
        weights[:, ~self._online] = 0
        return weights

    def _role_weights(
        self,
        role: Role,
        step: int,
        round_index: int,
        round_seed: int,
        stake_units: np.ndarray,
        total_stake: float,
        digests: Optional[bytes] = None,
    ) -> np.ndarray:
        """Sortition weights for one (role, step), observed as used."""
        weights = self._sortition(
            role, (step,), round_index, round_seed, stake_units, total_stake, digests
        )[0]
        if self._telemetry:
            self._m_committee[role].observe(float(weights.sum()))
        return weights

    def _vrf_digests(
        self, round_seed: int, round_index: int, tags: Sequence[int]
    ) -> bytes:
        """Population VRF digests for several (round, role-step) domains.

        Batched specialization of ``crypto.vrf_evaluate``: it hashes the
        *identical* canonical payload (``repr`` of an int is its decimal
        string; ``repr("vrf")`` keeps its quotes) in counter-ish mode —
        every key's pre-absorbed prefix state is copied and fed each
        domain's shared ``(round, step)`` suffix — and joins all digests
        into one contiguous block, tag-major: digest ``t * n + i`` is key
        ``i``'s under ``tags[t]``, whose big-endian integer is
        ``vrf_evaluate(...).proof``.  This skips the per-key bytes
        construction, Python int conversion and per-part ``repr``/join
        machinery that dominates profiles at population x steps x rounds
        scale.
        """
        batch_started = time.perf_counter() if self._telemetry else 0.0
        digests: List[bytes] = []
        append = digests.append
        for tag in tags:
            suffix = f"\x1f{round_seed}\x1f{round_index}\x1f{tag}".encode("utf-8")
            for state in self._vrf_states:
                hasher = state.copy()
                hasher.update(suffix)
                append(hasher.digest())
        block = b"".join(digests)
        if self._telemetry:
            self._m_vrf_keys.inc(self._n_keys * len(tags))
            self._m_vrf_seconds.observe(time.perf_counter() - batch_started)
        return block

    def _vrf_values(
        self,
        round_seed: int,
        round_index: int,
        tags: Sequence[int],
        digests: Optional[bytes] = None,
    ) -> np.ndarray:
        """Population VRF outputs ``vrf_evaluate(...).value``, shape ``(len(tags), n)``.

        From the :meth:`_vrf_digests` block (``digests``, or hashed
        here), in a single strided ``np.frombuffer`` pass: byte-reversing
        the leading big-endian uint64 of each digest and shifting out the
        low 11 bits is exactly ``digest[:7]`` dropped to its top 53 bits,
        and dividing by 2^53 is exact — bit-identical to the crypto
        helper, as the differential suite asserts.
        """
        if digests is None:
            digests = self._vrf_digests(round_seed, round_index, tags)
        # One 32-byte digest per (tag, key): take word 0 of each row.
        words = np.frombuffer(digests, dtype=">u8").reshape(-1, 4)[:, 0]
        values = (words.astype(np.uint64) >> np.uint64(11)) / float(2**53)
        return values.reshape(len(tags), -1)

    # -- proposals ------------------------------------------------------------

    def _propose(
        self, ctx: RoundContext, stake_units: np.ndarray, total_stake: float
    ) -> List[_Proposal]:
        config = self.config
        digests = self._vrf_digests(ctx.sortition_seed, ctx.round_index, (0,))
        weights = self._role_weights(
            Role.PROPOSER,
            0,
            ctx.round_index,
            ctx.sortition_seed,
            stake_units,
            total_stake,
            digests,
        )
        pending = (
            self.transaction_source(ctx.round_index) if self.transaction_source else []
        )
        block_seed = crypto.next_round_seed(ctx.sortition_seed, ctx.round_index)
        proposals: List[_Proposal] = []
        for i in np.flatnonzero(weights > 0):
            i = int(i)
            behavior = self.behaviors[i]
            if not behavior.proposes:
                continue
            # Sub-user count floors the sortition weight: a weight in
            # (0, 1) holds no whole sub-user slot, so the node enters no
            # priority race at all (min() over zero candidates would
            # raise, not rank last).
            subusers = int(weights[i])
            if subusers < 1:
                continue
            # Key i's proposer-domain VRF proof, already hashed for the
            # sortition batch.
            proof = int.from_bytes(digests[32 * i : 32 * (i + 1)], "big")
            priority = min(
                crypto.subuser_priority(proof, index) for index in range(subusers)
            )
            payload = self._validated_payload(pending)
            block = Block(
                round_index=ctx.round_index,
                previous_hash=self._tips[i],
                seed=block_seed,
                transactions=payload,
                proposer=i,
            )
            proposals.append(
                _Proposal(
                    sender=i,
                    block=block,
                    block_hash=block.block_hash(),
                    priority=priority,
                )
            )
            if behavior.equivocates:
                rogue_payload = payload[1:] if payload else ()
                rogue = Block(
                    round_index=ctx.round_index,
                    previous_hash=self._tips[i],
                    seed=block_seed,
                    transactions=rogue_payload,
                    proposer=i,
                )
                rogue_hash = rogue.block_hash()
                if rogue_hash != block.block_hash():
                    proposals.append(
                        _Proposal(
                            sender=i,
                            block=rogue,
                            block_hash=rogue_hash,
                            priority=priority,
                        )
                    )
        return proposals

    @staticmethod
    def _validated_payload(pending: List[Transaction]) -> Tuple[Transaction, ...]:
        return tuple(
            txn
            for txn in pending
            if txn.amount > 0 and txn.from_account != txn.to_account
        )

    def _best_proposals(
        self,
        proposals: List[_Proposal],
        hops: np.ndarray,
        budget: int,
        value_index: Dict[int, int],
    ) -> np.ndarray:
        """Per node: value index of the best proposal that arrives in time.

        Walks proposals worst-first, each overwriting the slots of the
        nodes its sender reaches, so the best reachable proposal ends up
        owning each node's slot — the array form of the DES's
        ``min(proposals, key=(priority, block_hash))``.  ``-1`` marks a
        node that saw no proposal.
        """
        best = np.full(self.config.n_nodes, -1, dtype=np.intp)
        ranked = sorted(
            proposals, key=lambda p: (p.priority, p.block_hash), reverse=True
        )
        for proposal in ranked:
            best = np.where(
                hops[proposal.sender] <= budget, value_index[proposal.block_hash], best
            )
        return best

    # -- voting ----------------------------------------------------------------

    def _cast(
        self,
        batches: List[_VoteBatch],
        members: np.ndarray,
        value: int,
        cast_index: int,
        weights: np.ndarray,
        ballot: _Ballot,
    ) -> None:
        """Record one cohort's committee votes: its voting, selected members."""
        selected = members[self._votes_mask[members] & (weights[members] > 0)]
        if not selected.size:
            return
        values = np.full(selected.size, ballot.value_index[value], dtype=np.intp)
        for pos in np.flatnonzero(self._equivocates_mask[selected]).tolist():
            values[pos] = ballot.value_index[
                self._equivocated(int(selected[pos]), value, ballot.ranked_hashes)
            ]
        batches.append((selected, weights[selected], values, cast_index))
        ballot.voted[selected] = True

    def _equivocated(
        self, node_id: int, honest_value: int, ranked_hashes: List[int]
    ) -> int:
        """Fast-path analogue of the DES's ``Node._equivocated_value``.

        The DES draws from the node's stream over proposals in *arrival*
        order; the fast path has no arrival order, so it draws from a
        dedicated stream over proposals in priority order — statistically
        equivalent, never bit-matched (documented approximation).
        """
        options = [EMPTY_HASH, honest_value] + ranked_hashes
        return self._equiv_rngs[node_id].choice(options)

    def _tally(
        self,
        batches: Sequence[_VoteBatch],
        tally_index: int,
        hops: np.ndarray,
        n_values: int,
        needed: float,
    ) -> np.ndarray:
        """Per-node CountVotes at one deadline, as one matrix product.

        Builds the ``(votes, nodes)`` reach matrix — a vote reaches a node
        when its hop distance fits the travel windows between its cast
        deadline and ``tally_index`` — and multiplies it into the one-hot
        ``(votes, values)`` weight matrix.  Weights are integers far below
        2^53, so the float64 sums are exact in any order.  The shared
        :func:`resolve_quorum` rule is then applied vectorized: values are
        ordered ascending, so the first argmax reproduces the
        smallest-value tie-break exactly.  Returns each node's winning
        value index, ``-1`` on timeout.
        """
        n = self.config.n_nodes
        if not batches:
            return np.full(n, -1, dtype=np.intp)
        config = self.config
        senders = np.concatenate([batch[0] for batch in batches])
        budgets = np.concatenate(
            [
                np.full(
                    batch[0].size,
                    self.latency.hop_budget(
                        (tally_index - batch[3]) * config.step_timeout, config
                    ),
                )
                for batch in batches
            ]
        )
        reach = hops[senders] <= budgets[:, None]
        ballots = np.zeros((senders.size, n_values))
        ballots[
            np.arange(senders.size), np.concatenate([batch[2] for batch in batches])
        ] = np.concatenate([batch[1] for batch in batches])
        tally = reach.T @ ballots
        quorum = tally > needed
        winner = np.where(quorum, tally, -1.0).argmax(axis=1)
        return np.where(quorum.any(axis=1), winner, -1)

    # -- network ----------------------------------------------------------------

    def _round_hops(self) -> np.ndarray:
        """The round's hop-distance matrix (per-round under message drops)."""
        if self._static_hops is not None:
            return self._static_hops
        n = self.config.n_nodes
        keep = self._drop_rng.random((n, n)) >= self.config.drop_probability
        return _bfs_hops(self._neighbors, self._online, self._relays, edge_keep=keep)

    # -- finalization -------------------------------------------------------------

    def _finalize_round(
        self,
        ctx: RoundContext,
        steps_used: int,
        cohorts: List[_Cohort],
        registry: Dict[int, _Proposal],
        candidates: List[int],
        proposed: set,
        voted_any: set,
        final_votes: List[_VoteBatch],
        hops: np.ndarray,
    ) -> RoundRecord:
        config = self.config

        authoritative_value, authoritative_label = self._authoritative_outcome(
            ctx, cohorts, registry, candidates, final_votes
        )

        # FINAL-vote tallies as seen by each node at extraction time: the
        # driver grants one trailing window past the last deadline, so a
        # vote cast at deadline c travels (steps_used + 1 - c) windows.
        extraction_index = steps_used + 1
        final_won = self._tally(
            final_votes,
            extraction_index,
            hops,
            len(candidates),
            config.t_final * config.tau_final,
        )

        # Blocks remain collectible until extraction: the whole round is
        # the travel window.
        window_fin = config.proposal_wait + extraction_index * config.step_timeout
        budget_fin = self.latency.hop_budget(window_fin, config)
        empty_seed = crypto.next_round_seed(ctx.sortition_seed, ctx.round_index)
        auth_tip = self.authoritative.tip().block_hash()
        tips = self._tips
        # Empty-block hashes by parent: nodes sharing a tip share the block.
        empty_hashes: Dict[int, int] = {}

        n_final = n_tentative = n_none = 0
        n_concluded_empty = n_desynced = n_caught_up = 0
        for cohort in cohorts:
            machine, members = cohort.machine, cohort.members
            if not machine.concluded:
                n_none += members.size
                continue
            value = machine.concluded_value
            if value == EMPTY_HASH:
                for i in members.tolist():
                    tip = tips[i]
                    if tip not in empty_hashes:
                        empty_hashes[tip] = make_empty_block(
                            ctx.round_index, tip, empty_seed
                        ).block_hash()
                    tips[i] = empty_hashes[tip]
                n_tentative += members.size
                n_concluded_empty += members.size
                continue
            proposal = registry.get(value)
            if proposal is None:
                n_none += members.size
                continue
            received = members[hops[proposal.sender, members] <= budget_fin]
            n_none += members.size - received.size
            finality = (final_won[received] == candidates.index(value)).tolist()
            parent_hash = proposal.block.previous_hash
            for i, has_finality in zip(received.tolist(), finality):
                parent_matches = parent_hash == tips[i]
                if has_finality:
                    n_final += 1
                    if parent_matches:
                        tips[i] = value
                    else:
                        tips[i] = auth_tip
                        n_caught_up += 1
                elif parent_matches:
                    tips[i] = value
                    n_tentative += 1
                else:
                    n_none += 1
                    n_desynced += 1

        snapshot = self.role_snapshot(ctx.round_index, proposed, voted_any)
        reward_total = 0.0
        reward_params: Dict[str, float] = {}
        if self.mechanism is not None:
            allocation = self.mechanism.allocate(snapshot)
            reward_total = allocation.total
            reward_params = dict(allocation.params)
            for node_id, amount in allocation.per_node.items():
                self.stakes[node_id] += amount
                self.rewards_received[node_id] += amount

        self.sortition_seed, _refreshed = crypto.refresh_seed(
            ctx.sortition_seed, ctx.round_index, config.seed_refresh_interval
        )

        record = RoundRecord(
            round_index=ctx.round_index,
            n_online=len(self._online_ids),
            n_final=n_final,
            n_tentative=n_tentative,
            n_none=n_none,
            n_concluded_empty=n_concluded_empty,
            n_desynced=n_desynced,
            n_caught_up=n_caught_up,
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

    def _authoritative_outcome(
        self,
        ctx: RoundContext,
        cohorts: List[_Cohort],
        registry: Dict[int, _Proposal],
        candidates: List[int],
        final_votes: List[_VoteBatch],
    ):
        """Ground truth, identical to the DES's omniscient observer."""
        conclusions: Counter = Counter()
        for cohort in cohorts:
            if cohort.machine.concluded:
                conclusions[cohort.machine.concluded_value] += cohort.members.size
        if not conclusions:
            return None, ConsensusLabel.NONE
        winner, _count = min(
            conclusions.items(), key=lambda item: (-item[1], item[0])
        )
        weights: Dict[int, int] = {}
        for _senders, batch_weights, values, _cast in final_votes:
            for k, weight in zip(values.tolist(), batch_weights.tolist()):
                value = candidates[k]
                weights[value] = weights.get(value, 0) + weight
        final_tally = resolve_quorum(weights, ctx.tau_final, ctx.t_final)
        if winner == EMPTY_HASH:
            block = make_empty_block(
                ctx.round_index,
                self.authoritative.tip().block_hash(),
                crypto.next_round_seed(ctx.sortition_seed, ctx.round_index),
            )
            self.authoritative.append(block, ConsensusLabel.TENTATIVE)
            return EMPTY_HASH, ConsensusLabel.TENTATIVE
        proposal = registry.get(winner)
        if (
            proposal is None
            or proposal.block.previous_hash != self.authoritative.tip().block_hash()
        ):
            return winner, ConsensusLabel.NONE
        label = (
            ConsensusLabel.FINAL if final_tally == winner else ConsensusLabel.TENTATIVE
        )
        self.authoritative.append(proposal.block, label)
        return winner, label

    # -- role classification -------------------------------------------------------

    def role_snapshot(
        self, round_index: int, proposed: set, voted_any: set
    ) -> RoleSnapshot:
        """Classify online nodes by performed role (L / M / K)."""
        leaders: Dict[int, float] = {}
        committee: Dict[int, float] = {}
        others: Dict[int, float] = {}
        for i in self._online_ids:
            if i in proposed:
                leaders[i] = self.stakes[i]
            elif i in voted_any:
                committee[i] = self.stakes[i]
            else:
                others[i] = self.stakes[i]
        return RoleSnapshot(
            round_index=round_index,
            leaders=leaders,
            committee=committee,
            others=others,
        )


# -- population-scale committee sampling --------------------------------------


@dataclass(frozen=True)
class StreamedCommittee:
    """A sortition outcome holding *only* the selected participants.

    Produced by :func:`sample_committee_stream`: the non-participants —
    the overwhelming majority at population scale — are never
    materialized as per-node objects, so the memory footprint is
    O(selected), not O(population).
    """

    expected_size: float
    probability: float
    total_stake_units: int
    indices: np.ndarray  # (s,) int64 global agent indices
    weights: np.ndarray  # (s,) int64 selected sub-user counts
    stakes: np.ndarray  # (s,) float64 stakes of the selected agents

    @property
    def n_selected(self) -> int:
        """Number of distinct agents holding at least one sub-user slot."""
        return int(self.indices.size)

    @property
    def total_weight(self) -> int:
        """Total selected sub-user weight (expected ~``expected_size``)."""
        return int(self.weights.sum())


def committee_probability(expected_size: float, total_stake_units: int) -> float:
    """Per-sub-user selection probability ``min(1, expected_size / W)``."""
    if expected_size <= 0:
        raise ConfigurationError(
            f"expected committee size must be positive, got {expected_size}"
        )
    if total_stake_units <= 0:
        raise ConfigurationError(
            "population has zero integer stake units; scale stakes up "
            "(sub-user sortition floors stakes to whole Algos)"
        )
    return min(1.0, expected_size / total_stake_units)


def committee_step(
    spec, chunk, probability: float, column: str = "committee.vrf"
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk's sortition: ``(indices, weights, stakes)`` of its selected.

    Draws the chunk's idealized-VRF uniforms from the population's own
    seed-block streams (``column`` names the substream, so several
    committees per population stay independent), inverts the binomial
    CDF with the batched :func:`~repro.sim.sortition.binomial_weights`
    primitive, and keeps only the selected agents.  Per-agent draws are
    chunk-independent, so any block-aligned chunking selects the same
    agents.  :func:`sample_committee_stream` and ``run_scale``'s fused
    gain pass both draw through here.  The chunk is drawn one seed block
    at a time: malloc recycles block-sized temporaries, where it hands
    chunk-sized ones back to the OS to be faulted in again next chunk.
    """
    from repro.populations.arrays import SEED_BLOCK  # populations imports sim

    stake = chunk.stake64()
    rows, weights = [], []
    for start in range(0, chunk.n_agents, SEED_BLOCK):
        units = stake[start : start + SEED_BLOCK].astype(np.int64)
        values = spec.chunk_draws(
            chunk.offset + start, units.size, column, lambda rng, n: rng.random(n)
        )
        block_weights = binomial_weights(values, units, probability)
        selected = np.flatnonzero(block_weights > 0)
        rows.append(start + selected)
        weights.append(block_weights[selected])
    local = np.concatenate(rows)
    return chunk.offset + local.astype(np.int64), np.concatenate(weights), stake[local]


def assemble_committee(
    expected_size: float,
    total_stake_units: int,
    parts: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> StreamedCommittee:
    """Concatenate :func:`committee_step` outputs, in population order."""
    kept = [part for part in parts if part[0].size]
    empty_i = np.empty(0, dtype=np.int64)
    return StreamedCommittee(
        expected_size=float(expected_size),
        probability=float(committee_probability(expected_size, total_stake_units)),
        total_stake_units=int(total_stake_units),
        indices=np.concatenate([p[0] for p in kept]) if kept else empty_i,
        weights=np.concatenate([p[1] for p in kept]) if kept else empty_i,
        stakes=(
            np.concatenate([p[2] for p in kept])
            if kept
            else np.empty(0, dtype=np.float64)
        ),
    )


def sample_committee_stream(
    spec,
    expected_size: float,
    column: str = "committee.vrf",
    chunk_agents: Optional[int] = None,
    total_stake_units: Optional[int] = None,
) -> StreamedCommittee:
    """Sample one sortition committee from a streamed stake population.

    Streams a :class:`~repro.populations.spec.PopulationSpec` in O(chunk)
    memory, one :func:`committee_step` per chunk, and assembles the
    selected agents.  Per-agent draws and integer stake totals are
    chunk-independent, so the committee is **bit-identical at every
    ``chunk_agents``** — the same contract as the population audit.

    ``total_stake_units`` (the integer stake total that fixes the
    selection probability ``expected_size / W``) is computed with an
    extra streaming pass when not supplied; callers auditing the same
    population repeatedly should compute it once and pass it in.
    """
    if total_stake_units is None:
        total = 0
        for chunk in spec.iter_chunks(chunk_agents):
            # Integer accumulation is exact, hence order-independent.
            total += int(chunk.stake64().astype(np.int64).sum())
        total_stake_units = total
    probability = committee_probability(expected_size, total_stake_units)
    parts = [
        committee_step(spec, chunk, probability, column)
        for chunk in spec.iter_chunks(chunk_agents)
    ]
    return assemble_committee(expected_size, total_stake_units, parts)


def make_simulation(
    config: SimulationConfig,
    mechanism: Optional[RewardMechanism] = None,
    transaction_source: Optional[TransactionSource] = None,
    behaviors: Optional[Sequence[Behavior]] = None,
    latency: Optional[LatencyModel] = None,
) -> FastSimulation:
    """Build the :class:`FastSimulation` for one run.

    The experiments construct their simulations through this one name
    rather than the class, so setup can be timed by wrapping it: the
    perfbench harness's ``fastpath.setup`` span replaces it here, in
    :mod:`repro.sim` and in :mod:`repro.analysis.defection`.
    """
    return FastSimulation(
        config,
        mechanism=mechanism,
        transaction_source=transaction_source,
        behaviors=behaviors,
        latency=latency,
    )
