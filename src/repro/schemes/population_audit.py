"""Chunked epsilon-IC audits over streamed million-agent populations.

The batch engine in :mod:`repro.schemes.audit` materializes
``(n_populations, n_players)`` arrays — ideal for paired grids of small
populations, an OOM at exchange scale.  This module audits **one huge
population** (10^6–10^7 agents from a
:class:`~repro.populations.spec.PopulationSpec`) in O(chunk) memory:

1. **Selection pass.**  Leaders and the committee are chosen by
   stake-weighted sortition without replacement — the same
   exponential-race draw as the batch engine, streamed: each chunk
   contributes its local top-k race keys and the global top-k merge keeps
   ``n_leaders + committee_size`` candidates.  Strong-synchrony
   membership is per-agent Bernoulli (``synchrony_rate`` of the online
   crowd), drawn from the population's own seed-block streams, so roles
   are scheme-independent — every scheme audits identical populations
   (a paired comparison), and every chunk size sees identical draws.
   The same pass accumulates the scheme's pool totals with the
   block-stable reduction and the Theorem 3 calibration aggregates.
2. **Gain pass.**  With pool totals and the calibrated split in hand,
   the second pass iterates the population again (re-synthesized above
   :data:`~repro.populations.spec.RESIDENT_BYTES`, held resident below
   it) and folds every agent's deviations chunk by chunk — its switch to
   the action it does not play, and O — through the kernel the batch
   engine shares (:mod:`repro.schemes.deviation`), tracking the running
   maximum gain and its witness.

Because chunks always span whole seed blocks and all reductions are
blockwise, the chunked path is **bit-identical to the monolithic path**
(``chunk_agents=None`` — one chunk covering the population) at any chunk
size; ``tests/properties/test_chunk_equivalence.py`` asserts it, and the
test suite cross-checks small populations against the scalar
``AlgorandGame`` oracle (``tests/scalar_game``).

**Grid audits are fused.**  :func:`audit_population_grid` evaluates the
whole (scheme x budget-multiplier x cost-scale) verdict tensor in the
same two streamed passes: selection, synchrony draws and the top-k merge
run once and are broadcast across every grid cell, pool totals and
calibration are shared per cost scale, and the gain pass realizes each
chunk once per cost scale before folding every cell's gains.  Each cell
of the tensor is bit-identical to the single-cell audit of the same
``(budget_multiplier, cost_scale)`` configuration —
:func:`audit_populations` is now a one-cell view of the grid engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.bounds import RoleAggregates
from repro.core.costs import RoleCosts
from repro.core.optimizer import minimize_reward_analytic
from repro.errors import ConfigurationError
from repro.populations import threads
from repro.populations.arrays import (
    BEHAVIOR_COOPERATE,
    BEHAVIOR_OFFLINE,
    SEED_BLOCK,
    PopulationArrays,
    add_blocks,
    block_sums,
    blockwise_sum,
)
from repro.populations.spec import PopulationSpec
from repro.populations.threads import Lane, call_pool, prefetch
from repro.schemes.base import RewardScheme, SchemeSplit, WeightKind
from repro.schemes.deviation import (
    COMMITTEE,
    LEADER,
    ONLINE,
    ROLE_NAMES,
    SWITCH,
    Agents,
    Census,
    DeviationWitness,
    Gains,
    PoolTables,
    block_fold,
    deviation_gains,
    pool_tables,
    pool_weight,
    role_costs,
    scaled_costs,
    split_fractions,
)
from repro.schemes.registry import SchemeLike, resolve_scheme
from repro.telemetry.metrics import DEFAULT_TIME_BUCKETS
from repro.telemetry.runtime import get_registry
from repro.telemetry.spans import span

#: Target profiles the population audit understands.  ``theorem3`` and
#: ``all_c`` mirror the batch engine; ``population`` additionally reads
#: the online crowd's strategy from the population's ``behavior`` column
#: (selected leaders/committee members always perform their role).
POPULATION_TARGETS: Tuple[str, ...] = ("theorem3", "all_c", "population")

#: Consumer column labels in the population's seed-block stream tree.
_RACE_COLUMN = "audit.race"
_SYNC_COLUMN = "audit.sync"


def _chunks(
    spec: PopulationSpec, config: "PopulationAuditConfig"
) -> Iterable[PopulationArrays]:
    """The audit's re-iterable chunk source: ``chunk_agents=None`` is monolithic.

    ``PopulationSpec.chunks(None)`` uses the library default chunk; the
    audit's documented contract is stronger — ``None`` is the monolithic
    cross-check path, one chunk covering the whole population regardless
    of its size.  Build the source once per call and iterate it once per
    pass: small populations are then synthesized only once.
    """
    chunk_agents = spec.size if config.chunk_agents is None else config.chunk_agents
    return spec.chunks(chunk_agents)


@dataclass(frozen=True)
class PopulationAuditConfig:
    """Shape of one population-scale audit.

    Unlike :class:`~repro.schemes.audit.AuditConfig` (a grid of many
    small populations), this audits a single large population: fixed
    leader/committee counts, Bernoulli strong-synchrony membership at
    ``synchrony_rate`` among the online crowd, and a budget of
    ``budget_multiplier`` times the population's Theorem 3 bound.
    ``chunk_agents`` bounds the working set (``None`` = monolithic: one
    chunk covering the whole population, for cross-checks on sizes that
    fit).
    """

    n_leaders: int = 5
    committee_size: int = 30
    synchrony_rate: float = 0.5
    committee_quorum: float = 0.685
    cost_scale: float = 1.0
    budget_multiplier: float = 1.5
    epsilon: float = 1e-9
    target: str = "theorem3"
    chunk_agents: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_leaders < 1 or self.committee_size < 2:
            raise ConfigurationError("need >= 1 leader and >= 2 committee members")
        if not 0.0 < self.synchrony_rate <= 1.0:
            raise ConfigurationError(
                f"synchrony rate must be in (0, 1], got {self.synchrony_rate}"
            )
        if not 0.0 < self.committee_quorum < 1.0:
            raise ConfigurationError("committee quorum must be in (0, 1)")
        if not all(
            math.isfinite(value) and value > 0
            for value in (self.cost_scale, self.budget_multiplier)
        ):
            raise ConfigurationError(
                "cost scale and budget multiplier must be positive and finite"
            )
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigurationError("epsilon must be finite and >= 0")
        if self.target not in POPULATION_TARGETS:
            raise ConfigurationError(
                f"unknown target profile {self.target!r}; "
                f"choose from {POPULATION_TARGETS}"
            )
        if self.chunk_agents is not None and self.chunk_agents < 1:
            raise ConfigurationError("chunk_agents must be >= 1 (or None)")

    @property
    def n_selected(self) -> int:
        """Leaders plus committee — the agents carried across chunks."""
        return self.n_leaders + self.committee_size


@dataclass(frozen=True)
class PopulationAuditReport:
    """The verdict for one scheme over one streamed population."""

    scheme: str
    population: str
    n_agents: int
    dtype: str
    chunk_agents: Optional[int]
    target: str
    certified: bool
    epsilon: float
    max_gain: float
    max_shirk_gain: float
    n_deviations: int
    witness: Optional[DeviationWitness]
    alpha: float
    beta: float
    b_i: float
    total_stake: float
    #: Integer (floored) stake units — the sortition denominator; lets
    #: committee sampling reuse the audit's selection pass instead of
    #: streaming the population again just to re-total it.
    total_stake_units: int
    elapsed_s: float

    @property
    def ic_margin(self) -> float:
        """How far the best deviation sits below profitability."""
        return -self.max_gain

    @property
    def shirk_margin(self) -> float:
        """Margin over cooperators' work-reducing deviations only."""
        return -self.max_shirk_gain

    @property
    def agents_per_second(self) -> float:
        """Audit throughput (agents per wall-clock second, both passes)."""
        return self.n_agents / self.elapsed_s if self.elapsed_s > 0 else math.inf

    def verdict_dict(self) -> Dict[str, object]:
        """The deterministic fields only (timing excluded).

        This is the payload benchmark records and equality tests compare:
        two runs of the same audit — at *any* chunk size — must produce
        identical verdict dicts.
        """
        witness = self.witness
        return {
            "scheme": self.scheme,
            "population": self.population,
            "n_agents": self.n_agents,
            "dtype": self.dtype,
            "target": self.target,
            "certified": self.certified,
            "epsilon": self.epsilon,
            "max_gain": self.max_gain,
            "max_shirk_gain": self.max_shirk_gain,
            "n_deviations": self.n_deviations,
            "alpha": self.alpha,
            "beta": self.beta,
            "b_i": self.b_i,
            "total_stake": self.total_stake,
            "total_stake_units": self.total_stake_units,
            "witness": None
            if witness is None
            else {
                "player": witness.player,
                "role": witness.role,
                "stake": witness.stake,
                "from": witness.from_strategy,
                "to": witness.to_strategy,
                "gain": witness.gain,
            },
        }


# -- pass 1: selection, calibration, pool totals ------------------------------


@dataclass
class _Structure:
    """Everything pass 2 needs: selection, calibration, global totals."""

    config: PopulationAuditConfig
    costs: RoleCosts
    selected_index: np.ndarray  # (k,) global agent indices, selection order
    selected_role: np.ndarray  # (k,) role codes
    selected_stake: np.ndarray  # (k,) float64
    selected_cost: np.ndarray  # (k,) cost multipliers
    split: SchemeSplit
    b_i: float
    total_stake: float
    total_stake_units: int  # exact integer sum of floored stakes
    pool_totals: Dict[str, np.ndarray]  # scheme name -> (P,)
    tables: Dict[str, PoolTables]
    #: The target profile's block census: every selected agent
    #: cooperates; strong-synchrony defectors (``population`` target
    #: only) fail the block.
    census: Census


def _online_actions(
    config: PopulationAuditConfig, chunk: PopulationArrays, sync: np.ndarray
) -> np.ndarray:
    """Target-profile action codes (0=C, 1=D) for agents *as online crowd*."""
    if config.target == "all_c":
        return np.zeros(chunk.n_agents, dtype=np.int8)
    if config.target == "theorem3":
        return np.logical_not(sync).view(np.int8)
    if bool(np.any(chunk.behavior == BEHAVIOR_OFFLINE)):
        raise ConfigurationError(
            "the 'population' audit target requires behavior codes in {C, D}; "
            "offline agents are not yet modelled at population scale"
        )
    return (chunk.behavior != BEHAVIOR_COOPERATE).astype(np.int8)


def _merge_top_k(
    carry: Optional[Tuple[np.ndarray, ...]],
    keys: np.ndarray,
    index: np.ndarray,
    payload: Tuple[np.ndarray, ...],
    k: int,
) -> Tuple[np.ndarray, ...]:
    """Merge one chunk's candidates into the running k smallest keys.

    Candidates are ordered by ``(key, global index)``, so the merge is
    deterministic even under exactly tied keys.  Returns
    ``(keys, index, *payload)`` trimmed to ``k`` entries.  Degenerate
    ``k`` values are well defined: ``k <= 0`` selects nothing (an empty
    row tuple, never a partition on index ``k - 1``), and ``k`` at or
    above the candidate count passes every candidate through untrimmed.
    """
    rows = (keys, index) + payload
    if carry is not None:
        rows = tuple(np.concatenate([c, r]) for c, r in zip(carry, rows))
    if k <= 0:
        return tuple(row[:0] for row in rows)
    keys_all, index_all = rows[0], rows[1]
    if keys_all.size > k:
        # argpartition narrows to k candidates, lexsort settles exact order.
        narrowed = np.argpartition(keys_all, k - 1)[:k]
        rows = tuple(row[narrowed] for row in rows)
        keys_all, index_all = rows[0], rows[1]
    order = np.lexsort((index_all, keys_all))
    return tuple(row[order] for row in rows)


def _sync_mask(
    spec: PopulationSpec, config: PopulationAuditConfig, chunk: PopulationArrays
) -> np.ndarray:
    """Strong-synchrony Bernoulli draws for one chunk (chunk-stable)."""
    if config.synchrony_rate >= 1.0:
        return np.ones(chunk.n_agents, dtype=bool)
    draws = spec.chunk_draws(
        chunk.offset, chunk.n_agents, _SYNC_COLUMN, lambda rng, n: rng.random(n)
    )
    return draws < config.synchrony_rate


def _cell_config(
    config: PopulationAuditConfig, budget_multiplier: float, cost_scale: float
) -> PopulationAuditConfig:
    """The base config re-pinned to one (budget, cost-scale) grid cell."""
    if (
        budget_multiplier == config.budget_multiplier
        and cost_scale == config.cost_scale
    ):
        return config
    return replace(
        config, budget_multiplier=budget_multiplier, cost_scale=cost_scale
    )


def _crowd_partials(
    tables: Dict[str, PoolTables],
    cost_vecs: Dict[float, np.ndarray],
    stake: np.ndarray,
    cost_multiplier: np.ndarray,
    actions: np.ndarray,
) -> Dict[Tuple[str, float], np.ndarray]:
    """Per-block crowd pool totals of one chunk, ``(blocks, P)`` per (scheme, scale).

    Every agent counts as online crowd playing ``actions``.  A pool's
    crowd row is its weight times its online membership, so it depends
    only on the weight kind, the exponent (STAKE_POWER), the online row
    ``lookup[p, ONLINE]`` and, for COST rows, the cost scale: each
    distinct row is block-summed once (:func:`block_sums`) and shared
    by every scheme and scale that uses it.  A pool with no online
    member has an exactly zero row and is skipped.  Bit-identical to
    :func:`~repro.populations.arrays.block_row_sums` over each scheme's
    ``pool_weights(...) * member`` matrix.
    """
    rows: Dict[Tuple[object, ...], np.ndarray] = {}

    def row_partials(table: PoolTables, p: int, cs: float) -> Optional[np.ndarray]:
        online_c, online_d = (bool(x) for x in table.lookup[p, ONLINE])
        if not (online_c or online_d):
            return None
        kind = table.kinds[p]
        key = (
            kind,
            float(table.exponents[p]) if kind is WeightKind.STAKE_POWER else None,
            online_c,
            online_d,
            cs if kind is WeightKind.COST else None,
        )
        if key not in rows:
            crowd_cost = (
                cost_vecs[cs][ONLINE] * cost_multiplier
                if kind is WeightKind.COST
                else None
            )
            weight = pool_weight(table, p, stake, crowd_cost)
            if not online_c or not online_d:
                weight = weight * (actions == (0 if online_c else 1))
            rows[key] = block_sums(weight)
        return rows[key]

    blocks = -(-stake.size // SEED_BLOCK)
    partials: Dict[Tuple[str, float], np.ndarray] = {}
    for name, table in tables.items():
        for cs in cost_vecs:
            matrix = np.zeros((blocks, len(table.kinds)))
            for p in range(len(table.kinds)):
                row = row_partials(table, p, cs)
                if row is not None:
                    matrix[:, p] = row
            partials[(name, cs)] = matrix
    return partials


def _build_structure_grid(
    schemes: Sequence[RewardScheme],
    spec: PopulationSpec,
    config: PopulationAuditConfig,
    budget_multipliers: Tuple[float, ...],
    cost_scales: Tuple[float, ...],
    chunks: Optional[Iterable[PopulationArrays]] = None,
) -> Dict[Tuple[float, float], _Structure]:
    """Pass 1, fused: one stream selects, calibrates and totals every cell.

    Selection (the exponential race and its top-k merge), synchrony
    draws, the defect census and the stake totals are cell-independent
    and computed once.  Pool totals and the Theorem 3 calibration depend
    on ``cost_scale`` only — they are accumulated per cost scale, from
    crowd rows shared by every scheme and scale that has them
    (:func:`_crowd_partials`) — while
    ``budget_multiplier`` enters only through the final
    ``b_i = multiplier x optimum`` scalar.  Each returned
    ``(budget_multiplier, cost_scale)`` cell is therefore bit-identical
    to the structure :func:`_build_structure` builds for that cell's
    single-cell config, at every chunk size.  ``chunks`` is the caller's
    :func:`_chunks` source when it streams the population again
    afterwards (default: a fresh one).
    """
    if spec.size < config.n_selected + 2:
        raise ConfigurationError(
            f"population of {spec.size} agents cannot host {config.n_leaders} "
            f"leaders and a committee of {config.committee_size}"
        )
    k = config.n_selected
    costs_by = {cs: scaled_costs(cs) for cs in cost_scales}
    cost_vec_by = {cs: role_costs(costs) for cs, costs in costs_by.items()}

    total_stake = 0.0
    race_carry: Optional[Tuple[np.ndarray, ...]] = None
    sync_carry: Optional[Tuple[np.ndarray, ...]] = None
    defect_count = 0
    # Raw per-pool totals treat every agent as online crowd; the k
    # selected agents are corrected afterwards (k is tiny).  Totals are
    # keyed (scheme, cost_scale): COST-kind pool weights scale with the
    # cell's role costs, and float multiplication does not distribute
    # over the blockwise sums, so sharing raw totals across scales would
    # break per-cell bit-identity.  Only pool *fractions* may depend on
    # the split: expand the structure at a placeholder split, and take
    # the calibrated fractions below.
    placeholder = SchemeSplit(1.0 / 3.0, 1.0 / 3.0)
    reference_tables = {s.name: pool_tables(s, placeholder) for s in schemes}
    raw_totals = {
        (s.name, cs): np.zeros(len(reference_tables[s.name].kinds))
        for s in schemes
        for cs in cost_scales
    }

    total_stake_units = 0
    for chunk in _chunks(spec, config) if chunks is None else chunks:
        stake = chunk.stake64()
        cost_multiplier = chunk.cost64()
        total_stake = blockwise_sum(stake, start=total_stake)
        # Integer accumulation is exact, hence chunking-independent.
        total_stake_units += int(stake.astype(np.int64).sum())

        race = (
            spec.chunk_draws(
                chunk.offset,
                chunk.n_agents,
                _RACE_COLUMN,
                lambda rng, n: rng.exponential(1.0, n),
            )
            / stake
        )
        index = chunk.offset + np.arange(chunk.n_agents, dtype=np.int64)
        sync = _sync_mask(spec, config, chunk)
        actions = _online_actions(config, chunk, sync)

        # Local pre-trim before the merge keeps the carried state O(k).
        if race.size > k:
            local = np.argpartition(race, k - 1)[:k]
        else:
            local = np.arange(race.size)
        race_carry = _merge_top_k(
            race_carry,
            race[local],
            index[local],
            (
                stake[local],
                cost_multiplier[local],
                sync[local],
                actions[local],
            ),
            k,
        )

        # Candidate minimum sync stakes: k+1 suffice, because at most k
        # sync-drawn agents can later turn out to be selected.
        sync_rows = np.flatnonzero(sync)
        if sync_rows.size:
            sync_stakes = stake[sync_rows]
            if sync_stakes.size > k + 1:
                keep = np.argpartition(sync_stakes, k)[: k + 1]
                sync_rows, sync_stakes = sync_rows[keep], sync_stakes[keep]
            sync_carry = _merge_top_k(
                sync_carry, sync_stakes, index[sync_rows], (), k + 1
            )

        # Sync-set defectors break the base block ('population' target
        # only; the other targets force sync agents to cooperate).
        defect_count += int(np.count_nonzero(sync & (actions == 1)))

        crowd = _crowd_partials(
            reference_tables, cost_vec_by, stake, cost_multiplier, actions
        )
        for key, partials in crowd.items():
            raw_totals[key] = add_blocks(raw_totals[key], partials)

    assert race_carry is not None
    _keys, sel_index, sel_stake, sel_cost, sel_sync, sel_action = race_carry
    selected_role = np.full(k, COMMITTEE, dtype=np.int8)
    selected_role[: config.n_leaders] = LEADER

    # Correct the pool totals: selected agents leave the online crowd
    # (with the action they would have played there) and join as
    # cooperating leaders/committee members.
    for scheme in schemes:
        table = reference_tables[scheme.name]
        for cs in cost_scales:
            cost_vec = cost_vec_by[cs]
            totals = raw_totals[(scheme.name, cs)]
            for j in range(k):
                for p, kind in enumerate(table.kinds):
                    if kind is WeightKind.STAKE:
                        old_w = new_w = float(sel_stake[j])
                    elif kind is WeightKind.EQUAL:
                        old_w = new_w = 1.0
                    elif kind is WeightKind.STAKE_POWER:
                        old_w = new_w = float(sel_stake[j] ** table.exponents[p])
                    else:
                        old_w = float(cost_vec[ONLINE] * sel_cost[j])
                        new_w = float(
                            cost_vec[int(selected_role[j])] * sel_cost[j]
                        )
                    if table.lookup[p, ONLINE, int(sel_action[j])]:
                        totals[p] -= old_w
                    if table.lookup[p, int(selected_role[j]), 0]:
                        totals[p] += new_w

    leader_stakes = sel_stake[: config.n_leaders]
    committee_stakes = sel_stake[config.n_leaders :]
    selected_stake_sum = float(np.add.reduce(sel_stake))

    # Minimum strong-synchrony stake among *unselected* agents.
    min_other = math.inf
    if sync_carry is not None:
        selected_set = set(int(i) for i in sel_index)
        for stake_value, agent in zip(sync_carry[0], sync_carry[1]):
            if int(agent) not in selected_set:
                min_other = float(stake_value)
                break
    if not math.isfinite(min_other):
        raise ConfigurationError(
            "the strong-synchrony set is empty (synchrony_rate too small for "
            "this population); the Theorem 3 bound is undefined"
        )

    aggregates = RoleAggregates(
        stake_leaders=float(np.add.reduce(leader_stakes)),
        stake_committee=float(np.add.reduce(committee_stakes)),
        stake_others=total_stake - selected_stake_sum,
        min_leader=float(leader_stakes.min()),
        min_committee=float(committee_stakes.min()),
        min_other=min_other,
    )

    committee_stake_total = float(np.add.reduce(committee_stakes))
    census = Census(
        leaders=config.n_leaders,
        tally=committee_stake_total,
        threshold=config.committee_quorum * committee_stake_total,
        # Selected agents perform their role: their as-if-online
        # defection does not break the block.
        sync_defectors=defect_count
        - int(np.count_nonzero(sel_sync & (sel_action == 1))),
    )
    selected_index = sel_index.astype(np.int64)

    structures: Dict[Tuple[float, float], _Structure] = {}
    for cs in cost_scales:
        # Calibration (Algorithm 1's analytic optimizer) sees the scaled
        # costs, so the split and the Theorem 3 bound are per cost scale.
        optimum = minimize_reward_analytic(costs_by[cs], aggregates)
        split = SchemeSplit(optimum.alpha, optimum.beta)

        # Swap in each scheme's fractions at the calibrated split
        # (split_fractions verifies the structure did not change shape).
        pool_totals: Dict[str, np.ndarray] = {}
        tables: Dict[str, PoolTables] = {}
        for scheme in schemes:
            reference = reference_tables[scheme.name]
            tables[scheme.name] = replace(
                reference, fractions=split_fractions(scheme, reference, [split])[0]
            )
            pool_totals[scheme.name] = raw_totals[(scheme.name, cs)]

        # Budget cells share everything but the b_i scalar: the selection
        # arrays, totals and tables are referenced, not copied.
        for b in budget_multipliers:
            structures[(b, cs)] = _Structure(
                config=_cell_config(config, b, cs),
                costs=costs_by[cs],
                selected_index=selected_index,
                selected_role=selected_role,
                selected_stake=sel_stake,
                selected_cost=sel_cost,
                split=split,
                b_i=b * optimum.b_i,
                total_stake=total_stake,
                total_stake_units=total_stake_units,
                pool_totals=pool_totals,
                tables=tables,
                census=census,
            )
    return structures


def _build_structure(
    schemes: Sequence[RewardScheme],
    spec: PopulationSpec,
    config: PopulationAuditConfig,
    chunks: Optional[Iterable[PopulationArrays]] = None,
) -> _Structure:
    """Pass 1: stream the population once; select, calibrate, total.

    The single-cell view of :func:`_build_structure_grid` — one budget
    multiplier, one cost scale, both taken from ``config``.
    """
    grid = _build_structure_grid(
        schemes,
        spec,
        config,
        (config.budget_multiplier,),
        (config.cost_scale,),
        chunks,
    )
    return grid[(config.budget_multiplier, config.cost_scale)]


# -- pass 2: streamed deviation gains -----------------------------------------


def _chunk_context(
    structure: _Structure,
    spec: PopulationSpec,
    chunk: PopulationArrays,
    stake: Optional[np.ndarray] = None,
    actions: Optional[np.ndarray] = None,
    sync: Optional[np.ndarray] = None,
    lane: Optional[Lane] = None,
) -> Agents:
    """Realize one chunk's roles, synchrony and target-profile actions.

    The audit passes defaults: the chunk's stakes and the configured
    target profile (selected agents cooperate).  The dynamics driver
    overrides ``stake`` (churned) and ``actions`` (the epoch's realized
    0=C / 1=D profile, selected agents included).  The fused grid pass
    and the dynamics driver override ``sync`` with held pre-selection
    draws, copied before the selection mask is applied.

    The context's per-agent columns live in ``lane`` (a temporary one by
    default): a streamed caller passes its slice's lane, so the next
    chunk's context overwrites this one's.
    """
    config = structure.config
    lane = Lane() if lane is None else lane
    n = chunk.n_agents
    stake = chunk.stake64() if stake is None else np.asarray(stake, dtype=np.float64)
    cost_multiplier = chunk.cost64()

    # Roles: online crowd except the selected agents that fall in-chunk.
    roles = lane.empty("roles", n, np.int8)
    roles[:] = ONLINE
    in_chunk = (structure.selected_index >= chunk.offset) & (
        structure.selected_index < chunk.offset + n
    )
    local_selected = (structure.selected_index[in_chunk] - chunk.offset).astype(
        np.int64
    )
    roles[local_selected] = structure.selected_role[in_chunk]

    if sync is None:
        sync = _sync_mask(spec, config, chunk)
    held_sync = lane.empty("sync", n, bool)
    np.copyto(held_sync, sync)
    held_sync[local_selected] = False
    coop = lane.empty("coop", n, bool)
    if actions is None:
        np.equal(_online_actions(config, chunk, held_sync), 0, out=coop)
        coop[local_selected] = True  # the selected always perform their role
    else:
        np.equal(actions, 0, out=coop)
    # The crowd's role cost times its multiplier, then the selected rows':
    # the bits of ``role_costs(...).take(roles) * cost_multiplier``
    # without an int8-indexed take over the whole chunk.
    coop_cost = np.multiply(
        structure.costs.online, cost_multiplier, out=lane.empty("coop_cost", n)
    )
    coop_cost[local_selected] = (
        role_costs(structure.costs).take(roles[local_selected])
        * cost_multiplier[local_selected]
    )
    return Agents(
        offset=chunk.offset,
        stake=stake,
        roles=roles,
        selected_rows=local_selected,
        sync=held_sync,
        coop=coop,
        action=np.logical_not(coop, out=lane.empty("action", n, bool)).view(np.int8),
        coop_cost=coop_cost,
        sortition_cost=np.multiply(
            structure.costs.sortition,
            cost_multiplier,
            out=lane.empty("sortition_cost", n),
        ),
    )


def _chunk_gains(
    scheme_name: str,
    cells: Sequence[_Structure],
    ctx: Agents,
    flips: Optional[np.ndarray] = None,
    lane: Optional[Lane] = None,
) -> List[Gains]:
    """Deviation gains of one chunk for every budget cell of one cost scale.

    ``cells`` are the budget cells of one cost scale: they share tables,
    pool totals and the calibrated split by reference and differ only in
    ``b_i``, which enters solely through each pool's ``slice_budget =
    fraction * b_i`` — so one pool-major fold serves them all, and each
    cell is bit-identical to a one-cell call.  The kernel's block rule
    (:func:`~repro.schemes.deviation.block_fold`) zeroes the withdrawals
    that break the target profile's block or, when sync-set defectors
    fail it (the ``population`` target), pays only a switch that
    restores it.  ``flips`` passes the chunk's
    :meth:`~repro.schemes.deviation.Census.flips` for :data:`SWITCH`
    when the caller shares them across schemes and cost scales.  The
    gains live in ``lane`` (default: a temporary one) until its next fold.
    """
    head = cells[0]
    table = head.tables[scheme_name]
    base, switch = block_fold(
        table,
        ctx,
        head.census,
        head.pool_totals[scheme_name],
        [table.fractions * cell.b_i for cell in cells],
        base=True,
        deviations=(SWITCH,),
        flips=None if flips is None else [flips],
        lane=lane,
    )
    return deviation_gains(ctx, base, switch)


def iter_population_gains(
    scheme: SchemeLike,
    spec: PopulationSpec,
    config: PopulationAuditConfig = PopulationAuditConfig(),
    structure: Optional[_Structure] = None,
) -> Iterator[Tuple[PopulationArrays, np.ndarray, np.ndarray]]:
    """Stream ``(chunk, gains (n, 3), coop mask)`` over the population.

    Row ``j`` of ``gains`` holds agent ``chunk.offset + j``'s gain for a
    unilateral switch to C, D and O (``nan`` marks its current strategy).
    The raw generator behind the audit's kernel (:func:`_chunk_gains`
    with one budget cell) — used directly by the differential tests that
    compare chunked gains against the monolithic path and the scalar
    game oracle.  The structure pass prefetches chunks like the audit's;
    the gains and the cooperation mask are yielded from the calling
    thread, as fresh arrays (the fold's own buffers are reused by the
    next chunk).
    """
    resolved = resolve_scheme(scheme)
    chunks = _chunks(spec, config)
    if structure is None:
        with call_pool(threads.THREADS) as pool:
            structure = _build_structure(
                [resolved], spec, config, prefetch(chunks, pool)
            )
    lane = Lane()
    for chunk in chunks:
        ctx = _chunk_context(structure, spec, chunk, lane=lane)
        (gains,) = _chunk_gains(resolved.name, [structure], ctx, lane=lane)
        yield chunk, np.column_stack(gains.targets(ctx)), ctx.coop.copy()


class _GainReducer:
    """Folds one cell's streamed gain chunks into the audit verdict.

    Chunks must arrive in population order: the ``>`` max update keeps
    the *first* maximizing deviation, and within a chunk the witness is
    the smallest agent index, then target order C, D, O (an agent's
    switch comes before its O) — a chunking-independent tie-break.  The
    kernel yields no ``-0.0`` gain (rewards are ``>= +0.0`` and costs
    positive), so folding the columns in any order gives the same
    maximum bits.
    """

    def __init__(self, structure: _Structure) -> None:
        self._structure = structure
        self.max_gain = -math.inf
        self.max_shirk = -math.inf
        self.n_deviations = 0
        self.witness: Optional[DeviationWitness] = None

    def update(self, gains: Gains, ctx: Agents) -> None:
        """Fold one chunk's switch and O columns (consumes ``gains.switch``)."""
        self.n_deviations += 2 * ctx.n
        chunk_max = max(float(gains.switch.max()), float(gains.to_o.max()))
        if chunk_max > self.max_gain:
            self.max_gain = chunk_max
            self.witness = self._witness(gains, ctx, chunk_max)
        # Cooperators' work-reducing deviations: their switch (to D) and O.
        coop_best = np.fmax(gains.switch, gains.to_o, out=gains.switch)
        coop_best += ctx.nan_unless_coop
        shirk = float(np.fmax.reduce(coop_best))
        if not math.isnan(shirk):
            self.max_shirk = max(self.max_shirk, shirk)

    def merge(self, later: "_GainReducer") -> None:
        """Fold in a reducer that saw the agents right after this one's.

        The same comparisons :meth:`update` makes, so folding a chunk's
        slices separately and merging them in population order gives
        the bits folding the whole chunk gives.
        """
        self.n_deviations += later.n_deviations
        if later.max_gain > self.max_gain:
            self.max_gain = later.max_gain
            self.witness = later.witness
        self.max_shirk = max(self.max_shirk, later.max_shirk)

    def _witness(
        self, gains: Gains, ctx: Agents, gain: float
    ) -> DeviationWitness:
        """The first ``(agent, target)`` pair in agent-major order at ``gain``."""
        firsts = []
        for is_o, column in enumerate((gains.switch, gains.to_o)):
            hits = column == gain
            if hits.any():
                firsts.append((int(np.argmax(hits)), is_o))
        j, is_o = min(firsts)
        coop = bool(ctx.coop[j])
        return DeviationWitness(
            population=0,
            player=int(ctx.offset + j),
            role=ROLE_NAMES[int(ctx.roles[j])],
            stake=float(ctx.stake[j]),
            from_strategy="C" if coop else "D",
            to_strategy="O" if is_o else "D" if coop else "C",
            gain=gain,
        )

    def report(
        self,
        scheme_name: str,
        spec: PopulationSpec,
        config: PopulationAuditConfig,
        elapsed_s: float,
    ) -> PopulationAuditReport:
        """The finished verdict."""
        structure = self._structure
        certified = self.max_gain <= config.epsilon
        return PopulationAuditReport(
            scheme=scheme_name,
            population=spec.describe(),
            n_agents=spec.size,
            dtype=spec.dtype,
            chunk_agents=config.chunk_agents,
            target=config.target,
            certified=certified,
            epsilon=config.epsilon,
            max_gain=self.max_gain,
            max_shirk_gain=self.max_shirk,
            n_deviations=self.n_deviations,
            witness=None if certified else self.witness,
            alpha=structure.split.alpha,
            beta=structure.split.beta,
            b_i=structure.b_i,
            total_stake=structure.total_stake,
            total_stake_units=structure.total_stake_units,
            elapsed_s=elapsed_s,
        )


@dataclass(frozen=True)
class PopulationAuditGridResult:
    """The fused verdict tensor over a (scheme x budget x cost-scale) grid.

    One :func:`audit_population_grid` call streams the population exactly
    twice — no matter how many grid cells it evaluates — and every cell's
    :class:`PopulationAuditReport` is bit-identical to the single-cell
    audit of the same configuration.  Axis order everywhere is
    ``(scheme, budget_multiplier, cost_scale)``, in the (deduplicated)
    order the caller supplied.
    """

    population: str
    n_agents: int
    dtype: str
    target: str
    schemes: Tuple[str, ...]
    budget_multipliers: Tuple[float, ...]
    cost_scales: Tuple[float, ...]
    #: Per-cell verdicts keyed ``(scheme, budget_multiplier, cost_scale)``.
    reports: Dict[Tuple[str, float, float], PopulationAuditReport]
    elapsed_s: float

    def report(
        self, scheme: str, budget_multiplier: float, cost_scale: float
    ) -> PopulationAuditReport:
        """One cell's verdict, with a helpful error off the grid."""
        key = (scheme, float(budget_multiplier), float(cost_scale))
        try:
            return self.reports[key]
        except KeyError:
            raise ConfigurationError(
                f"cell {key} is not on the audited grid "
                f"(schemes={self.schemes}, budgets={self.budget_multipliers}, "
                f"cost_scales={self.cost_scales})"
            ) from None

    def cells(self) -> Iterator[Tuple[str, float, float]]:
        """Grid-cell keys in canonical (scheme, budget, cost-scale) order."""
        for scheme in self.schemes:
            for b in self.budget_multipliers:
                for cs in self.cost_scales:
                    yield (scheme, b, cs)

    def _tensor(self, field: str, dtype: type) -> np.ndarray:
        """One report field per cell, shape ``(S, B, C)``."""
        return np.array(
            [
                [
                    [getattr(self.reports[(s, b, c)], field) for c in self.cost_scales]
                    for b in self.budget_multipliers
                ]
                for s in self.schemes
            ],
            dtype=dtype,
        )

    def max_gain_tensor(self) -> np.ndarray:
        """Best deviation gain per cell, shape ``(S, B, C)`` float64."""
        return self._tensor("max_gain", np.float64)

    def certified_tensor(self) -> np.ndarray:
        """Epsilon-IC verdict per cell, shape ``(S, B, C)`` bool."""
        return self._tensor("certified", bool)

    def witnesses(self) -> Dict[Tuple[str, float, float], DeviationWitness]:
        """The profitable-deviation witness for every non-certified cell."""
        return {
            cell: report.witness
            for cell, report in self.reports.items()
            if report.witness is not None
        }

    def to_payload(self) -> Dict[str, object]:
        """Deterministic JSON-ready form (timing excluded).

        Cells appear in canonical order and carry
        :meth:`PopulationAuditReport.verdict_dict` payloads, so two runs
        of the same grid audit — at *any* chunk size — serialize to
        byte-identical JSON.  The CI grid smoke compares exactly this.
        """
        return {
            "population": self.population,
            "n_agents": self.n_agents,
            "dtype": self.dtype,
            "target": self.target,
            "schemes": list(self.schemes),
            "budget_multipliers": list(self.budget_multipliers),
            "cost_scales": list(self.cost_scales),
            "cells": [
                {
                    "budget_multiplier": b,
                    "cost_scale": cs,
                    **self.reports[(scheme, b, cs)].verdict_dict(),
                }
                for scheme, b, cs in self.cells()
            ],
        }


def _grid_axis(
    label: str, values: Optional[Sequence[float]], default: float
) -> Tuple[float, ...]:
    """Validate one grid axis: positive finite floats, deduped in order."""
    if values is None:
        return (float(default),)
    axis: List[float] = []
    for value in values:
        number = float(value)
        if not math.isfinite(number) or number <= 0:
            raise ConfigurationError(
                f"{label} must be positive and finite, got {value!r}"
            )
        if number not in axis:
            axis.append(number)
    if not axis:
        raise ConfigurationError(f"{label} axis is empty; pass at least one value")
    return tuple(axis)


def _resolve_unique(schemes: Sequence[SchemeLike]) -> List[RewardScheme]:
    """Resolve an audit's scheme list: non-empty, deduped preserving order.

    Duplicate names collapse to their first occurrence — repeating a
    scheme cannot change its verdict, so doubling the work (or refusing
    the request) would only punish programmatic callers that concatenate
    scheme lists.  An empty request is a configuration error, reported
    as such instead of surfacing a bare ``ZeroDivisionError`` from the
    timing split.
    """
    resolved = [resolve_scheme(item) for item in schemes]
    if not resolved:
        raise ConfigurationError(
            "audit request names no schemes; pass at least one"
        )
    unique: List[RewardScheme] = []
    seen = set()
    for item in resolved:
        if item.name not in seen:
            seen.add(item.name)
            unique.append(item)
    return unique


def audit_population_grid(
    schemes: Sequence[SchemeLike],
    spec: PopulationSpec,
    config: PopulationAuditConfig = PopulationAuditConfig(),
    budget_multipliers: Optional[Sequence[float]] = None,
    cost_scales: Optional[Sequence[float]] = None,
    on_chunk: Optional[Callable[[PopulationArrays, int], None]] = None,
) -> PopulationAuditGridResult:
    """Audit a (scheme x budget x cost-scale) grid in one fused stream.

    The whole verdict tensor costs the same two streamed passes as a
    single audit: pass 1 selects, draws synchrony and totals pools for
    every cell at once (:func:`_build_structure_grid`), and the gain
    pass realizes each chunk's roles/synchrony/actions once per cost
    scale — budget cells share the context and differ only in the
    ``b_i`` scalar, so one :func:`_chunk_gains` call per (scheme, cost
    scale, chunk) serves them all — before folding every cell's
    closed-form deviation gains.  Memory stays O(chunk): the per-cell
    state carried across chunks is one :class:`_GainReducer` (a few
    scalars and a witness).
    Both passes iterate one :func:`_chunks` source, so a population
    within :data:`~repro.populations.spec.RESIDENT_BYTES` is synthesized
    once per call rather than once per pass.

    The call uses :data:`repro.populations.threads.THREADS` threads: a
    pool thread synthesizes the next chunk while the current one is
    worked on (both passes), and the gain pass splits each chunk into
    block-aligned slices, folds them concurrently and merges them in
    population order (:func:`repro.populations.threads.sliced`,
    :meth:`_GainReducer.merge`).  Pass 1 stays on the
    calling thread: its blockwise pool totals are order-sensitive float
    sums.  The output is byte-identical at every thread count.

    ``on_chunk(chunk, total_stake_units)``, when given, is called on
    the calling thread with every gain-pass chunk in population order,
    once pass 1 has totalled the integer stake units — ``run_scale``
    draws its sortition committee there instead of streaming the
    population a third time.

    ``budget_multipliers`` / ``cost_scales`` default to the single value
    in ``config``; both axes are validated positive/finite and deduped
    preserving order, as is the scheme list.
    """
    resolved = _resolve_unique(schemes)
    budgets = _grid_axis(
        "budget multiplier", budget_multipliers, config.budget_multiplier
    )
    scales = _grid_axis("cost scale", cost_scales, config.cost_scale)

    registry = get_registry()
    telemetry = registry.enabled
    m_chunks = registry.counter(
        "repro_audit_chunks_total", "Population chunks streamed by the audit"
    )
    m_agents = registry.counter(
        "repro_audit_agents_total",
        "Agents streamed by the audit (chunk-size numerator)",
    )
    m_chunk_seconds = registry.histogram(
        "repro_audit_chunk_seconds",
        "Wall time of one streamed audit chunk across all grid cells",
        buckets=DEFAULT_TIME_BUCKETS,
    )
    m_cell_gain = registry.counter(
        "repro_audit_cell_gain_seconds_total",
        "Accumulated gain-pass seconds per fused grid cell",
        labels=("scheme", "budget", "cost_scale"),
    )

    started = time.perf_counter()
    with span(
        "audit.grid",
        agents=spec.size,
        cells=len(resolved) * len(budgets) * len(scales),
    ):
        def fold_scale(
            chunk: PopulationArrays,
            stake: np.ndarray,
            sync_draws: np.ndarray,
            cs: float,
            into: Dict[Tuple[str, float, float], _GainReducer],
            flips: Optional[np.ndarray],
            lane: Lane,
        ) -> np.ndarray:
            """Fold one chunk into every cell of one cost scale.

            A function, so the context and gains die before the next
            scale's (or chunk's) are built: that bounds peak memory.
            Returns the switches that flip the block, which read roles,
            actions and stakes but no cost: every scheme and cost scale
            shares them.
            """
            cells = [structures[(b, cs)] for b in budgets]
            ctx = _chunk_context(
                cells[0], spec, chunk, stake=stake, sync=sync_draws, lane=lane
            )
            if flips is None:
                flips = cells[0].census.flips(ctx, SWITCH)
            for item in resolved:
                call_started = time.perf_counter() if telemetry else 0.0
                for b, gains in zip(
                    budgets, _chunk_gains(item.name, cells, ctx, flips, lane)
                ):
                    into[(item.name, b, cs)].update(gains, ctx)
                if telemetry:
                    # One fused call serves every budget cell: split its
                    # time evenly so each cell keeps its series.
                    share = (time.perf_counter() - call_started) / len(budgets)
                    for b in budgets:
                        m_cell_gain.labels(
                            scheme=item.name,
                            budget=repr(float(b)),
                            cost_scale=repr(float(cs)),
                        ).inc(share)
            return flips

        def new_reducers() -> Dict[Tuple[str, float, float], _GainReducer]:
            """One empty reducer per cell."""
            return {
                (item.name, b, cs): _GainReducer(structures[(b, cs)])
                for item in resolved
                for b in budgets
                for cs in scales
            }

        def fold(
            chunk: PopulationArrays, lane: Lane
        ) -> Dict[Tuple[str, float, float], _GainReducer]:
            """Fold one chunk (or slice) into fresh reducers for every cell.

            Draws the synchrony Bernoullis and widens the stakes once;
            every cost scale re-derives its context (costs differ), and
            every budget cell shares that scale's context.  Every
            (scheme, cost-scale) fold writes into the slice's ``lane``.
            """
            into = new_reducers()
            stake = chunk.stake64()
            sync_draws = _sync_mask(spec, config, chunk)
            flips = None
            for cs in scales:
                flips = fold_scale(chunk, stake, sync_draws, cs, into, flips, lane)
            return into

        with call_pool(threads.THREADS) as pool:
            chunks = _chunks(spec, config)
            structures = _build_structure_grid(
                resolved, spec, config, budgets, scales, prefetch(chunks, pool)
            )
            reducers = new_reducers()
            total_stake_units = structures[(budgets[0], scales[0])].total_stake_units
            # Block-aligned slices are finer chunks: each folds into fresh
            # reducers, which merge into the running ones in population
            # order.  The committee step overlaps the pool's slices.
            for chunk, partials in threads.sliced(chunks, pool, fold):
                chunk_started = time.perf_counter() if telemetry else 0.0
                if on_chunk is not None:
                    on_chunk(chunk, total_stake_units)
                for partial in partials:
                    for cell, reducer in partial.items():
                        reducers[cell].merge(reducer)
                if telemetry:
                    m_chunks.inc()
                    m_agents.inc(float(chunk.n_agents))
                    m_chunk_seconds.observe(time.perf_counter() - chunk_started)
    # All cells are fused work; per-report throughput is the honest
    # amortized figure (total wall-clock split evenly across cells).
    elapsed = time.perf_counter() - started
    share = elapsed / (len(resolved) * len(budgets) * len(scales))
    reports = {
        (item.name, b, cs): reducers[(item.name, b, cs)].report(
            item.name, spec, structures[(b, cs)].config, share
        )
        for item in resolved
        for b in budgets
        for cs in scales
    }
    return PopulationAuditGridResult(
        population=spec.describe(),
        n_agents=spec.size,
        dtype=spec.dtype,
        target=config.target,
        schemes=tuple(item.name for item in resolved),
        budget_multipliers=budgets,
        cost_scales=scales,
        reports=reports,
        elapsed_s=elapsed,
    )


def audit_populations(
    schemes: Sequence[SchemeLike],
    spec: PopulationSpec,
    config: PopulationAuditConfig = PopulationAuditConfig(),
) -> Dict[str, PopulationAuditReport]:
    """Audit several schemes over one *shared* streamed population.

    One selection pass accumulates roles, synchrony, calibration and
    every scheme's pool totals; one chunk-major gain pass then generates
    each chunk once and evaluates all schemes on it before moving on —
    a paired comparison that streams the population exactly twice no
    matter how many schemes are audited.  This is the one-cell view of
    :func:`audit_population_grid` (the cell being ``config``'s own
    budget multiplier and cost scale); the scheme list is deduplicated
    preserving order and must be non-empty.
    """
    grid = audit_population_grid(schemes, spec, config)
    return {
        name: grid.reports[(name, grid.budget_multipliers[0], grid.cost_scales[0])]
        for name in grid.schemes
    }


def audit_population(
    scheme: SchemeLike,
    spec: PopulationSpec,
    config: PopulationAuditConfig = PopulationAuditConfig(),
) -> PopulationAuditReport:
    """Audit one scheme over one streamed population."""
    resolved = resolve_scheme(scheme)
    return audit_populations([resolved], spec, config)[resolved.name]
