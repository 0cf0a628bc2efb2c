"""Streamed Section V dynamics over million-agent populations.

The in-memory scenario driver (:mod:`repro.scenarios.dynamics`) holds a
whole :class:`~repro.core.game.AlgorandGame` per epoch — ideal at 10^2
players, an OOM at exchange scale.  This module evolves one huge
population (a :class:`~repro.populations.spec.PopulationSpec`) through
replicator or synchronous best-response epochs **blockwise** — O(chunk)
working memory plus ~2 held bytes per agent — reusing the population
audit's selection/chunk-context pass (:mod:`repro.schemes.population_audit`)
so dynamics and audits share one streaming substrate:

1. **Structure pass** — stake-weighted sortition selects the leaders and
   committee, Algorithm 1 calibrates ``(b_i, alpha, beta)`` at the
   all-cooperate profile, and pool tables are expanded — exactly
   :func:`~repro.schemes.population_audit._build_structure`.
2. **Synchrony census** — the pre-selection strong-synchrony draws are
   made once per run and held, one bool per agent, for every later pass.
3. **Per epoch, two streamed passes.**  The *measure* pass realizes the
   epoch's strategy profile (crowd thresholds + selected best responses)
   into one held int8 array, folds per-pool class weights, costs and the
   strong-synchrony defector census with the block-stable reductions,
   and emits an :class:`~repro.scenarios.trajectory.EpochRecord`.  The
   *update* pass reads that profile back and evaluates each crowd
   agent's **counterfactual** payoffs — what it would earn if it alone
   played C (resp. D) — through the audit's deviation kernel
   (:mod:`repro.schemes.deviation`); a
   :class:`~repro.core.dynamics.ReplicatorAccumulator` folds the sums and
   steps the crowd share once per epoch, while the selected agents revise
   by exact synchronous best response in both update modes (they are the
   mechanism's performers; their incentives, not the crowd means, are what
   separates the schemes).
4. **Stake churn** (optional) replays per-epoch resampling draws from the
   population's seed-block tree (any generator family, including the
   ``exchange_snapshot`` bootstrap), with the selected agents' stakes
   pinned so the epoch-0 calibration and quorum threshold stay exact.

Every pass of one run iterates a single chunk source built once per call
(:meth:`~repro.populations.spec.PopulationSpec.chunks`): a population
within :data:`~repro.populations.spec.RESIDENT_BYTES` is synthesized
once and held read-only for the run, a larger one is re-synthesized per
pass in O(chunk) memory.

Each call runs on :data:`repro.populations.threads.THREADS` in-call
threads.  A streamed source prefetches its next chunk on the call's pool
in every pass.  The measure and update passes go through
:func:`repro.populations.threads.sliced`: each chunk is cut into
block-aligned slices that realize, reduce and revise concurrently (each
writes only its own rows of the held profile), and every slice returns
**per-block** partial sums (:func:`~repro.populations.arrays.block_sums`)
that the calling thread adds in population order — the additions a
one-thread fold makes, so trajectories are byte-identical at every
thread count.  The structure pass, the census and the selected agents'
best responses stay on the calling thread.

Counterfactual (unilateral-deviation) crowd fitness is the load-bearing
choice: both schemes pay crowd *defectors* from stake-proportional pools,
so realized class means cannot distinguish foundation from role-based
sharing at scale — but the deviation payoffs can, and they are exactly
what the audit layer already certifies.  Because every reduction is
blockwise and every mask position-preserving, trajectories are
**bit-identical at any** ``chunk_agents``; the differential suite pins
small populations to the in-memory game oracle.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis import plotting
from repro.analysis.csvio import PathLike, write_rows
from repro.analysis.orchestrator import run_sweep
from repro.analysis.retry import ExecutionPolicy
from repro.analysis.sweep import SweepSpec
from repro.core.dynamics import ReplicatorAccumulator
from repro.errors import ConfigurationError
from repro.populations import threads
from repro.populations.arrays import (
    PopulationArrays,
    add_blocks,
    block_row_sums,
    block_sums,
)
from repro.populations.generators import resolve_sampler
from repro.populations.spec import PopulationSpec
from repro.populations.threads import Lane, call_pool, prefetch
from repro.scenarios.trajectory import EpochRecord, ScenarioTrajectory
from repro.schemes.deviation import (
    COMMITTEE,
    LEADER,
    ONLINE,
    Agents,
    Census,
    PoolTables,
    block_fold,
    membership,
    pool_weights,
    role_costs,
)
from repro.schemes.population_audit import (
    PopulationAuditConfig,
    _build_structure,
    _chunk_context,
    _chunks,
    _Structure,
    _sync_mask,
)
from repro.schemes.registry import SchemeLike, resolve_scheme
from repro.telemetry.metrics import DEFAULT_TIME_BUCKETS
from repro.telemetry.runtime import get_registry
from repro.telemetry.spans import span

#: Crowd/selected update rules the streamed driver understands.
UPDATE_RULES: Tuple[str, ...] = ("replicator", "best_response")

#: Strict-improvement threshold of a best-response switch — the same
#: tolerance as :func:`repro.core.equilibrium.best_response`, whose ties
#: break toward the current strategy (and C > D > O, so O never wins:
#: a defector's payoff ``rewards - c_so`` dominates offline's ``-c_so``).
_BR_TOLERANCE = 1e-15

#: Consumer columns in the population's seed-block stream tree.  The
#: realize column carries the epoch's crowd uniforms; the churn columns
#: carry the per-epoch resampling selector and replacement stakes.
_REALIZE_COLUMN = "dynamics.realize"
_CHURN_SELECT_COLUMN = "dynamics.churn.select"
_CHURN_STAKE_COLUMN = "dynamics.churn.stake"


@dataclass(frozen=True)
class PopulationDynamicsSpec:
    """One streamed dynamics run: population + epochs + mechanism shape.

    Parameters
    ----------
    name:
        Label carried into trajectories, sweep grids and cache keys.
    population:
        The streamed population (its ``cooperation`` field seeds the
        initial defectors — placed in the non-synchrony crowd first, the
        ``ONLINE_POOL`` seeding convention of the in-memory scenarios).
    n_epochs / update_rule:
        Epochs beyond the initial state, evolved by ``"replicator"``
        (crowd share dynamics + selected best response) or
        ``"best_response"`` (everyone revises synchronously).  Both
        rules hold the realized profile, one byte per agent.
    replicator_intensity / replicator_mutation:
        Selection intensity and trembling term of
        :func:`repro.core.dynamics.replicator_step`.
    churn_rate / churn_family / churn_params:
        Per-epoch probability that an agent's stake is resampled from the
        churn family (default: the population's own family/params; use
        ``exchange_snapshot`` for the bootstrap-from-snapshot model).
        Selected agents' stakes are pinned.
    n_leaders / committee_size / synchrony_rate / committee_quorum /
    cost_scale / budget_multiplier:
        The mechanism shape — identical semantics to
        :class:`~repro.schemes.population_audit.PopulationAuditConfig`.
    chunk_agents:
        Streaming window (``None`` = monolithic, the cross-check path).
        Trajectories are bit-identical at every value.
    """

    name: str
    population: PopulationSpec
    n_epochs: int = 20
    update_rule: str = "replicator"
    replicator_intensity: float = 4.0
    replicator_mutation: float = 0.0
    churn_rate: float = 0.0
    churn_family: Optional[str] = None
    churn_params: Mapping[str, Any] = field(default_factory=dict)
    n_leaders: int = 5
    committee_size: int = 30
    synchrony_rate: float = 0.5
    committee_quorum: float = 0.685
    cost_scale: float = 1.0
    budget_multiplier: float = 1.5
    chunk_agents: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.population, Mapping):
            object.__setattr__(
                self, "population", PopulationSpec.from_params(self.population)
            )
        object.__setattr__(self, "churn_params", dict(self.churn_params))
        if not self.name:
            raise ConfigurationError("dynamics spec needs a non-empty name")
        if self.n_epochs < 1:
            raise ConfigurationError(
                f"n_epochs must be >= 1, got {self.n_epochs}"
            )
        if self.update_rule not in UPDATE_RULES:
            raise ConfigurationError(
                f"unknown update rule {self.update_rule!r}; "
                f"choose from {UPDATE_RULES}"
            )
        if self.replicator_intensity <= 0:
            raise ConfigurationError(
                f"replicator intensity must be positive, "
                f"got {self.replicator_intensity}"
            )
        if not 0.0 <= self.replicator_mutation < 1.0:
            raise ConfigurationError(
                f"replicator mutation must be in [0, 1), "
                f"got {self.replicator_mutation}"
            )
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ConfigurationError(
                f"churn rate must be in [0, 1], got {self.churn_rate}"
            )
        if self.churn_rate > 0.0:
            # Eager validation, like PopulationSpec's own family check.
            resolve_sampler(
                self.churn_family or self.population.family,
                self.churn_params or self.population.params,
            )
        elif self.churn_family is not None or self.churn_params:
            raise ConfigurationError(
                "churn_family/churn_params require churn_rate > 0"
            )
        self.audit_config()  # validates the mechanism-shape fields

    def audit_config(self) -> PopulationAuditConfig:
        """The audit configuration sharing this spec's mechanism shape.

        ``target="all_c"`` calibrates the budget at the all-cooperate
        profile, exactly like the in-memory scenarios' epoch-0
        calibration — the *same* budget for every scheme, so the
        comparison is at equal cost to the foundation.
        """
        return PopulationAuditConfig(
            n_leaders=self.n_leaders,
            committee_size=self.committee_size,
            synchrony_rate=self.synchrony_rate,
            committee_quorum=self.committee_quorum,
            cost_scale=self.cost_scale,
            budget_multiplier=self.budget_multiplier,
            target="all_c",
            chunk_agents=self.chunk_agents,
        )

    def to_params(self) -> Dict[str, Any]:
        """The spec as plain JSON data — the form sweep shards carry."""
        return {
            "name": self.name,
            "population": self.population.to_params(),
            "n_epochs": self.n_epochs,
            "update_rule": self.update_rule,
            "replicator_intensity": self.replicator_intensity,
            "replicator_mutation": self.replicator_mutation,
            "churn_rate": self.churn_rate,
            "churn_family": self.churn_family,
            "churn_params": dict(self.churn_params),
            "n_leaders": self.n_leaders,
            "committee_size": self.committee_size,
            "synchrony_rate": self.synchrony_rate,
            "committee_quorum": self.committee_quorum,
            "cost_scale": self.cost_scale,
            "budget_multiplier": self.budget_multiplier,
            "chunk_agents": self.chunk_agents,
        }

    @staticmethod
    def from_params(params: Mapping[str, Any]) -> "PopulationDynamicsSpec":
        """Rebuild a spec from :meth:`to_params` output (re-validated)."""
        return PopulationDynamicsSpec(**dict(params))

    def with_overrides(self, **overrides: object) -> "PopulationDynamicsSpec":
        """Copy of this spec with fields replaced (re-validated)."""
        return replace(self, **overrides)

    def cache_key(self) -> str:
        """Content hash of the full parameter mapping (cache identity)."""
        payload = json.dumps(
            self.to_params(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Compact human-readable rendering for tables and logs."""
        return (
            f"{self.name}[{self.population.describe()},"
            f"{self.update_rule},E={self.n_epochs}]"
        )


# -- the streamed engine ------------------------------------------------------


@dataclass
class _Engine:
    """Per-run constants shared by every pass of one dynamics run."""

    spec: PopulationDynamicsSpec
    config: PopulationAuditConfig
    structure: _Structure
    table: PoolTables  # the scheme's pools at the calibrated split
    slice_budget: np.ndarray  # (P,) pool budgets at the calibrated split
    n_crowd: int
    n_sync: int  # strong-synchrony crowd agents
    n_nonsync: int
    churn_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]]
    #: The run's chunk source, iterated once per pass (see ``_chunks``).
    chunks: Iterable[PopulationArrays]
    #: The call's in-call thread pool (``None`` when serial).
    pool: Optional[ThreadPoolExecutor]
    sync: np.ndarray  # (N,) pre-selection strong-synchrony draws, held
    profile: np.ndarray  # (N,) int8 realized profile (0=C, 1=D), held


@dataclass
class _EpochAggregates:
    """One measured epoch: realized pool totals, block census and record."""

    totals: np.ndarray  # (P,) realized pool weight totals
    census: Census
    record: EpochRecord


def _build_engine(
    spec: PopulationDynamicsSpec,
    scheme_name: str,
    structure: _Structure,
    chunks: Iterable[PopulationArrays],
    pool: Optional[ThreadPoolExecutor] = None,
) -> _Engine:
    """Census pass: draw synchrony once and count the online crowd's split."""
    config = structure.config
    pop = spec.population
    sync = np.concatenate(
        [_sync_mask(pop, config, chunk) for chunk in prefetch(chunks, pool)]
    )
    # The selected agents perform their role: they are not sync crowd.
    n_sync = int(np.count_nonzero(sync)) - int(
        np.count_nonzero(sync[structure.selected_index])
    )
    n_crowd = pop.size - config.n_selected
    table = structure.tables[scheme_name]
    churn_sampler = None
    if spec.churn_rate > 0.0:
        churn_sampler = resolve_sampler(
            spec.churn_family or pop.family,
            spec.churn_params or pop.params,
        )
    return _Engine(
        spec=spec,
        config=config,
        structure=structure,
        table=table,
        slice_budget=table.fractions * structure.b_i,
        n_crowd=n_crowd,
        n_sync=n_sync,
        n_nonsync=n_crowd - n_sync,
        churn_sampler=churn_sampler,
        chunks=chunks,
        pool=pool,
        sync=sync,
        profile=np.zeros(pop.size, dtype=np.int8),
    )


def _initial_share(spec: PopulationDynamicsSpec, engine: _Engine) -> float:
    """Epoch-0 crowd cooperating share from the population's seeding.

    All ``round((1 - cooperation) * size)`` seeded defectors are crowd
    agents (the selected start cooperating), filling the non-synchrony
    crowd first — the in-memory scenarios' ``ONLINE_POOL`` convention.
    """
    defectors = round((1.0 - spec.population.cooperation) * spec.population.size)
    if engine.n_crowd == 0:
        return 1.0
    return min(1.0, max(0.0, 1.0 - defectors / engine.n_crowd))


def _thresholds(engine: _Engine, share: float) -> Tuple[float, float]:
    """Defection thresholds ``(non-sync, sync)`` realizing a crowd share.

    The crowd's defection mass fills the non-synchrony crowd first and
    spills into the synchrony set only once it is saturated — defection
    starts as free-riding and breaks blocks only under deep unraveling.
    """
    defect_mass = (1.0 - share) * engine.n_crowd
    p_nonsync = (
        min(1.0, defect_mass / engine.n_nonsync) if engine.n_nonsync else 0.0
    )
    spill = max(0.0, defect_mass - engine.n_nonsync)
    p_sync = min(1.0, spill / engine.n_sync) if engine.n_sync else 0.0
    return p_nonsync, p_sync


def _pin_selected(
    engine: _Engine, chunk: PopulationArrays, column: np.ndarray, values: np.ndarray
) -> None:
    """Set the in-chunk selected agents' entries of a chunk column."""
    index = engine.structure.selected_index
    in_chunk = (index >= chunk.offset) & (index < chunk.offset + chunk.n_agents)
    column[index[in_chunk] - chunk.offset] = values[in_chunk]


def _churned_stake(engine: _Engine, chunk: PopulationArrays, epoch: int) -> np.ndarray:
    """The chunk's stakes after replaying ``epoch`` churn rounds.

    Each round resamples every agent independently with probability
    ``churn_rate`` from the churn family, with position-preserving
    ``np.where`` updates (chunk-stable).  Selected agents' stakes are
    pinned to their epoch-0 values so the calibration, pool structure
    and quorum threshold stay exact.  The cumulative replay is O(epoch)
    draws per chunk — fine for the tens of epochs dynamics runs use.
    """
    stake = chunk.stake64()
    if engine.spec.churn_rate <= 0.0 or epoch == 0:
        return stake
    pop = engine.spec.population
    sampler = engine.churn_sampler
    assert sampler is not None
    for round_index in range(1, epoch + 1):
        selector = pop.chunk_draws(
            chunk.offset,
            chunk.n_agents,
            f"{_CHURN_SELECT_COLUMN}.{round_index}",
            lambda rng, n: rng.random(n),
        )
        fresh = pop.chunk_draws(
            chunk.offset,
            chunk.n_agents,
            f"{_CHURN_STAKE_COLUMN}.{round_index}",
            sampler,
        ).astype(np.float64, copy=False)
        stake = np.where(selector < engine.spec.churn_rate, fresh, stake)
    if not np.all(np.isfinite(stake)) or float(stake.min()) <= 0.0:
        raise ConfigurationError(
            "churn family produced non-positive or non-finite stakes"
        )
    _pin_selected(engine, chunk, stake, engine.structure.selected_stake)
    return stake


def _epoch_context(
    engine: _Engine, chunk: PopulationArrays, epoch: int
) -> Agents:
    """One chunk's context at a given epoch under the held profile.

    Actions are the chunk's slice of :attr:`_Engine.profile` (selected
    agents included), stakes the epoch's churned stakes and the
    synchrony mask the census pass's held draw.
    """
    rows = slice(chunk.offset, chunk.offset + chunk.n_agents)
    return _chunk_context(
        engine.structure,
        engine.spec.population,
        chunk,
        stake=_churned_stake(engine, chunk, epoch),
        actions=engine.profile[rows],
        sync=engine.sync[rows],
    )


def _realize(
    engine: _Engine,
    chunk: PopulationArrays,
    epoch: int,
    thresholds: Optional[Tuple[float, float]],
    sel_action: np.ndarray,
) -> None:
    """Realize one chunk's epoch profile into :attr:`_Engine.profile`.

    Crowd actions come from the epoch's uniform draws against
    ``thresholds``, or stay as the last update pass revised them when
    ``thresholds`` is None (best-response mode).  Selected agents play
    their current best-response actions.
    """
    rows = slice(chunk.offset, chunk.offset + chunk.n_agents)
    profile = engine.profile[rows]
    if thresholds is not None:
        uniforms = engine.spec.population.chunk_draws(
            chunk.offset,
            chunk.n_agents,
            f"{_REALIZE_COLUMN}.{epoch}",
            lambda rng, n: rng.random(n),
        )
        # Selected rows draw a crowd level too; their action is set below.
        level = np.where(engine.sync[rows], thresholds[1], thresholds[0])
        profile[:] = uniforms < level
    _pin_selected(engine, chunk, profile, sel_action)


@dataclass
class _MeasureSlice:
    """One slice's share of the measure pass: per-block sums and counts."""

    weight_coop: np.ndarray  # (blocks, P) cooperators' pool weights
    weight_defect: np.ndarray  # (blocks, P) defectors' pool weights
    coop_cost: np.ndarray  # (blocks,) cooperators' role costs
    defect_cost: np.ndarray  # (blocks,) defectors' sortition costs
    n_coop: int
    sync_defectors: int


def _measure_slice(
    engine: _Engine,
    epoch: int,
    thresholds: Optional[Tuple[float, float]],
    sel_action: np.ndarray,
    part: PopulationArrays,
) -> _MeasureSlice:
    """Realize one block-aligned slice's profile and reduce it per block."""
    _realize(engine, part, epoch, thresholds, sel_action)
    ctx = _epoch_context(engine, part, epoch)
    table = engine.table
    contribution = pool_weights(table, ctx.stake, ctx.coop_cost)
    for p in range(len(table.kinds)):
        contribution[p] *= membership(table.lookup[p], ctx)
    return _MeasureSlice(
        weight_coop=block_row_sums(np.where(ctx.coop, contribution, 0.0)),
        weight_defect=block_row_sums(np.where(~ctx.coop, contribution, 0.0)),
        coop_cost=block_sums(np.where(ctx.coop, ctx.coop_cost, 0.0)),
        defect_cost=block_sums(np.where(~ctx.coop, ctx.sortition_cost, 0.0)),
        n_coop=int(np.count_nonzero(ctx.coop)),
        sync_defectors=int(np.count_nonzero(ctx.sync & (ctx.action == 1))),
    )


def _measure_pass(
    engine: _Engine,
    epoch: int,
    thresholds: Optional[Tuple[float, float]],
    sel_action: np.ndarray,
) -> _EpochAggregates:
    """Realize the epoch's profile, hold it, and fold its aggregates.

    Slices realize and reduce concurrently (:func:`_measure_slice`);
    their per-block sums are replayed here in population order, the
    additions :func:`~repro.populations.arrays.blockwise_sum` makes.
    """
    structure = engine.structure
    P = len(engine.table.kinds)
    weight_coop = np.zeros(P, dtype=np.float64)
    weight_defect = np.zeros(P, dtype=np.float64)
    n_coop = 0
    coop_cost_sum = 0.0
    defect_cost_sum = 0.0
    sync_defectors = 0

    def measure(part: PopulationArrays, lane: Lane) -> _MeasureSlice:
        return _measure_slice(engine, epoch, thresholds, sel_action, part)

    for _chunk, partials in threads.sliced(engine.chunks, engine.pool, measure):
        for part in partials:
            weight_coop = add_blocks(weight_coop, part.weight_coop)
            weight_defect = add_blocks(weight_defect, part.weight_defect)
            coop_cost_sum = float(add_blocks(coop_cost_sum, part.coop_cost))
            defect_cost_sum = float(add_blocks(defect_cost_sum, part.defect_cost))
            n_coop += part.n_coop
            sync_defectors += part.sync_defectors

    roles, sel_coop = structure.selected_role, sel_action == 0
    committee = np.where(sel_coop & (roles == COMMITTEE), structure.selected_stake, 0.0)
    census = Census(
        leaders=int(np.count_nonzero(sel_coop & (roles == LEADER))),
        tally=float(np.add.reduce(committee)),
        threshold=structure.census.threshold,
        sync_defectors=sync_defectors,
    )
    block_success = bool(census.holds)
    totals = weight_coop + weight_defect
    rates = np.zeros(P, dtype=np.float64)
    if block_success:
        np.divide(engine.slice_budget, totals, out=rates, where=totals > 0)
    reward_coop = float(np.dot(rates, weight_coop))
    reward_defect = float(np.dot(rates, weight_defect))

    size = engine.spec.population.size
    n_defect = size - n_coop
    mean_coop = (reward_coop - coop_cost_sum) / n_coop if n_coop else 0.0
    mean_defect = (
        (reward_defect - defect_cost_sum) / n_defect if n_defect else 0.0
    )
    paid = reward_coop + reward_defect
    efficiency = reward_coop / paid if block_success and paid > 0 else 0.0
    record = EpochRecord(
        epoch=epoch,
        n_players=size,
        n_cooperating=n_coop,
        n_defecting=n_defect,
        n_offline=0,
        block_success=block_success,
        mean_payoff_cooperate=mean_coop,
        mean_payoff_defect=mean_defect,
        realized_final_fraction=None,
        budget_efficiency=efficiency,
    )
    return _EpochAggregates(totals=totals, census=census, record=record)


def _chunk_counterfactuals(
    engine: _Engine,
    agents: Agents,
    aggregates: _EpochAggregates,
    lane: Optional[Lane] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-agent counterfactual payoffs ``(u_C, u_D)`` for one batch.

    ``u_C[j]`` / ``u_D[j]`` are agent ``j``'s payoffs if it *alone*
    played C (resp. D) against the realized profile, from the shared
    kernel under its block rule
    (:func:`~repro.schemes.deviation.block_fold`): a move earns rewards
    only if the block holds after it.  The batch is a chunk of the
    crowd or the selected agents (:func:`_selected_best_responses`).
    """
    _, (rewards_c,), (rewards_d,) = block_fold(
        engine.table,
        agents,
        aggregates.census,
        aggregates.totals,
        [engine.slice_budget],
        base=False,
        deviations=(0, 1),
        lane=lane,
    )
    rewards_c -= agents.coop_cost
    rewards_d -= agents.sortition_cost
    return rewards_c, rewards_d


def _best_responses(
    coop: np.ndarray, utility_c: np.ndarray, utility_d: np.ndarray
) -> np.ndarray:
    """Best-response actions (0=C, 1=D): switch only on a strict improvement."""
    return np.where(
        coop,
        np.where(utility_d > utility_c + _BR_TOLERANCE, 1, 0),
        np.where(utility_c > utility_d + _BR_TOLERANCE, 0, 1),
    ).astype(np.int8)


def _selected_best_responses(
    engine: _Engine, aggregates: _EpochAggregates, sel_action: np.ndarray
) -> np.ndarray:
    """Exact synchronous best responses of the selected agents.

    The k leaders/committee members fold through the shared kernel as
    one batch at their pinned stakes (:func:`_chunk_counterfactuals`),
    each deviation's block transition (leader count / quorum tally)
    exact; matching
    :func:`repro.core.equilibrium.synchronous_best_responses` — strict
    ``> 1e-15`` improvement to switch, ties keep the current action, and
    O is dominated by D (``rewards - c_so >= -c_so``), so only {C, D}
    are compared.
    """
    structure = engine.structure
    roles = structure.selected_role
    coop = sel_action == 0
    agents = Agents(
        stake=structure.selected_stake,
        roles=roles,
        selected_rows=np.arange(sel_action.size),
        coop=coop,
        action=sel_action,
        coop_cost=role_costs(structure.costs).take(roles) * structure.selected_cost,
        sortition_cost=structure.costs.sortition * structure.selected_cost,
    )
    return _best_responses(coop, *_chunk_counterfactuals(engine, agents, aggregates))


def _update_pass(
    engine: _Engine,
    aggregates: _EpochAggregates,
    prev_epoch: int,
    sel_action: np.ndarray,
    share: float,
) -> Tuple[float, np.ndarray]:
    """Read back the previous epoch's held profile and compute the revisions.

    Returns ``(next crowd share, next selected actions)``; in
    best-response mode the crowd's new actions are written back into the
    held profile in place (each slice reads its rows before writing
    them, and no slice touches another's rows, so the synchronous
    semantics hold).  Slices run concurrently; replicator partials
    (per-block payoff sums) and revision counts are folded here in
    population order.  The selected agents' best responses stay on the
    calling thread: they are one small batch.
    """
    spec = engine.spec
    registry = get_registry()
    telemetry = registry.enabled
    replicator = spec.update_rule == "replicator"
    crowd_revisions = 0
    accumulator = ReplicatorAccumulator(
        intensity=spec.replicator_intensity, mutation=spec.replicator_mutation
    )

    def revise(part: PopulationArrays, lane: Lane):
        """Replicator partials, or the slice's crowd revision count."""
        ctx = _epoch_context(engine, part, prev_epoch)
        utility_c, utility_d = _chunk_counterfactuals(engine, ctx, aggregates, lane)
        if replicator:
            # Selected rows zeroed in place (an ``include`` mask copies).
            utility_c[ctx.selected_rows] = utility_d[ctx.selected_rows] = 0.0
            sums_c, sums_d, n = ReplicatorAccumulator.partials(utility_c, utility_d)
            return sums_c, sums_d, n - ctx.selected_rows.size
        crowd = ctx.roles == ONLINE
        switched = _best_responses(ctx.coop, utility_c, utility_d)
        rows = slice(part.offset, part.offset + ctx.n)
        np.copyto(engine.profile[rows], switched, where=crowd)
        return int(np.sum(crowd & (switched != ctx.action))) if telemetry else 0

    for _chunk, partials in threads.sliced(engine.chunks, engine.pool, revise):
        for partial in partials:
            if replicator:
                accumulator.absorb(*partial)
            else:
                crowd_revisions += partial
    next_selected = _selected_best_responses(engine, aggregates, sel_action)
    if telemetry:
        revisions = registry.counter(
            "repro_dynamics_revisions_total",
            "Strategy revisions applied by the update pass, by agent kind",
            labels=("kind",),
        )
        revisions.labels(kind="crowd").inc(float(crowd_revisions))
        revisions.labels(kind="selected").inc(
            float(int(np.sum(next_selected != sel_action)))
        )
    next_share = accumulator.step(share) if replicator else share
    return next_share, next_selected


def run_population_dynamics(
    spec: PopulationDynamicsSpec, scheme: SchemeLike
) -> ScenarioTrajectory:
    """Evolve one streamed population under one scheme; pure in the spec.

    Every random stream (sortition race, synchrony, realization uniforms,
    churn) comes from the population's seed-block tree, so the trajectory
    is a pure function of ``(spec, scheme)`` — and bit-identical at every
    ``chunk_agents`` value and every in-call thread count.  The call
    opens one :func:`~repro.populations.threads.call_pool` for all its
    passes (no thread outlives it); the measure and update passes fold
    block-aligned slices of each chunk on it and replay their per-block
    partials in population order.  Returns a
    :class:`~repro.scenarios.trajectory.ScenarioTrajectory` whose scenario
    field carries ``spec.name`` (epoch 0 is the seeded initial state).
    """
    resolved = resolve_scheme(scheme)
    config = spec.audit_config()
    registry = get_registry()
    telemetry = registry.enabled
    m_epoch_seconds = registry.histogram(
        "repro_dynamics_epoch_seconds",
        "Wall time of one streamed dynamics epoch (update + measure pass)",
        labels=("scheme",),
        buckets=DEFAULT_TIME_BUCKETS,
    )
    m_epochs = registry.counter(
        "repro_dynamics_epochs_total",
        "Streamed dynamics epochs evolved",
        labels=("scheme",),
    )
    # One source for all 3 + 2 * n_epochs passes: a population within
    # RESIDENT_BYTES is synthesized once per call, not once per pass.
    chunks = _chunks(spec.population, config)
    with call_pool(threads.THREADS) as pool:
        structure = _build_structure(
            [resolved], spec.population, config, prefetch(chunks, pool)
        )
        engine = _build_engine(spec, resolved.name, structure, chunks, pool)
        sel_action = np.zeros(engine.config.n_selected, dtype=np.int8)
        share = _initial_share(spec, engine)
        trajectory = ScenarioTrajectory(
            scenario=spec.name,
            scheme=resolved.name,
            b_i=structure.b_i,
            alpha=structure.split.alpha,
            beta=structure.split.beta,
        )
        with span(
            "dynamics.run", agents=spec.population.size, epochs=spec.n_epochs
        ):
            thresholds: Optional[Tuple[float, float]] = _thresholds(engine, share)
            aggregates = _measure_pass(engine, 0, thresholds, sel_action)
            trajectory.records.append(aggregates.record)
            for epoch in range(1, spec.n_epochs + 1):
                epoch_started = time.perf_counter() if telemetry else 0.0
                share, sel_action = _update_pass(
                    engine, aggregates, epoch - 1, sel_action, share
                )
                if spec.update_rule == "replicator":
                    thresholds = _thresholds(engine, share)
                else:
                    thresholds = None
                aggregates = _measure_pass(engine, epoch, thresholds, sel_action)
                trajectory.records.append(aggregates.record)
                if telemetry:
                    m_epochs.labels(scheme=resolved.name).inc()
                    m_epoch_seconds.labels(scheme=resolved.name).observe(
                        time.perf_counter() - epoch_started
                    )
    return trajectory


# -- campaign integration -----------------------------------------------------


def dynamics_sweep_spec(
    specs: Sequence[PopulationDynamicsSpec],
    schemes: Sequence[SchemeLike] = ("foundation", "role_based"),
    seed: int = 2021,
) -> SweepSpec:
    """One shard per (dynamics spec, scheme) grid point.

    Both axes carry full parameter mappings (the spec's
    :meth:`~PopulationDynamicsSpec.to_params` and the scheme's
    ``to_params``), so the orchestrator's content-addressed cache key
    covers every field and workers never need a registry.  The driver is
    a pure function of the spec (all randomness lives in the
    population's seed tree), so the shard ignores its sweep seed;
    ``seed`` still participates in the cache key via ``root_seed``.
    """
    from repro.scenarios.experiment import CAMPAIGN_VERSION

    if not specs:
        raise ConfigurationError("dynamics campaign needs at least one spec")
    if not schemes:
        raise ConfigurationError("dynamics campaign needs at least one scheme")
    return SweepSpec(
        name="population-dynamics",
        grid={
            "dynamics": [spec.to_params() for spec in specs],
            "scheme": [resolve_scheme(scheme).to_params() for scheme in schemes],
        },
        base={},
        root_seed=seed,
        version=CAMPAIGN_VERSION,
    )


def _dynamics_shard(params: Mapping[str, Any], _seed: int) -> Dict[str, object]:
    """One campaign shard: a full streamed trajectory payload."""
    spec = PopulationDynamicsSpec.from_params(params["dynamics"])
    return run_population_dynamics(spec, params["scheme"]).to_payload()


def run_population_dynamics_campaign(
    specs: Sequence[PopulationDynamicsSpec],
    schemes: Sequence[SchemeLike] = ("foundation", "role_based"),
    seed: int = 2021,
    workers: Union[int, str, None] = 1,
    cache_dir: Union[str, Path, None] = None,
    progress: bool = False,
    policy: Optional[ExecutionPolicy] = None,
) -> Dict[Tuple[str, str], ScenarioTrajectory]:
    """Run a grid of streamed dynamics through the sweep orchestrator.

    Shards cache, resume and merge exactly like the scenario campaigns;
    returns ``{(spec name, scheme name): trajectory}`` in grid order.
    ``policy`` sets the sweep's robustness envelope (retries, timeouts).
    """
    sweep_spec = dynamics_sweep_spec(specs, schemes, seed)
    sweep = run_sweep(
        sweep_spec,
        _dynamics_shard,
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        policy=policy,
    )
    payloads = sweep.results()
    scheme_names = [resolve_scheme(scheme).name for scheme in schemes]
    results: Dict[Tuple[str, str], ScenarioTrajectory] = {}
    index = 0
    for spec in specs:
        for scheme_name in scheme_names:
            results[(spec.name, scheme_name)] = ScenarioTrajectory.from_payload(
                payloads[index]
            )
            index += 1
    return results


# -- rendering and export -----------------------------------------------------


def render_dynamics_trajectories(
    trajectories: Mapping[Tuple[str, str], ScenarioTrajectory]
) -> str:
    """ASCII panels: defection share vs epoch plus a verdict table."""
    panels: List[str] = []
    names: List[str] = []
    for name, _scheme in trajectories:
        if name not in names:
            names.append(name)
    for name in names:
        series = {
            scheme: trajectory.defection_series()
            for (spec_name, scheme), trajectory in trajectories.items()
            if spec_name == name
        }
        panels.append(
            plotting.line_chart(
                series,
                title=f"Dynamics {name} — defection share vs epoch",
                y_min=0.0,
                y_max=1.0,
                height=10,
            )
        )
    rows = []
    for (name, scheme), trajectory in trajectories.items():
        final = trajectory.records[-1]
        blocks = trajectory.block_series()
        verdict = "stabilized" if trajectory.stabilized() else "moving"
        if final.defection_share >= 0.9:
            verdict = "unraveled"
        rows.append(
            (
                name,
                scheme,
                f"{final.defection_share:.3f}",
                f"{sum(blocks) / len(blocks):.2f}",
                f"{final.budget_efficiency:.2f}",
                verdict,
            )
        )
    panels.append(
        plotting.format_table(
            (
                "dynamics",
                "scheme",
                "final defection",
                "block rate",
                "efficiency",
                "verdict",
            ),
            rows,
            title="Streamed dynamics verdicts",
        )
    )
    return "\n\n".join(panels)


def dynamics_to_csv(
    trajectories: Mapping[Tuple[str, str], ScenarioTrajectory], path: PathLike
) -> None:
    """Write one row per (dynamics, scheme, epoch) as CSV."""
    rows: List[Sequence[object]] = []
    for (name, scheme), trajectory in trajectories.items():
        for record in trajectory.records:
            rows.append(
                (
                    name,
                    scheme,
                    record.epoch,
                    record.defection_share,
                    record.cooperation_share,
                    1.0 if record.block_success else 0.0,
                    record.mean_payoff_cooperate,
                    record.mean_payoff_defect,
                    record.budget_efficiency,
                    trajectory.b_i,
                    trajectory.alpha,
                    trajectory.beta,
                )
            )
    write_rows(
        path,
        (
            "dynamics",
            "scheme",
            "epoch",
            "defection_share",
            "cooperation_share",
            "block_success",
            "mean_payoff_cooperate",
            "mean_payoff_defect",
            "budget_efficiency",
            "b_i",
            "alpha",
            "beta",
        ),
        rows,
    )
