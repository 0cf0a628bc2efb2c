"""Vectorized incentive-compatibility audit for any registered scheme.

The paper proves incentive compatibility for exactly one mechanism
(Theorems 2-3).  This engine answers the general question — *is scheme X
epsilon-incentive-compatible under population Y?* — by brute force, fast:

1. **Population batches.**  Each audit *cell* (a stake distribution x a
   cost scale x a budget multiplier) samples ``n_populations`` whole
   player populations at once, assigns roles by stake-weighted sortition
   without replacement (an exponential-race draw, vectorized across the
   batch), picks the strong-synchrony set, and calibrates a per-population
   role split and Theorem 3 bound with Algorithm 1's analytic optimizer.
   The budget is ``budget_multiplier`` times the bound, so cells above 1
   probe the paper's "sufficiently rewarding" regime and cells below 1 the
   unraveling regime.  Populations are **scheme-independent**: every
   scheme is audited on identical populations, budgets and splits — a
   paired comparison.
2. **Deviation payoffs, closed form.**  The target profile (Theorem 3's
   "L, M and Y cooperate, the rest defect", or All-C) always produces a
   block, so every player's deviation payoff comes from the shared kernel
   (:mod:`repro.schemes.deviation`), the whole batch flattened into one
   agent batch; this engine adds only the per-population pool totals and
   block census (the kernel's block rule zeroes the withdrawals that
   break the block) — no game object, no per-player loop.
3. **Certification.**  A cell is certified ``epsilon``-IC when no checked
   deviation gains more than ``epsilon``; otherwise the report carries the
   most profitable deviation as a concrete witness (population, player,
   role, stake, strategy change, gain).

The kernel's differential check against the scalar game (an
:class:`~repro.core.game.AlgorandGame` under the scheme's own
:meth:`make_rule`, one ``payoff`` call per deviation) runs in the test
suite (``tests/oracles.py``), not in the audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.csvio import PathLike, write_rows
from repro.core.bounds import RoleAggregates
from repro.core.costs import RoleCosts
from repro.core.game import AlgorandGame, RewardRule, Strategy, StrategyProfile
from repro.core.optimizer import minimize_reward_analytic
from repro.errors import ConfigurationError, SchemeError
from repro.schemes.base import PoolSpec, RewardScheme, SchemeSplit, WeightKind, validate_pools
from repro.schemes.deviation import (
    COMMITTEE,
    LEADER,
    ONLINE,
    ROLE_NAMES,
    SWITCH,
    TARGETS,
    Agents,
    Census,
    DeviationWitness,
    block_fold,
    deviation_gains,
    membership,
    pool_tables,
    pool_weights,
    role_costs,
    scaled_costs,
    split_fractions,
)
from repro.schemes.registry import SchemeLike, resolve_scheme
from repro.sim.rng import derive_seed

#: Stake distributions the audit grid may reference.
STAKE_KINDS: Tuple[str, ...] = ("uniform", "normal", "whale_mix")


@dataclass(frozen=True)
class AuditConfig:
    """The audit grid and population shape.

    One *cell* per ``(stake_kind, cost_scale, budget_multiplier)`` tuple;
    within each cell, ``n_populations`` independent populations of
    ``n_players`` players.  ``target`` selects the profile deviations are
    measured from: ``"theorem3"`` (leaders, committee and the strong
    synchrony set cooperate, the remaining online players defect) or
    ``"all_c"`` (everyone cooperates — Theorem 2's profile).
    """

    n_players: int = 24
    n_leaders: int = 3
    committee_size: int = 6
    synchrony_fraction: float = 0.5
    committee_quorum: float = 0.685
    n_populations: int = 16
    stake_kinds: Tuple[str, ...] = ("uniform", "whale_mix")
    cost_scales: Tuple[float, ...] = (1.0, 2.0)
    budget_multipliers: Tuple[float, ...] = (0.75, 1.25)
    epsilon: float = 1e-12
    target: str = "theorem3"
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.n_leaders < 1 or self.committee_size < 2:
            raise ConfigurationError("need >= 1 leader and >= 2 committee members")
        if self.n_players < self.n_leaders + self.committee_size + 2:
            raise ConfigurationError(
                f"{self.n_players} players cannot host {self.n_leaders} leaders "
                f"and a committee of {self.committee_size}"
            )
        if not 0.0 < self.synchrony_fraction <= 1.0:
            raise ConfigurationError("synchrony fraction must be in (0, 1]")
        if not 0.0 < self.committee_quorum < 1.0:
            raise ConfigurationError("committee quorum must be in (0, 1)")
        if self.n_populations < 1:
            raise ConfigurationError("need at least one population per cell")
        unknown = [kind for kind in self.stake_kinds if kind not in STAKE_KINDS]
        if unknown:
            raise ConfigurationError(
                f"unknown stake kinds {unknown}; choose from {STAKE_KINDS}"
            )
        if not self.stake_kinds or not self.cost_scales or not self.budget_multipliers:
            raise ConfigurationError("every grid axis needs at least one value")
        for label, axis in (
            ("cost scales", self.cost_scales),
            ("budget multipliers", self.budget_multipliers),
        ):
            if not all(math.isfinite(value) and value > 0 for value in axis):
                raise ConfigurationError(
                    f"{label} must be positive and finite, got {axis}"
                )
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigurationError(
                f"epsilon must be finite and >= 0, got {self.epsilon}"
            )
        if self.target not in ("theorem3", "all_c"):
            raise ConfigurationError(
                f"unknown target profile {self.target!r}; "
                "choose 'theorem3' or 'all_c'"
            )

    @property
    def n_online(self) -> int:
        """Players outside the leader and committee sets."""
        return self.n_players - self.n_leaders - self.committee_size

    def synchrony_size(self) -> int:
        """Strong-synchrony set size implied by the fraction (minimum 1)."""
        return max(1, math.ceil(self.synchrony_fraction * self.n_online))


@dataclass(frozen=True)
class CellAudit:
    """The verdict for one scheme on one audit cell."""

    scheme: str
    stake_kind: str
    cost_scale: float
    budget_multiplier: float
    certified: bool
    epsilon: float
    max_gain: float
    max_shirk_gain: float
    n_deviations: int
    witness: Optional[DeviationWitness]
    mean_b_i: float

    @property
    def ic_margin(self) -> float:
        """How far the best deviation sits below profitability (`-max_gain`)."""
        return -self.max_gain

    @property
    def shirk_margin(self) -> float:
        """Margin over cooperators' work-reducing deviations (C->D, C->O).

        Cooperator-only schemes can fail full epsilon-IC because defectors
        profit from switching *to* cooperation — a deviation that helps
        the protocol.  This margin isolates the paper's actual concern:
        nobody assigned work profits from performing less of it.
        """
        return -self.max_shirk_gain


@dataclass
class AuditReport:
    """All cell verdicts for one scheme, plus export helpers."""

    scheme: str
    config: AuditConfig
    cells: List[CellAudit] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        """Whether every audited cell is epsilon-IC."""
        return all(cell.certified for cell in self.cells)

    @property
    def ic_margin(self) -> float:
        """The worst (smallest) margin across cells."""
        return min(cell.ic_margin for cell in self.cells)

    @property
    def shirk_margin(self) -> float:
        """The worst margin over work-reducing deviations across cells."""
        return min(cell.shirk_margin for cell in self.cells)

    def worst_cell(self) -> CellAudit:
        """The cell with the smallest incentive-compatibility margin."""
        return min(self.cells, key=lambda cell: cell.ic_margin)

    def cell_for(
        self, stake_kind: str, cost_scale: float, budget_multiplier: float
    ) -> CellAudit:
        """Look up one audited cell by its grid coordinates."""
        for cell in self.cells:
            if (
                cell.stake_kind == stake_kind
                and cell.cost_scale == cost_scale
                and cell.budget_multiplier == budget_multiplier
            ):
                return cell
        raise ConfigurationError(
            f"no audited cell ({stake_kind}, {cost_scale}, {budget_multiplier})"
        )

    def render(self) -> str:
        """ASCII table of per-cell verdicts and witnesses."""
        from repro.analysis.plotting import format_table

        rows = []
        for cell in self.cells:
            witness = "" if cell.witness is None else cell.witness.describe()
            rows.append(
                (
                    cell.stake_kind,
                    f"{cell.cost_scale:g}",
                    f"{cell.budget_multiplier:g}",
                    "IC" if cell.certified else "DEVIATES",
                    f"{cell.max_gain:.3g}",
                    witness,
                )
            )
        return format_table(
            ("stakes", "cost x", "budget x", "verdict", "max gain", "best deviation"),
            rows,
            title=f"epsilon-IC audit — scheme {self.scheme!r} "
            f"(eps={self.config.epsilon:g}, {self.config.target} profile)",
        )

    def to_csv(self, path: PathLike) -> None:
        """Write one row per audited cell as CSV."""
        rows: List[Sequence[object]] = []
        for cell in self.cells:
            witness = cell.witness
            rows.append(
                (
                    cell.scheme,
                    cell.stake_kind,
                    cell.cost_scale,
                    cell.budget_multiplier,
                    int(cell.certified),
                    cell.epsilon,
                    cell.max_gain,
                    cell.max_shirk_gain,
                    cell.n_deviations,
                    cell.mean_b_i,
                    "" if witness is None else witness.role,
                    "" if witness is None else witness.from_strategy,
                    "" if witness is None else witness.to_strategy,
                    "" if witness is None else witness.gain,
                )
            )
        write_rows(
            path,
            (
                "scheme",
                "stake_kind",
                "cost_scale",
                "budget_multiplier",
                "certified",
                "epsilon",
                "max_gain",
                "max_shirk_gain",
                "n_deviations",
                "mean_b_i",
                "witness_role",
                "witness_from",
                "witness_to",
                "witness_gain",
            ),
            rows,
        )


# -- population cells ---------------------------------------------------------------


@dataclass
class _Cell:
    """One audit cell's scheme-independent population batch."""

    stake_kind: str
    cost_scale: float
    budget_multiplier: float
    quorum: float
    costs: RoleCosts
    stakes: np.ndarray  # (B, N) float
    roles: np.ndarray  # (B, N) int8 role codes
    sync: np.ndarray  # (B, N) bool — strong-synchrony membership
    coop: np.ndarray  # (B, N) bool — target-profile cooperation
    alphas: np.ndarray  # (B,) calibrated split
    betas: np.ndarray  # (B,)
    b_i: np.ndarray  # (B,) per-population budget


def _sample_stakes(
    kind: str, rng: np.random.Generator, shape: Tuple[int, int]
) -> np.ndarray:
    """Batched stake sampling; mirrors the scenario stake catalog."""
    if kind == "uniform":
        return rng.uniform(1.0, 50.0, shape)
    if kind == "normal":
        return np.maximum(rng.normal(100.0, 10.0, shape), 1.0)
    stakes = rng.uniform(1.0, 50.0, shape)
    n_whales = max(1, round(0.10 * shape[1]))
    order = np.argsort(rng.random(shape), axis=1)
    whale_cols = order[:, :n_whales]
    rows = np.arange(shape[0])[:, None]
    stakes[rows, whale_cols] = np.maximum(
        rng.normal(2000.0, 25.0, (shape[0], n_whales)), 1.0
    )
    return stakes


def _build_cell(
    config: AuditConfig,
    stake_kind: str,
    cost_scale: float,
    budget_multiplier: float,
) -> _Cell:
    """Sample and calibrate one cell; deterministic in the config seed.

    The seed derivation covers only the cell coordinates — not the scheme —
    so every scheme is audited against identical populations.
    """
    rng = np.random.default_rng(
        derive_seed(
            config.seed,
            f"audit:{stake_kind}:{cost_scale:g}:x{budget_multiplier:g}",
        )
    )
    B, N = config.n_populations, config.n_players
    stakes = _sample_stakes(stake_kind, rng, (B, N))

    # Stake-weighted sortition without replacement, batched: each player
    # draws an Exp(1)/stake race key; ascending key order is a weighted
    # sample without replacement (leaders first, then the committee).
    keys = rng.exponential(1.0, (B, N)) / stakes
    order = np.argsort(keys, axis=1, kind="stable")
    roles = np.full((B, N), ONLINE, dtype=np.int8)
    rows = np.arange(B)[:, None]
    roles[rows, order[:, : config.n_leaders]] = LEADER
    roles[
        rows, order[:, config.n_leaders : config.n_leaders + config.committee_size]
    ] = COMMITTEE

    # Strong synchrony set: a uniform draw among the online players.
    sync_keys = rng.random((B, N))
    sync_keys[roles != ONLINE] = np.inf
    sync_order = np.argsort(sync_keys, axis=1, kind="stable")
    sync = np.zeros((B, N), dtype=bool)
    sync[rows, sync_order[:, : config.synchrony_size()]] = True

    coop = (
        np.ones((B, N), dtype=bool)
        if config.target == "all_c"
        else (roles != ONLINE) | sync
    )

    costs = scaled_costs(cost_scale)

    alphas = np.empty(B)
    betas = np.empty(B)
    b_i = np.empty(B)
    for b in range(B):
        leader_stakes = stakes[b][roles[b] == LEADER]
        committee_stakes = stakes[b][roles[b] == COMMITTEE]
        online_stakes = stakes[b][roles[b] == ONLINE]
        sync_stakes = stakes[b][sync[b]]
        aggregates = RoleAggregates(
            stake_leaders=float(leader_stakes.sum()),
            stake_committee=float(committee_stakes.sum()),
            stake_others=float(online_stakes.sum()),
            min_leader=float(leader_stakes.min()),
            min_committee=float(committee_stakes.min()),
            min_other=float(sync_stakes.min()),
        )
        split = minimize_reward_analytic(costs, aggregates)
        alphas[b] = split.alpha
        betas[b] = split.beta
        b_i[b] = budget_multiplier * split.b_i

    return _Cell(
        stake_kind=stake_kind,
        cost_scale=cost_scale,
        budget_multiplier=budget_multiplier,
        quorum=config.committee_quorum,
        costs=costs,
        stakes=stakes,
        roles=roles,
        sync=sync,
        coop=coop,
        alphas=alphas,
        betas=betas,
        b_i=b_i,
    )


# -- the vectorized deviation-gain kernel -------------------------------------------


def _vectorized_gains(scheme: RewardScheme, cell: _Cell) -> np.ndarray:
    """Deviation gains for every player and alternative, shape (3, B, N).

    Entry ``[t, b, j]`` is the payoff gain of player ``j`` in population
    ``b`` unilaterally switching to ``TARGETS[t]`` (``nan``: its current
    strategy).  The batch runs through the shared kernel flattened, each
    population's pool totals and slice budgets repeated per player.
    """
    B, N = cell.stakes.shape
    tables = pool_tables(scheme, SchemeSplit(cell.alphas[0], cell.betas[0]))
    splits = [SchemeSplit(alpha, beta) for alpha, beta in zip(cell.alphas, cell.betas)]
    fractions = split_fractions(scheme, tables, splits)  # (B, P): splits differ

    roles = cell.roles.ravel()
    coop = cell.coop.ravel()
    agents = Agents(
        stake=cell.stakes.ravel(),
        roles=roles,
        selected_rows=np.flatnonzero(roles != ONLINE),
        coop=coop,
        action=(~coop).astype(np.int8),
        coop_cost=role_costs(cell.costs).take(roles),
        sortition_cost=np.full(B * N, cell.costs.sortition),
        sync=cell.sync.ravel(),
    )
    # Per-population pool totals and block census, then repeated per player.
    weights = pool_weights(tables, agents.stake, agents.coop_cost)
    members = [membership(lookup, agents) for lookup in tables.lookup]
    totals = (weights * members).reshape(-1, B, N).sum(axis=2)  # (P, B)
    slice_budget = (fractions * cell.b_i[:, None]).T  # (P, B)
    committee_stake = np.where(cell.roles == COMMITTEE, cell.stakes, 0.0)
    census = Census(
        leaders=np.repeat(((cell.roles == LEADER) & cell.coop).sum(axis=1), N),
        tally=np.repeat((committee_stake * cell.coop).sum(axis=1), N),
        threshold=np.repeat(cell.quorum * committee_stake.sum(axis=1), N),
        sync_defectors=np.repeat((cell.sync & ~cell.coop).sum(axis=1), N),
    )
    base, switch = block_fold(
        tables,
        agents,
        census,
        np.repeat(totals, N, axis=1),
        [np.repeat(slice_budget, N, axis=1)],
        base=True,
        deviations=(SWITCH,),
        weights=weights,
    )
    (gains,) = deviation_gains(agents, base, switch)
    return np.concatenate(gains.targets(agents)).reshape(3, B, N)


# -- the scalar rule ----------------------------------------------------------------


class PooledRule(RewardRule):
    """Scalar interpreter of a pool declaration — the game's reward rule.

    Implements the :class:`~repro.core.game.RewardRule` interface with
    plain per-player dictionary loops, deliberately sharing no code with
    the vectorized audit engine: the two paths computing the same payments
    independently is what the differential tests lean on.
    """

    def __init__(self, pools: Tuple[PoolSpec, ...], b_i: float) -> None:
        if b_i < 0:
            raise SchemeError(f"per-round reward must be >= 0, got {b_i}")
        self.pools = validate_pools(tuple(pools))
        self.b_i = b_i

    def payments(
        self, game: AlgorandGame, profile: StrategyProfile
    ) -> Dict[int, float]:
        """Interpret the pool declaration for one profile, player by player."""
        payments: Dict[int, float] = {}
        for pool in self.pools:
            weights: Dict[int, float] = {}
            for pid, player in game.players.items():
                action = profile[pid]
                if action is Strategy.OFFLINE:
                    continue
                if (player.role.value, action.value) not in pool.members:
                    continue
                weights[pid] = self._weight(game, pid, pool)
            total = sum(weights.values())
            if total <= 0:
                continue  # empty slice withheld, not redistributed
            rate = pool.fraction * self.b_i / total
            for pid, weight in weights.items():
                payments[pid] = payments.get(pid, 0.0) + rate * weight
        return payments

    def _weight(self, game: AlgorandGame, pid: int, pool: PoolSpec) -> float:
        player = game.players[pid]
        if pool.weight is WeightKind.STAKE:
            return player.stake
        if pool.weight is WeightKind.EQUAL:
            return 1.0
        if pool.weight is WeightKind.STAKE_POWER:
            return player.stake**pool.exponent
        return game.costs.of_role(player.role.value)


# -- entry points -------------------------------------------------------------------


def _audit_cell(scheme: RewardScheme, cell: _Cell, config: AuditConfig) -> CellAudit:
    gains = _vectorized_gains(scheme, cell)
    valid = ~np.isnan(gains)
    max_gain = float(np.nanmax(gains))
    # Work-reducing deviations by cooperators only: C->D (gains[1] is nan
    # for defectors already) and C->O.
    max_shirk_gain = float(
        np.nanmax(np.stack([gains[1], np.where(cell.coop, gains[2], np.nan)]))
    )
    witness: Optional[DeviationWitness] = None
    if max_gain > config.epsilon:
        t, b, j = np.unravel_index(int(np.nanargmax(gains)), gains.shape)
        witness = DeviationWitness(
            population=int(b),
            player=int(j),
            role=ROLE_NAMES[int(cell.roles[b, j])],
            stake=float(cell.stakes[b, j]),
            from_strategy="C" if cell.coop[b, j] else "D",
            to_strategy=TARGETS[t],
            gain=max_gain,
        )
    return CellAudit(
        scheme=scheme.name,
        stake_kind=cell.stake_kind,
        cost_scale=cell.cost_scale,
        budget_multiplier=cell.budget_multiplier,
        certified=max_gain <= config.epsilon,
        epsilon=config.epsilon,
        max_gain=max_gain,
        max_shirk_gain=max_shirk_gain,
        n_deviations=int(valid.sum()),
        witness=witness,
        mean_b_i=float(cell.b_i.mean()),
    )


def audit_schemes(
    schemes: Sequence[SchemeLike], config: AuditConfig = AuditConfig()
) -> Dict[str, AuditReport]:
    """Audit several schemes on *shared* populations (a paired comparison)."""
    resolved = [resolve_scheme(item) for item in schemes]
    names = [item.name for item in resolved]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate schemes in audit request: {names}")
    reports = {
        item.name: AuditReport(scheme=item.name, config=config)
        for item in resolved
    }
    for stake_kind in config.stake_kinds:
        for cost_scale in config.cost_scales:
            for multiplier in config.budget_multipliers:
                cell = _build_cell(config, stake_kind, cost_scale, multiplier)
                for item in resolved:
                    reports[item.name].cells.append(
                        _audit_cell(item, cell, config)
                    )
    return reports


def audit_scheme(
    scheme: SchemeLike, config: AuditConfig = AuditConfig()
) -> AuditReport:
    """Audit one scheme over the full config grid."""
    resolved = resolve_scheme(scheme)
    return audit_schemes([resolved], config)[resolved.name]
