"""Test-side oracles: slow, independent references the suite compares against.

None of this runs in the library.  Each function recomputes something the
runtime computes a faster way, sharing as little arithmetic with it as
possible, and the differential tests assert the two agree:

* :func:`minimize_reward_scipy` — a scipy Nelder-Mead minimization of the
  Theorem 3 bound (vs ``core.optimizer.minimize_reward_analytic``).
* :func:`as_networkx` / :func:`honest_subgraph` — the gossip overlay as a
  networkx digraph, for topology checks (vs ``sim.network`` and the
  DES's gossip layer).
* :func:`paper_aggregates_scalar` — the pure-Python aggregate reduction
  (vs the vectorized ``core.bounds.paper_aggregates``).
* :func:`oracle_cell_gains` — one sampled-audit population's deviation
  gains on the exact game engine (vs ``schemes.audit._vectorized_gains``).
* :func:`best_response_path` — synchronous best-response play of a
  scalar game to its fixed point (the Theorem 1-3 claims, dynamically).
* :func:`oracle_population_gains` — per-agent deviation gains of a small
  streamed population on the exact game engine (vs the chunked audit).
* :func:`oracle_population_dynamics` — the streamed dynamics on the
  exact game engine (vs ``run_population_dynamics``).

scipy and networkx are test dependencies only (``pip install .[test]``);
this module is where the suite imports them.  Tests import it as
``oracles`` (the suite's root directory is on ``sys.path`` through its
``conftest.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy import optimize

from repro.core.bounds import RoleAggregates, minimum_feasible_reward
from repro.core.costs import RoleCosts
from repro.core.dynamics import replicator_step
from repro.core.equilibrium import synchronous_best_responses
from repro.core.game import (
    AlgorandGame,
    BlockSuccessModel,
    Player,
    PlayerRole,
    RewardRule,
    Strategy,
    StrategyProfile,
    with_deviation,
)
from repro.core.optimizer import OptimalSplit, minimize_reward_analytic
from repro.errors import ConfigurationError, MechanismError
from repro.populations.spec import PopulationSpec
from repro.scenarios.dynamics import _measure
from repro.scenarios.population_dynamics import (
    _REALIZE_COLUMN,
    PopulationDynamicsSpec,
    _build_engine,
    _churned_stake,
    _initial_share,
    _thresholds,
)
from repro.scenarios.trajectory import ScenarioTrajectory
from repro.schemes.audit import _Cell
from repro.schemes.base import RewardScheme, SchemeSplit
from repro.schemes.deviation import COMMITTEE, LEADER, ONLINE
from repro.schemes.population_audit import (
    PopulationAuditConfig,
    _build_structure,
    _chunk_context,
    _chunks,
)
from repro.schemes.registry import SchemeLike, resolve_scheme

from des.network import GossipNetwork


# -- Algorithm 1 --------------------------------------------------------------


def minimize_reward_scipy(
    costs: RoleCosts,
    aggregates: RoleAggregates,
    start: Optional[Tuple[float, float]] = None,
) -> OptimalSplit:
    """Nelder-Mead refinement of the bound minimization (cross-check).

    Works in logit space so the simplex constraints hold by construction.
    """

    def unpack(z: np.ndarray) -> Tuple[float, float]:
        # Map R^2 to the open simplex {alpha, beta > 0, alpha + beta < 1}.
        expz = np.exp(z - np.max(z))
        weights = expz / (expz.sum() + math.exp(-np.max(z)))
        return float(weights[0]), float(weights[1])

    def objective(z: np.ndarray) -> float:
        alpha, beta = unpack(z)
        if alpha <= 0 or beta <= 0 or alpha + beta >= 1:
            return math.inf
        value = minimum_feasible_reward(costs, aggregates, alpha, beta)
        return value if math.isfinite(value) else 1e30

    if start is None:
        seed = minimize_reward_analytic(costs, aggregates)
        start = (max(seed.alpha, 1e-12), max(seed.beta, 1e-12))
    gamma0 = max(1.0 - start[0] - start[1], 1e-12)
    z0 = np.log(np.array([start[0], start[1]]) / gamma0)
    result = optimize.minimize(
        objective,
        z0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000},
    )
    alpha, beta = unpack(result.x)
    return OptimalSplit(
        alpha=alpha,
        beta=beta,
        b_i=minimum_feasible_reward(costs, aggregates, alpha, beta),
        method="scipy",
    )


def paper_aggregates_scalar(
    stakes: Sequence[float],
    k_floor: float = 10.0,
    stake_leaders: float = 26.0,
    stake_committee: float = 13_000.0,
    min_leader: float = 1.0,
    min_committee: float = 1.0,
) -> RoleAggregates:
    """Pure-Python reference implementation of ``paper_aggregates``.

    The two may differ by float-summation order only; this one also
    handles arbitrary non-numpy iterables.
    """
    total = float(sum(stakes))
    stake_others = total - stake_leaders - stake_committee
    if stake_others <= 0:
        raise MechanismError(
            "role stakes exceed the total population stake: "
            f"total={total}, S_L={stake_leaders}, S_M={stake_committee}"
        )
    if k_floor > 0:
        if not any(s >= k_floor for s in stakes):
            raise MechanismError(f"no stakes at or above the k_floor {k_floor}")
        min_other = k_floor
    else:
        min_other = min(stakes)
    return RoleAggregates(
        stake_leaders=stake_leaders,
        stake_committee=stake_committee,
        stake_others=stake_others,
        min_leader=min_leader,
        min_committee=min_committee,
        min_other=min_other,
    )


# -- the gossip overlay -------------------------------------------------------


def as_networkx(network: GossipNetwork) -> nx.DiGraph:
    """The overlay as a networkx digraph (for topology analysis)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(network._neighbors)
    for source, targets in network._neighbors.items():
        graph.add_edges_from((source, target) for target in targets)
    return graph


def honest_subgraph(network: GossipNetwork) -> nx.DiGraph:
    """The overlay restricted to nodes that relay gossip.

    Defective nodes stop relaying, which thins this graph; its
    connectivity governs whether votes still reach everyone — the
    mechanism behind the Figure 3 collapse.
    """
    relaying = [
        node_id
        for node_id, participant in network._participants.items()
        if participant.relays_gossip and participant.is_online
    ]
    return as_networkx(network).subgraph(relaying).copy()


# -- the scalar game -----------------------------------------------------------

#: Role code -> the scalar game's role.
_PLAYER_ROLES = {
    LEADER: PlayerRole.LEADER,
    COMMITTEE: PlayerRole.COMMITTEE,
    ONLINE: PlayerRole.ONLINE,
}


def oracle_game(
    stakes: np.ndarray,
    roles: np.ndarray,
    sync: np.ndarray,
    costs: RoleCosts,
    rule: RewardRule,
    quorum: float,
) -> AlgorandGame:
    """One population as a scalar :class:`AlgorandGame` (the oracles' path)."""
    return AlgorandGame(
        players={
            j: Player(
                node_id=j, stake=float(stakes[j]), role=_PLAYER_ROLES[int(roles[j])]
            )
            for j in range(stakes.size)
        },
        costs=costs,
        reward_rule=rule,
        success_model=BlockSuccessModel(
            committee_quorum=quorum,
            synchrony_set=frozenset(int(j) for j in np.flatnonzero(sync)),
        ),
    )


def game_gains(game: AlgorandGame, coop: np.ndarray) -> np.ndarray:
    """The (3, n) gain tensor of one population via exact game payoffs.

    Measures every unilateral deviation from the C/D profile ``coop``
    with exact ``payoff`` calls under the scheme's own scalar rule —
    sharing no code with the vectorized kernel.  Both audit engines'
    oracles run through here.
    """
    n = coop.size
    profile = {j: Strategy.COOPERATE if coop[j] else Strategy.DEFECT for j in range(n)}
    base = game.payoffs(profile)
    gains = np.full((3, n), np.nan)
    alternatives = (Strategy.COOPERATE, Strategy.DEFECT, Strategy.OFFLINE)
    for t, alternative in enumerate(alternatives):
        for j in range(n):
            if profile[j] is not alternative:
                deviation = with_deviation(profile, j, alternative)
                gains[t, j] = game.payoff(j, deviation) - base[j]
    return gains


def oracle_cell_gains(scheme: RewardScheme, cell: _Cell, population: int) -> np.ndarray:
    """The (3, N) gain tensor of one sampled-audit population via the game."""
    b = population
    split = SchemeSplit(float(cell.alphas[b]), float(cell.betas[b]))
    game = oracle_game(
        cell.stakes[b],
        cell.roles[b],
        cell.sync[b],
        cell.costs,
        scheme.make_rule(float(cell.b_i[b]), split),
        cell.quorum,
    )
    return game_gains(game, cell.coop[b])


def best_response_path(
    game: AlgorandGame, start: StrategyProfile, n_rounds: int = 50
) -> List[Dict[int, Strategy]]:
    """Synchronous best-response play from ``start``, one profile per round.

    Every player revises each round
    (:func:`~repro.core.equilibrium.synchronous_best_responses`).  The
    path starts with ``start`` and ends at the first profile nobody
    revises — so ``[start]`` means ``start`` is absorbing — or after
    ``n_rounds`` revisions.
    """
    path = [dict(start)]
    for _ in range(n_rounds):
        revised = {**path[-1], **synchronous_best_responses(game, path[-1])}
        if revised == path[-1]:
            break
        path.append(revised)
    return path


# -- the streamed engines on the exact game -----------------------------------


def _check_oracle_fit(spec: PopulationSpec, max_agents: int, oracle: str) -> None:
    """The game oracles' guards: the population fits and has uniform costs."""
    if spec.size > max_agents:
        raise ConfigurationError(
            f"the {oracle}; population of {spec.size} exceeds the limit of "
            f"{max_agents}"
        )
    if spec.cost_jitter != 0.0:
        raise ConfigurationError(
            "the game oracles model uniform role costs; use cost_jitter=0 "
            "populations to cross-check"
        )


def oracle_population_gains(
    scheme: SchemeLike,
    spec: PopulationSpec,
    config: PopulationAuditConfig = PopulationAuditConfig(),
    max_agents: int = 2000,
) -> np.ndarray:
    """Per-agent gains ``(n, 3)`` via the exact game engine (small n only).

    Rebuilds the streamed audit's realized structure (selection,
    synchrony, calibration) as an
    :class:`~repro.core.game.AlgorandGame` and measures every unilateral
    deviation with exact ``payoff`` calls — sharing no arithmetic with
    the chunked kernel.  Guards: the population must fit (``max_agents``)
    and carry no per-agent cost jitter (the scalar game models uniform
    role costs).
    """
    _check_oracle_fit(spec, max_agents, "scalar oracle is O(n^2)")
    resolved = resolve_scheme(scheme)
    structure = _build_structure([resolved], spec, config)
    population = spec.materialize()
    ctx = _chunk_context(structure, spec, population)
    game = oracle_game(
        ctx.stake,
        ctx.roles,
        ctx.sync,
        structure.costs,
        resolved.make_rule(structure.b_i, structure.split),
        config.committee_quorum,
    )
    return game_gains(game, ctx.coop).T


def oracle_population_dynamics(
    spec: PopulationDynamicsSpec,
    scheme: SchemeLike,
    max_agents: int = 2000,
) -> ScenarioTrajectory:
    """The streamed driver's semantics on the exact game engine (small n).

    Rebuilds the same realized structure (selection, synchrony,
    calibration, realization draws) as an in-memory
    :class:`~repro.core.game.AlgorandGame` and evolves it with the
    existing scalar pipeline — per-agent ``game.payoff`` deviations,
    :func:`~repro.core.equilibrium.synchronous_best_responses` and
    :func:`~repro.core.dynamics.replicator_step` — sharing no pool
    algebra with the chunked kernel.  The differential suite asserts the
    two trajectories agree epoch by epoch.  Guards: the population must
    fit (``max_agents``; every pass is O(n^2)) and carry no per-agent
    cost jitter (the scalar game models uniform role costs).
    """
    pop = spec.population
    _check_oracle_fit(pop, max_agents, "dynamics oracle is O(n^2) per epoch")
    resolved = resolve_scheme(scheme)
    config = spec.audit_config()
    chunks = _chunks(pop, config)
    structure = _build_structure([resolved], pop, config, chunks)
    engine = _build_engine(spec, resolved.name, structure, chunks)
    population = pop.materialize()
    n = population.n_agents
    base_ctx = _chunk_context(structure, pop, population)
    roles, sync = base_ctx.roles, base_ctx.sync
    crowd = np.flatnonzero(roles == ONLINE)
    selected = [int(j) for j in structure.selected_index]

    def build_game(stake: np.ndarray) -> AlgorandGame:
        rule = resolved.make_rule(structure.b_i, structure.split)
        return oracle_game(
            stake, roles, sync, structure.costs, rule, config.committee_quorum
        )

    def realize(epoch: int, share: float, sel_actions: Dict[int, Strategy]):
        p_nonsync, p_sync = _thresholds(engine, share)
        uniforms = pop.chunk_draws(
            0, n, f"{_REALIZE_COLUMN}.{epoch}", lambda rng, count: rng.random(count)
        )
        profile: Dict[int, Strategy] = {}
        for j in range(n):
            if roles[j] != ONLINE:
                profile[j] = sel_actions[j]
            else:
                level = p_sync if sync[j] else p_nonsync
                profile[j] = (
                    Strategy.DEFECT if uniforms[j] < level else Strategy.COOPERATE
                )
        return profile

    share = _initial_share(spec, engine)
    sel_actions = {j: Strategy.COOPERATE for j in selected}
    game = build_game(_churned_stake(engine, population, 0))
    profile = realize(0, share, sel_actions)
    trajectory = ScenarioTrajectory(
        scenario=spec.name,
        scheme=resolved.name,
        b_i=structure.b_i,
        alpha=structure.split.alpha,
        beta=structure.split.beta,
    )
    trajectory.records.append(_measure(0, game, profile, None))
    for epoch in range(1, spec.n_epochs + 1):
        responses = synchronous_best_responses(game, profile, selected)
        if spec.update_rule == "replicator":
            total_c = total_d = 0.0
            for j in crowd:
                total_c += game.payoff(
                    j, with_deviation(profile, int(j), Strategy.COOPERATE)
                )
                total_d += game.payoff(
                    j, with_deviation(profile, int(j), Strategy.DEFECT)
                )
            share = replicator_step(
                share,
                total_c / crowd.size,
                total_d / crowd.size,
                intensity=spec.replicator_intensity,
                mutation=spec.replicator_mutation,
            )
            sel_actions = dict(responses)
            game = build_game(_churned_stake(engine, population, epoch))
            profile = realize(epoch, share, sel_actions)
        else:
            revised = dict(
                synchronous_best_responses(game, profile, list(range(n)))
            )
            revised.update(responses)
            game = build_game(_churned_stake(engine, population, epoch))
            profile = revised
        trajectory.records.append(_measure(epoch, game, profile, None))
    return trajectory
