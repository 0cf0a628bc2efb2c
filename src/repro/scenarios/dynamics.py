"""The iterated-game dynamics driver behind every scenario.

One scenario run evolves a population's strategy profile across epochs:

1. **Setup** — sample the stake population, assign round-game roles by
   stake-weighted sortition (without replacement), pick the strong
   synchrony set, seed the initial defectors, and calibrate the reward
   budget: Algorithm 1's analytic optimizer chooses the role split for the
   epoch-0 aggregates, and ``B_i`` is set ``reward_headroom`` above the
   Theorem 3 bound — the *same* budget for both schemes, so the comparison
   is at equal cost to the foundation.
2. **Each epoch** — stakes churn (optional), the adversary moves
   (optional), and the strategic players revise: inertial synchronous best
   response (each revising player's payoff-maximizing action against the
   epoch's profile, a tie keeping its action) or a replicator step on the
   cooperating share (:func:`repro.core.dynamics.replicator_step`),
   realised back into a profile by flipping the players with the
   strongest unilateral C-advantage.
3. **Measurement** — strategy counts, block success, mean payoff by
   strategy, and (optionally) the realized finalization fraction from a
   short run of the vectorized round kernel (:mod:`repro.sim.fastpath`)
   driven by the epoch's exact behaviour vector.

Every payoff comes from one :class:`RoundGame`: the scheme's pool tables
(:func:`repro.schemes.deviation.pool_tables`) and role costs over int8
action arrays (0 = C, 1 = D), with :func:`~repro.schemes.deviation.block_holds`
as the block rule.  Offline is never played: D pays ``rewards - c_so >=
-c_so``, which is what O pays.  A unilateral deviation is its own
profile row, re-summed left to right in player order, so every payoff
carries the bits the pool declaration's scalar reading gives.

Everything is seeded through :func:`repro.sim.rng.derive_seed`, so a run
is a pure function of ``(spec, scheme, seed)`` — the property the sweep
orchestrator's cache and the bit-identical-CSV guarantee rest on.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

import numpy as np

from repro.core.bounds import RoleAggregates
from repro.core.costs import RoleCosts
from repro.core.dynamics import replicator_step
from repro.core.optimizer import minimize_reward_analytic
from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    AdversaryPolicy,
    DefectionSeeding,
    ScenarioSpec,
    UpdateRule,
)
from repro.scenarios.trajectory import EpochRecord, ScenarioTrajectory
from repro.schemes import SchemeSplit, resolve_scheme
from repro.schemes.base import WeightKind
from repro.schemes.deviation import (
    COMMITTEE,
    LEADER,
    ONLINE,
    PoolTables,
    block_holds,
    pool_tables,
    pool_weight,
    role_costs,
)
from repro.schemes.registry import SchemeLike
from repro.sim.behavior import Behavior
from repro.sim.config import SimulationConfig
from repro.sim.rng import derive_seed

#: The paper's two mechanisms — the default scheme pair of a campaign.
#: Any scheme registered in :mod:`repro.schemes` can be passed instead.
SCHEMES: Tuple[str, ...] = ("foundation", "role_based")

#: Most ``pools x rows x players`` elements one block of profile rows holds.
_ROW_BLOCK = 1 << 20


def _left_sum(values: np.ndarray) -> float:
    """``v0 + v1 + ...`` left to right, as Python's ``sum`` adds floats."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


# -- the round game ---------------------------------------------------------------


class RoundGame:
    """One epoch's round game over int8 action arrays (0 = C, 1 = D).

    A profile row pays each pool's slice ``fraction * B_i / total`` per
    unit of weight, pool by pool, when :func:`block_holds` grants the
    block: a cooperating leader, committee stake strictly above the
    quorum, and no defector in the strong-synchrony set.  Totals and
    tallies are summed left to right in player order and ``stake_power``
    weights are taken with ``math.pow``, element by element.
    """

    def __init__(
        self,
        stake: np.ndarray,
        roles: np.ndarray,
        sync: np.ndarray,
        tables: PoolTables,
        b_i: float,
        costs: RoleCosts,
        quorum: float,
    ) -> None:
        coop_cost = role_costs(costs)[roles]
        self.weights = np.array([
            [math.pow(s, tables.exponents[p]) for s in stake.tolist()]
            if kind is WeightKind.STAKE_POWER
            else pool_weight(tables, p, stake, coop_cost)
            for p, kind in enumerate(tables.kinds)
        ])
        self.lookup = tables.lookup.reshape(len(tables.kinds), 6)
        self.budgets = tables.fractions * b_i
        self.role_index = roles.astype(np.intp) * 2
        self.leader = roles == LEADER
        self.committee_stake = np.where(roles == COMMITTEE, stake, 0.0)
        self.threshold = quorum * _left_sum(self.committee_stake)
        self.sync = sync
        self.coop_cost = coop_cost
        self.sortition = costs.sortition

    def _rows(self, rows: np.ndarray):
        """Per profile row: block verdict, pool membership and totals, rewards."""
        member = self.lookup[:, self.role_index + rows]
        contribution = self.weights[:, None, :] * member
        totals = np.cumsum(contribution, axis=-1)[..., -1]
        paying = totals > 0
        rates = self.budgets[:, None] / np.where(paying, totals, 1.0)
        rewards = np.zeros(rows.shape)
        for rate, weight in zip(rates, contribution):
            rewards += rate[:, None] * weight
        coop = rows == 0
        holds = block_holds(
            np.count_nonzero(coop & self.leader, axis=-1),
            np.cumsum(self.committee_stake * coop, axis=-1)[:, -1],
            self.threshold,
            np.count_nonzero(~coop & self.sync, axis=-1),
        )
        return holds, member, paying, rewards

    def _payoffs(self, rows: np.ndarray) -> np.ndarray:
        holds, _, _, rewards = self._rows(rows)
        cost = np.where(rows == 0, self.coop_cost, self.sortition)
        return np.where(holds[:, None], rewards, 0.0) - cost

    def block_succeeds(self, actions: np.ndarray) -> bool:
        """Whether the profile produces a block."""
        return bool(self._rows(actions[None])[0][0])

    def payoffs(self, actions: np.ndarray) -> np.ndarray:
        """Every player's payoff under the profile."""
        return self._payoffs(actions[None])[0]

    def switch_payoffs(self, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each player's payoff if it alone played C, and if it alone played D.

        Every deviation is a row of its own, re-summed, in blocks of at
        most :data:`_ROW_BLOCK` elements.
        """
        n = actions.size
        deviator = np.tile(np.arange(n), 2)
        target = np.repeat(np.array([0, 1], dtype=np.int8), n)
        out = np.empty(2 * n)
        step = max(1, _ROW_BLOCK // (self.lookup.shape[0] * n))
        for start in range(0, 2 * n, step):
            who = deviator[start:start + step]
            rows = np.repeat(actions[None], who.size, axis=0)
            index = np.arange(who.size)
            rows[index, who] = target[start:start + step]
            out[start:start + step] = self._payoffs(rows)[index, who]
        return out[:n], out[n:]

    def budget_efficiency(self, actions: np.ndarray) -> float:
        """Share of the paid budget that reaches cooperators (0 without a block).

        Summed payee by payee in the order pools first pay them (pool by
        pool, within a pool by player).
        """
        holds, member, paying, rewards = self._rows(actions[None])
        if not holds[0]:
            return 0.0
        paid = member[:, 0] & paying[:, :1]
        payees = np.flatnonzero(paid.any(axis=0))
        order = payees[np.argsort(paid[:, payees].argmax(axis=0), kind="stable")]
        values = rewards[0, order]
        total = _left_sum(values)
        if total > 0:
            return _left_sum(values[actions[order] == 0]) / total
        return 0.0


# -- population structure ---------------------------------------------------------


def _sample_roles(
    stakes: np.ndarray, spec: ScenarioSpec, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Stake-weighted sortition without replacement; returns roles and Y."""
    n = stakes.size
    weights = stakes / stakes.sum()
    leaders = rng.choice(n, spec.n_leaders, replace=False, p=weights)
    remaining = np.setdiff1d(np.arange(n), leaders)
    rem_weights = stakes[remaining] / stakes[remaining].sum()
    committee = remaining[
        rng.choice(remaining.size, spec.committee_size(), replace=False, p=rem_weights)
    ]
    roles = np.full(n, ONLINE, dtype=np.int8)
    roles[leaders] = LEADER
    roles[committee] = COMMITTEE
    online = np.flatnonzero(roles == ONLINE)
    sync = np.zeros(n, dtype=bool)
    sync[rng.choice(online, spec.synchrony_size(online.size), replace=False)] = True
    return roles, sync


def _initial_profile(
    spec: ScenarioSpec, roles: np.ndarray, sync: np.ndarray, rng: random.Random
) -> np.ndarray:
    """Seed the starting behaviour mix (everyone C except the seeded defectors)."""
    n = roles.size
    n_defectors = round((1.0 - spec.initial_cooperation) * n)
    if spec.seed_defection_in is DefectionSeeding.ONLINE_POOL:
        in_primary = (roles == ONLINE) & ~sync
        primary = np.flatnonzero(in_primary).tolist()
        secondary = np.flatnonzero(~in_primary).tolist()
    else:
        primary = list(range(n))
        secondary = []
    rng.shuffle(primary)
    rng.shuffle(secondary)
    actions = np.zeros(n, dtype=np.int8)
    actions[(primary + secondary)[:n_defectors]] = 1
    return actions


def _calibrate_mechanism(
    stakes: np.ndarray,
    roles: np.ndarray,
    sync: np.ndarray,
    spec: ScenarioSpec,
    costs: RoleCosts,
) -> Tuple[float, float, float]:
    """Choose (b_i, alpha, beta) from the epoch-0 aggregates.

    The split comes from the spec when pinned, otherwise from Algorithm
    1's analytic optimizer; the budget sits ``reward_headroom`` above the
    Theorem 3 bound for that split.
    """
    leader_stakes = stakes[roles == LEADER].tolist()
    committee_stakes = stakes[roles == COMMITTEE].tolist()
    aggregates = RoleAggregates(
        stake_leaders=sum(leader_stakes),
        stake_committee=sum(committee_stakes),
        stake_others=sum(stakes[roles == ONLINE].tolist()),
        min_leader=min(leader_stakes),
        min_committee=min(committee_stakes),
        min_other=float(stakes[sync].min()),
    )
    if spec.alpha is not None and spec.beta is not None:
        from repro.core.bounds import reward_bounds

        bounds = reward_bounds(costs, aggregates, spec.alpha, spec.beta)
        if not bounds.feasible:
            raise ConfigurationError(
                f"scenario {spec.name!r}: split ({spec.alpha}, {spec.beta}) is "
                "infeasible for the sampled population"
            )
        return spec.reward_headroom * bounds.overall, spec.alpha, spec.beta
    split = minimize_reward_analytic(costs, aggregates)
    return spec.reward_headroom * split.b_i, split.alpha, split.beta


# -- per-epoch ingredients ---------------------------------------------------------


def _churn_stakes(
    stakes: np.ndarray, spec: ScenarioSpec, rng: np.random.Generator
) -> np.ndarray:
    out = stakes.copy()
    if spec.stake_drift > 0:
        # Mean-preserving geometric step: E[exp(N(-s^2/2, s^2))] = 1.
        drift = spec.stake_drift
        out *= np.exp(rng.normal(-0.5 * drift * drift, drift, out.size))
    if spec.churn_rate > 0:
        n_resampled = round(spec.churn_rate * out.size)
        if n_resampled:
            positions = rng.choice(out.size, n_resampled, replace=False)
            fresh = spec.stake_distribution().sampler(rng, n_resampled)
            out[positions] = fresh
    return np.maximum(out, 1e-9)


def _adversary_move(
    game: RoundGame, actions: np.ndarray, adversary: np.ndarray
) -> int:
    """Greedy-harm policy: the coalition move minimizing victims' welfare."""
    best_move, best_harm = 1, None
    for move in (1, 0):
        trial = np.where(adversary, np.int8(move), actions)
        victim_welfare = _left_sum(game.payoffs(trial)[~adversary])
        if best_harm is None or victim_welfare < best_harm:
            best_move, best_harm = move, victim_welfare
    return best_move


def _best_response_epoch(
    game: RoundGame,
    actions: np.ndarray,
    spec: ScenarioSpec,
    adversary: np.ndarray,
    rng: random.Random,
) -> None:
    """``steps_per_epoch`` inertial synchronous revisions, in place.

    D replaces C only when it pays more than ``1e-15`` above it; within
    ``1e-15`` of each other the player keeps its action.
    """
    for _step in range(spec.steps_per_epoch):
        revising = [
            pid
            for pid in range(actions.size)
            if not adversary[pid]
            and (spec.revision_rate >= 1.0 or rng.random() < spec.revision_rate)
        ]
        payoff_c, payoff_d = game.switch_payoffs(actions)
        defect = (payoff_d > payoff_c + 1e-15) | (
            (np.abs(payoff_d - payoff_c) <= 1e-15) & (actions == 1)
        )
        actions[revising] = defect[revising]


def _replicator_epoch(
    game: RoundGame,
    actions: np.ndarray,
    spec: ScenarioSpec,
    adversary: np.ndarray,
) -> None:
    """One replicator step on the strategic cooperating share, in place.

    The share update is population-level; it is realised back into a
    concrete profile by granting the C slots to the players with the
    largest unilateral C-advantage (so role structure is respected — a
    pivotal synchrony-set member outranks an online free-rider).
    """
    strategic = np.flatnonzero(~adversary)
    if not strategic.size:
        return
    coop = actions[strategic] == 0
    n_coop = int(np.count_nonzero(coop))
    n_defect = strategic.size - n_coop
    share = n_coop / strategic.size
    if n_coop and n_defect:
        payoffs = game.payoffs(actions)[strategic]
        share = replicator_step(
            share,
            _left_sum(payoffs[coop]) / n_coop,
            _left_sum(payoffs[~coop]) / n_defect,
            intensity=spec.replicator_intensity,
            mutation=spec.replicator_mutation,
        )
    elif spec.replicator_mutation > 0:
        # A boundary state moves only through the trembling term.
        share = (1.0 - spec.replicator_mutation) * share + spec.replicator_mutation * 0.5
    n_next = round(share * strategic.size)
    payoff_c, payoff_d = game.switch_payoffs(actions)
    advantage = (payoff_c - payoff_d)[strategic]
    ranked = strategic[np.lexsort((strategic, -advantage))]
    actions[strategic] = 1
    actions[ranked[:n_next]] = 0


def _simulate_epoch(
    spec: ScenarioSpec,
    stakes: np.ndarray,
    actions: np.ndarray,
    adversary: np.ndarray,
    seed: int,
) -> float:
    """Realized finalization fraction from a short protocol-simulator run.

    The simulation is driven by the epoch's *exact* behaviour vector:
    cooperators become honest-but-selfish cooperators, defectors become
    defective nodes, and adversary players run byzantine, on the
    vectorized fast kernel.
    """
    from repro.sim.fastpath import make_simulation

    behaviors: List[Behavior] = [
        Behavior.MALICIOUS
        if adversary[pid]
        else (Behavior.SELFISH_DEFECT if actions[pid] else Behavior.SELFISH_COOPERATE)
        for pid in range(stakes.size)
    ]
    config = SimulationConfig(
        n_nodes=stakes.size,
        seed=seed,
        stakes=[float(s) for s in stakes],
        gossip_fanout=min(5, stakes.size - 1),
    )
    simulation = make_simulation(config, behaviors=behaviors)
    metrics = simulation.run(spec.simulate_rounds)
    series = metrics.series("fraction_final")
    return sum(series) / len(series) if series else 0.0


def _measure(
    epoch: int, game: RoundGame, actions: np.ndarray, realized: Optional[float]
) -> EpochRecord:
    payoffs = game.payoffs(actions)
    coop = actions == 0
    n_coop = int(np.count_nonzero(coop))
    n_defect = actions.size - n_coop
    return EpochRecord(
        epoch=epoch,
        n_players=actions.size,
        n_cooperating=n_coop,
        n_defecting=n_defect,
        n_offline=0,
        block_success=game.block_succeeds(actions),
        mean_payoff_cooperate=_left_sum(payoffs[coop]) / n_coop if n_coop else 0.0,
        mean_payoff_defect=_left_sum(payoffs[~coop]) / n_defect if n_defect else 0.0,
        realized_final_fraction=realized,
        budget_efficiency=game.budget_efficiency(actions),
    )


# -- the driver --------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec, scheme: SchemeLike, seed: int
) -> ScenarioTrajectory:
    """Evolve one scenario under one reward scheme; pure in (spec, scheme, seed).

    ``scheme`` is anything :func:`repro.schemes.resolve_scheme` accepts: a
    registered name (``"foundation"``, ``"irs"``, ...), a
    ``RewardScheme.to_params()`` mapping (how sweep shards carry schemes),
    or a scheme instance.  The random streams (stakes, roles, initial
    defectors, revision sampling, churn, simulation) depend on ``seed``
    but *not* on the scheme, so every scheme's trajectory of the same
    ``(spec, seed)`` pair shares all exogenous randomness — a paired
    comparison, exactly like the paper's Figure 6 instances.
    """
    scheme = resolve_scheme(scheme)
    costs = RoleCosts.paper_defaults()

    stake_rng = np.random.default_rng(derive_seed(seed, f"scenario:{spec.name}:stakes"))
    stakes = spec.sample_stakes(stake_rng)

    role_rng = np.random.default_rng(derive_seed(seed, f"scenario:{spec.name}:roles"))
    roles, sync = _sample_roles(stakes, spec, role_rng)

    adversary_rng = random.Random(derive_seed(seed, f"scenario:{spec.name}:adversary"))
    n_adversaries = spec.n_adversaries()
    adversary = np.zeros(stakes.size, dtype=bool)
    if n_adversaries:
        adversary[adversary_rng.sample(range(stakes.size), n_adversaries)] = True
    actions = _initial_profile(
        spec,
        roles,
        sync,
        random.Random(derive_seed(seed, f"scenario:{spec.name}:init")),
    )
    b_i, alpha, beta = _calibrate_mechanism(stakes, roles, sync, spec, costs)

    trajectory = ScenarioTrajectory(
        scenario=spec.name, scheme=scheme.name, b_i=b_i, alpha=alpha, beta=beta
    )
    tables = pool_tables(scheme, SchemeSplit(alpha, beta))

    def build_game(stake: np.ndarray) -> RoundGame:
        return RoundGame(
            stake, roles, sync, tables, b_i, costs, spec.committee_quorum
        )

    game = build_game(stakes)
    trajectory.records.append(_measure(0, game, actions, None))

    churn_rng = np.random.default_rng(derive_seed(seed, f"scenario:{spec.name}:churn"))
    update_rng = random.Random(derive_seed(seed, f"scenario:{spec.name}:update"))
    for epoch in range(1, spec.n_epochs + 1):
        if spec.churn_rate > 0 or spec.stake_drift > 0:
            stakes = _churn_stakes(stakes, spec, churn_rng)
            game = build_game(stakes)
        if n_adversaries and spec.adversary_policy is AdversaryPolicy.GREEDY_HARM:
            actions[adversary] = _adversary_move(game, actions, adversary)
        if spec.update_rule is UpdateRule.BEST_RESPONSE:
            _best_response_epoch(game, actions, spec, adversary, update_rng)
        else:
            for _step in range(spec.steps_per_epoch):
                _replicator_epoch(game, actions, spec, adversary)
        realized = None
        if spec.simulate_rounds > 0:
            realized = _simulate_epoch(
                spec,
                stakes,
                actions,
                adversary,
                derive_seed(seed, f"scenario:{spec.name}:sim:{epoch}"),
            )
        trajectory.records.append(_measure(epoch, game, actions, realized))
    return trajectory
