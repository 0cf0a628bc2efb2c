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
   response (via :func:`repro.core.equilibrium.synchronous_best_responses`)
   or a replicator step on the cooperating share
   (:func:`repro.core.dynamics.replicator_step`), realised back into a
   profile by flipping the players with the strongest unilateral
   C-advantage.
3. **Measurement** — strategy counts, block success, mean payoff by
   strategy, and (optionally) the realized finalization fraction from a
   short run of the vectorized round kernel (:mod:`repro.sim.fastpath`)
   driven by the epoch's exact behaviour vector.

Everything is seeded through :func:`repro.sim.rng.derive_seed`, so a run
is a pure function of ``(spec, scheme, seed)`` — the property the sweep
orchestrator's cache and the bit-identical-CSV guarantee rest on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import RoleAggregates
from repro.core.costs import RoleCosts
from repro.core.dynamics import mean_payoff_by_strategy, replicator_step
from repro.core.equilibrium import synchronous_best_responses
from repro.core.game import (
    AlgorandGame,
    BlockSuccessModel,
    Player,
    PlayerRole,
    Strategy,
    profile_counts,
    with_deviation,
)
from repro.core.optimizer import minimize_reward_analytic
from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    AdversaryPolicy,
    DefectionSeeding,
    ScenarioSpec,
    UpdateRule,
)
from repro.schemes import SchemeSplit, resolve_scheme
from repro.schemes.base import RewardScheme
from repro.schemes.registry import SchemeLike
from repro.sim.behavior import Behavior
from repro.sim.config import SimulationConfig
from repro.sim.rng import derive_seed

#: The paper's two mechanisms — the default scheme pair of a campaign.
#: Any scheme registered in :mod:`repro.schemes` can be passed instead.
SCHEMES: Tuple[str, ...] = ("foundation", "role_based")


@dataclass(frozen=True)
class EpochRecord:
    """The state of one epoch, measured after that epoch's revisions."""

    epoch: int
    n_players: int
    n_cooperating: int
    n_defecting: int
    n_offline: int
    block_success: bool
    mean_payoff_cooperate: float
    mean_payoff_defect: float
    realized_final_fraction: Optional[float] = None
    #: Fraction of the distributed budget paid to cooperating players this
    #: epoch (0 when no block was produced) — the tournament's efficiency
    #: metric: budget spent on defectors buys no protocol work.
    budget_efficiency: float = 0.0

    @property
    def defection_share(self) -> float:
        """Fraction of players defecting at this epoch."""
        return self.n_defecting / self.n_players if self.n_players else 0.0

    @property
    def cooperation_share(self) -> float:
        """Fraction of players cooperating at this epoch."""
        return self.n_cooperating / self.n_players if self.n_players else 0.0

    def to_row(self) -> Dict[str, object]:
        """JSON-serializable flat view (the shard-cache payload unit)."""
        return {
            "epoch": self.epoch,
            "n_players": self.n_players,
            "n_cooperating": self.n_cooperating,
            "n_defecting": self.n_defecting,
            "n_offline": self.n_offline,
            "block_success": self.block_success,
            "mean_payoff_cooperate": self.mean_payoff_cooperate,
            "mean_payoff_defect": self.mean_payoff_defect,
            "realized_final_fraction": self.realized_final_fraction,
            "budget_efficiency": self.budget_efficiency,
        }

    @staticmethod
    def from_row(row: Mapping[str, object]) -> "EpochRecord":
        """Rebuild a record from its to_row() mapping (shard payloads)."""
        return EpochRecord(
            epoch=int(row["epoch"]),
            n_players=int(row["n_players"]),
            n_cooperating=int(row["n_cooperating"]),
            n_defecting=int(row["n_defecting"]),
            n_offline=int(row["n_offline"]),
            block_success=bool(row["block_success"]),
            mean_payoff_cooperate=float(row["mean_payoff_cooperate"]),
            mean_payoff_defect=float(row["mean_payoff_defect"]),
            realized_final_fraction=(
                None
                if row.get("realized_final_fraction") is None
                else float(row["realized_final_fraction"])  # type: ignore[arg-type]
            ),
            budget_efficiency=float(row.get("budget_efficiency", 0.0)),  # type: ignore[arg-type]
        )


@dataclass
class ScenarioTrajectory:
    """One scenario run: epoch 0 (initial state) through epoch ``n_epochs``."""

    scenario: str
    scheme: str
    b_i: float
    alpha: float
    beta: float
    records: List[EpochRecord] = field(default_factory=list)

    def defection_series(self) -> List[float]:
        """Defection share per epoch, in order."""
        return [record.defection_share for record in self.records]

    def cooperation_series(self) -> List[float]:
        """Cooperation share per epoch, in order."""
        return [record.cooperation_share for record in self.records]

    def block_series(self) -> List[float]:
        """Per-epoch block-success indicator series (1.0 = produced)."""
        return [1.0 if record.block_success else 0.0 for record in self.records]

    def stabilized(self, window: int = 3, tolerance: float = 0.05) -> bool:
        """Whether the defection share settled over the last ``window`` epochs."""
        series = self.defection_series()
        if len(series) < window:
            return False
        tail = series[-window:]
        return max(tail) - min(tail) <= tolerance

    def to_payload(self) -> Dict[str, object]:
        """The JSON-serializable shard result."""
        return {
            "scenario": self.scenario,
            "scheme": self.scheme,
            "b_i": self.b_i,
            "alpha": self.alpha,
            "beta": self.beta,
            "epochs": [record.to_row() for record in self.records],
        }

    @staticmethod
    def from_payload(payload: Mapping[str, object]) -> "ScenarioTrajectory":
        """Rebuild a trajectory from its to_payload() mapping (shard cache)."""
        return ScenarioTrajectory(
            scenario=str(payload["scenario"]),
            scheme=str(payload["scheme"]),
            b_i=float(payload["b_i"]),
            alpha=float(payload["alpha"]),
            beta=float(payload["beta"]),
            records=[EpochRecord.from_row(row) for row in payload["epochs"]],  # type: ignore[union-attr]
        )


# -- population structure ---------------------------------------------------------


@dataclass(frozen=True)
class _Population:
    """The fixed round-game structure of one scenario run."""

    roles: Dict[int, PlayerRole]
    synchrony_set: FrozenSet[int]
    adversary_ids: FrozenSet[int]


def _sample_roles(
    stakes: np.ndarray, spec: ScenarioSpec, rng: np.random.Generator
) -> Tuple[Dict[int, PlayerRole], FrozenSet[int]]:
    """Stake-weighted sortition without replacement; returns roles and Y."""
    n = stakes.size
    weights = stakes / stakes.sum()
    leaders = rng.choice(n, spec.n_leaders, replace=False, p=weights)
    remaining = np.setdiff1d(np.arange(n), leaders)
    rem_weights = stakes[remaining] / stakes[remaining].sum()
    committee = remaining[
        rng.choice(remaining.size, spec.committee_size(), replace=False, p=rem_weights)
    ]
    roles: Dict[int, PlayerRole] = {}
    for pid in range(n):
        roles[pid] = PlayerRole.ONLINE
    for pid in leaders:
        roles[int(pid)] = PlayerRole.LEADER
    for pid in committee:
        roles[int(pid)] = PlayerRole.COMMITTEE
    online = np.array(
        [pid for pid in range(n) if roles[pid] is PlayerRole.ONLINE], dtype=int
    )
    synchrony = rng.choice(online, spec.synchrony_size(online.size), replace=False)
    return roles, frozenset(int(pid) for pid in synchrony)


def _initial_profile(
    spec: ScenarioSpec,
    population: _Population,
    rng: random.Random,
) -> Dict[int, Strategy]:
    """Seed the starting behaviour mix (everyone C except the seeded defectors)."""
    ids = sorted(population.roles)
    n_defectors = round((1.0 - spec.initial_cooperation) * len(ids))
    if spec.seed_defection_in is DefectionSeeding.ONLINE_POOL:
        primary = [
            pid
            for pid in ids
            if population.roles[pid] is PlayerRole.ONLINE
            and pid not in population.synchrony_set
        ]
        secondary = [pid for pid in ids if pid not in set(primary)]
    else:
        primary = list(ids)
        secondary = []
    rng.shuffle(primary)
    rng.shuffle(secondary)
    defectors = set((primary + secondary)[:n_defectors])
    return {
        pid: Strategy.DEFECT if pid in defectors else Strategy.COOPERATE
        for pid in ids
    }


def _build_game(
    stakes: np.ndarray,
    population: _Population,
    spec: ScenarioSpec,
    scheme: RewardScheme,
    b_i: float,
    alpha: float,
    beta: float,
    costs: RoleCosts,
) -> AlgorandGame:
    players = {
        pid: Player(node_id=pid, stake=float(stakes[pid]), role=role)
        for pid, role in population.roles.items()
    }
    rule = scheme.make_rule(b_i, SchemeSplit(alpha, beta))
    model = BlockSuccessModel(
        committee_quorum=spec.committee_quorum,
        synchrony_set=population.synchrony_set,
    )
    return AlgorandGame(
        players=players, costs=costs, reward_rule=rule, success_model=model
    )


def _calibrate_mechanism(
    stakes: np.ndarray,
    population: _Population,
    spec: ScenarioSpec,
    costs: RoleCosts,
) -> Tuple[float, float, float]:
    """Choose (b_i, alpha, beta) from the epoch-0 aggregates.

    The split comes from the spec when pinned, otherwise from Algorithm
    1's analytic optimizer; the budget sits ``reward_headroom`` above the
    Theorem 3 bound for that split.
    """
    roles = population.roles
    leader_stakes = [float(stakes[pid]) for pid, r in roles.items() if r is PlayerRole.LEADER]
    committee_stakes = [
        float(stakes[pid]) for pid, r in roles.items() if r is PlayerRole.COMMITTEE
    ]
    online_stakes = [float(stakes[pid]) for pid, r in roles.items() if r is PlayerRole.ONLINE]
    synchrony_stakes = [float(stakes[pid]) for pid in population.synchrony_set]
    aggregates = RoleAggregates(
        stake_leaders=sum(leader_stakes),
        stake_committee=sum(committee_stakes),
        stake_others=sum(online_stakes),
        min_leader=min(leader_stakes),
        min_committee=min(committee_stakes),
        min_other=min(synchrony_stakes),
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
    game: AlgorandGame,
    profile: Dict[int, Strategy],
    adversary_ids: FrozenSet[int],
) -> Dict[int, Strategy]:
    """Greedy-harm policy: the coalition move minimizing victims' welfare."""
    candidates = (Strategy.DEFECT, Strategy.COOPERATE)
    best_move: Optional[Strategy] = None
    best_harm = None
    for move in candidates:
        trial = dict(profile)
        for pid in adversary_ids:
            trial[pid] = move
        payoffs = game.payoffs(trial)
        victim_welfare = sum(
            value for pid, value in payoffs.items() if pid not in adversary_ids
        )
        if best_harm is None or victim_welfare < best_harm:
            best_harm = victim_welfare
            best_move = move
    assert best_move is not None
    return {pid: best_move for pid in adversary_ids}


def _best_response_epoch(
    game: AlgorandGame,
    profile: Dict[int, Strategy],
    spec: ScenarioSpec,
    adversary_ids: FrozenSet[int],
    rng: random.Random,
) -> None:
    """``steps_per_epoch`` inertial synchronous revisions, in place."""
    for _step in range(spec.steps_per_epoch):
        revising = [
            pid
            for pid in game.players
            if pid not in adversary_ids
            and (spec.revision_rate >= 1.0 or rng.random() < spec.revision_rate)
        ]
        profile.update(synchronous_best_responses(game, profile, revising))


def _replicator_epoch(
    game: AlgorandGame,
    profile: Dict[int, Strategy],
    spec: ScenarioSpec,
    adversary_ids: FrozenSet[int],
) -> None:
    """One replicator step on the strategic cooperating share, in place.

    The share update is population-level; it is realised back into a
    concrete profile by granting the C slots to the players with the
    largest unilateral C-advantage (so role structure is respected — a
    pivotal synchrony-set member outranks an online free-rider).
    """
    strategic = [pid for pid in game.players if pid not in adversary_ids]
    if not strategic:
        return
    n_coop = sum(1 for pid in strategic if profile[pid] is Strategy.COOPERATE)
    n_defect = sum(1 for pid in strategic if profile[pid] is Strategy.DEFECT)
    share = n_coop / len(strategic)
    if n_coop and n_defect:
        payoffs = game.payoffs(profile)
        mean_c = sum(
            payoffs[pid] for pid in strategic if profile[pid] is Strategy.COOPERATE
        ) / n_coop
        mean_d = sum(
            payoffs[pid] for pid in strategic if profile[pid] is Strategy.DEFECT
        ) / n_defect
        share = replicator_step(
            share,
            mean_c,
            mean_d,
            intensity=spec.replicator_intensity,
            mutation=spec.replicator_mutation,
        )
    elif spec.replicator_mutation > 0:
        # A boundary state moves only through the trembling term.
        share = (1.0 - spec.replicator_mutation) * share + spec.replicator_mutation * 0.5
    n_next = round(share * len(strategic))
    advantage: Dict[int, float] = {}
    for pid in strategic:
        payoff_c = game.payoff(pid, with_deviation(profile, pid, Strategy.COOPERATE))
        payoff_d = game.payoff(pid, with_deviation(profile, pid, Strategy.DEFECT))
        advantage[pid] = payoff_c - payoff_d
    ranked = sorted(strategic, key=lambda pid: (-advantage[pid], pid))
    cooperators = set(ranked[:n_next])
    for pid in strategic:
        profile[pid] = (
            Strategy.COOPERATE if pid in cooperators else Strategy.DEFECT
        )


def _simulate_epoch(
    spec: ScenarioSpec,
    stakes: np.ndarray,
    profile: Mapping[int, Strategy],
    adversary_ids: FrozenSet[int],
    seed: int,
) -> float:
    """Realized finalization fraction from a short protocol-simulator run.

    The simulation is driven by the epoch's *exact* behaviour vector:
    cooperators become honest-but-selfish cooperators, defectors become
    defective nodes, and adversary players run byzantine, on the
    vectorized fast kernel.
    """
    from repro.sim.fastpath import make_simulation

    behaviors: List[Behavior] = []
    for pid in range(stakes.size):
        if pid in adversary_ids:
            behaviors.append(Behavior.MALICIOUS)
        elif profile[pid] is Strategy.COOPERATE:
            behaviors.append(Behavior.SELFISH_COOPERATE)
        elif profile[pid] is Strategy.DEFECT:
            behaviors.append(Behavior.SELFISH_DEFECT)
        else:
            behaviors.append(Behavior.FAULTY)
    config = SimulationConfig(
        n_nodes=stakes.size,
        seed=seed,
        stakes=[float(s) for s in stakes],
        gossip_fanout=min(5, stakes.size - 1),
        verify_crypto=False,
    )
    simulation = make_simulation(config, behaviors=behaviors)
    metrics = simulation.run(spec.simulate_rounds)
    series = metrics.series("fraction_final")
    return sum(series) / len(series) if series else 0.0


def _measure(
    epoch: int,
    game: AlgorandGame,
    profile: Dict[int, Strategy],
    realized: Optional[float],
) -> EpochRecord:
    counts = profile_counts(profile)
    means = mean_payoff_by_strategy(game, profile)
    succeeded = game.block_succeeds(profile)
    efficiency = 0.0
    if succeeded:
        payments = game.reward_rule.payments(game, profile)
        paid = sum(payments.values())
        if paid > 0:
            efficiency = (
                sum(
                    value
                    for pid, value in payments.items()
                    if profile[pid] is Strategy.COOPERATE
                )
                / paid
            )
    return EpochRecord(
        epoch=epoch,
        n_players=len(profile),
        n_cooperating=counts[Strategy.COOPERATE],
        n_defecting=counts[Strategy.DEFECT],
        n_offline=counts[Strategy.OFFLINE],
        block_success=succeeded,
        mean_payoff_cooperate=means[Strategy.COOPERATE],
        mean_payoff_defect=means[Strategy.DEFECT],
        realized_final_fraction=realized,
        budget_efficiency=efficiency,
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
    roles, synchrony = _sample_roles(stakes, spec, role_rng)

    adversary_rng = random.Random(derive_seed(seed, f"scenario:{spec.name}:adversary"))
    n_adversaries = spec.n_adversaries()
    adversary_ids = frozenset(
        adversary_rng.sample(sorted(roles), n_adversaries) if n_adversaries else ()
    )
    population = _Population(
        roles=roles, synchrony_set=synchrony, adversary_ids=adversary_ids
    )

    profile = _initial_profile(
        spec,
        population,
        random.Random(derive_seed(seed, f"scenario:{spec.name}:init")),
    )
    b_i, alpha, beta = _calibrate_mechanism(stakes, population, spec, costs)

    trajectory = ScenarioTrajectory(
        scenario=spec.name, scheme=scheme.name, b_i=b_i, alpha=alpha, beta=beta
    )
    game = _build_game(stakes, population, spec, scheme, b_i, alpha, beta, costs)
    trajectory.records.append(_measure(0, game, profile, None))

    churn_rng = np.random.default_rng(derive_seed(seed, f"scenario:{spec.name}:churn"))
    update_rng = random.Random(derive_seed(seed, f"scenario:{spec.name}:update"))
    for epoch in range(1, spec.n_epochs + 1):
        if spec.churn_rate > 0 or spec.stake_drift > 0:
            stakes = _churn_stakes(stakes, spec, churn_rng)
            game = _build_game(
                stakes, population, spec, scheme, b_i, alpha, beta, costs
            )
        if adversary_ids and spec.adversary_policy is AdversaryPolicy.GREEDY_HARM:
            profile.update(_adversary_move(game, profile, adversary_ids))
        if spec.update_rule is UpdateRule.BEST_RESPONSE:
            _best_response_epoch(game, profile, spec, adversary_ids, update_rng)
        else:
            for _step in range(spec.steps_per_epoch):
                _replicator_epoch(game, profile, spec, adversary_ids)
        realized = None
        if spec.simulate_rounds > 0:
            realized = _simulate_epoch(
                spec,
                stakes,
                profile,
                adversary_ids,
                derive_seed(seed, f"scenario:{spec.name}:sim:{epoch}"),
            )
        trajectory.records.append(_measure(epoch, game, profile, realized))
    return trajectory
