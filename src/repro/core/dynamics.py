"""Best-response dynamics: repeated play of the round game.

The paper analyses one round as a static game; its conclusion motivates
studying how a population of honest-but-selfish nodes *evolves* when the
game repeats.  This module implements synchronous and inertial
best-response dynamics over repeated rounds:

* each round, a fraction of strategic players (``revision_rate``) revise
  their strategy to a best response against the previous round's profile;
* roles can be resampled between rounds (sortition churn) while stakes
  persist.

Two headline results emerge, extending Theorems 1-3 dynamically:

* under **Foundation sharing**, cooperation unravels — from any initial
  profile the population converges to All-Defect (Theorem 1's equilibrium
  is the global attractor);
* under **role-based sharing funded above the Theorem 3 bound**, the
  cooperative profile (L, M, Y cooperate) is absorbing: once reached it is
  never left, and nearby profiles flow back to it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.equilibrium import synchronous_best_responses
from repro.core.game import AlgorandGame, Strategy, StrategyProfile
from repro.errors import GameError
from repro.populations.arrays import add_blocks, block_sums

#: A rule producing the game for round ``t`` (roles may churn between
#: rounds); receives the round index and returns the game to be played.
GameSchedule = Callable[[int], AlgorandGame]


@dataclass
class DynamicsRecord:
    """One round of the dynamic: profile statistics after revisions."""

    round_index: int
    n_cooperating: int
    n_defecting: int
    n_offline: int
    block_produced: bool
    revisions: int

    @property
    def cooperation_rate(self) -> float:
        """Fraction of participating players that cooperated this round."""
        total = self.n_cooperating + self.n_defecting + self.n_offline
        return self.n_cooperating / total if total else 0.0


@dataclass
class DynamicsResult:
    """Trajectory of a best-response dynamics run."""

    records: List[DynamicsRecord] = field(default_factory=list)
    final_profile: Dict[int, Strategy] = field(default_factory=dict)

    @property
    def n_rounds(self) -> int:
        """Number of recorded dynamics rounds."""
        return len(self.records)

    def cooperation_series(self) -> List[float]:
        """Cooperation rate per round, in order."""
        return [record.cooperation_rate for record in self.records]

    def converged_to_all_defect(self) -> bool:
        """Whether the final round has zero cooperating players."""
        return bool(self.records) and self.records[-1].n_cooperating == 0

    def reached_fixed_point(self, window: int = 3) -> bool:
        """True when the last ``window`` rounds saw no strategy revisions."""
        if len(self.records) < window:
            return False
        return all(record.revisions == 0 for record in self.records[-window:])


class BestResponseDynamics:
    """Inertial synchronous best-response dynamics on a (repeated) game.

    Parameters
    ----------
    game:
        The stage game, or a :data:`GameSchedule` for role churn.
    revision_rate:
        Fraction of players revising each round (1.0 = full synchronous
        best response; smaller values model inertia/asynchronous updates).
    seed:
        Reproducibility seed for revision sampling.
    """

    def __init__(
        self,
        game: AlgorandGame | GameSchedule,
        revision_rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < revision_rate <= 1.0:
            raise GameError(f"revision rate must be in (0, 1], got {revision_rate}")
        self._schedule: GameSchedule = (
            game if callable(game) else (lambda _round_index: game)
        )
        self.revision_rate = revision_rate
        self._rng = random.Random(seed)

    def run(
        self,
        initial_profile: StrategyProfile,
        n_rounds: int,
        stop_at_fixed_point: bool = True,
    ) -> DynamicsResult:
        """Iterate the dynamic for up to ``n_rounds`` rounds."""
        if n_rounds < 1:
            raise GameError(f"n_rounds must be >= 1, got {n_rounds}")
        profile: Dict[int, Strategy] = dict(initial_profile)
        result = DynamicsResult()
        for round_index in range(1, n_rounds + 1):
            game = self._schedule(round_index)
            missing = set(game.players) - set(profile)
            if missing:
                raise GameError(
                    f"profile missing strategies for players {sorted(missing)}"
                )
            revisions = self._revise(game, profile)
            result.records.append(
                DynamicsRecord(
                    round_index=round_index,
                    n_cooperating=sum(
                        1 for s in profile.values() if s is Strategy.COOPERATE
                    ),
                    n_defecting=sum(
                        1 for s in profile.values() if s is Strategy.DEFECT
                    ),
                    n_offline=sum(
                        1 for s in profile.values() if s is Strategy.OFFLINE
                    ),
                    block_produced=game.block_succeeds(profile),
                    revisions=revisions,
                )
            )
            if stop_at_fixed_point and result.reached_fixed_point():
                break
        result.final_profile = dict(profile)
        return result

    def _revise(self, game: AlgorandGame, profile: Dict[int, Strategy]) -> int:
        """One synchronous revision step; returns the number of changes."""
        revising = [
            pid
            for pid in game.players
            if self.revision_rate >= 1.0 or self._rng.random() < self.revision_rate
        ]
        responses = synchronous_best_responses(game, profile, revising)
        changes = 0
        for pid, strategy in responses.items():
            if profile[pid] is not strategy:
                profile[pid] = strategy
                changes += 1
        return changes


def replicator_step(
    cooperate_share: float,
    payoff_cooperate: float,
    payoff_defect: float,
    intensity: float = 4.0,
    mutation: float = 0.0,
) -> float:
    """One discrete-time replicator update on the {C, D} share simplex.

    Fitness is the exponential transform ``exp(intensity * payoff / scale)``
    with ``scale`` the larger payoff magnitude, so the update is invariant
    to the (micro-Algo) payoff unit and well-defined for negative payoffs —
    the standard discrete-choice form of the replicator/imitation dynamic.
    ``mutation`` mixes a uniform trembling term back in, keeping the
    boundary states reachable-from rather than absorbing when positive.

    Three edge cases short-circuit the weight arithmetic:

    * **boundary shares** (0.0 or 1.0) — an extinct strategy's payoff is
      undefined (callers may pass ``nan``); selection cannot re-invade it,
      so only the trembling term moves the share;
    * **equal payoffs** (including the all-zero epoch of a failed block
      round) — a zero selection gradient returns the share exactly,
      instead of round-tripping it through ``x*w / (x*w + (1-x))``;
    * **both payoffs strictly negative** — the exponential-transform
      fitness is not shift-invariant, and scaling by the larger *loss*
      would make the selection gradient vanish as uniform costs grow
      (``-1000.001`` vs ``-1000.0`` is the same choice as ``-0.001`` vs
      ``0.0``).  Losses are first shifted so the better strategy sits at
      zero, which makes negative-payoff pairs shift-invariant.

    Returns the next cooperating share in [0, 1].
    """
    if not 0.0 <= cooperate_share <= 1.0:
        raise GameError(f"cooperate share must be in [0, 1], got {cooperate_share}")
    if intensity <= 0:
        raise GameError(f"selection intensity must be positive, got {intensity}")
    if not 0.0 <= mutation < 1.0:
        raise GameError(f"mutation rate must be in [0, 1), got {mutation}")
    if (
        cooperate_share == 0.0
        or cooperate_share == 1.0
        or payoff_cooperate == payoff_defect
    ):
        return (1.0 - mutation) * cooperate_share + mutation * 0.5
    if payoff_cooperate < 0.0 and payoff_defect < 0.0:
        shift = max(payoff_cooperate, payoff_defect)
        payoff_cooperate -= shift
        payoff_defect -= shift
    scale = max(abs(payoff_cooperate), abs(payoff_defect), 1e-300)
    advantage = (payoff_cooperate - payoff_defect) / scale
    weight = math.exp(max(-60.0, min(60.0, intensity * advantage)))
    numerator = cooperate_share * weight
    share = numerator / (numerator + (1.0 - cooperate_share))
    return (1.0 - mutation) * share + mutation * 0.5


class ReplicatorAccumulator:
    """Streaming accumulator form of the replicator update.

    The in-memory pipeline computes :func:`mean_payoff_by_strategy` over a
    whole profile and feeds the two means to :func:`replicator_step`.  At
    population scale the per-agent payoffs arrive chunk by chunk; this
    accumulator folds each chunk's counterfactual cooperate/defect payoff
    sums with the block-stable reduction
    (:func:`repro.populations.arrays.blockwise_sum`) and normalizes **once
    per epoch**, so the resulting step is bit-identical at every
    ``chunk_agents`` — the same contract as the population audit.

    Masks passed via ``include`` are applied position-preservingly
    (``np.where``), never by fancy indexing, which would re-pack values
    across block boundaries and break chunk invariance.
    """

    def __init__(self, intensity: float = 4.0, mutation: float = 0.0) -> None:
        if intensity <= 0:
            raise GameError(f"selection intensity must be positive, got {intensity}")
        if not 0.0 <= mutation < 1.0:
            raise GameError(f"mutation rate must be in [0, 1), got {mutation}")
        self.intensity = intensity
        self.mutation = mutation
        self._sum_cooperate = 0.0
        self._sum_defect = 0.0
        self._count = 0

    def reset(self) -> None:
        """Clear the folded sums for the next epoch."""
        self._sum_cooperate = 0.0
        self._sum_defect = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        """Number of agents folded so far this epoch."""
        return self._count

    @staticmethod
    def partials(
        payoff_cooperate: np.ndarray,
        payoff_defect: np.ndarray,
        include: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """One chunk's fold as ``(cooperate block sums, defect block sums, count)``.

        The per-block partials (:func:`~repro.populations.arrays.block_sums`)
        :meth:`fold` adds in.  Stateless, so slices of a chunk can compute
        theirs on different threads and :meth:`absorb` them in population
        order.
        """
        payoff_cooperate = np.asarray(payoff_cooperate, dtype=np.float64)
        payoff_defect = np.asarray(payoff_defect, dtype=np.float64)
        if payoff_cooperate.shape != payoff_defect.shape:
            raise GameError(
                f"payoff arrays disagree in shape: {payoff_cooperate.shape} "
                f"vs {payoff_defect.shape}"
            )
        if include is None:
            count = int(payoff_cooperate.size)
        else:
            include = np.asarray(include, dtype=bool)
            if include.shape != payoff_cooperate.shape:
                raise GameError(
                    f"include mask shape {include.shape} does not match "
                    f"payoff shape {payoff_cooperate.shape}"
                )
            payoff_cooperate = np.where(include, payoff_cooperate, 0.0)
            payoff_defect = np.where(include, payoff_defect, 0.0)
            count = int(np.count_nonzero(include))
        return block_sums(payoff_cooperate), block_sums(payoff_defect), count

    def absorb(
        self, sums_cooperate: np.ndarray, sums_defect: np.ndarray, count: int
    ) -> None:
        """Add one chunk's :meth:`partials` to the epoch's sums, in block order."""
        self._sum_cooperate = float(add_blocks(self._sum_cooperate, sums_cooperate))
        self._sum_defect = float(add_blocks(self._sum_defect, sums_defect))
        self._count += count

    def fold(
        self,
        payoff_cooperate: np.ndarray,
        payoff_defect: np.ndarray,
        include: Optional[np.ndarray] = None,
    ) -> None:
        """Fold one chunk's per-agent counterfactual payoffs.

        ``payoff_cooperate[j]`` / ``payoff_defect[j]`` are agent ``j``'s
        payoffs if it alone played C (resp. D) against the realized
        profile; ``include`` restricts the fold to a boolean subset (the
        revising crowd) without disturbing block alignment.
        """
        self.absorb(*self.partials(payoff_cooperate, payoff_defect, include))

    def mean_payoffs(self) -> Tuple[float, float]:
        """The epoch's (mean cooperate, mean defect) counterfactual payoffs.

        An empty fold returns ``(0.0, 0.0)`` — the
        :func:`mean_payoff_by_strategy` convention for strategies nobody
        evaluates, which makes :meth:`step` a pure mutation mix.
        """
        if self._count == 0:
            return 0.0, 0.0
        return self._sum_cooperate / self._count, self._sum_defect / self._count

    def step(self, cooperate_share: float) -> float:
        """Apply :func:`replicator_step` to the folded means."""
        mean_cooperate, mean_defect = self.mean_payoffs()
        return replicator_step(
            cooperate_share,
            mean_cooperate,
            mean_defect,
            intensity=self.intensity,
            mutation=self.mutation,
        )


def mean_payoff_by_strategy(
    game: AlgorandGame, profile: StrategyProfile
) -> Dict[Strategy, float]:
    """Average realized payoff of the players at each strategy.

    Strategies nobody plays map to 0.0 (their growth rate is undefined;
    replicator callers treat an extinct strategy's share as frozen).
    """
    payoffs = game.payoffs(profile)
    totals: Dict[Strategy, float] = {strategy: 0.0 for strategy in Strategy}
    counts: Dict[Strategy, int] = {strategy: 0 for strategy in Strategy}
    for pid, strategy in profile.items():
        if pid not in payoffs:
            continue
        totals[strategy] += payoffs[pid]
        counts[strategy] += 1
    return {
        strategy: (totals[strategy] / counts[strategy] if counts[strategy] else 0.0)
        for strategy in Strategy
    }


def random_profile(
    game: AlgorandGame,
    cooperate_probability: float,
    seed: int = 0,
    allow_offline: bool = False,
) -> Dict[int, Strategy]:
    """A random initial profile for dynamics experiments."""
    if not 0.0 <= cooperate_probability <= 1.0:
        raise GameError(
            f"cooperate probability must be in [0, 1], got {cooperate_probability}"
        )
    rng = random.Random(seed)
    profile: Dict[int, Strategy] = {}
    for pid in game.players:
        if rng.random() < cooperate_probability:
            profile[pid] = Strategy.COOPERATE
        elif allow_offline and rng.random() < 0.1:
            profile[pid] = Strategy.OFFLINE
        else:
            profile[pid] = Strategy.DEFECT
    return profile
