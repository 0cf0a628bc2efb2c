"""The replicator update: how a population's cooperating share evolves.

The paper analyses one round as a static game; its conclusion motivates
studying how a population of honest-but-selfish nodes *evolves* when the
game repeats.  The scenario engines drive two update rules: synchronous
best response (:func:`repro.core.equilibrium.synchronous_best_responses`,
run by :mod:`repro.scenarios.dynamics` and, blockwise, by
:mod:`repro.scenarios.population_dynamics`) and the replicator step
defined here:

* :func:`replicator_step` moves the {C, D} share toward the fitter
  strategy, given the two strategies' mean payoffs;
* :class:`ReplicatorAccumulator` folds those means chunk by chunk, so the
  streamed dynamics take the same step at any chunk size.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.errors import GameError
from repro.populations.arrays import add_blocks, block_sums


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

    The in-memory scenario engine averages the cooperators' and the
    defectors' payoffs over a whole profile and feeds the two means to
    :func:`replicator_step`.  At population scale the per-agent payoffs
    arrive chunk by chunk; this accumulator folds each chunk's
    counterfactual cooperate/defect payoff sums with the block-stable
    reduction (:func:`repro.populations.arrays.blockwise_sum`) and
    normalizes **once per epoch**, so the resulting step is bit-identical
    at every ``chunk_agents`` — the same contract as the population audit.

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
        :func:`~repro.scenarios.dynamics.mean_payoff_by_strategy`
        convention for strategies nobody evaluates, which makes
        :meth:`step` a pure mutation mix.
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
