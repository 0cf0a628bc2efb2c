"""Equilibrium analysis: Nash checks and the paper's theorems, executable.

This module turns Section IV's results into checkable code:

* :func:`is_nash_equilibrium` — exact unilateral-deviation test.
* :func:`lemma1_offline_dominated` — Lemma 1: O is strictly dominated by D.
* :func:`theorem1_all_defection_ne` — Theorem 1: All-D is a Nash
  equilibrium of G_Al (and remains one in G_Al+).
* :func:`theorem2_all_cooperation_not_ne` — Theorem 2: All-C is never an
  equilibrium under Foundation sharing (with nL > 1); returns the
  profitable deviation as a witness.
* :func:`theorem3_equilibrium` — Theorem 3: under role-based sharing with
  ``B_i`` above the bound, the "L + M + Y cooperate, rest defect" profile
  is a Nash equilibrium — and is not one when ``B_i`` is below the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.game import (
    AlgorandGame,
    PlayerRole,
    Strategy,
    StrategyProfile,
    all_cooperate,
    all_defect,
    theorem3_profile,
    with_deviation,
)
from repro.errors import GameError

#: Strategies considered in deviation checks.  Lemma 1 removes O from
#: rational play, but the checker still verifies O-deviations by default.
ALL_STRATEGIES: Tuple[Strategy, ...] = (
    Strategy.COOPERATE,
    Strategy.DEFECT,
    Strategy.OFFLINE,
)


@dataclass(frozen=True)
class Deviation:
    """A profitable unilateral deviation (a Nash-equilibrium violation)."""

    node_id: int
    role: PlayerRole
    from_strategy: Strategy
    to_strategy: Strategy
    gain: float


@dataclass(frozen=True)
class NashResult:
    """Outcome of an equilibrium check."""

    is_equilibrium: bool
    deviations: Tuple[Deviation, ...] = ()

    @property
    def best_deviation(self) -> Optional[Deviation]:
        """The most profitable deviation found, or None if none exist."""
        if not self.deviations:
            return None
        return max(self.deviations, key=lambda d: d.gain)


def profitable_deviations(
    game: AlgorandGame,
    profile: StrategyProfile,
    tolerance: float = 1e-15,
    strategies: Sequence[Strategy] = ALL_STRATEGIES,
) -> List[Deviation]:
    """All strictly profitable unilateral deviations from ``profile``."""
    deviations: List[Deviation] = []
    base_payoffs = game.payoffs(profile)
    for pid, player in game.players.items():
        current = profile[pid]
        for alternative in strategies:
            if alternative is current:
                continue
            gain = game.payoff(pid, with_deviation(profile, pid, alternative)) - (
                base_payoffs[pid]
            )
            if gain > tolerance:
                deviations.append(
                    Deviation(
                        node_id=pid,
                        role=player.role,
                        from_strategy=current,
                        to_strategy=alternative,
                        gain=gain,
                    )
                )
    return deviations


def is_nash_equilibrium(
    game: AlgorandGame,
    profile: StrategyProfile,
    tolerance: float = 1e-15,
    strategies: Sequence[Strategy] = ALL_STRATEGIES,
) -> NashResult:
    """Exact Nash check (Definition 1): no profitable unilateral deviation."""
    deviations = profitable_deviations(game, profile, tolerance, strategies)
    return NashResult(is_equilibrium=not deviations, deviations=tuple(deviations))


def best_response(
    game: AlgorandGame,
    node_id: int,
    profile: StrategyProfile,
    strategies: Sequence[Strategy] = ALL_STRATEGIES,
) -> Tuple[Strategy, float]:
    """The payoff-maximizing strategy for one player, others held fixed.

    Ties break toward the player's current strategy, then C > D > O.
    """
    if node_id not in game.players:
        raise GameError(f"unknown player {node_id}")
    current = profile[node_id]
    ranking = {Strategy.COOPERATE: 0, Strategy.DEFECT: 1, Strategy.OFFLINE: 2}
    best: Optional[Tuple[Strategy, float]] = None
    for strategy in strategies:
        payoff = game.payoff(node_id, with_deviation(profile, node_id, strategy))
        if best is None:
            best = (strategy, payoff)
            continue
        better = payoff > best[1] + 1e-15
        tied = abs(payoff - best[1]) <= 1e-15
        prefer = (strategy is current and best[0] is not current) or (
            ranking[strategy] < ranking[best[0]] and best[0] is not current
        )
        if better or (tied and prefer):
            best = (strategy, payoff)
    assert best is not None
    return best


def synchronous_best_responses(
    game: AlgorandGame,
    profile: StrategyProfile,
    revising: Optional[Iterable[int]] = None,
    strategies: Sequence[Strategy] = ALL_STRATEGIES,
) -> Dict[int, Strategy]:
    """Best responses for a set of players, all computed against ``profile``.

    Every response is evaluated with the *other* players held at their
    current strategies — the one-shot synchronous revision step of the
    scenario engine's epoch driver.  ``revising`` defaults to all players.
    """
    ids = list(game.players) if revising is None else list(revising)
    return {pid: best_response(game, pid, profile, strategies)[0] for pid in ids}


# -- Lemma 1 -----------------------------------------------------------------------


def lemma1_offline_dominated(
    game: AlgorandGame,
    node_id: int,
    max_enumeration: int = 4096,
    sample_profiles: Optional[Iterable[StrategyProfile]] = None,
) -> bool:
    """Lemma 1: playing D dominates playing O.

    **Reproduction note.** The paper states O is *strictly* dominated, but
    its own payoff definitions make the dominance weak: in profiles where no
    block is produced (e.g. everyone else defects), both D and O pay exactly
    ``-c_so``.  D is strictly better exactly when a block is produced, since
    the defector then still collects a reward.  This function therefore
    checks the corrected claim — weak dominance everywhere with strict
    dominance in at least one profile — which is all the paper's subsequent
    analysis (discarding O from rational play) actually needs.

    For small games all opponent profiles over {C, D} are enumerated (O for
    opponents is redundant: it only shrinks the reward pools, which weakly
    *raises* the D payoff and leaves the O payoff at -c_so).  Larger games
    must supply ``sample_profiles``.
    """
    others = [pid for pid in game.players if pid != node_id]
    profiles: Iterable[StrategyProfile]
    if sample_profiles is not None:
        profiles = sample_profiles
    else:
        if 2 ** len(others) > max_enumeration:
            raise GameError(
                f"{2 ** len(others)} opponent profiles exceed max_enumeration="
                f"{max_enumeration}; pass sample_profiles instead"
            )
        profiles = (
            {**dict(zip(others, combo)), node_id: Strategy.DEFECT}
            for combo in itertools.product(
                (Strategy.COOPERATE, Strategy.DEFECT), repeat=len(others)
            )
        )
    strict_somewhere = False
    for profile in profiles:
        payoff_defect = game.payoff(node_id, with_deviation(profile, node_id, Strategy.DEFECT))
        payoff_offline = game.payoff(node_id, with_deviation(profile, node_id, Strategy.OFFLINE))
        if payoff_defect < payoff_offline:
            return False
        if payoff_defect > payoff_offline:
            strict_somewhere = True
    return strict_somewhere


# -- Theorem 1 ----------------------------------------------------------------------


def theorem1_all_defection_ne(game: AlgorandGame, tolerance: float = 1e-15) -> NashResult:
    """Theorem 1: All-D is a Nash equilibrium (no block, nothing to gain)."""
    return is_nash_equilibrium(game, all_defect(game), tolerance=tolerance)


# -- Theorem 2 ----------------------------------------------------------------------


def theorem2_all_cooperation_not_ne(
    game: AlgorandGame, tolerance: float = 1e-15
) -> NashResult:
    """Theorem 2: All-C is not an equilibrium under Foundation sharing.

    The returned result carries the profitable deviations; the paper's
    proof predicts (at least) every leader's D-deviation is profitable when
    ``nL > 1``.
    """
    return is_nash_equilibrium(game, all_cooperate(game), tolerance=tolerance)


# -- Theorem 3 ----------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem3Check:
    """Outcome of checking Theorem 3's equilibrium candidate."""

    profile: Dict[int, Strategy] = field(hash=False)
    result: NashResult = field(hash=False)

    @property
    def holds(self) -> bool:
        """Whether the Theorem 3 profile verified as an equilibrium."""
        return self.result.is_equilibrium


def theorem3_equilibrium(game: AlgorandGame, tolerance: float = 1e-15) -> Theorem3Check:
    """Check the Theorem 3 profile (L, M, Y cooperate; other K defect).

    Whether it *is* an equilibrium depends on the reward rule's ``B_i``
    clearing the Theorem 3 bound — callers construct the game accordingly
    and assert :attr:`Theorem3Check.holds` (or its negation, below the
    bound).
    """
    profile = theorem3_profile(game)
    result = is_nash_equilibrium(game, profile, tolerance=tolerance)
    return Theorem3Check(profile=profile, result=result)
