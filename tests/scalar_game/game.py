"""The static non-cooperative game of one Algorand round (paper Section IV).

``G_Al`` models one round as a simultaneous-move game:

* **Players** P = L ∪ M ∪ K — leaders, committee members, other online
  nodes, each with a stake.
* **Strategies** {C, D, O} — Cooperate (perform all assigned tasks, pay the
  role cost), Defect (stay online, run sortition only, pay ``c_so``), or
  Offline (run sortition, then disappear: pay ``c_so`` and forfeit rewards).
* **Payoffs** — rewards minus costs.  Rewards exist only if the round
  produces a block, which requires at least one cooperating leader, a
  committee quorum, and the cooperation of every member of the designated
  strong-synchrony set (paper Definitions 2-4).

The reward side is pluggable: :class:`FoundationRule` implements the
stake-proportional sharing of Eq. 3/4 (the game ``G_Al``), and
:class:`RoleBasedRule` implements the role split of Eq. 5 (the game
``G_Al+``).  Both pay defectors that merely stay online — the paper
analyses the mechanisms *without* a punishment scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.core.costs import RoleCosts
from repro.errors import GameError


class Strategy(str, Enum):
    """A player's action in the round game (paper Section IV)."""

    COOPERATE = "C"
    DEFECT = "D"
    OFFLINE = "O"


class PlayerRole(str, Enum):
    """The role sortition assigned to the player this round."""

    LEADER = "leader"
    COMMITTEE = "committee"
    ONLINE = "online"


@dataclass(frozen=True)
class Player:
    """One strategic node: identity, stake, and assigned role."""

    node_id: int
    stake: float
    role: PlayerRole

    def __post_init__(self) -> None:
        if self.stake <= 0:
            raise GameError(f"player {self.node_id} must have positive stake")


StrategyProfile = Mapping[int, Strategy]


@dataclass(frozen=True)
class BlockSuccessModel:
    """When does a strategy profile yield a block (and hence rewards)?

    * at least one leader cooperates (someone must propose),
    * cooperating committee stake strictly exceeds ``committee_quorum``
      times the total committee stake (the vote-count threshold), and
    * every member of ``synchrony_set`` (a subset of K) cooperates —
      Definition 4's "Algorand strong synchrony set", whose defection
      breaks dissemination (used by Theorem 3).
    """

    committee_quorum: float = 0.685
    synchrony_set: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 < self.committee_quorum < 1.0:
            raise GameError(
                f"committee quorum must be in (0, 1), got {self.committee_quorum}"
            )


class RewardRule:
    """Interface: per-node payments for a profile in a successful round."""

    def payments(self, game: "AlgorandGame", profile: StrategyProfile) -> Dict[int, float]:
        """Per-player payments for one strategy profile (the rule's core)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FoundationRule(RewardRule):
    """Stake-proportional sharing, roles ignored (paper Eq. 3, game G_Al)."""

    b_i: float

    def payments(self, game: "AlgorandGame", profile: StrategyProfile) -> Dict[int, float]:
        """Stake-proportional payments to every online player (Eq. 3)."""
        online = {
            pid: player.stake
            for pid, player in game.players.items()
            if profile[pid] is not Strategy.OFFLINE
        }
        total = sum(online.values())
        if total <= 0:
            return {}
        rate = self.b_i / total
        return {pid: rate * stake for pid, stake in online.items()}


@dataclass(frozen=True)
class RoleBasedRule(RewardRule):
    """Role-split sharing by *performed* role (paper Eq. 5, game G_Al+).

    Defecting leaders and committee members perform nothing, so they are
    paid from the online (gamma) pool — exactly the deviation payoffs used
    in the proofs of Lemma 2 and Theorem 3.
    """

    alpha: float
    beta: float
    b_i: float

    def __post_init__(self) -> None:
        if not (0 < self.alpha < 1 and 0 < self.beta < 1):
            raise GameError("alpha and beta must lie in (0, 1)")
        if self.alpha + self.beta >= 1:
            raise GameError("alpha + beta must be < 1")

    @property
    def gamma(self) -> float:
        """The residual online-pool share ``1 - alpha - beta``."""
        return 1.0 - self.alpha - self.beta

    def payments(self, game: "AlgorandGame", profile: StrategyProfile) -> Dict[int, float]:
        """Role-split payments: alpha to leaders, beta to committee, gamma to the rest (Eq. 5)."""
        performing_leaders: Dict[int, float] = {}
        performing_committee: Dict[int, float] = {}
        online_pool: Dict[int, float] = {}
        for pid, player in game.players.items():
            strategy = profile[pid]
            if strategy is Strategy.OFFLINE:
                continue
            if strategy is Strategy.COOPERATE and player.role is PlayerRole.LEADER:
                performing_leaders[pid] = player.stake
            elif strategy is Strategy.COOPERATE and player.role is PlayerRole.COMMITTEE:
                performing_committee[pid] = player.stake
            else:
                online_pool[pid] = player.stake

        payments: Dict[int, float] = {}
        for fraction, pool in (
            (self.alpha, performing_leaders),
            (self.beta, performing_committee),
            (self.gamma, online_pool),
        ):
            total = sum(pool.values())
            if total <= 0:
                continue
            rate = fraction * self.b_i / total
            for pid, stake in pool.items():
                payments[pid] = payments.get(pid, 0.0) + rate * stake
        return payments


@dataclass
class AlgorandGame:
    """One round of Algorand as a strategic game.

    Build instances with :meth:`AlgorandGame.from_role_stakes`.
    """

    players: Dict[int, Player]
    costs: RoleCosts
    reward_rule: RewardRule
    success_model: BlockSuccessModel = field(default_factory=BlockSuccessModel)

    def __post_init__(self) -> None:
        if not self.players:
            raise GameError("a game needs at least one player")
        for pid, player in self.players.items():
            if pid != player.node_id:
                raise GameError(f"player key {pid} != node_id {player.node_id}")
        bad = self.success_model.synchrony_set - {
            pid
            for pid, player in self.players.items()
            if player.role is PlayerRole.ONLINE
        }
        if bad:
            raise GameError(
                f"synchrony set must be a subset of the online players K, "
                f"offending ids: {sorted(bad)}"
            )

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def from_role_stakes(
        leader_stakes: Iterable[float],
        committee_stakes: Iterable[float],
        online_stakes: Iterable[float],
        costs: RoleCosts,
        reward_rule: RewardRule,
        synchrony_size: int = 0,
        committee_quorum: float = 0.685,
    ) -> "AlgorandGame":
        """Build a game from stake lists; ids are assigned sequentially.

        ``synchrony_size`` marks the first that-many online nodes as the
        strong-synchrony set Y.
        """
        players: Dict[int, Player] = {}
        next_id = 0
        for role, stakes in (
            (PlayerRole.LEADER, leader_stakes),
            (PlayerRole.COMMITTEE, committee_stakes),
            (PlayerRole.ONLINE, online_stakes),
        ):
            for stake in stakes:
                players[next_id] = Player(node_id=next_id, stake=stake, role=role)
                next_id += 1
        online_ids = [
            pid for pid, p in players.items() if p.role is PlayerRole.ONLINE
        ]
        if synchrony_size > len(online_ids):
            raise GameError(
                f"synchrony_size {synchrony_size} exceeds online player count "
                f"{len(online_ids)}"
            )
        model = BlockSuccessModel(
            committee_quorum=committee_quorum,
            synchrony_set=frozenset(online_ids[:synchrony_size]),
        )
        return AlgorandGame(
            players=players, costs=costs, reward_rule=reward_rule, success_model=model
        )

    # -- game mechanics -------------------------------------------------------------

    def _check_profile(self, profile: StrategyProfile) -> None:
        missing = set(self.players) - set(profile)
        if missing:
            raise GameError(f"profile missing strategies for players {sorted(missing)}")

    def block_succeeds(self, profile: StrategyProfile) -> bool:
        """The success predicate implicit in the proofs of Theorems 1-3."""
        self._check_profile(profile)
        leaders_ok = any(
            profile[pid] is Strategy.COOPERATE
            for pid, player in self.players.items()
            if player.role is PlayerRole.LEADER
        )
        if not leaders_ok:
            return False
        committee_total = sum(
            player.stake
            for player in self.players.values()
            if player.role is PlayerRole.COMMITTEE
        )
        committee_cooperating = sum(
            player.stake
            for pid, player in self.players.items()
            if player.role is PlayerRole.COMMITTEE
            and profile[pid] is Strategy.COOPERATE
        )
        if committee_total <= 0:
            return False
        if committee_cooperating <= self.success_model.committee_quorum * committee_total:
            return False
        return all(
            profile[pid] is Strategy.COOPERATE
            for pid in self.success_model.synchrony_set
        )

    def cost_of(self, node_id: int, strategy: Strategy) -> float:
        """Cost a player incurs under a strategy (paper Eq. 2 + Lemma 1)."""
        player = self._player(node_id)
        if strategy is Strategy.COOPERATE:
            return self.costs.of_role(player.role.value)
        return self.costs.sortition  # both D and O still run sortition

    def payoff(self, node_id: int, profile: StrategyProfile) -> float:
        """u_j(profile): reward (if a block is made) minus incurred cost."""
        self._check_profile(profile)
        player = self._player(node_id)
        strategy = profile[node_id]
        reward = 0.0
        if strategy is not Strategy.OFFLINE and self.block_succeeds(profile):
            reward = self.reward_rule.payments(self, profile).get(node_id, 0.0)
        return reward - self.cost_of(node_id, strategy)

    def payoffs(self, profile: StrategyProfile) -> Dict[int, float]:
        """All players' payoffs at once (shares the success/payment work)."""
        self._check_profile(profile)
        succeeded = self.block_succeeds(profile)
        payments = self.reward_rule.payments(self, profile) if succeeded else {}
        result: Dict[int, float] = {}
        for pid in self.players:
            strategy = profile[pid]
            reward = (
                payments.get(pid, 0.0) if strategy is not Strategy.OFFLINE else 0.0
            )
            result[pid] = reward - self.cost_of(pid, strategy)
        return result

    def _player(self, node_id: int) -> Player:
        try:
            return self.players[node_id]
        except KeyError:
            raise GameError(f"unknown player {node_id}") from None

    # -- convenience ---------------------------------------------------------------

    def ids_with_role(self, role: PlayerRole) -> Tuple[int, ...]:
        """All player ids holding ``role``, sorted."""
        return tuple(
            pid for pid, player in self.players.items() if player.role is role
        )

    @property
    def n_leaders(self) -> int:
        """Number of players with the leader role."""
        return len(self.ids_with_role(PlayerRole.LEADER))

    @property
    def n_committee(self) -> int:
        """Number of players with the committee role."""
        return len(self.ids_with_role(PlayerRole.COMMITTEE))

    @property
    def n_online(self) -> int:
        """Number of players with the plain online role."""
        return len(self.ids_with_role(PlayerRole.ONLINE))


# -- canonical profiles -------------------------------------------------------------


def all_cooperate(game: AlgorandGame) -> Dict[int, Strategy]:
    """The All-C profile of Theorem 2."""
    return {pid: Strategy.COOPERATE for pid in game.players}


def all_defect(game: AlgorandGame) -> Dict[int, Strategy]:
    """The All-D profile of Theorem 1."""
    return {pid: Strategy.DEFECT for pid in game.players}


def theorem3_profile(game: AlgorandGame) -> Dict[int, Strategy]:
    """The Theorem 3 equilibrium candidate: L, M and Y cooperate; rest defect."""
    profile: Dict[int, Strategy] = {}
    for pid, player in game.players.items():
        in_y = pid in game.success_model.synchrony_set
        cooperates = player.role is not PlayerRole.ONLINE or in_y
        profile[pid] = Strategy.COOPERATE if cooperates else Strategy.DEFECT
    return profile


def with_deviation(
    profile: StrategyProfile, node_id: int, strategy: Strategy
) -> Dict[int, Strategy]:
    """Copy of ``profile`` with one player's strategy replaced."""
    if node_id not in profile:
        raise GameError(f"player {node_id} not in profile")
    deviated = dict(profile)
    deviated[node_id] = strategy
    return deviated


def profile_counts(profile: StrategyProfile) -> Dict[Strategy, int]:
    """How many players play each strategy (all strategies always present)."""
    counts = {strategy: 0 for strategy in Strategy}
    for strategy in profile.values():
        counts[strategy] += 1
    return counts


def defection_share(profile: StrategyProfile) -> float:
    """Fraction of players playing D — the scenario trajectories' y-axis."""
    if not profile:
        return 0.0
    return profile_counts(profile)[Strategy.DEFECT] / len(profile)


def cooperation_share(profile: StrategyProfile) -> float:
    """Fraction of players playing C."""
    if not profile:
        return 0.0
    return profile_counts(profile)[Strategy.COOPERATE] / len(profile)
