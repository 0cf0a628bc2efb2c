"""The pluggable reward-scheme abstraction: pools, splits, and the protocol.

The paper analyses exactly two mechanisms — stake-proportional Foundation
sharing (Eq. 3) and the role-based split (Eq. 5) — but the design space of
per-round reward distribution is much wider (IRS-style cost reimbursement,
the axiomatic proportional-allocation families of Chen, Papadimitriou &
Roughgarden, hybrid bonus schemes, ...).  This module gives every such
mechanism one declarative shape so the audit engine, the scenario driver
and the tournament runner can treat them uniformly:

A **scheme** is a list of :class:`PoolSpec` slices.  Each pool takes a
fixed fraction of the per-round budget ``B_i`` and distributes it among
the players whose ``(performed role, action)`` pair is a member, in
proportion to a declared weight (stake, equal shares, ``stake**tau``, or
the role's cooperation cost).  Pool fractions must sum to one, so every
scheme is budget-balanced by construction; a pool whose member set is
empty in some round simply withholds its slice ("saved for future use",
paper Figure 2).

Both mechanism code paths are derived from the same declaration:

* :class:`PooledRule` interprets the pools as a scalar
  :class:`~repro.core.game.RewardRule` for :class:`~repro.core.game.AlgorandGame`
  — dictionary loops over players, one at a time.  This is the audit
  engine's **correctness oracle**.
* :mod:`repro.schemes.deviation` interprets the same pools as batched
  numpy algebra over whole populations of players at once — the fast
  path every audit and the streamed dynamics share.

Because a unilateral deviation moves exactly one player between pools,
deviation payoffs have a closed form in the pool totals; that is what
makes the audit engine vectorizable for *any* scheme declared this way.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum
from typing import Any, ClassVar, Dict, FrozenSet, Mapping, Tuple

from repro.core.game import AlgorandGame, RewardRule, Strategy, StrategyProfile
from repro.errors import SchemeError

#: Role names a pool membership may reference (PlayerRole values).
ROLES: Tuple[str, ...] = ("leader", "committee", "online")

#: Actions a pool membership may reference.  Offline players forfeit all
#: rewards (paper Lemma 1), so ``"O"`` is never a member action.
ACTIONS: Tuple[str, ...] = ("C", "D")

#: Tolerance on the pool-fraction sum (schemes must be budget-balanced).
FRACTION_TOLERANCE = 1e-9


class WeightKind(str, Enum):
    """How a pool weighs its members when splitting its slice."""

    #: Proportional to stake — the paper's Eq. 3/5 within-pool rule.
    STAKE = "stake"
    #: Equal shares per member (a per-head bonus).
    EQUAL = "equal"
    #: Proportional to ``stake ** exponent`` — the axiomatic
    #: proportional-allocation family (exponent 1 recovers STAKE,
    #: exponent 0 recovers EQUAL).
    STAKE_POWER = "stake_power"
    #: Proportional to the cooperation cost of the member's role — a
    #: cost-reimbursement slice (IRS-style).
    COST = "cost"


@dataclass(frozen=True)
class PoolSpec:
    """One budget slice: fraction, membership, and within-pool weighting.

    Parameters
    ----------
    name:
        Identifies the pool in reports and witnesses.
    fraction:
        Share of ``B_i`` allocated to this pool, in ``[0, 1]``.
    members:
        The ``(role, action)`` pairs paid from this pool, with roles from
        :data:`ROLES` and actions from :data:`ACTIONS` — e.g. the paper's
        gamma pool is ``{("leader","D"), ("committee","D"), ("online","C"),
        ("online","D")}``: everyone online who performed no leader or
        committee task this round.
    weight / exponent:
        The within-pool weighting; ``exponent`` only applies to
        :attr:`WeightKind.STAKE_POWER`.
    """

    name: str
    fraction: float
    members: FrozenSet[Tuple[str, str]]
    weight: WeightKind = WeightKind.STAKE
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemeError("pool name must be non-empty")
        if not 0.0 <= self.fraction <= 1.0 + FRACTION_TOLERANCE:
            raise SchemeError(
                f"pool {self.name!r} fraction must be in [0, 1], got {self.fraction}"
            )
        if not self.members:
            raise SchemeError(f"pool {self.name!r} has no members")
        for role, action in self.members:
            if role not in ROLES or action not in ACTIONS:
                raise SchemeError(
                    f"pool {self.name!r} member ({role!r}, {action!r}) is not a "
                    f"(role, action) pair from {ROLES} x {ACTIONS}"
                )
        if self.weight is WeightKind.STAKE_POWER and self.exponent < 0:
            raise SchemeError(
                f"pool {self.name!r} stake-power exponent must be >= 0, "
                f"got {self.exponent}"
            )


def validate_pools(pools: Tuple[PoolSpec, ...]) -> Tuple[PoolSpec, ...]:
    """Check a scheme's pool list is budget-balanced with unique names."""
    if not pools:
        raise SchemeError("a scheme needs at least one pool")
    names = [pool.name for pool in pools]
    if len(set(names)) != len(names):
        raise SchemeError(f"duplicate pool names: {names}")
    total = sum(pool.fraction for pool in pools)
    if abs(total - 1.0) > FRACTION_TOLERANCE:
        raise SchemeError(
            f"pool fractions must sum to 1 (budget balance), got {total}"
        )
    return pools


@dataclass(frozen=True)
class SchemeSplit:
    """The calibrated role split a scheme may consume.

    Algorithm 1's optimizer (or a scenario's pinned ``alpha``/``beta``)
    produces one split per population; schemes that are not role-split
    mechanisms simply ignore it, which keeps every scheme constructible
    from the same calibration pipeline.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0 or not 0.0 < self.beta < 1.0:
            raise SchemeError(
                f"split ({self.alpha}, {self.beta}) components must be in (0, 1)"
            )
        if self.alpha + self.beta >= 1.0:
            raise SchemeError(
                f"split ({self.alpha}, {self.beta}) must leave gamma > 0"
            )

    @property
    def gamma(self) -> float:
        """The residual online-pool share ``1 - alpha - beta``."""
        return 1.0 - self.alpha - self.beta


class PooledRule(RewardRule):
    """Scalar interpreter of a pool declaration — the audit oracle path.

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


class RewardScheme(abc.ABC):
    """One pluggable per-round reward-distribution mechanism.

    Subclasses declare a class-level ``kind`` (the registry's construction
    key), a ``description``, and the :meth:`pools` factory.  Instances may
    carry configuration (a tau exponent, a bonus fraction, ...) surfaced
    through :meth:`param_dict` so schemes serialize into sweep shards and
    content-addressed cache keys like every other experiment parameter.
    """

    #: Registry construction key; set by each subclass.
    kind: ClassVar[str] = ""
    #: One-line story for tables and docs; set by each subclass.
    description: ClassVar[str] = ""
    #: Whether the scheme actually consumes the calibrated role split.
    uses_split: ClassVar[bool] = False

    def __init__(self, name: str = "") -> None:
        self._name = name or self.kind

    @property
    def name(self) -> str:
        """Registry lookup name; defaults to the scheme kind.

        Passing ``name=...`` to a scheme constructor lets two differently
        configured instances of the same family (say, two tau exponents)
        coexist in the registry and the same tournament.
        """
        return self._name

    @abc.abstractmethod
    def pools(self, split: SchemeSplit) -> Tuple[PoolSpec, ...]:
        """The scheme's budget slices for one calibrated split."""

    def make_rule(self, b_i: float, split: SchemeSplit) -> RewardRule:
        """A scalar :class:`RewardRule` paying ``B_i`` under this scheme.

        The default interprets :meth:`pools` with :class:`PooledRule`;
        adapter schemes override this to return the pre-existing mechanism
        implementation they wrap.
        """
        return PooledRule(self.pools(split), b_i)

    def param_dict(self) -> Dict[str, Any]:
        """The scheme's configuration as plain JSON data (default: none)."""
        return {}

    def to_params(self) -> Dict[str, Any]:
        """Serialized form carried by sweep shards and cache keys."""
        return {"kind": self.kind, "name": self.name, "params": self.param_dict()}

    @classmethod
    def from_param_dict(cls, params: Mapping[str, Any], name: str = "") -> "RewardScheme":
        """Rebuild an instance from :meth:`param_dict` output."""
        return cls(name=name, **dict(params))
