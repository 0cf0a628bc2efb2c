"""The built-in reward schemes.

Five families ship with the framework — the paper's two mechanisms as
adapters over their pre-existing implementations, plus three schemes from
the wider design space the related work maps out:

* ``foundation`` — the Algorand Foundation's naive stake-proportional
  sharing (paper Eq. 3, game G_Al).  Theorem 2's counterexample: defectors
  are paid the same per-stake rate as cooperators.
* ``role_based`` — the paper's role-based split (Eq. 5, game G_Al+): the
  alpha/beta/gamma slices by *performed* role, incentive compatible above
  the Theorem 3 bound.
* ``irs`` — an IRS-style scheme after Liao, Golab & Zahedi (2023): a
  reimbursement slice pays performers in proportion to the cost their role
  incurred, and the remainder is shared stake-proportionally among
  cooperators only.  Defectors receive nothing.
* ``axiomatic_tau`` — a proportional-allocation family in the spirit of
  Chen, Papadimitriou & Roughgarden (2019): cooperators share the whole
  budget in proportion to ``stake ** tau``.  ``tau = 1`` is cooperator-
  proportional sharing, ``tau = 0`` an equal dividend; intermediate
  exponents trade stake-monotonicity against whale concentration.
* ``hybrid`` — a configurable mix: fixed per-head bonuses for performing
  leaders and committee members, with the remainder distributed
  stake-proportionally to everyone online (defectors included, like the
  Foundation baseline it degrades to at ``bonus_fraction = 0``).

Every scheme is registered with the :func:`repro.schemes.registry.scheme`
decorator.  The registry imports this module on its first lookup, so
``get_scheme("irs")`` works anywhere — including spawned worker processes
that never imported it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.errors import SchemeError
from repro.schemes.base import (
    ACTIONS,
    ROLES,
    PoolSpec,
    RewardScheme,
    SchemeSplit,
    WeightKind,
    validate_pools,
)
from repro.schemes.registry import scheme

if TYPE_CHECKING:  # the scalar game is the oracle path, imported where it runs
    from repro.core.game import RewardRule

#: Every (role, action) pair of an online player — the Foundation pool.
_ALL_ONLINE = frozenset((role, action) for role in ROLES for action in ACTIONS)

#: Players who performed no leader or committee task — the gamma pool.
_GAMMA_POOL = frozenset(
    {("leader", "D"), ("committee", "D"), ("online", "C"), ("online", "D")}
)

#: Performing (cooperating) players of each role.
_PERFORMERS = frozenset((role, "C") for role in ROLES)


@scheme
class FoundationScheme(RewardScheme):
    """Adapter over the paper's naive stake-proportional sharing."""

    kind = "foundation"
    description = "stake-proportional to everyone online, roles ignored (Eq. 3)"

    def pools(self, split: SchemeSplit) -> Tuple[PoolSpec, ...]:
        """One stake-proportional pool paying every online player."""
        return validate_pools(
            (PoolSpec(name="online", fraction=1.0, members=_ALL_ONLINE),)
        )

    def make_rule(self, b_i: float, split: SchemeSplit) -> RewardRule:
        # True adapter: the original G_Al rule, not the pool interpreter.
        """The original G_Al ``FoundationRule`` (true adapter)."""
        from repro.core.game import FoundationRule

        return FoundationRule(b_i=b_i)


@scheme
class RoleBasedScheme(RewardScheme):
    """Adapter over the paper's role-based alpha/beta/gamma split."""

    kind = "role_based"
    description = "alpha/beta/gamma split by performed role (Eq. 5, Theorem 3)"
    uses_split = True

    def pools(self, split: SchemeSplit) -> Tuple[PoolSpec, ...]:
        """The paper's alpha/beta/gamma pools by performed role (Eq. 5)."""
        return validate_pools(
            (
                PoolSpec(
                    name="leaders",
                    fraction=split.alpha,
                    members=frozenset({("leader", "C")}),
                ),
                PoolSpec(
                    name="committee",
                    fraction=split.beta,
                    members=frozenset({("committee", "C")}),
                ),
                PoolSpec(name="gamma", fraction=split.gamma, members=_GAMMA_POOL),
            )
        )

    def make_rule(self, b_i: float, split: SchemeSplit) -> RewardRule:
        # True adapter: the original G_Al+ rule, not the pool interpreter.
        """The original G_Al+ ``RoleBasedRule`` (true adapter)."""
        from repro.core.game import RoleBasedRule

        return RoleBasedRule(alpha=split.alpha, beta=split.beta, b_i=b_i)


@scheme
class IRSScheme(RewardScheme):
    """IRS-style cost reimbursement plus cooperator-proportional residual.

    ``refund_fraction`` of the budget reimburses performers in proportion
    to their role's cooperation cost (so a leader's block proposition is
    refunded at a higher rate than an online node's fixed work); the
    remaining ``1 - refund_fraction`` is shared stake-proportionally among
    cooperators only.  Defectors are paid nothing — the scheme punishes
    shirking by exclusion rather than by a gamma-pool discount.
    """

    kind = "irs"
    description = "cost reimbursement + stake-proportional residual, cooperators only"

    def __init__(self, refund_fraction: float = 0.3, name: str = "") -> None:
        super().__init__(name)
        if not 0.0 <= refund_fraction <= 1.0:
            raise SchemeError(
                f"refund_fraction must be in [0, 1], got {refund_fraction}"
            )
        self.refund_fraction = refund_fraction

    def pools(self, split: SchemeSplit) -> Tuple[PoolSpec, ...]:
        """A cost-reimbursement slice plus a cooperator-proportional residual."""
        pools = []
        if self.refund_fraction > 0:
            pools.append(
                PoolSpec(
                    name="reimburse",
                    fraction=self.refund_fraction,
                    members=_PERFORMERS,
                    weight=WeightKind.COST,
                )
            )
        if self.refund_fraction < 1:
            pools.append(
                PoolSpec(
                    name="residual",
                    fraction=1.0 - self.refund_fraction,
                    members=_PERFORMERS,
                    weight=WeightKind.STAKE,
                )
            )
        return validate_pools(tuple(pools))

    def param_dict(self) -> Dict[str, Any]:
        """The reimbursement fraction, for shards and cache keys."""
        return {"refund_fraction": self.refund_fraction}


@scheme
class AxiomaticTauScheme(RewardScheme):
    """Proportional-allocation family: cooperators share ``B_i`` by stake**tau."""

    kind = "axiomatic_tau"
    description = "cooperators share the budget in proportion to stake**tau"

    def __init__(self, tau: float = 0.5, name: str = "") -> None:
        super().__init__(name)
        if tau < 0:
            raise SchemeError(f"tau must be >= 0, got {tau}")
        self.tau = tau

    def pools(self, split: SchemeSplit) -> Tuple[PoolSpec, ...]:
        """One pool: cooperators share the budget by ``stake ** tau``."""
        return validate_pools(
            (
                PoolSpec(
                    name="cooperators",
                    fraction=1.0,
                    members=_PERFORMERS,
                    weight=WeightKind.STAKE_POWER,
                    exponent=self.tau,
                ),
            )
        )

    def param_dict(self) -> Dict[str, Any]:
        """The tau exponent, for shards and cache keys."""
        return {"tau": self.tau}


@scheme
class HybridScheme(RewardScheme):
    """Fixed per-head role bonuses plus a proportional remainder.

    ``bonus_fraction`` of the budget funds equal-share bonuses —
    ``leader_share`` of it for performing leaders, the rest for performing
    committee members — and the remaining budget is distributed
    stake-proportionally to everyone online, exactly like the Foundation
    baseline.  At ``bonus_fraction = 0`` the scheme *is* the baseline;
    raising it buys back role incentives one slice at a time.
    """

    kind = "hybrid"
    description = "per-head role bonuses + Foundation-style proportional remainder"

    def __init__(
        self,
        bonus_fraction: float = 0.3,
        leader_share: float = 0.5,
        name: str = "",
    ) -> None:
        super().__init__(name)
        if not 0.0 <= bonus_fraction < 1.0:
            raise SchemeError(
                f"bonus_fraction must be in [0, 1), got {bonus_fraction}"
            )
        if not 0.0 < leader_share < 1.0:
            raise SchemeError(
                f"leader_share must be in (0, 1), got {leader_share}"
            )
        self.bonus_fraction = bonus_fraction
        self.leader_share = leader_share

    def pools(self, split: SchemeSplit) -> Tuple[PoolSpec, ...]:
        """Per-head performer bonuses plus a stake-proportional remainder."""
        pools = []
        if self.bonus_fraction > 0:
            pools.append(
                PoolSpec(
                    name="leader_bonus",
                    fraction=self.bonus_fraction * self.leader_share,
                    members=frozenset({("leader", "C")}),
                    weight=WeightKind.EQUAL,
                )
            )
            pools.append(
                PoolSpec(
                    name="committee_bonus",
                    fraction=self.bonus_fraction * (1.0 - self.leader_share),
                    members=frozenset({("committee", "C")}),
                    weight=WeightKind.EQUAL,
                )
            )
        pools.append(
            PoolSpec(
                name="remainder",
                fraction=1.0 - self.bonus_fraction,
                members=_ALL_ONLINE,
            )
        )
        return validate_pools(tuple(pools))

    def param_dict(self) -> Dict[str, Any]:
        """The bonus split parameters, for shards and cache keys."""
        return {
            "bonus_fraction": self.bonus_fraction,
            "leader_share": self.leader_share,
        }
