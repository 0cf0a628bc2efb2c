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

The pools are the only declaration of what a scheme pays; the runtime
reads them through :mod:`repro.schemes.deviation`:

* its closed-form kernel folds them as batched numpy algebra over whole
  populations at once — the path every audit and the streamed dynamics
  share;
* its :func:`~repro.schemes.deviation.pool_tables` also back the scenario
  engine's small array round game
  (:class:`~repro.scenarios.dynamics.RoundGame`).

The test suite reads the same pools player by player on the scalar
``AlgorandGame`` (``tests/scalar_game``, via ``tests/oracles.py``) — the
correctness oracle both readings are held to.

Because a unilateral deviation moves exactly one player between pools,
deviation payoffs have a closed form in the pool totals; that is what
makes the audit engine vectorizable for *any* scheme declared this way.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum
from typing import Any, ClassVar, Dict, FrozenSet, Mapping, Tuple

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
