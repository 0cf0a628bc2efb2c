"""The closed-form unilateral-deviation kernel behind every IC verdict.

A unilateral deviation moves one agent between a scheme's pools and can
at most flip the block predicate, so every agent's deviation payoff has a
closed form in the pool totals (Theorems 2-3, for any pooled scheme).
This module holds that algebra once for the sampled audit
(:mod:`repro.schemes.audit`, its populations flattened into one batch),
the streamed audit (:mod:`repro.schemes.population_audit`) and the
streamed dynamics (:mod:`repro.scenarios.population_dynamics`).  Callers
keep only their totals reduction, their block-break mask and their
block-failure rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.costs import RoleCosts
from repro.errors import AuditError
from repro.schemes.base import RewardScheme, SchemeSplit, WeightKind

#: Role codes used throughout the batched arrays.
LEADER, COMMITTEE, ONLINE = 0, 1, 2

#: Role code -> the role name reports and witnesses carry.
ROLE_NAMES: Dict[int, str] = dict(enumerate(("leader", "committee", "online")))

#: Deviation target order in every gains tensor: to-C, to-D, to-O.
TARGETS: Tuple[str, ...] = ("C", "D", "O")

_ROLE_INDEX = {name: code for code, name in ROLE_NAMES.items()}
_ACTION_INDEX = {"C": 0, "D": 1}


def scaled_costs(cost_scale: float) -> RoleCosts:
    """Paper-default role costs scaled by one grid cell's ``cost_scale``."""
    base = RoleCosts.paper_defaults()
    roles = ("leader", "committee", "online", "sortition")
    return RoleCosts(**{role: getattr(base, role) * cost_scale for role in roles})


def role_costs(costs: RoleCosts) -> np.ndarray:
    """Cooperation cost per role code, shape ``(3,)``."""
    return np.array([costs.leader, costs.committee, costs.online])


# -- pool tables --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PoolTables:
    """A scheme's pools expanded for the array kernel at one split."""

    shape: Tuple[Tuple[object, ...], ...]  # split-independent pool structure
    fractions: np.ndarray  # (P,)
    lookup: np.ndarray  # (P, 3 roles, 2 actions) membership
    kinds: Tuple[WeightKind, ...]
    exponents: np.ndarray  # (P,)


#: The split-independent part of a pool: everything but its fraction.
_POOL_SHAPE = attrgetter("name", "members", "weight", "exponent")


def pool_tables(scheme: RewardScheme, split: SchemeSplit) -> PoolTables:
    """Expand one scheme's pools at ``split`` (membership lookup built once)."""
    pools = scheme.pools(split)
    lookup = np.zeros((len(pools), 3, 2), dtype=bool)
    for p, pool in enumerate(pools):
        for role, action in pool.members:
            lookup[p, _ROLE_INDEX[role], _ACTION_INDEX[action]] = True
    return PoolTables(
        shape=tuple(map(_POOL_SHAPE, pools)),
        fractions=np.array([pool.fraction for pool in pools], dtype=np.float64),
        lookup=lookup,
        kinds=tuple(pool.weight for pool in pools),
        exponents=np.array([pool.exponent for pool in pools], dtype=np.float64),
    )


def split_fractions(
    scheme: RewardScheme, tables: PoolTables, splits: Sequence[SchemeSplit]
) -> np.ndarray:
    """The scheme's pool fractions at each split, shape ``(S, P)``.

    The one check that only fractions depend on the split: anything else
    differing from ``tables`` would be silently audited as ``tables``.
    """
    rows = []
    for split in splits:
        pools = scheme.pools(split)
        if tuple(map(_POOL_SHAPE, pools)) != tables.shape:
            raise AuditError(
                f"scheme {scheme.name!r} changes pool structure with the split; "
                "only pool fractions may depend on (alpha, beta)"
            )
        rows.append([pool.fraction for pool in pools])
    return np.array(rows, dtype=np.float64)


def pool_weight(
    tables: PoolTables, p: int, stake: np.ndarray, coop_cost: Optional[np.ndarray]
) -> np.ndarray:
    """Within-pool weights of pool ``p`` for one batch (may alias an input).

    ``coop_cost`` is each agent's cooperation cost of its role (the COST
    kind's weight; only read when the pool is COST-weighted).
    """
    kind = tables.kinds[p]
    if kind is WeightKind.STAKE:
        return stake
    if kind is WeightKind.EQUAL:
        return np.ones(stake.size)
    if kind is WeightKind.STAKE_POWER:
        return stake ** tables.exponents[p]
    return coop_cost


def pool_weights(
    tables: PoolTables, stake: np.ndarray, coop_cost: Optional[np.ndarray]
) -> np.ndarray:
    """Within-pool weights ``(P, n)`` for one batch (float64)."""
    pools = range(len(tables.kinds))
    return np.array([pool_weight(tables, p, stake, coop_cost) for p in pools])


# -- the agent batch ----------------------------------------------------------


@dataclass
class Agents:
    """One batch of agents: a streamed chunk, sampled populations or the selected."""

    stake: np.ndarray  # float64
    roles: np.ndarray  # int8 role codes
    selected_rows: np.ndarray  # rows whose role is not ONLINE
    coop: np.ndarray  # bool: the profile's cooperation
    action: np.ndarray  # int8: 0=C, 1=D
    coop_cost: np.ndarray  # per-agent cooperation cost of the held role
    sortition_cost: np.ndarray  # per-agent cost of playing D or O
    offset: int = 0  # global index of row 0 (streamed chunks)
    sync: Optional[np.ndarray] = None  # strong-synchrony online agents (streamed)

    @property
    def n(self) -> int:
        """Batch size."""
        return self.stake.size

    @cached_property
    def dense(self) -> bool:
        """Whether leaders and committee make up a large share of the batch."""
        return 4 * self.selected_rows.size > self.n

    @cached_property
    def lookup_index(self) -> np.ndarray:
        """Flat ``(role, action)`` index of every agent into a pool's lookup."""
        return self.roles.astype(np.intp) * 2 + self.action

    @cached_property
    def current_cost(self) -> np.ndarray:
        """Each agent's cost under its profile action."""
        return np.where(self.coop, self.coop_cost, self.sortition_cost)

    @cached_property
    def nan_unless_defect(self) -> np.ndarray:
        """``0.0`` for defectors, ``nan`` for cooperators (an additive mark)."""
        return np.where(self.coop, np.nan, 0.0)

    @cached_property
    def nan_unless_coop(self) -> np.ndarray:
        """``0.0`` for cooperators, ``nan`` for defectors (an additive mark)."""
        return np.where(self.coop, 0.0, np.nan)


def membership(
    lookup: np.ndarray, agents: Agents, action: Optional[int] = None
) -> np.ndarray:
    """``lookup[role, action]`` for every agent of the batch, as a bool mask.

    ``lookup`` is one pool's ``(3 roles, 2 actions)`` membership table and
    ``action`` a fixed action code (``None``: each agent's profile
    action).  A streamed chunk is nearly all online crowd, so its mask
    starts from the online row — a constant or the cooperation mask —
    and patches the selected rows; a dense batch (sampled populations,
    the selected agents) gathers per agent.
    """
    if agents.dense:
        if action is None:
            return lookup.ravel().take(agents.lookup_index)
        return lookup[:, action].take(agents.roles)
    online_c, online_d = lookup[ONLINE]
    if action is not None:
        mask = np.full(agents.n, lookup[ONLINE, action])
    elif online_c == online_d:
        mask = np.full(agents.n, online_c)
    else:
        mask = agents.coop.copy() if online_c else ~agents.coop
    rows = agents.selected_rows
    actions = agents.action[rows] if action is None else action
    mask[rows] = lookup[agents.roles[rows], actions]
    return mask


class PaymentFold:
    """Pool-major unilateral-switch payments through reused ``out=`` buffers.

    Masked (``where=``) ufuncs skip work on a streamed chunk's long uniform
    runs but crawl on a ``dense`` batch's mixed masks, so a dense batch
    zeroes unpayable numerators and folds unmasked: the same bits, as
    numerators and rewards are >= +0.0.
    """

    def __init__(self, n: int, dense: bool) -> None:
        self.dense = dense
        self.new_contribution = np.empty(n)
        self.new_totals = np.empty(n)
        self.scratch = np.empty(n)
        self.payable = np.empty(n, dtype=bool)
        self.positive = np.empty(n, dtype=bool)

    def add(self, total, contribution, weight, member_new, slice_budgets, rewards):
        """Add a pool's payment per budget if each agent *alone* switched.

        ``total`` and each slice budget are scalars or per-agent arrays.
        """
        new_contribution, new_totals = self.new_contribution, self.new_totals
        scratch, payable = self.scratch, self.payable
        np.multiply(weight, member_new, out=new_contribution)
        np.subtract(total, contribution, out=new_totals)
        np.add(new_totals, new_contribution, out=new_totals)
        np.greater(new_totals, 0, out=payable)  # a pool left empty pays nobody
        if self.dense:
            np.multiply(new_contribution, payable, out=new_contribution)
            np.putmask(new_totals, np.logical_not(payable, out=payable), 1.0)
            payable = True
        else:
            positive = np.greater(new_contribution, 0, out=self.positive)
            np.logical_and(payable, positive, out=payable)
        for acc, slice_budget in zip(rewards, slice_budgets):
            np.multiply(slice_budget, new_contribution, out=scratch)
            np.divide(scratch, new_totals, out=scratch, where=payable)
            np.add(acc, scratch, out=acc, where=payable)


def fold_rewards(
    tables: PoolTables,
    agents: Agents,
    totals,
    budgets: Sequence,
    base: bool,
    deviations: Sequence[int],
    weights: Optional[np.ndarray] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
    """Fold base rewards and unilateral C/D payments, pool by pool.

    ``totals[p]`` is pool ``p``'s profile weight and ``budgets[i][p]`` its
    slice budget in budget cell ``i`` (shape ``(P,)``, or ``(P, n)`` when
    the batch mixes populations); ``weights`` optionally pins the
    ``(P, n)`` within-pool weights.  Returns per-budget ``(base, to_c,
    to_d)`` rewards: base (zeros unless ``base``) and, per action in
    ``deviations`` (else zeros), if each agent *alone* played it.  Block
    effects are the caller's rule.  Each element sees the same float
    expressions in the same order for any number of budgets.
    """
    n = agents.n
    base_rewards, *rewards = [[np.zeros(n) for _ in budgets] for _ in range(3)]
    if not base and not deviations:
        return base_rewards, *rewards
    if base:
        # A pool with no weight pays nobody: rate 0 (budget / 1.0 * False).
        positive = totals > 0
        divisor = np.where(positive, totals, 1.0)
        rates = [budget / divisor * positive for budget in budgets]
    contribution = np.empty(n)
    fold = PaymentFold(n, dense=agents.dense)
    scratch = fold.scratch  # free whenever no fold.add is in progress
    for p in range(len(tables.kinds)):
        weight = (
            pool_weight(tables, p, agents.stake, agents.coop_cost)
            if weights is None
            else weights[p]
        )
        lookup = tables.lookup[p]
        np.multiply(weight, membership(lookup, agents), out=contribution)
        if base:
            for acc, rate in zip(base_rewards, rates):
                np.multiply(rate[p], contribution, out=scratch)
                acc += scratch
        pool_budgets = [budget[p] for budget in budgets]
        for action in deviations:
            member_new = membership(lookup, agents, action)
            acc = rewards[action]
            fold.add(totals[p], contribution, weight, member_new, pool_budgets, acc)
    return base_rewards, *rewards


# -- gains --------------------------------------------------------------------


@dataclass
class Gains:
    """One budget cell's gains for a switch to C, D or O (``nan``: no switch)."""

    to_c: np.ndarray
    to_d: np.ndarray
    to_o: np.ndarray


def deviation_gains(
    agents: Agents,
    base: Sequence[np.ndarray],
    rewards_c: Sequence[np.ndarray],
    rewards_d: Sequence[np.ndarray],
) -> List[Gains]:
    """Per-budget gains from folded rewards (consumes the reward buffers).

    ``rewards_d`` must already carry the caller's block-break rule; an
    agent going offline forfeits every reward.
    """
    neg_sortition = np.negative(agents.sortition_cost)
    gains: List[Gains] = []
    for base_utility, to_c, to_d in zip(base, rewards_c, rewards_d):
        base_utility -= agents.current_cost
        to_c -= agents.coop_cost
        to_c -= base_utility
        to_d -= agents.sortition_cost
        to_d -= base_utility
        np.subtract(neg_sortition, base_utility, out=base_utility)
        # Gains are never -0.0 (rewards are >= +0.0 and costs positive),
        # so adding a 0.0 mark is exact; a nan mark hides the entry.
        to_c += agents.nan_unless_defect
        to_d += agents.nan_unless_coop
        gains.append(Gains(to_c=to_c, to_d=to_d, to_o=base_utility))
    return gains
