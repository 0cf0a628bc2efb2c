"""The closed-form unilateral-deviation kernel behind every IC verdict.

A unilateral deviation moves one agent between a scheme's pools and can
at most flip the block predicate, so every agent's deviation payoff has a
closed form in the pool totals (Theorems 2-3, for any pooled scheme).
This module holds that algebra once for the sampled audit
(:mod:`repro.schemes.audit`, its populations flattened into one batch),
the streamed audit (:mod:`repro.schemes.population_audit`) and the
streamed dynamics (:mod:`repro.scenarios.population_dynamics`), and with
it the block rule of Definitions 2-4 (:func:`block_holds`): a profile's
:class:`Census` says whether it produces a block and which agents' moves
flip that.  Callers keep only their totals and census reductions.

:func:`fold_rewards` folds only what its caller reads.  An IC verdict
needs each agent's *switch* — the payment for the action it does not
play (C for defectors, D for cooperators; :data:`SWITCH`) — plus the
closed-form O gain, so both audits fold one switch payment per agent
and rebuild the ``nan``-marked to-C/to-D view (:meth:`Gains.targets`)
only where a caller wants the full tensor.  The dynamics keep the two
fixed-action folds ``(0, 1)``: the replicator and the best response read
both payoffs of every agent, the one it plays included.
:func:`block_fold` applies the block rule to either: it folds the whole
batch when the profile produces a block, and only the agents whose move
restores it when it does not.

Pools are folded one at a time, each the cheapest way its crowd (online
agents) allows; see :class:`PaymentFold`.  Its buffers and the reward
accumulators live in a :class:`~repro.populations.threads.Lane`: a
streamed caller passes one per slice thread, others get a temporary one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.costs import RoleCosts
from repro.errors import AuditError
from repro.populations.threads import Lane
from repro.schemes.base import RewardScheme, SchemeSplit, WeightKind

#: Role codes used throughout the batched arrays.
LEADER, COMMITTEE, ONLINE = 0, 1, 2

#: Role code -> the role name reports and witnesses carry.
ROLE_NAMES: Dict[int, str] = dict(enumerate(("leader", "committee", "online")))

#: Deviation target order in every gains tensor: to-C, to-D, to-O.
TARGETS: Tuple[str, ...] = ("C", "D", "O")

#: Deviation code for "each agent switches to the action it does not
#: play"; the codes 0 and 1 fix the action (C, D) for every agent.
SWITCH = 2

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
    sync: Optional[np.ndarray] = None  # strong-synchrony membership

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
    def switch_index(self) -> np.ndarray:
        """Flat ``(role, other action)`` index: the lookup entry of a switch."""
        return self.lookup_index ^ 1

    @cached_property
    def current_cost(self) -> np.ndarray:
        """Each agent's cost under its profile action."""
        return np.where(self.coop, self.coop_cost, self.sortition_cost)

    @cached_property
    def switch_cost(self) -> np.ndarray:
        """Each agent's cost under the action it does not play."""
        return np.where(self.coop, self.sortition_cost, self.coop_cost)

    def subset(self, rows: np.ndarray) -> "Agents":
        """The batch's ``rows`` alone, as a batch of their own."""
        roles = self.roles[rows]
        return Agents(
            stake=self.stake[rows],
            roles=roles,
            selected_rows=np.flatnonzero(roles != ONLINE),
            coop=self.coop[rows],
            action=self.action[rows],
            coop_cost=self.coop_cost[rows],
            sortition_cost=self.sortition_cost[rows],
        )

    @cached_property
    def selected(self) -> "Agents":
        """The batch's selected rows alone, as a batch of their own."""
        return self.subset(self.selected_rows)

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
    ``action`` a fixed action code, :data:`SWITCH` (each agent's other
    action) or ``None`` (each agent's profile action).  A streamed chunk
    is nearly all online crowd, so its mask starts from the online row —
    a constant, the cooperation mask or its complement — and patches the
    selected rows; a dense batch (sampled populations, the selected
    agents) gathers per agent.
    """
    if agents.dense:
        if action is None:
            return lookup.ravel().take(agents.lookup_index)
        if action == SWITCH:
            return lookup.ravel().take(agents.switch_index)
        return lookup[:, action].take(agents.roles)
    online_c, online_d = lookup[ONLINE]
    if action is not None and action != SWITCH:
        mask = np.full(agents.n, lookup[ONLINE, action])
    elif online_c == online_d:
        mask = np.full(agents.n, online_c)
    elif action is None:
        mask = agents.coop.copy() if online_c else ~agents.coop
    else:  # a switch: the crowd joins with its other action
        mask = ~agents.coop if online_c else agents.coop.copy()
    rows = agents.selected_rows
    if action is None:
        actions = agents.action[rows]
    elif action == SWITCH:
        actions = agents.action[rows] ^ 1
    else:
        actions = action
    mask[rows] = lookup[agents.roles[rows], actions]
    return mask


class PaymentFold:
    """Pool-major unilateral-switch payments through reused ``out=`` buffers.

    Each pool is folded the cheapest way its online row (``lookup[ONLINE]``)
    allows, with the same per-element float expressions every way:

    * **no online member** — the crowd's payments from the pool are all
      zero, so the pool is folded over the batch's selected rows alone:
      they are gathered, folded, and scattered back before the next pool
      (pool order is the summation order);
    * **a uniform deviation mask** on the crowd (a fixed action, or a
      switch under a pool that takes both crowd actions) — masked
      (``where=``) ufuncs, which skip a streamed chunk's long runs of
      agents the pool cannot pay;
    * **a mixed mask** (a switch under a pool that takes one crowd action
      only, like the cooperators-only pools of IRS and stake^tau, or any
      ``dense`` batch) — masked ufuncs crawl on mixed masks, so unpayable
      numerators are zeroed and the fold runs unmasked: the same bits,
      as numerators and rewards are >= +0.0.
    """

    def __init__(
        self,
        tables: PoolTables,
        agents: Agents,
        deviations: Sequence[int],
        lane: Lane,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        self.tables = tables
        self.agents = agents
        self.deviations = deviations
        self.weights = weights
        n = agents.n
        self.contribution = lane.empty("contribution", n)
        self.new_contribution = lane.empty("new_contribution", n)
        self.new_totals = lane.empty("new_totals", n)
        self.scratch = lane.empty("scratch", n)
        self.payable = lane.empty("payable", n, bool)
        self.positive = lane.empty("positive", n, bool)
        self._selected: Optional[PaymentFold] = None

    def pool(self, p, total, pool_budgets, pool_rates, base_rewards, rewards):
        """Fold pool ``p``: base payments at ``pool_rates``, then each deviation.

        ``total``, each budget and each rate are scalars or per-agent
        arrays; ``rewards[i]`` holds the per-budget accumulators of
        deviation ``deviations[i]``.
        """
        rows = self.agents.selected_rows
        if self.tables.lookup[p, ONLINE].any() or rows.size == self.agents.n:
            self._pool(p, total, pool_budgets, pool_rates, base_rewards, rewards)
            return
        if not rows.size:
            return
        if self._selected is None:
            weights = None if self.weights is None else self.weights[:, rows]
            self._selected = PaymentFold(
                self.tables, self.agents.selected, self.deviations, Lane(), weights
            )

        def gather(values):
            return values[rows] if np.ndim(values) else values

        accumulators = [base_rewards, *rewards]
        gathered = [[acc[rows] for acc in accs] for accs in accumulators]
        self._selected._pool(
            p,
            gather(total),
            [gather(budget) for budget in pool_budgets],
            [gather(rate) for rate in pool_rates],
            gathered[0],
            gathered[1:],
        )
        for accs, sub in zip(accumulators, gathered):
            for acc, values in zip(accs, sub):
                acc[rows] = values

    def _pool(self, p, total, pool_budgets, pool_rates, base_rewards, rewards):
        agents, tables = self.agents, self.tables
        lookup = tables.lookup[p]
        weight = (
            pool_weight(tables, p, agents.stake, agents.coop_cost)
            if self.weights is None
            else self.weights[p]
        )
        contribution, scratch = self.contribution, self.scratch
        np.multiply(weight, membership(lookup, agents), out=contribution)
        for acc, rate in zip(base_rewards, pool_rates):
            np.multiply(rate, contribution, out=scratch)
            acc += scratch
        online_c, online_d = lookup[ONLINE]
        for action, accs in zip(self.deviations, rewards):
            masked = not agents.dense and (action != SWITCH or online_c == online_d)
            member_new = membership(lookup, agents, action)
            self.add(total, weight, member_new, pool_budgets, accs, masked)

    def add(self, total, weight, member_new, slice_budgets, rewards, masked):
        """Add a pool's payment per budget if each agent *alone* switched.

        ``total`` and each slice budget are scalars or per-agent arrays;
        :attr:`contribution` holds each agent's current weight in the pool.
        """
        new_contribution, new_totals = self.new_contribution, self.new_totals
        scratch, payable = self.scratch, self.payable
        np.multiply(weight, member_new, out=new_contribution)
        np.subtract(total, self.contribution, out=new_totals)
        np.add(new_totals, new_contribution, out=new_totals)
        np.greater(new_totals, 0, out=payable)  # a pool left empty pays nobody
        if masked:
            positive = np.greater(new_contribution, 0, out=self.positive)
            np.logical_and(payable, positive, out=payable)
        else:
            np.multiply(new_contribution, payable, out=new_contribution)
            np.putmask(new_totals, np.logical_not(payable, out=payable), 1.0)
            payable = True
        for acc, slice_budget in zip(rewards, slice_budgets):
            np.multiply(slice_budget, new_contribution, out=scratch)
            np.divide(scratch, new_totals, out=scratch, where=payable)
            np.add(acc, scratch, out=acc, where=payable)


def _accumulators(
    lane: Lane, n: int, budgets: int, deviations: int, base: bool
) -> Tuple[List[np.ndarray], ...]:
    """Zeroed base, then per-deviation, rewards (unused base ones unfaulted)."""
    return tuple(
        [
            lane.zeros(("rewards", d, i), n) if base or d else np.zeros(n)
            for i in range(budgets)
        ]
        for d in range(deviations + 1)
    )


def fold_rewards(
    tables: PoolTables,
    agents: Agents,
    totals,
    budgets: Sequence,
    base: bool,
    deviations: Sequence[int],
    weights: Optional[np.ndarray] = None,
    lane: Optional[Lane] = None,
) -> Tuple[List[np.ndarray], ...]:
    """Fold base rewards and unilateral deviation payments, pool by pool.

    ``totals[p]`` is pool ``p``'s profile weight and ``budgets[i][p]`` its
    slice budget in budget cell ``i`` (shape ``(P,)``, or ``(P, n)`` when
    the batch mixes populations); ``weights`` optionally pins the
    ``(P, n)`` within-pool weights.  Returns the per-budget base rewards
    (zeros unless ``base``), then, per code in ``deviations`` (0=C, 1=D,
    :data:`SWITCH`), the per-budget rewards if each agent *alone* played
    it, block or no block (:func:`block_fold` applies the block rule).
    Each element sees the same float expressions in the same order for
    any number of budgets, whichever way (:class:`PaymentFold`) its
    pools are folded and whichever rows the batch holds.  The returned
    accumulators live in ``lane`` (a temporary one by default).
    """
    lane = Lane() if lane is None else lane
    base_rewards, *rewards = _accumulators(
        lane, agents.n, len(budgets), len(deviations), base
    )
    if not base and not deviations:
        return (base_rewards, *rewards)
    if base:
        # A pool with no weight pays nobody: rate 0 (budget / 1.0 * False).
        positive = totals > 0
        divisor = np.where(positive, totals, 1.0)
        rates = [budget / divisor * positive for budget in budgets]
    fold = PaymentFold(tables, agents, deviations, lane, weights)
    for p in range(len(tables.kinds)):
        fold.pool(
            p,
            totals[p],
            [budget[p] for budget in budgets],
            [rate[p] for rate in rates] if base else [],
            base_rewards,
            rewards,
        )
    return (base_rewards, *rewards)


# -- the block rule -----------------------------------------------------------


def block_holds(leaders, tally, threshold, sync_defectors):
    """Definitions 2-4: a cooperating leader, a quorum, no sync defector.

    The cooperating committee stake must exceed the quorum threshold
    strictly.  Elementwise on arrays.
    """
    return (leaders >= 1) & (tally > threshold) & (sync_defectors == 0)


@dataclass(frozen=True)
class Census:
    """One profile's counts for :func:`block_holds`.

    Scalars describe one population (the streamed paths); per-row arrays
    give each row of a batch its own population's (the sampled audit).
    """

    leaders: Any  # cooperating leaders
    tally: Any  # cooperating committee stake
    threshold: Any  # quorum x total committee stake
    sync_defectors: Any  # strong-synchrony members playing D

    @property
    def holds(self):
        """Whether the profile itself yields a block."""
        return block_holds(
            self.leaders, self.tally, self.threshold, self.sync_defectors
        )

    def flips(self, agents: Agents, to: int) -> np.ndarray:
        """Rows whose lone move to ``to`` (0=C, 1=D, SWITCH) flips the block.

        A move to D takes the agent out of its role's count and, for a
        synchrony member, adds a defector; a move to C does the reverse.
        Crowd rows move the synchrony count alone, so the rule is asked
        at one defector more and one fewer, and the crowd is scanned
        only for a move that flips it.  Selected rows get exact counts.
        """
        held, rows = self.holds, agents.selected_rows
        crowd = None
        for step, moves in (
            (1, to != 0),  # a cooperator's move to D
            (-1, to != 1 and np.any(self.sync_defectors)),  # a defector's to C
        ):
            flip = held != block_holds(
                self.leaders, self.tally, self.threshold, self.sync_defectors + step
            )
            if agents.sync is None or not moves or not np.any(flip):
                continue
            mask = agents.sync & (agents.coop if step > 0 else ~agents.coop) & flip
            crowd = mask if crowd is None else crowd | mask

        def at(values):
            return values[rows] if np.ndim(values) else values

        action = agents.action[rows].astype(np.int64)
        step = (action ^ 1 if to == SWITCH else to) - action
        roles = agents.roles[rows]
        committee_step = np.where(roles == COMMITTEE, step * agents.stake[rows], 0.0)
        sync = 0 if agents.sync is None else agents.sync[rows]
        flipped = at(held) != block_holds(
            at(self.leaders) - (roles == LEADER) * step,
            at(self.tally) - committee_step,
            at(self.threshold),
            at(self.sync_defectors) + sync * step,
        )
        if crowd is None:
            return rows[flipped]
        crowd[rows] = flipped
        return np.flatnonzero(crowd)


def block_fold(
    tables: PoolTables,
    agents: Agents,
    census: Census,
    totals,
    budgets: Sequence,
    base: bool,
    deviations: Sequence[int],
    weights: Optional[np.ndarray] = None,
    flips: Optional[Sequence[np.ndarray]] = None,
    lane: Optional[Lane] = None,
) -> Tuple[List[np.ndarray], ...]:
    """:func:`fold_rewards` under the block rule: no block, no rewards.

    If ``census`` holds, the batch is folded whole and each deviation's
    payments are zeroed where the move breaks the block; if it fails,
    base rewards are zero and only the rows whose move restores the
    block are folded (:meth:`Agents.subset`), at the pool totals of
    one population.  ``flips`` may pass :meth:`Census.flips` per
    deviation, shared by several folds of one batch.  The restoring
    rows vary in number, so their fold gets a temporary lane.
    """
    lane = Lane() if lane is None else lane
    held = np.all(census.holds)
    if held:
        folded = fold_rewards(
            tables, agents, totals, budgets, base, deviations, weights, lane
        )
    else:
        folded = _accumulators(lane, agents.n, len(budgets), len(deviations), base)
    for i, (to, accs) in enumerate(zip(deviations, folded[1:])):
        rows = census.flips(agents, to) if flips is None else flips[i]
        if held:
            for acc in accs:
                acc[rows] = 0.0
        elif rows.size:
            subset = agents.subset(rows)
            _, restored = fold_rewards(tables, subset, totals, budgets, False, (to,))
            for acc, values in zip(accs, restored):
                acc[rows] = values
    return folded


# -- gains --------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationWitness:
    """One concrete profitable deviation found by the audit."""

    population: int
    player: int
    role: str
    stake: float
    from_strategy: str
    to_strategy: str
    gain: float

    def describe(self) -> str:
        """Compact rendering shared by audit reports and league tables."""
        return (
            f"{self.role} {self.from_strategy}->{self.to_strategy} "
            f"+{self.gain:.3g}"
        )


@dataclass
class Gains:
    """One budget cell's gains for each agent's switch and for going offline.

    ``switch`` is the gain of the action the agent does not play (to C
    for defectors, to D for cooperators); ``to_o`` the gain of going
    offline.  Neither holds a ``nan``.
    """

    switch: np.ndarray
    to_o: np.ndarray

    def targets(self, agents: Agents) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(to_c, to_d, to_o)`` view, ``nan`` marking the current action.

        Gains are never -0.0 (rewards are >= +0.0 and costs positive), so
        adding a 0.0 mark is exact; a ``nan`` mark hides the entry.
        """
        to_c = self.switch + agents.nan_unless_defect
        to_d = self.switch + agents.nan_unless_coop
        return to_c, to_d, self.to_o


def deviation_gains(
    agents: Agents, base: Sequence[np.ndarray], switch: Sequence[np.ndarray]
) -> List[Gains]:
    """Per-budget gains from folded rewards (consumes the reward buffers).

    ``base`` and ``switch`` hold the base and :data:`SWITCH` rewards of
    :func:`block_fold`, the block rule already applied; an agent going
    offline forfeits every reward.
    """
    gains: List[Gains] = []
    for base_utility, gain in zip(base, switch):
        base_utility -= agents.current_cost
        gain -= agents.switch_cost
        gain -= base_utility
        # -u - c_so in place: (-u) + (-c_so), the same bits as (-c_so) - u.
        np.negative(base_utility, out=base_utility)
        base_utility -= agents.sortition_cost
        gains.append(Gains(switch=gain, to_o=base_utility))
    return gains
