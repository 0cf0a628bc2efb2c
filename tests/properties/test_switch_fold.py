"""Property tests: the switch fold equals the two-fold kernel it replaced.

Both audits fold one payment per agent — for the action it does not
play (:data:`~repro.schemes.deviation.SWITCH`) — fold pools that no
online agent can join over the batch's selected rows alone, and total
pass 1 from crowd rows shared across schemes.  These suites hold each
piece to a plain reference of the kernel it replaced, bit for bit
(compared as ``uint64`` views):

* the fold, on dense and streamed batches, for every registered scheme
  and a synthetic scheme with online-C-only, online-D-only, both-action
  and crowdless pools: the switch payments equal the reference's to-C
  payments of defectors and to-D payments of cooperators, the fixed
  C/D folds the dynamics keep equal the reference's, and the gains
  equal the reference's non-``nan`` entries;
* crowdless pools leave every crowd row at ``+0.0``;
* pass 1's shared crowd rows equal per-scheme ``block_row_sums``;
* streamed audit chunks, including failed-block and sole-sync-defector
  profiles (whose one restorer the block rule folds alone), equal the
  old two-fold chunk rule, and the verdict's witness, count and shirk
  gain match it at one and two threads.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.populations import SEED_BLOCK, PopulationSpec
from repro.populations import threads as threads_module
from repro.populations.arrays import add_blocks, block_row_sums, blockwise_row_sums
from repro.schemes.base import PoolSpec, RewardScheme, SchemeSplit, WeightKind
from repro.schemes.deviation import (
    COMMITTEE,
    LEADER,
    ONLINE,
    SWITCH,
    TARGETS,
    Agents,
    deviation_gains,
    fold_rewards,
    pool_tables,
    pool_weight,
    pool_weights,
    role_costs,
    scaled_costs,
)
from repro.schemes.population_audit import (
    PopulationAuditConfig,
    _build_structure,
    _chunk_context,
    _chunk_gains,
    _chunks,
    _crowd_partials,
    audit_population_grid,
)
from repro.schemes.registry import get_scheme, scheme_names


class _Synthetic(RewardScheme):
    """One pool of every crowd shape the fold distinguishes (unregistered)."""

    kind = "synthetic_switch"
    description = "test-only pool shapes"

    def pools(self, split):
        return (
            # axiomatic_tau's crowd row at another exponent: the shared
            # pass-1 rows must keep the two apart.
            PoolSpec(
                "crowd_c",
                0.25,
                frozenset({("online", "C"), ("leader", "C")}),
                weight=WeightKind.STAKE_POWER,
                exponent=0.75,
            ),
            PoolSpec(
                "crowd_d",
                0.2,
                frozenset({("online", "D"), ("committee", "C")}),
                weight=WeightKind.COST,
            ),
            PoolSpec(
                "both",
                0.25,
                frozenset({("online", "C"), ("online", "D"), ("committee", "D")}),
                weight=WeightKind.STAKE_POWER,
                exponent=0.5,
            ),
            PoolSpec(
                "roles",
                0.15,
                frozenset({("leader", "C"), ("committee", "C")}),
                weight=WeightKind.EQUAL,
            ),
            PoolSpec(
                "roles_tau",
                0.15,
                frozenset({("committee", "C"), ("leader", "D")}),
                weight=WeightKind.STAKE_POWER,
                exponent=1.5,
            ),
        )


SYNTHETIC = _Synthetic()
SCHEMES = [get_scheme(name) for name in scheme_names()] + [SYNTHETIC]
SCHEME_IDS = [scheme.name for scheme in SCHEMES]
_SPLIT = SchemeSplit(0.3, 0.25)


def bits(values) -> np.ndarray:
    """A float64 array's bit patterns (so ``nan`` and ``-0.0`` compare too)."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def assert_bits(actual, expected) -> None:
    np.testing.assert_array_equal(bits(actual), bits(expected))


# -- the replaced kernel, written out ------------------------------------------


def reference_fold(tables, agents, totals, budgets, weights=None):
    """The two-fold kernel: base, to-C and to-D payments of every agent.

    Every pool folds over the whole batch, unmasked, for both actions.
    """
    n = agents.n
    positive = totals > 0
    divisor = np.where(positive, totals, 1.0)
    rates = [budget / divisor * positive for budget in budgets]
    base = [np.zeros(n) for _ in budgets]
    paid = {0: [np.zeros(n) for _ in budgets], 1: [np.zeros(n) for _ in budgets]}
    for p in range(len(tables.kinds)):
        lookup = tables.lookup[p]
        weight = (
            pool_weight(tables, p, agents.stake, agents.coop_cost)
            if weights is None
            else weights[p]
        )
        contribution = weight * lookup[agents.roles, agents.action]
        for acc, rate in zip(base, rates):
            acc += rate[p] * contribution
        for action, accs in paid.items():
            new_contribution = weight * lookup[agents.roles, action]
            new_totals = totals[p] - contribution + new_contribution
            payable = new_totals > 0
            new_contribution = new_contribution * payable
            new_totals = np.where(payable, new_totals, 1.0)
            for acc, budget in zip(accs, budgets):
                acc += budget[p] * new_contribution / new_totals
    return base, paid[0], paid[1]


def reference_gains(agents, base, paid_c, paid_d):
    """``(to_c, to_d, to_o)`` from reference payments, ``nan`` on the held action."""
    current = np.where(agents.coop, agents.coop_cost, agents.sortition_cost)
    base_utility = base - current
    to_c = paid_c - agents.coop_cost - base_utility
    to_d = paid_d - agents.sortition_cost - base_utility
    to_o = np.negative(agents.sortition_cost) - base_utility
    to_c[agents.coop] = np.nan
    to_d[~agents.coop] = np.nan
    return to_c, to_d, to_o


# -- random batches -----------------------------------------------------------


@st.composite
def batches(draw):
    """A random agent batch: streamed-shaped (few selected) or dense."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    dense = draw(st.booleans())
    low, high = (n // 3, n + 1) if dense else (0, n // 10 + 2)
    k = min(int(rng.integers(low, high)), n)
    selected = np.sort(rng.choice(n, size=k, replace=False))
    roles = np.full(n, ONLINE, dtype=np.int8)
    roles[selected] = rng.choice([LEADER, COMMITTEE], size=k)
    coop = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    cost_multiplier = rng.uniform(0.5, 2.0, n)
    costs = scaled_costs(float(rng.uniform(0.5, 2.0)))
    stake = rng.pareto(1.5, n) * 10.0 + 1.0
    if draw(st.booleans()):
        stake[rng.random(n) < 0.2] = 0.0  # zero-weight agents empty pools
    agents = Agents(
        stake=stake,
        roles=roles,
        selected_rows=selected,
        coop=coop,
        action=(~coop).astype(np.int8),
        coop_cost=role_costs(costs).take(roles) * cost_multiplier,
        sortition_cost=costs.sortition * cost_multiplier,
    )
    return agents, rng


def _totals_and_budgets(tables, agents, rng, per_agent, n_budgets, empty):
    """Profile totals of the batch (some pools forced empty) and budgets."""
    weights = pool_weights(tables, agents.stake, agents.coop_cost)
    member = tables.lookup[:, agents.roles, agents.action]
    totals = (weights * member).sum(axis=1)
    totals[empty[: totals.size]] = 0.0
    budgets = [
        tables.fractions * float(rng.uniform(0.5, 20.0)) for _ in range(n_budgets)
    ]
    if per_agent:  # the sampled audit's (P, n) layout
        totals = np.repeat(totals[:, None], agents.n, axis=1)
        budgets = [np.repeat(b[:, None], agents.n, axis=1) for b in budgets]
    return totals, budgets


class TestSwitchFold:
    @settings(max_examples=60, deadline=None)
    @given(
        batch=batches(),
        scheme=st.sampled_from(SCHEMES),
        per_agent=st.booleans(),
        n_budgets=st.integers(1, 2),
        empty=st.lists(st.booleans(), min_size=5, max_size=5),
        pin_weights=st.booleans(),
    )
    def test_switch_equals_two_fold_reference(
        self, batch, scheme, per_agent, n_budgets, empty, pin_weights
    ):
        agents, rng = batch
        tables = pool_tables(scheme, _SPLIT)
        totals, budgets = _totals_and_budgets(
            tables, agents, rng, per_agent, n_budgets, np.array(empty)
        )
        weights = None
        if pin_weights:  # the sampled audit pins its (P, n) weights
            weights = pool_weights(tables, agents.stake, agents.coop_cost)
        ref_base, ref_c, ref_d = reference_fold(
            tables, agents, totals, budgets, weights
        )

        base, switch = fold_rewards(
            tables, agents, totals, budgets, True, (SWITCH,), weights
        )
        for i in range(n_budgets):
            assert_bits(base[i], ref_base[i])
            assert_bits(switch[i], np.where(agents.coop, ref_d[i], ref_c[i]))

        # The dynamics' fixed-action folds go through the same pools.
        _, paid_c, paid_d = fold_rewards(
            tables, agents, totals, budgets, False, (0, 1), weights
        )
        for i in range(n_budgets):
            assert_bits(paid_c[i], ref_c[i])
            assert_bits(paid_d[i], ref_d[i])

        for i, gains in enumerate(deviation_gains(agents, base, switch)):
            expected = reference_gains(agents, ref_base[i], ref_c[i], ref_d[i])
            for got, want in zip(gains.targets(agents), expected):
                assert_bits(got, want)
            held = np.where(agents.coop, expected[1], expected[0])
            assert_bits(gains.switch, held)

    @settings(max_examples=40, deadline=None)
    @given(batch=batches(), per_agent=st.booleans())
    def test_crowdless_pools_leave_crowd_rows_at_plus_zero(self, batch, per_agent):
        agents, rng = batch
        full = pool_tables(SYNTHETIC, _SPLIT)
        crowdless = np.flatnonzero(~full.lookup[:, ONLINE, :].any(axis=1))
        assert crowdless.size == 2
        tables = replace(
            full,
            shape=tuple(full.shape[p] for p in crowdless),
            fractions=full.fractions[crowdless],
            lookup=full.lookup[crowdless],
            kinds=tuple(full.kinds[p] for p in crowdless),
            exponents=full.exponents[crowdless],
        )
        totals, budgets = _totals_and_budgets(
            tables, agents, rng, per_agent, 2, np.zeros(2, dtype=bool)
        )
        crowd = agents.roles == ONLINE
        for rewards in fold_rewards(
            tables, agents, totals, budgets, True, (0, 1, SWITCH)
        ):
            for acc in rewards:
                assert not bits(acc[crowd]).any()


class TestSharedCrowdRows:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3 * SEED_BLOCK + 17),
        scales=st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=3, unique=True
        ),
        defect_share=st.sampled_from([0.0, 0.4, 1.0]),
    )
    def test_shared_rows_equal_per_scheme_block_row_sums(
        self, seed, n, scales, defect_share
    ):
        rng = np.random.default_rng(seed)
        stake = rng.pareto(1.2, n) * 5.0 + 1.0
        cost_multiplier = rng.uniform(0.5, 2.0, n)
        actions = (rng.random(n) < defect_share).astype(np.int8)
        tables = {scheme.name: pool_tables(scheme, _SPLIT) for scheme in SCHEMES}
        cost_vecs = {cs: role_costs(scaled_costs(cs)) for cs in scales}
        shared = _crowd_partials(tables, cost_vecs, stake, cost_multiplier, actions)
        assert sorted(shared) == sorted((name, cs) for name in tables for cs in scales)
        for (name, cs), partials in shared.items():
            table = tables[name]
            crowd_cost = cost_vecs[cs][ONLINE] * cost_multiplier
            matrix = pool_weights(table, stake, crowd_cost) * table.lookup[
                :, ONLINE, :
            ][:, actions]
            assert_bits(partials, block_row_sums(matrix))
            start = rng.uniform(0.0, 1e6, len(table.kinds))
            assert_bits(
                add_blocks(start, partials), blockwise_row_sums(matrix, start=start)
            )


# -- the streamed audit against the old chunk rule -------------------------------


def reference_chunk_gains(structure, name, ctx):
    """The old two-fold ``_chunk_gains`` rule: the ``(n, 3)`` gain tensor."""
    table = structure.tables[name]
    budgets = [table.fractions * structure.b_i]
    (base,), (paid_c,), (paid_d,) = reference_fold(
        table, ctx, structure.pool_totals[name], budgets
    )
    if structure.census.sync_defectors:
        # No block: only the sole sync defector's return to C restores it.
        base[:] = 0.0
        paid_d[:] = 0.0
        sole = ctx.sync & ~ctx.coop & (structure.census.sync_defectors == 1)
        paid_c = np.where(sole, paid_c, 0.0)
    else:
        rows = ctx.selected_rows
        roles = ctx.roles[rows]
        sole_leader = (roles == LEADER) & (structure.config.n_leaders == 1)
        quorum_break = (roles == COMMITTEE) & (
            (structure.census.tally - ctx.stake[rows])
            <= structure.census.threshold
        )
        paid_d[ctx.sync & ctx.coop] = 0.0
        paid_d[rows[sole_leader | quorum_break]] = 0.0
    return np.column_stack(reference_gains(ctx, base, paid_c, paid_d))


def reference_tensor(scheme, spec, config):
    """The population's ``(n, 3)`` gain tensor, and coop mask, by the old rule."""
    structure = _build_structure([scheme], spec, config)
    tensors, coops = [], []
    for chunk in _chunks(spec, config):
        ctx = _chunk_context(structure, spec, chunk)
        tensors.append(reference_chunk_gains(structure, scheme.name, ctx))
        coops.append(ctx.coop)
        (gains,) = _chunk_gains(scheme.name, [structure], ctx)
        assert_bits(np.column_stack(gains.targets(ctx)), tensors[-1])
    return np.vstack(tensors), np.concatenate(coops)


def reference_verdict(gains, coop):
    """Max gain, witness, deviation count and shirk gain over a full tensor."""
    max_gain = float(np.nanmax(gains))
    j, t = divmod(int(np.argmax(gains.ravel() == max_gain)), 3)
    shirk = np.nanmax(np.concatenate([gains[:, 1], gains[coop, 2]]))
    return {
        "max_gain": max_gain,
        "n_deviations": int(np.count_nonzero(~np.isnan(gains))),
        "max_shirk_gain": float(shirk),
        "witness": (j, "C" if coop[j] else "D", TARGETS[t], max_gain),
    }


@pytest.fixture
def at_threads(monkeypatch):
    """Set the in-call thread count, with slices as fine as one block."""
    monkeypatch.setattr(threads_module, "MIN_SLICE_BLOCKS", 1)

    def set_threads(count):
        monkeypatch.setattr(threads_module, "THREADS", count)

    return set_threads


def check_audit(scheme, spec, config, at_threads):
    gains, coop = reference_tensor(scheme, spec, config)
    expected = reference_verdict(gains, coop)
    seen = []
    for count in (1, 2):
        at_threads(count)
        grid = audit_population_grid([scheme], spec, config)
        report = grid.report(scheme.name, config.budget_multiplier, config.cost_scale)
        verdict = report.verdict_dict()
        seen.append(verdict)
        assert bits(report.max_gain) == bits(expected["max_gain"])
        assert bits(report.max_shirk_gain) == bits(expected["max_shirk_gain"])
        assert report.n_deviations == expected["n_deviations"]
        if report.witness is not None:
            witness = report.witness
            got = (witness.player, witness.from_strategy, witness.to_strategy)
            assert got + (witness.gain,) == expected["witness"]
    assert seen[0] == seen[1]


_PROFILES = {
    "failed_block": (
        PopulationSpec(family="uniform", size=300, cooperation=0.6, seed=7),
        PopulationAuditConfig(
            target="population", n_leaders=2, committee_size=5, chunk_agents=64
        ),
    ),
    "sole_sync_defector": (
        PopulationSpec(family="uniform", size=150, cooperation=0.992, seed=0),
        PopulationAuditConfig(
            target="population", n_leaders=2, committee_size=5, chunk_agents=64
        ),
    ),
    "sole_leader_theorem3": (
        PopulationSpec(
            family="zipf",
            size=SEED_BLOCK + 500,
            params={"exponent": 1.9, "scale": 3.0},
            seed=3,
        ),
        PopulationAuditConfig(n_leaders=1, committee_size=4, chunk_agents=SEED_BLOCK),
    ),
}


def restorer_rows(structure, spec, config):
    """Global rows whose switch restores the structure's failed base block."""
    rows = []
    for chunk in _chunks(spec, config):
        ctx = _chunk_context(structure, spec, chunk)
        flips = structure.census.flips(ctx, SWITCH)
        assert not ctx.coop[flips].any()  # a restore is a return to C
        rows.extend((ctx.offset + flips).tolist())
    return rows


class TestStreamedAuditAgainstOldRule:
    def test_profiles_reach_their_branches(self):
        failed = _build_structure([SYNTHETIC], *_PROFILES["failed_block"])
        assert not failed.census.holds and failed.census.sync_defectors > 1
        assert restorer_rows(failed, *_PROFILES["failed_block"]) == []
        sole = _build_structure([SYNTHETIC], *_PROFILES["sole_sync_defector"])
        assert not sole.census.holds and sole.census.sync_defectors == 1
        assert len(restorer_rows(sole, *_PROFILES["sole_sync_defector"])) == 1

    @pytest.mark.parametrize("profile", sorted(_PROFILES))
    @pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
    def test_profile_matches_old_rule(self, profile, scheme, at_threads):
        check_audit(scheme, *_PROFILES[profile], at_threads)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        scheme=st.sampled_from(SCHEMES),
        seed=st.integers(0, 10_000),
        size=st.integers(120, 2 * SEED_BLOCK + 300),
        target=st.sampled_from(["theorem3", "all_c", "population"]),
        cooperation=st.sampled_from([0.9, 0.99, 1.0]),
        synchrony_rate=st.sampled_from([0.2, 0.5, 1.0]),
        n_leaders=st.integers(1, 3),
        chunk=st.sampled_from([None, 64, SEED_BLOCK]),
    )
    def test_random_populations_match_old_rule(
        self,
        scheme,
        seed,
        size,
        target,
        cooperation,
        synchrony_rate,
        n_leaders,
        chunk,
        at_threads,
    ):
        spec = PopulationSpec(
            family="lognormal",
            size=size,
            params={"median": 20.0},
            cooperation=cooperation,
            seed=seed,
        )
        config = PopulationAuditConfig(
            target=target,
            n_leaders=n_leaders,
            committee_size=6,
            synchrony_rate=synchrony_rate,
            chunk_agents=chunk,
        )
        check_audit(scheme, spec, config, at_threads)
