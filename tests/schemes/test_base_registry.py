"""The scheme protocol, pool algebra, and registry."""

from __future__ import annotations

import pytest

from repro.core.costs import RoleCosts
from repro.errors import SchemeError
from repro.schemes import (
    PoolSpec,
    RewardScheme,
    SchemeSplit,
    WeightKind,
    get_scheme,
    register_scheme,
    resolve_scheme,
    scheme_from_params,
    scheme_names,
)
from repro.schemes.registry import _SCHEMES

from oracles import PooledRule, scalar_rule
from scalar_game.game import AlgorandGame, FoundationRule, RoleBasedRule, Strategy

_SPLIT = SchemeSplit(alpha=0.3, beta=0.3)


def _game(rule):
    return AlgorandGame.from_role_stakes(
        leader_stakes=[5.0, 9.0],
        committee_stakes=[4.0, 6.0, 8.0],
        online_stakes=[1.0, 2.0, 3.0, 10.0],
        costs=RoleCosts.paper_defaults(),
        reward_rule=rule,
        synchrony_size=2,
    )


def _mixed_profile(game):
    """Some of every strategy, spread over roles."""
    profile = {}
    for pid in game.players:
        profile[pid] = [Strategy.COOPERATE, Strategy.DEFECT, Strategy.COOPERATE][
            pid % 3
        ]
    profile[8] = Strategy.OFFLINE
    return profile


class TestPoolSpec:
    def test_rejects_bad_fraction(self):
        with pytest.raises(SchemeError):
            PoolSpec(name="p", fraction=1.5, members=frozenset({("leader", "C")}))

    def test_rejects_unknown_member(self):
        with pytest.raises(SchemeError):
            PoolSpec(name="p", fraction=0.5, members=frozenset({("leader", "O")}))
        with pytest.raises(SchemeError):
            PoolSpec(name="p", fraction=0.5, members=frozenset({("boss", "C")}))

    def test_rejects_empty_members(self):
        with pytest.raises(SchemeError):
            PoolSpec(name="p", fraction=0.5, members=frozenset())

    def test_unbalanced_scheme_rejected(self):
        from repro.schemes.base import validate_pools

        pool = PoolSpec(name="p", fraction=0.5, members=frozenset({("leader", "C")}))
        with pytest.raises(SchemeError):
            validate_pools((pool,))
        with pytest.raises(SchemeError):
            validate_pools((pool, pool))  # duplicate names


class TestSchemeSplit:
    def test_valid_split(self):
        split = SchemeSplit(0.2, 0.3)
        assert split.gamma == pytest.approx(0.5)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (0.5, 0.5), (0.7, 0.4)])
    def test_invalid_splits(self, alpha, beta):
        with pytest.raises(SchemeError):
            SchemeSplit(alpha, beta)


class TestAdapters:
    """The pool declarations must match the original mechanisms exactly."""

    def test_foundation_pools_match_foundation_rule(self):
        scheme = get_scheme("foundation")
        pooled = PooledRule(scheme.pools(_SPLIT), b_i=7.0)
        original = FoundationRule(b_i=7.0)
        game = _game(original)
        profile = _mixed_profile(game)
        expected = original.payments(game, profile)
        observed = pooled.payments(game, profile)
        assert observed.keys() == expected.keys()
        for pid in expected:
            assert observed[pid] == pytest.approx(expected[pid], rel=1e-12)

    def test_role_based_pools_match_role_based_rule(self):
        scheme = get_scheme("role_based")
        pooled = PooledRule(scheme.pools(_SPLIT), b_i=7.0)
        original = RoleBasedRule(alpha=_SPLIT.alpha, beta=_SPLIT.beta, b_i=7.0)
        game = _game(original)
        profile = _mixed_profile(game)
        expected = original.payments(game, profile)
        observed = pooled.payments(game, profile)
        assert observed.keys() == expected.keys()
        for pid in expected:
            assert observed[pid] == pytest.approx(expected[pid], rel=1e-12)

    def test_scalar_rule_returns_the_paper_rules(self):
        assert isinstance(scalar_rule("foundation", 1.0, _SPLIT), FoundationRule)
        assert isinstance(scalar_rule("role_based", 1.0, _SPLIT), RoleBasedRule)
        assert isinstance(scalar_rule("irs", 1.0, _SPLIT), PooledRule)

    def test_cooperator_only_schemes_pay_no_defectors(self):
        for name in ("irs", "axiomatic_tau"):
            rule = scalar_rule(name, 5.0, _SPLIT)
            game = _game(rule)
            profile = _mixed_profile(game)
            payments = rule.payments(game, profile)
            for pid, value in payments.items():
                assert profile[pid] is Strategy.COOPERATE
                assert value >= 0

    def test_hybrid_degrades_to_foundation_without_bonus(self):
        from repro.schemes import HybridScheme

        scheme = HybridScheme(bonus_fraction=0.0, name="hybrid-degenerate")
        rule = scalar_rule(scheme, 7.0, _SPLIT)
        original = FoundationRule(b_i=7.0)
        game = _game(original)
        profile = _mixed_profile(game)
        expected = original.payments(game, profile)
        observed = rule.payments(game, profile)
        for pid in expected:
            assert observed[pid] == pytest.approx(expected[pid], rel=1e-12)


class TestRegistry:
    def test_builtins_registered(self):
        names = scheme_names()
        for expected in ("foundation", "role_based", "irs", "axiomatic_tau", "hybrid"):
            assert expected in names

    def test_unknown_scheme_raises(self):
        with pytest.raises(SchemeError):
            get_scheme("definitely-not-a-scheme")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SchemeError):
            register_scheme(get_scheme("irs"))

    def test_register_configured_variant(self):
        from repro.schemes import AxiomaticTauScheme

        name = "test-axiomatic-variant"
        try:
            register_scheme(AxiomaticTauScheme(tau=2.0, name=name))
            assert get_scheme(name).tau == 2.0
            assert name in scheme_names()
        finally:
            _SCHEMES.pop(name, None)

    def test_params_roundtrip(self):
        for name in scheme_names():
            scheme = get_scheme(name)
            clone = scheme_from_params(scheme.to_params())
            assert clone.name == scheme.name
            assert clone.kind == scheme.kind
            assert clone.param_dict() == scheme.param_dict()
            assert clone.to_params() == scheme.to_params()

    def test_resolve_scheme_accepts_all_forms(self):
        scheme = get_scheme("hybrid")
        assert resolve_scheme("hybrid") is scheme
        assert resolve_scheme(scheme) is scheme
        rebuilt = resolve_scheme(scheme.to_params())
        assert rebuilt.to_params() == scheme.to_params()
        with pytest.raises(SchemeError):
            resolve_scheme(42)

    def test_decorator_rejects_missing_kind(self):
        from repro.schemes.registry import scheme as scheme_decorator

        class Nameless(RewardScheme):
            kind = ""

            def pools(self, split):  # pragma: no cover - never reached
                return ()

        with pytest.raises(SchemeError):
            scheme_decorator(Nameless)


class TestPooledRule:
    def test_empty_pool_slice_withheld(self):
        """A pool with no members in the profile pays nothing, total < b_i."""
        pools = (
            PoolSpec(
                name="leaders",
                fraction=0.5,
                members=frozenset({("leader", "C")}),
            ),
            PoolSpec(
                name="rest",
                fraction=0.5,
                members=frozenset({("online", "C"), ("online", "D")}),
            ),
        )
        rule = PooledRule(pools, b_i=10.0)
        game = _game(rule)
        profile = {pid: Strategy.DEFECT for pid in game.players}
        payments = rule.payments(game, profile)
        # No cooperating leader -> the leader slice is withheld entirely.
        assert sum(payments.values()) == pytest.approx(5.0)

    def test_equal_weight_splits_per_head(self):
        pools = (
            PoolSpec(
                name="bonus",
                fraction=1.0,
                members=frozenset({("committee", "C")}),
                weight=WeightKind.EQUAL,
            ),
        )
        rule = PooledRule(pools, b_i=9.0)
        game = _game(rule)
        profile = {pid: Strategy.COOPERATE for pid in game.players}
        payments = rule.payments(game, profile)
        committee = [pid for pid, p in game.players.items() if p.role.value == "committee"]
        assert set(payments) == set(committee)
        for pid in committee:
            assert payments[pid] == pytest.approx(3.0)

    def test_negative_budget_rejected(self):
        pool = PoolSpec(name="p", fraction=1.0, members=frozenset({("leader", "C")}))
        with pytest.raises(SchemeError):
            PooledRule((pool,), b_i=-1.0)
