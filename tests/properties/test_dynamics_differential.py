"""Differential tests: streamed dynamics vs the in-memory game oracle.

The streamed driver (:mod:`repro.scenarios.population_dynamics`) shares
*no pool algebra* with the scalar game engine: it folds closed-form
counterfactual payoffs chunk by chunk, while the oracle rebuilds the same
realized structure as an :class:`~scalar_game.game.AlgorandGame` and walks
``game.payoff`` / ``synchronous_best_responses`` / ``replicator_step``
player by player.  On populations small enough for the oracle, the two
trajectories must agree epoch by epoch — exact strategy counts and block
verdicts, payoff means to 1e-12 (the only slack is float summation
order) — across every registered scheme, both update rules, and under
stake churn.
"""

from __future__ import annotations

import pytest

from repro.populations import PopulationSpec
from repro.scenarios.population_dynamics import (
    PopulationDynamicsSpec,
    run_population_dynamics,
)
from repro.schemes.registry import scheme_names

from oracles import oracle_population_dynamics

#: Summation-order slack per epoch; everything else must be exact.
_MEAN_TOLERANCE = 1e-12


def _spec(**overrides) -> PopulationDynamicsSpec:
    settings = {
        "name": "differential",
        "population": PopulationSpec(
            family="zipf",
            size=420,
            params={"exponent": 1.9, "scale": 3.0},
            cooperation=0.9,
            seed=7,
        ),
        "n_epochs": 6,
        "n_leaders": 3,
        "committee_size": 8,
        "chunk_agents": 64,
    }
    settings.update(overrides)
    return PopulationDynamicsSpec(**settings)


def _assert_trajectories_match(spec, scheme):
    streamed = run_population_dynamics(spec, scheme)
    oracle = oracle_population_dynamics(spec, scheme)
    assert streamed.b_i == pytest.approx(oracle.b_i)
    assert len(streamed.records) == len(oracle.records) == spec.n_epochs + 1
    for ours, reference in zip(streamed.records, oracle.records):
        assert ours.epoch == reference.epoch
        assert ours.n_cooperating == reference.n_cooperating
        assert ours.n_defecting == reference.n_defecting
        assert ours.n_offline == reference.n_offline == 0
        assert ours.block_success == reference.block_success
        assert ours.mean_payoff_cooperate == pytest.approx(
            reference.mean_payoff_cooperate, abs=_MEAN_TOLERANCE
        )
        assert ours.mean_payoff_defect == pytest.approx(
            reference.mean_payoff_defect, abs=_MEAN_TOLERANCE
        )
        assert ours.budget_efficiency == pytest.approx(
            reference.budget_efficiency, abs=_MEAN_TOLERANCE
        )


@pytest.mark.parametrize("scheme", scheme_names())
def test_replicator_trajectories_match_the_oracle(scheme):
    """Every registered scheme: streamed replicator epochs == game engine."""
    _assert_trajectories_match(_spec(), scheme)


@pytest.mark.parametrize("scheme", ["foundation", "role_based"])
def test_best_response_trajectories_match_the_oracle(scheme):
    """Synchronous best-response mode agrees player for player."""
    _assert_trajectories_match(_spec(update_rule="best_response"), scheme)


@pytest.mark.parametrize("scheme", ["foundation", "role_based"])
def test_churned_trajectories_match_the_oracle(scheme):
    """Stake churn replays identically on both sides (selected pinned)."""
    _assert_trajectories_match(_spec(churn_rate=0.15, n_epochs=4), scheme)


def test_the_two_paths_share_no_structure_assumptions():
    """A different seed/mechanism shape still agrees (not one lucky draw)."""
    spec = _spec(
        population=PopulationSpec(
            family="pareto",
            size=300,
            params={"alpha": 1.4, "minimum": 2.0},
            cooperation=0.8,
            seed=23,
        ),
        n_leaders=2,
        committee_size=5,
        synchrony_rate=0.7,
        chunk_agents=None,
    )
    _assert_trajectories_match(spec, "role_based")


def test_oracle_guards():
    """The oracle refuses sizes it cannot hold and jittered costs."""
    from repro.errors import ConfigurationError

    big = _spec(
        population=PopulationSpec(family="zipf", size=5000, seed=1)
    )
    with pytest.raises(ConfigurationError):
        oracle_population_dynamics(big, "foundation", max_agents=2000)
    jittered = _spec(
        population=PopulationSpec(
            family="zipf", size=300, cost_jitter=0.1, seed=1
        )
    )
    with pytest.raises(ConfigurationError):
        oracle_population_dynamics(jittered, "foundation")
