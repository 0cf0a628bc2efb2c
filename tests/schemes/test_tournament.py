"""Cross-scheme tournaments: league shape, ranking, and determinism."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.schemes import AuditConfig, scheme_names
from repro.schemes.tournament import (
    TournamentConfig,
    run_tournament,
)

#: Two families, all registered schemes, single replication — fast.
_FAST = TournamentConfig(
    scenarios=("uniform-baseline", "replicator-mix"),
    n_replications=1,
    n_players=20,
    n_epochs=5,
    simulate_rounds=0,
    seed=31,
    audit=AuditConfig(
        n_players=16,
        n_leaders=2,
        committee_size=4,
        n_populations=3,
        stake_kinds=("uniform",),
        cost_scales=(1.0,),
        budget_multipliers=(1.5,),
        seed=31,
    ),
)


@pytest.fixture(scope="module")
def fast_result():
    return run_tournament(_FAST, workers=1)


class TestLeague:
    def test_covers_every_registered_scheme(self, fast_result):
        standings = {standing.scheme for standing in fast_result.standings}
        assert standings == set(scheme_names())

    def test_ranks_are_dense_and_ordered(self, fast_result):
        ranks = [standing.rank for standing in fast_result.standings]
        assert ranks == list(range(1, len(ranks) + 1))
        keys = [
            (
                -standing.cooperation_share,
                -standing.budget_efficiency,
                -standing.shirk_margin,
                standing.scheme,
            )
            for standing in fast_result.standings
        ]
        assert keys == sorted(keys)

    def test_metrics_are_sane(self, fast_result):
        for standing in fast_result.standings:
            assert 0.0 <= standing.cooperation_share <= 1.0
            assert 0.0 <= standing.budget_efficiency <= 1.0 + 1e-9

    def test_role_based_certified_foundation_not(self, fast_result):
        role = fast_result.standing_for("role_based")
        naive = fast_result.standing_for("foundation")
        assert role.ic_certified
        assert not naive.ic_certified
        assert "leader C->D" in naive.worst_deviation

    def test_role_based_beats_foundation(self, fast_result):
        role = fast_result.standing_for("role_based")
        naive = fast_result.standing_for("foundation")
        assert role.rank < naive.rank
        assert role.cooperation_share > naive.cooperation_share

    def test_unknown_standing_raises(self, fast_result):
        with pytest.raises(ConfigurationError):
            fast_result.standing_for("nope")


class TestRendering:
    def test_ascii_table(self, fast_result):
        text = fast_result.render()
        assert "Reward-scheme tournament" in text
        for name in scheme_names():
            assert name in text

    def test_markdown_league(self, fast_result, tmp_path):
        path = fast_result.to_markdown(tmp_path / "league.md")
        text = path.read_text()
        assert text.startswith("# Reward-scheme tournament")
        assert "| # | scheme |" in text
        for name in scheme_names():
            assert name in text

    def test_csv_is_ranked(self, fast_result, tmp_path):
        from repro.analysis.csvio import read_rows

        fast_result.to_csv(tmp_path / "league.csv")
        rows = read_rows(tmp_path / "league.csv")
        assert [row["rank"] for row in rows] == [
            str(i + 1) for i in range(len(rows))
        ]
        assert len(rows) == len(scheme_names())


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self, fast_result, tmp_path):
        """The acceptance criterion: workers change wall-clock, nothing else."""
        parallel = run_tournament(_FAST, workers=2)
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        fast_result.to_csv(serial_csv)
        parallel.to_csv(parallel_csv)
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()
        assert parallel.to_markdown_text() == fast_result.to_markdown_text()

    def test_resume_from_cache(self, fast_result, tmp_path):
        cache = tmp_path / "cache"
        first = run_tournament(_FAST, workers=1, cache_dir=cache)
        resumed = run_tournament(_FAST, workers=1, cache_dir=cache)
        assert resumed.to_markdown_text() == first.to_markdown_text()
        assert resumed.campaign.trajectories.keys() == first.campaign.trajectories.keys()


class TestConfig:
    def test_default_covers_all_schemes_and_scenarios(self):
        config = TournamentConfig()
        assert set(config.scheme_list()) == set(scheme_names())
        assert len(config.scenario_list()) >= 6

    def test_campaign_config_mirrors_tournament(self):
        campaign = _FAST.campaign_config()
        assert campaign.scenarios == _FAST.scenarios
        assert set(campaign.schemes) == set(scheme_names())
        assert campaign.n_replications == 1
        assert campaign.seed == 31

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tournament(
                TournamentConfig(schemes=("nope",), scenarios=("uniform-baseline",))
            )
