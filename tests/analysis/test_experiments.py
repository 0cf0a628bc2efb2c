"""Small-scale runs of every experiment driver (Figures 3, 5, 6, 7)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.defection import (
    DefectionExperimentConfig,
    _fig3_shard,
    fig3_sweep_spec,
    run_defection_experiment,
    shape_assertions,
)
from repro.analysis.reward_comparison import (
    RewardComparisonConfig,
    run_reward_comparison,
    run_truncation_experiment,
)
from repro.analysis.reward_surface import RewardSurfaceConfig, run_reward_surface
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def tiny_defection_result():
    config = DefectionExperimentConfig(
        rates=(0.0, 0.30),
        n_runs=2,
        n_rounds=4,
        n_nodes=40,
        tau_proposer=6.0,
        tau_step=60.0,
        tau_final=80.0,
    )
    return run_defection_experiment(config)


class TestDefectionExperiment:
    def test_series_lengths(self, tiny_defection_result):
        for series in tiny_defection_result.series.values():
            assert len(series.fraction_final) == 4

    def test_defection_destroys_finality(self, tiny_defection_result):
        healthy = tiny_defection_result.series[0.0]
        broken = tiny_defection_result.series[0.30]
        assert healthy.mean_final() > broken.mean_final()
        assert healthy.mean_final() > 0.8
        assert broken.mean_final() < 0.3

    def test_fractions_sum_to_one(self, tiny_defection_result):
        for series in tiny_defection_result.series.values():
            for i in range(len(series.fraction_final)):
                total = (
                    series.fraction_final[i]
                    + series.fraction_tentative[i]
                    + series.fraction_none[i]
                )
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_render_produces_panels(self, tiny_defection_result):
        text = tiny_defection_result.render()
        assert "defection rate 0%" in text
        assert "defection rate 30%" in text

    def test_csv_export(self, tiny_defection_result, tmp_path):
        tiny_defection_result.to_csv(tmp_path / "fig3.csv")
        from repro.analysis.csvio import read_rows

        rows = read_rows(tmp_path / "fig3.csv")
        assert len(rows) == 2 * 4  # rates x rounds

    def test_summary_rows_sorted_by_rate(self, tiny_defection_result):
        rates = [row[0] for row in tiny_defection_result.summary_rows()]
        assert rates == sorted(rates)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            DefectionExperimentConfig(rates=())
        with pytest.raises(ConfigurationError):
            DefectionExperimentConfig(rates=(1.5,))
        with pytest.raises(ConfigurationError):
            DefectionExperimentConfig(n_runs=0)

    def test_shape_assertions_pass_on_healthy_result(self, tiny_defection_result):
        assert shape_assertions(tiny_defection_result) == []


class TestFig3Shard:
    """A shard's params must name the fast kernel; nothing defaults it."""

    def _params(self, **overrides):
        config = DefectionExperimentConfig(
            rates=(0.05,), n_runs=1, n_rounds=2, n_nodes=24
        )
        (shard,) = fig3_sweep_spec(config).shards()
        params = dict(shard.params)
        params.update(overrides)
        return params

    def test_shard_without_backend_is_refused(self):
        params = self._params()
        del params["backend"]
        with pytest.raises(ConfigurationError, match="tests/des"):
            _fig3_shard(params, 0)

    def test_des_shard_is_refused(self):
        with pytest.raises(ConfigurationError, match="tests/des"):
            _fig3_shard(self._params(backend="des"), 0)


class TestRewardSurface:
    @pytest.fixture(scope="class")
    def small_surface(self):
        return run_reward_surface(RewardSurfaceConfig(n_nodes=20_000, seed=5))

    def test_grid_minimum_near_paper_value(self, small_surface):
        # Scaled population (20k nodes, same 50M Algos): the online bound is
        # population-total-driven, so B_i stays ~5.2 as at full scale.
        assert small_surface.best.b_i == pytest.approx(5.26, rel=0.05)
        assert small_surface.best.alpha == pytest.approx(0.02)
        assert small_surface.best.beta == pytest.approx(0.03)

    def test_online_bound_binds(self, small_surface):
        assert small_surface.binding_bound() == "online"

    def test_analytic_beats_grid(self, small_surface):
        assert small_surface.analytic.b_i <= small_surface.best.b_i

    def test_render_mentions_paper_reference(self, small_surface):
        assert "5.2" in small_surface.render()

    def test_csv_export(self, small_surface, tmp_path):
        small_surface.to_csv(tmp_path / "fig5.csv")
        assert (tmp_path / "fig5.csv").exists()

    def test_summary_rows(self, small_surface):
        methods = [row[0] for row in small_surface.summary_rows()]
        assert methods == ["grid", "analytic"]


class TestRewardComparison:
    @pytest.fixture(scope="class")
    def small_comparison(self):
        config = RewardComparisonConfig(n_nodes=50_000, n_instances=2, n_rounds=3)
        return run_reward_comparison(config)

    def test_all_distributions_present(self, small_comparison):
        assert set(small_comparison.distributions) == {
            "U(1,200)", "N(100,20)", "N(100,10)", "N(2000,25)",
        }

    def test_uniform_needs_biggest_reward(self, small_comparison):
        """The Figure 6 ordering: U(1,200) >> normals >> N(2000,25)."""
        means = {
            name: data.mean() for name, data in small_comparison.distributions.items()
        }
        assert means["U(1,200)"] > means["N(100,10)"]
        assert means["N(100,10)"] > means["N(2000,25)"]

    def test_adaptive_rewards_below_foundation(self, small_comparison):
        """Figure 7(a): ours << the Foundation's 20 Algos for normal stakes."""
        series = small_comparison.figure7a_series()
        assert all(v == 20.0 for v in series["foundation"])
        assert max(series["ours N(100,10)"]) < 20.0

    def test_figure7b_foundation_ramps_ours_flat(self, small_comparison):
        xs, series = small_comparison.figure7b_series(horizon_rounds=1_000_000, n_points=5)
        foundation = series["foundation"]
        ours = series["ours N(100,10)"]
        # The Foundation's cumulative curve ramps with periods; ours is linear.
        assert foundation[-1] > ours[-1]
        rate_first = ours[1] / xs[1]
        rate_last = ours[-1] / xs[-1]
        assert rate_first == pytest.approx(rate_last, rel=1e-9)

    def test_histogram_and_render(self, small_comparison):
        edges, counts = small_comparison.histogram("N(100,10)", bins=5)
        assert sum(counts) == 2 * 3  # instances x rounds
        assert "Figure 6" in small_comparison.render_figure6()
        assert "Figure 7(a)" in small_comparison.render_figure7a()
        assert "Figure 7(b)" in small_comparison.render_figure7b()

    def test_csv_export(self, small_comparison, tmp_path):
        small_comparison.to_csv(tmp_path / "fig6.csv")
        from repro.analysis.csvio import read_rows

        assert len(read_rows(tmp_path / "fig6.csv")) == 4 * 2 * 3

    def test_unknown_distribution_rejected(self, small_comparison):
        with pytest.raises(ConfigurationError):
            small_comparison.histogram("Z(1,2)")


class TestTruncationExperiment:
    def test_reward_decreases_with_threshold(self):
        config = RewardComparisonConfig(n_nodes=50_000, n_instances=2, n_rounds=2)
        result = run_truncation_experiment(config)
        values = [result.rewards_by_threshold[name] for name in result.rewards_by_threshold]
        assert values == sorted(values, reverse=True)
        assert all(math.isfinite(v) for v in values)

    def test_render(self):
        config = RewardComparisonConfig(n_nodes=20_000, n_instances=1, n_rounds=1)
        result = run_truncation_experiment(config)
        assert "Figure 7(c)" in result.render()
