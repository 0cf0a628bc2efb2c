"""Ablations called out in DESIGN.md.

* grid vs analytic vs scipy optimizer agreement (and their costs),
* sensitivity of the minimal reward to the synchrony-set stake floor s*_k,
* equilibrium robustness as gamma shrinks (role slices crowd out the pool).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.plotting import format_table
from repro.core import RoleCosts, paper_aggregates, reward_bounds
from repro.core.optimizer import minimize_reward_analytic, minimize_reward_grid
from repro.stakes.distributions import truncated_normal

# The scipy cross-check is a test oracle: it lives with the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import minimize_reward_scipy  # noqa: E402

_COSTS = RoleCosts.paper_defaults()


def _aggregates(k_floor=10.0, seed=5):
    stakes = truncated_normal(100, 10).sample_total(200_000, 20_000_000, seed)
    return paper_aggregates(np.asarray(stakes), k_floor=k_floor)


def test_bench_optimizer_grid(benchmark, report):
    aggregates = _aggregates()
    result = benchmark(lambda: minimize_reward_grid(_COSTS, aggregates))
    analytic = minimize_reward_analytic(_COSTS, aggregates)
    scipy_result = minimize_reward_scipy(_COSTS, aggregates)
    report(
        format_table(
            ("optimizer", "alpha", "beta", "B_i"),
            [
                ("grid (paper)", f"{result.best.alpha:.3g}", f"{result.best.beta:.3g}",
                 f"{result.best.b_i:.4f}"),
                ("analytic", f"{analytic.alpha:.3g}", f"{analytic.beta:.3g}",
                 f"{analytic.b_i:.4f}"),
                ("scipy Nelder-Mead", f"{scipy_result.alpha:.3g}", f"{scipy_result.beta:.3g}",
                 f"{scipy_result.b_i:.4f}"),
            ],
            title="Ablation — optimizer agreement on the Section V-A instance",
        )
    )
    assert analytic.b_i <= result.best.b_i
    assert scipy_result.b_i == pytest.approx(analytic.b_i, rel=1e-2)


def test_bench_optimizer_analytic(benchmark):
    aggregates = _aggregates()
    split = benchmark(lambda: minimize_reward_analytic(_COSTS, aggregates))
    assert split.b_i > 0


def test_bench_kfloor_sensitivity(benchmark, report):
    """min B_i as a function of the synchrony-set stake floor."""

    def sweep():
        rows = []
        for floor in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
            aggregates = _aggregates(k_floor=floor)
            rows.append((floor, minimize_reward_analytic(_COSTS, aggregates).b_i))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        format_table(
            ("s*_k floor (Algos)", "min B_i (Algos)"),
            [(f"{floor:g}", f"{b:.3f}") for floor, b in rows],
            title="Ablation — reward vs synchrony-set stake floor (B_i ~ 1/s*_k)",
        )
    )
    values = [b for _f, b in rows]
    assert values == sorted(values, reverse=True)


def test_bench_gamma_squeeze(benchmark, report):
    """What happens to the bounds as the online share gamma shrinks."""
    aggregates = _aggregates()

    def sweep():
        rows = []
        for gamma in (0.95, 0.8, 0.6, 0.4, 0.2, 0.05):
            remaining = 1.0 - gamma
            alpha = remaining / 3.0
            beta = remaining * 2.0 / 3.0
            bounds = reward_bounds(_COSTS, aggregates, alpha, beta)
            rows.append((gamma, bounds.overall, bounds.binding))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        format_table(
            ("gamma", "min B_i", "binding bound"),
            [(f"{g:.2f}", f"{b:.3f}", binding) for g, b, binding in rows],
            title="Ablation — squeezing gamma raises the online bound (B_i ~ 1/gamma)",
        )
    )
    assert rows[0][1] < rows[-1][1]
