"""The vectorized epsilon-IC audit engine and its scalar game oracle."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import AuditError, ConfigurationError
from repro.populations import PopulationSpec
from repro.schemes import (
    AuditConfig,
    audit_scheme,
    audit_schemes,
    get_scheme,
)
from repro.schemes.audit import _build_cell, _vectorized_gains
from repro.schemes.population_audit import audit_population
from repro.schemes.tournament import TOURNAMENT_AUDIT

from oracles import oracle_cell_gains

#: A small grid: one cell above the Theorem 3 bound, one below.
_CONFIG = AuditConfig(
    n_players=18,
    n_leaders=2,
    committee_size=5,
    n_populations=5,
    stake_kinds=("uniform",),
    cost_scales=(1.0,),
    budget_multipliers=(0.8, 1.3),
    seed=99,
)

#: Cells the kernel is checked on against the game, population by
#: population: both target profiles, all three stake kinds, a cost scale
#: of 2, a sole leader, the tournament's operating point and every cell
#: of the default grid.
_ORACLE_CELLS = [
    pytest.param(_CONFIG, "uniform", 1.0, 1.3, id="uniform"),
    pytest.param(replace(_CONFIG, target="all_c"), "uniform", 1.0, 1.3, id="all_c"),
    pytest.param(_CONFIG, "normal", 1.0, 1.3, id="normal"),
    pytest.param(_CONFIG, "whale_mix", 1.0, 0.8, id="whale_mix"),
    pytest.param(_CONFIG, "uniform", 2.0, 0.8, id="cost2"),
    pytest.param(replace(_CONFIG, n_leaders=1), "uniform", 1.0, 1.3, id="sole_leader"),
    pytest.param(TOURNAMENT_AUDIT, "uniform", 1.0, 1.5, id="tournament"),
] + [
    pytest.param(
        AuditConfig(), kind, scale, multiplier,
        id=f"default-{kind}-c{scale:g}-x{multiplier:g}",
    )
    for kind in AuditConfig().stake_kinds
    for scale in AuditConfig().cost_scales
    for multiplier in AuditConfig().budget_multipliers
]


class TestConfigValidation:
    def test_rejects_impossible_population(self):
        with pytest.raises(ConfigurationError):
            AuditConfig(n_players=5, n_leaders=3, committee_size=6)

    def test_rejects_unknown_stake_kind(self):
        with pytest.raises(ConfigurationError):
            AuditConfig(stake_kinds=("zipf",))

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigurationError):
            AuditConfig(target="all_d")

    def test_rejects_nonpositive_multipliers(self):
        with pytest.raises(ConfigurationError):
            AuditConfig(budget_multipliers=(0.0,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("budget_multipliers", (math.nan,)),
            ("budget_multipliers", (math.inf,)),
            ("budget_multipliers", (1.0, -1.0)),
            ("cost_scales", (math.nan,)),
            ("cost_scales", (math.inf,)),
            ("cost_scales", (-1.0,)),
            ("epsilon", math.nan),
            ("epsilon", math.inf),
            ("epsilon", -1e-12),
        ],
    )
    def test_rejects_non_finite_or_nonpositive_grid_values(self, field, value):
        """Rejected up front, not as nan verdicts or a bogus oracle error."""
        label = field.replace("_", " ")
        with pytest.raises(ConfigurationError, match=label):
            AuditConfig(**{field: value})


class TestPaperVerdicts:
    """The acceptance criteria: Theorems 2 and 3 as audit outcomes."""

    def test_role_based_certified_above_bound(self):
        report = audit_scheme("role_based", _CONFIG)
        cell = report.cell_for("uniform", 1.0, 1.3)
        assert cell.certified
        assert cell.witness is None
        assert cell.max_gain <= _CONFIG.epsilon
        assert cell.ic_margin > 0

    def test_role_based_deviates_below_bound(self):
        report = audit_scheme("role_based", _CONFIG)
        cell = report.cell_for("uniform", 1.0, 0.8)
        assert not cell.certified
        assert cell.witness is not None
        assert cell.witness.gain > 0
        # Below the bound somebody assigned work profits from shirking.
        assert cell.witness.from_strategy == "C"
        assert cell.witness.to_strategy in ("D", "O")

    def test_foundation_reports_concrete_profitable_deviation(self):
        """Theorem 2: naive sharing pays defectors the cooperator rate."""
        report = audit_scheme("foundation", _CONFIG)
        costs_gap = pytest.approx(11e-6, rel=1e-9)  # c_L - c_so
        for cell in report.cells:
            assert not cell.certified
            witness = cell.witness
            assert witness is not None
            # A leader keeps its full stake-proportional reward after
            # defecting and saves c_L - c_so: the exact Theorem 2 gain.
            assert witness.role == "leader"
            assert witness.from_strategy == "C"
            assert witness.to_strategy == "D"
            assert witness.gain == costs_gap
        assert not report.certified
        assert report.ic_margin < 0

    def test_all_c_target_supported(self):
        config = AuditConfig(
            n_players=14,
            n_leaders=2,
            committee_size=4,
            n_populations=3,
            stake_kinds=("uniform",),
            cost_scales=(1.0,),
            budget_multipliers=(1.3,),
            target="all_c",
            seed=5,
        )
        report = audit_scheme("foundation", config)
        # Under All-C there are no defectors, so every deviation is a
        # withdrawal; naive sharing is still not incentive compatible.
        assert not report.certified


class TestVectorizedAgainstOracle:
    """The audit engine's own correctness: fast path == game oracle."""

    @pytest.mark.parametrize("config, kind, scale, multiplier", _ORACLE_CELLS)
    @pytest.mark.parametrize(
        "name", ["foundation", "role_based", "irs", "axiomatic_tau", "hybrid"]
    )
    def test_every_population_matches_oracle(
        self, name, config, kind, scale, multiplier
    ):
        """Compare the full gain tensor of every population in the cell."""
        cell = _build_cell(config, kind, scale, multiplier)
        scheme = get_scheme(name)
        fast = _vectorized_gains(scheme, cell)
        for b in range(config.n_populations):
            slow = oracle_cell_gains(scheme, cell, b)
            assert np.array_equal(np.isnan(slow), np.isnan(fast[:, b, :]))
            np.testing.assert_allclose(
                fast[:, b, :], slow, rtol=1e-9, atol=1e-15, equal_nan=True
            )

    @pytest.mark.parametrize(
        "audit",
        [
            pytest.param(lambda scheme: audit_scheme(scheme, _CONFIG), id="sampled"),
            pytest.param(
                lambda scheme: audit_population(
                    scheme, PopulationSpec(family="uniform", size=200, seed=0)
                ),
                id="streamed",
            ),
        ],
    )
    def test_split_dependent_pool_structure_rejected(self, audit):
        """Only pool *fractions* may vary with the split — a per-split
        exponent would silently be audited with population 0's value.
        Both engines reach the kernel's one structure check."""
        from repro.schemes.base import PoolSpec, RewardScheme, WeightKind

        class SplitExponent(RewardScheme):
            kind = "test-split-exponent"
            description = "exponent varies with alpha"

            def pools(self, split):
                return (
                    PoolSpec(
                        name="coop",
                        fraction=1.0,
                        members=frozenset({("online", "C")}),
                        weight=WeightKind.STAKE_POWER,
                        exponent=split.alpha,
                    ),
                )

        with pytest.raises(AuditError, match="changes pool structure"):
            audit(SplitExponent())


class TestDeterminismAndSharing:
    def test_reports_are_deterministic(self, tmp_path):
        a = audit_scheme("hybrid", _CONFIG)
        b = audit_scheme("hybrid", _CONFIG)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(path_a)
        b.to_csv(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_schemes_share_populations(self):
        """audit_schemes pairs every scheme on identical populations."""
        reports = audit_schemes(["foundation", "role_based"], _CONFIG)
        for name, report in reports.items():
            assert report.scheme == name
            assert len(report.cells) == 2
        # Same calibrated budgets on both schemes' cells (shared cell data).
        for cell_f, cell_r in zip(
            reports["foundation"].cells, reports["role_based"].cells
        ):
            assert cell_f.mean_b_i == cell_r.mean_b_i

    def test_duplicate_schemes_rejected(self):
        with pytest.raises(ConfigurationError):
            audit_schemes(["irs", "irs"], _CONFIG)

    def test_render_and_csv(self, tmp_path):
        report = audit_scheme("irs", _CONFIG)
        text = report.render()
        assert "irs" in text
        assert "verdict" in text
        report.to_csv(tmp_path / "audit.csv")
        content = (tmp_path / "audit.csv").read_text()
        assert "max_shirk_gain" in content

    def test_shirk_margin_ignores_deviations_toward_cooperation(self):
        """IRS fails full IC only because defectors want to cooperate."""
        report = audit_scheme("irs", _CONFIG)
        cell = report.cell_for("uniform", 1.0, 1.3)
        assert not cell.certified  # D->C is profitable
        assert cell.witness is not None and cell.witness.to_strategy == "C"
        assert cell.shirk_margin > 0  # but nobody profits from shirking
