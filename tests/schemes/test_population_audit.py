"""Tests for the chunked population-scale epsilon-IC audit engine."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.populations import SEED_BLOCK, PopulationSpec
from repro.schemes.population_audit import (
    PopulationAuditConfig,
    _merge_top_k,
    audit_population,
    audit_population_grid,
    audit_populations,
    iter_population_gains,
)
from repro.schemes.registry import scheme_names

from oracles import oracle_population_gains

SPEC = PopulationSpec(
    family="zipf", size=2 * SEED_BLOCK + 321, params={"exponent": 1.9, "scale": 3.0},
    seed=11,
)
MONO = PopulationAuditConfig(n_leaders=3, committee_size=8, chunk_agents=None)
CHUNKED = PopulationAuditConfig(n_leaders=3, committee_size=8, chunk_agents=SEED_BLOCK)


class TestConfigValidation:
    def test_bad_shapes_raise(self):
        with pytest.raises(ConfigurationError):
            PopulationAuditConfig(n_leaders=0)
        with pytest.raises(ConfigurationError):
            PopulationAuditConfig(committee_size=1)
        with pytest.raises(ConfigurationError):
            PopulationAuditConfig(synchrony_rate=0.0)
        with pytest.raises(ConfigurationError):
            PopulationAuditConfig(target="bogus")
        with pytest.raises(ConfigurationError):
            PopulationAuditConfig(chunk_agents=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cost_scale", float("nan")),
            ("budget_multiplier", float("inf")),
            ("budget_multiplier", -1.0),
            ("epsilon", float("nan")),
            ("epsilon", float("inf")),
        ],
    )
    def test_non_finite_or_nonpositive_values_raise(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            PopulationAuditConfig(**{field: value})

    def test_population_too_small_raises(self):
        tiny = PopulationSpec(family="uniform", size=5, seed=0)
        with pytest.raises(ConfigurationError, match="cannot host"):
            audit_population("role_based", tiny, MONO)


class TestMonolithicContract:
    def test_none_means_one_chunk_even_above_the_default_chunk(self):
        """chunk_agents=None must cover populations larger than the
        library's default chunk in a single chunk (the documented
        monolithic cross-check path)."""
        from repro.populations import DEFAULT_CHUNK_AGENTS
        from repro.schemes.population_audit import _chunks

        spec = PopulationSpec(
            family="uniform", size=DEFAULT_CHUNK_AGENTS + 100, seed=1
        )
        chunks = list(_chunks(spec, PopulationAuditConfig(chunk_agents=None)))
        assert len(chunks) == 1
        assert chunks[0].n_agents == spec.size


class TestChunkedEqualsMonolithic:
    def test_verdicts_bit_identical_for_every_scheme(self):
        for name in scheme_names():
            mono = audit_population(name, SPEC, MONO).verdict_dict()
            chunked = audit_population(name, SPEC, CHUNKED).verdict_dict()
            assert mono == chunked, name

    def test_gain_tensors_bit_identical(self):
        mono = np.vstack([g for _, g, _ in iter_population_gains("irs", SPEC, MONO)])
        chunked = np.vstack(
            [g for _, g, _ in iter_population_gains("irs", SPEC, CHUNKED)]
        )
        assert np.array_equal(mono, chunked, equal_nan=True)

    def test_float32_population_audits_identically_at_any_chunk(self):
        spec32 = SPEC.with_overrides(dtype="float32")
        mono = audit_population("role_based", spec32, MONO).verdict_dict()
        chunked = audit_population("role_based", spec32, CHUNKED).verdict_dict()
        assert mono == chunked


class TestOracleAgreement:
    SMALL = PopulationSpec(family="lognormal", size=120, params={"median": 20.0}, seed=3)
    SMALL_CFG = PopulationAuditConfig(n_leaders=2, committee_size=5, chunk_agents=None)

    @pytest.mark.parametrize("name", scheme_names())
    def test_streamed_gains_match_game_oracle(self, name):
        fast = np.vstack(
            [g for _, g, _ in iter_population_gains(name, self.SMALL, self.SMALL_CFG)]
        )
        oracle = oracle_population_gains(name, self.SMALL, self.SMALL_CFG)
        assert np.array_equal(np.isnan(fast), np.isnan(oracle))
        scale = max(1.0, float(np.nanmax(np.abs(oracle))))
        assert float(np.nanmax(np.abs(fast - oracle))) < 1e-9 + 1e-6 * scale

    POPULATION_CFG = PopulationAuditConfig(
        target="population", n_leaders=2, committee_size=5, chunk_agents=None
    )

    @pytest.mark.parametrize("name", scheme_names())
    def test_population_target_with_failed_base_block_matches_oracle(self, name):
        """Sync-set defectors under the 'population' target fail the base
        block: nobody earns rewards, and the kernel must agree with the
        game oracle's BlockSuccessModel exactly (regression: the kernel
        once paid pool rewards through a failed block)."""
        spec = PopulationSpec(family="uniform", size=300, cooperation=0.6, seed=7)
        fast = np.vstack(
            [g for _, g, _ in iter_population_gains(name, spec, self.POPULATION_CFG)]
        )
        oracle = oracle_population_gains(name, spec, self.POPULATION_CFG)
        assert np.array_equal(np.isnan(fast), np.isnan(oracle))
        assert float(np.nanmax(np.abs(fast - oracle))) < 1e-9

    def test_sole_sync_defector_restores_block_like_oracle(self):
        """With exactly one sync defector, only that agent's switch to C
        restores the block — the one deviation that earns rewards."""
        from repro.schemes.deviation import SWITCH
        from repro.schemes.population_audit import (
            _build_structure,
            _chunk_context,
            _chunks,
        )
        from repro.schemes.registry import resolve_scheme

        spec = PopulationSpec(family="uniform", size=150, cooperation=0.992, seed=0)
        config = self.POPULATION_CFG
        structure = _build_structure([resolve_scheme("role_based")], spec, config)
        assert structure.census.sync_defectors == 1
        restorers = [
            chunk.offset + row
            for chunk in _chunks(spec, config)
            for row in structure.census.flips(
                _chunk_context(structure, spec, chunk), SWITCH
            )
        ]
        assert len(restorers) == 1
        for name in ("role_based", "foundation", "irs"):
            fast = np.vstack(
                [
                    g
                    for _, g, _ in iter_population_gains(
                        name, spec, self.POPULATION_CFG
                    )
                ]
            )
            oracle = oracle_population_gains(name, spec, self.POPULATION_CFG)
            assert np.array_equal(np.isnan(fast), np.isnan(oracle))
            assert float(np.nanmax(np.abs(fast - oracle))) < 1e-9

    def test_failed_base_block_still_chunk_invariant(self):
        spec = PopulationSpec(
            family="zipf", size=2 * SEED_BLOCK + 300, params={"exponent": 1.9},
            cooperation=0.7, seed=4,
        )
        mono = audit_population("role_based", spec, self.POPULATION_CFG)
        chunked_cfg = PopulationAuditConfig(
            target="population", n_leaders=2, committee_size=5,
            chunk_agents=SEED_BLOCK,
        )
        chunked = audit_population("role_based", spec, chunked_cfg)
        assert mono.verdict_dict() == chunked.verdict_dict()

    def test_oracle_guards(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            oracle_population_gains("irs", SPEC, MONO, max_agents=100)
        jittered = self.SMALL.with_overrides(cost_jitter=0.1)
        with pytest.raises(ConfigurationError, match="cost_jitter"):
            oracle_population_gains("irs", jittered, self.SMALL_CFG)


class TestVerdicts:
    def test_role_based_certified_above_bound(self):
        report = audit_population("role_based", SPEC, CHUNKED)
        assert report.certified and report.witness is None
        assert report.ic_margin > 0

    def test_foundation_deviates_via_leader_shirking(self):
        """Theorem 2 at population scale: a leader profits from C->D."""
        report = audit_population("foundation", SPEC, CHUNKED)
        assert not report.certified
        assert report.witness is not None
        assert report.witness.role == "leader"
        assert report.witness.from_strategy == "C"
        assert report.witness.to_strategy == "D"

    def test_below_bound_role_based_unravels(self):
        starved = PopulationAuditConfig(
            n_leaders=3, committee_size=8, budget_multiplier=0.5,
            chunk_agents=SEED_BLOCK,
        )
        report = audit_population("role_based", SPEC, starved)
        assert not report.certified

    def test_all_c_target_supported(self):
        config = PopulationAuditConfig(
            n_leaders=3, committee_size=8, target="all_c", chunk_agents=SEED_BLOCK
        )
        report = audit_population("role_based", SPEC, config)
        assert report.n_deviations == 2 * SPEC.size  # to-D and to-O only

    def test_population_target_reads_behavior_column(self):
        spec = SPEC.with_overrides(cooperation=0.5)
        config = PopulationAuditConfig(
            n_leaders=3, committee_size=8, target="population",
            chunk_agents=SEED_BLOCK,
        )
        mono = audit_population(
            "foundation", spec, PopulationAuditConfig(
                n_leaders=3, committee_size=8, target="population",
                chunk_agents=None,
            )
        )
        chunked = audit_population("foundation", spec, config)
        assert mono.verdict_dict() == chunked.verdict_dict()

    def test_throughput_metadata_present(self):
        report = audit_population("hybrid", SPEC, CHUNKED)
        assert report.agents_per_second > 0
        assert report.n_agents == SPEC.size


class TestPairedAudits:
    def test_shared_structure_equals_individual_audits(self):
        shared = audit_populations(scheme_names(), SPEC, CHUNKED)
        for name in scheme_names():
            individual = audit_population(name, SPEC, CHUNKED)
            assert shared[name].verdict_dict() == individual.verdict_dict()

    def test_duplicate_schemes_deduped_preserving_order(self):
        deduped = audit_populations(["irs", "hybrid", "irs"], SPEC, CHUNKED)
        assert list(deduped) == ["irs", "hybrid"]
        clean = audit_populations(["irs", "hybrid"], SPEC, CHUNKED)
        for name in clean:
            assert deduped[name].verdict_dict() == clean[name].verdict_dict()

    def test_empty_scheme_list_rejected(self):
        with pytest.raises(ConfigurationError, match="no schemes"):
            audit_populations([], SPEC, CHUNKED)


class TestMergeTopK:
    KEYS = np.array([3.0, 1.0, 2.0])
    INDEX = np.arange(3, dtype=np.int64)

    def test_k_zero_selects_nothing(self):
        merged = _merge_top_k(None, self.KEYS, self.INDEX, (self.KEYS * 10,), 0)
        assert len(merged) == 3
        assert all(row.size == 0 for row in merged)

    def test_k_zero_with_carry_selects_nothing(self):
        carry = _merge_top_k(None, self.KEYS, self.INDEX, (), 2)
        merged = _merge_top_k(carry, self.KEYS + 10.0, self.INDEX + 3, (), 0)
        assert all(row.size == 0 for row in merged)

    def test_k_above_candidate_count_passes_through_untrimmed(self):
        merged = _merge_top_k(None, self.KEYS, self.INDEX, (), 10)
        assert merged[0].tolist() == [1.0, 2.0, 3.0]
        assert merged[1].tolist() == [1, 2, 0]

    def test_k_exactly_candidate_count_passes_through(self):
        merged = _merge_top_k(None, self.KEYS, self.INDEX, (), 3)
        assert merged[0].tolist() == [1.0, 2.0, 3.0]


class TestGridAudit:
    BUDGETS = (1.0, 1.5)
    SCALES = (1.0, 2.0)

    def _grid(self, schemes=("foundation", "role_based", "hybrid")):
        return audit_population_grid(
            list(schemes),
            SPEC,
            CHUNKED,
            budget_multipliers=self.BUDGETS,
            cost_scales=self.SCALES,
        )

    def test_fused_cells_match_per_cell_audits_bitwise(self):
        grid = self._grid(scheme_names())
        for b in self.BUDGETS:
            for c in self.SCALES:
                cell_config = replace(
                    CHUNKED, budget_multiplier=b, cost_scale=c
                )
                per_cell = audit_populations(scheme_names(), SPEC, cell_config)
                for name, report in per_cell.items():
                    assert (
                        grid.reports[(name, b, c)].verdict_dict()
                        == report.verdict_dict()
                    ), (name, b, c)

    def test_single_cell_grid_matches_audit_populations(self):
        grid = audit_population_grid(["irs", "hybrid"], SPEC, CHUNKED)
        flat = audit_populations(["irs", "hybrid"], SPEC, CHUNKED)
        for name, report in flat.items():
            assert (
                grid.report(name, CHUNKED.budget_multiplier, CHUNKED.cost_scale)
                .verdict_dict()
                == report.verdict_dict()
            )

    def test_tensor_accessors_agree_with_reports(self):
        grid = self._grid()
        gains = grid.max_gain_tensor()
        certified = grid.certified_tensor()
        assert gains.shape == certified.shape == (3, 2, 2)
        for s, name in enumerate(grid.schemes):
            for i, b in enumerate(grid.budget_multipliers):
                for j, c in enumerate(grid.cost_scales):
                    report = grid.reports[(name, b, c)]
                    assert gains[s, i, j] == report.max_gain
                    assert certified[s, i, j] == report.certified

    def test_witnesses_cover_exactly_the_uncertified_cells(self):
        grid = self._grid()
        witnesses = grid.witnesses()
        for cell, report in grid.reports.items():
            assert (cell in witnesses) == (report.witness is not None)

    def test_cells_enumerate_in_canonical_order(self):
        grid = self._grid()
        cells = list(grid.cells())
        assert cells[0] == ("foundation", 1.0, 1.0)
        assert cells[-1] == ("hybrid", 1.5, 2.0)
        assert len(cells) == len(grid.reports) == 12

    def test_payload_lists_every_cell(self):
        grid = self._grid()
        payload = grid.to_payload()
        assert payload["budget_multipliers"] == [1.0, 1.5]
        assert payload["cost_scales"] == [1.0, 2.0]
        assert len(payload["cells"]) == 12
        assert "elapsed_s" not in payload

    def test_off_grid_report_raises(self):
        grid = self._grid()
        with pytest.raises(ConfigurationError, match="not on the audited grid"):
            grid.report("foundation", 9.9, 1.0)

    def test_grid_axes_validated(self):
        with pytest.raises(ConfigurationError, match="positive"):
            audit_population_grid(
                ["irs"], SPEC, CHUNKED, budget_multipliers=(1.0, -2.0)
            )
        with pytest.raises(ConfigurationError, match="positive"):
            audit_population_grid(
                ["irs"], SPEC, CHUNKED, cost_scales=(float("nan"),)
            )
        with pytest.raises(ConfigurationError, match="empty"):
            audit_population_grid(["irs"], SPEC, CHUNKED, budget_multipliers=())

    def test_every_cell_gain_series_is_present_and_positive(self):
        """Budget cells share one fused kernel call; its time is split
        evenly across them, so every cell still gets its own series."""
        from repro.telemetry import capture

        with capture() as registry:
            grid = self._grid()
        family = registry.snapshot()["metrics"][
            "repro_audit_cell_gain_seconds_total"
        ]
        seconds = {
            (s["labels"]["scheme"], s["labels"]["budget"], s["labels"]["cost_scale"]):
            s["value"]
            for s in family["samples"]
        }
        assert set(seconds) == {
            (name, repr(b), repr(c)) for name, b, c in grid.cells()
        }
        assert all(value > 0 for value in seconds.values())
        # An even split: a call's budget cells record equal seconds.
        for name in grid.schemes:
            for c in self.SCALES:
                shares = {seconds[(name, repr(b), repr(c))] for b in self.BUDGETS}
                assert len(shares) == 1

    def test_grid_axes_deduped_preserving_order(self):
        grid = audit_population_grid(
            ["irs"],
            SPEC,
            CHUNKED,
            budget_multipliers=(1.5, 1.0, 1.5),
            cost_scales=(2.0, 2.0, 1.0),
        )
        assert grid.budget_multipliers == (1.5, 1.0)
        assert grid.cost_scales == (2.0, 1.0)
