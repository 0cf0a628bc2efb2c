"""The re-iterable chunk source: resident below the budget, streamed above.

``PopulationSpec.chunks`` synthesizes a population once when its columns
fit in ``RESIDENT_BYTES`` and re-synthesizes it on every iteration above
that.  These tests pin the two modes, the read-only guard that keeps one
pass from corrupting the next, the ``iter_chunks`` contract (fresh,
writable arrays every time) and the synthesis counter that proves a
dynamics run synthesizes each block once per call and a streamed
``run_scale`` twice.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis.scale import ScaleConfig, run_scale
from repro.errors import ConfigurationError
from repro.populations import SEED_BLOCK, PopulationArrays, PopulationSpec
from repro.populations import spec as spec_module
from repro.populations import threads as threads_module
from repro.scenarios.population_dynamics import (
    PopulationDynamicsSpec,
    run_population_dynamics,
)
from repro.telemetry.runtime import capture

SYNTHESIZED = "repro_population_blocks_synthesized_total"


def small_spec(**overrides) -> PopulationSpec:
    fields = dict(
        family="zipf",
        size=2 * SEED_BLOCK + 321,
        params={"exponent": 1.9, "scale": 3.0},
        cooperation=0.8,
        seed=5,
    )
    fields.update(overrides)
    return PopulationSpec(**fields)


def synthesized(snapshot) -> float:
    return counted(snapshot, SYNTHESIZED)


def counted(snapshot, name: str) -> float:
    family = snapshot["metrics"].get(name, {"samples": []})
    return sum(sample["value"] for sample in family["samples"])


class TestResidency:
    def test_resident_source_is_a_tuple_synthesized_once(self):
        spec = small_spec()
        with capture() as registry:
            source = spec.chunks(SEED_BLOCK)
            first, second = list(source), list(source)
        assert isinstance(source, tuple)
        assert synthesized(registry.snapshot()) == spec.n_blocks
        assert all(a is b for a, b in zip(first, second))

    def test_streamed_source_resynthesizes_every_iteration(self, monkeypatch):
        monkeypatch.setattr(spec_module, "RESIDENT_BYTES", 0)
        spec = small_spec()
        with capture() as registry:
            source = spec.chunks(SEED_BLOCK)
            first, second = list(source), list(source)
        assert not isinstance(source, tuple)
        assert synthesized(registry.snapshot()) == 2 * spec.n_blocks
        for a, b in zip(first, second):
            assert a.stake is not b.stake
            assert np.array_equal(a.stake, b.stake)

    def test_budget_boundary_is_inclusive(self, monkeypatch):
        spec = small_spec()
        footprint = spec.size * (2 * 8 + 1)
        monkeypatch.setattr(spec_module, "RESIDENT_BYTES", footprint)
        assert isinstance(spec.chunks(), tuple)
        monkeypatch.setattr(spec_module, "RESIDENT_BYTES", footprint - 1)
        assert not isinstance(spec.chunks(), tuple)
        # float32 columns halve the stake/cost footprint.
        assert isinstance(small_spec(dtype="float32").chunks(), tuple)

    @pytest.mark.parametrize("budget", [0, 1 << 40])
    def test_both_modes_concatenate_to_materialized(self, monkeypatch, budget):
        monkeypatch.setattr(spec_module, "RESIDENT_BYTES", budget)
        spec = small_spec(cost_jitter=0.2)
        full = spec.materialize()
        for chunk_agents in (1, SEED_BLOCK + 1, None):
            stitched = PopulationArrays.concat(list(spec.chunks(chunk_agents)))
            assert np.array_equal(stitched.stake, full.stake)
            assert np.array_equal(stitched.cost, full.cost)
            assert np.array_equal(stitched.behavior, full.behavior)

    @pytest.mark.parametrize("budget", [0, 1 << 40])
    def test_chunk_agents_validated_when_the_source_is_built(
        self, monkeypatch, budget
    ):
        monkeypatch.setattr(spec_module, "RESIDENT_BYTES", budget)
        with pytest.raises(ConfigurationError):
            small_spec().chunks(0)
        with pytest.raises(ConfigurationError, match="integer"):
            small_spec().chunks(1.5)


class TestReadOnlyGuard:
    def test_resident_columns_reject_in_place_writes(self):
        """A kernel writing into a resident chunk would corrupt every
        later pass of the call, so the columns are frozen."""
        for chunk in small_spec().chunks(SEED_BLOCK):
            for column in (chunk.stake, chunk.cost, chunk.behavior):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[0]
            with pytest.raises(ValueError, match="read-only"):
                chunk.stake64()[:] *= 2.0

    def test_iter_chunks_still_yields_fresh_writable_arrays(self):
        spec = small_spec()
        resident = list(spec.chunks(SEED_BLOCK))
        first = list(spec.iter_chunks(SEED_BLOCK))
        second = list(spec.iter_chunks(SEED_BLOCK))
        for held, a, b in zip(resident, first, second):
            for column_a, column_b, column_held in (
                (a.stake, b.stake, held.stake),
                (a.cost, b.cost, held.cost),
                (a.behavior, b.behavior, held.behavior),
            ):
                assert column_a.flags.writeable
                assert not np.shares_memory(column_a, column_b)
                assert not np.shares_memory(column_a, column_held)
                assert np.array_equal(column_a, column_held)
            a.stake[0] = -1.0  # writable, and private to this chunk
            assert held.stake[0] != -1.0
            assert b.stake[0] != -1.0


class TestSynthesisCounter:
    def _spec(self) -> PopulationDynamicsSpec:
        return PopulationDynamicsSpec(
            name="synthesis-count",
            population=PopulationSpec(
                family="zipf",
                size=2 * SEED_BLOCK + 700,
                params={"exponent": 1.9, "scale": 3.0},
                cooperation=0.85,
                seed=3,
            ),
            n_epochs=10,
            n_leaders=3,
            committee_size=8,
            chunk_agents=SEED_BLOCK,
        )

    def test_resident_dynamics_synthesizes_each_block_once(self):
        spec = self._spec()
        with capture() as registry:
            run_population_dynamics(spec, "role_based")
        assert synthesized(registry.snapshot()) == spec.population.n_blocks

    @pytest.mark.parametrize("threads", (1, 2))
    def test_streamed_dynamics_synthesizes_every_pass(self, monkeypatch, threads):
        """Structure, census and the epoch-0 measure pass, then an update
        and a measure pass per epoch: 3 + 2 * 10 = 23 streams.  At two
        threads every pass prefetches its chunks on the pool, whose
        syntheses still count in the captured registry."""
        monkeypatch.setattr(spec_module, "RESIDENT_BYTES", 0)
        monkeypatch.setattr(threads_module, "THREADS", threads)
        spec = self._spec()
        with capture() as registry:
            run_population_dynamics(spec, "role_based")
        passes = 3 + 2 * spec.n_epochs
        assert passes == 23
        assert synthesized(registry.snapshot()) == passes * spec.population.n_blocks


class TestScaleAuditPasses:
    """``run_scale`` streams a population twice: structure, then gains.

    The sortition committee is drawn inside the gain pass, so it costs
    no third synthesis pass.  Pool threads run in a copy of the caller's
    context, so everything they record lands in the captured registry:
    the counts must not depend on the thread count.
    """

    def test_streamed_run_scale_synthesizes_two_passes(self, monkeypatch):
        monkeypatch.setattr(spec_module, "RESIDENT_BYTES", 0)
        monkeypatch.setattr(threads_module, "MIN_SLICE_BLOCKS", 1)
        config = ScaleConfig(
            n_agents=4 * SEED_BLOCK + 321,
            chunk_agents=2 * SEED_BLOCK,
            schemes=("foundation", "role_based"),
            committee_expected_size=200.0,
            budget_multipliers=(1.0, 2.0),
        )
        n_blocks = config.population_spec().n_blocks
        counts = {}
        for threads in (1, 2):
            monkeypatch.setattr(threads_module, "THREADS", threads)
            alive = threading.active_count()
            with capture() as registry:
                result = run_scale(config)
            snapshot = registry.snapshot()
            assert threading.active_count() == alive  # no thread outlives it
            assert synthesized(snapshot) == 2 * n_blocks
            counts[threads] = (
                counted(snapshot, "repro_audit_chunks_total"),
                counted(snapshot, "repro_audit_agents_total"),
                result.audit_payload(),
            )
        assert counts[1] == counts[2]
        assert counts[1][:2] == (3, config.n_agents)
