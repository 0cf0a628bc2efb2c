"""Property tests: chunked == monolithic, at every chunk size and worker count.

The streaming population engine's core contract is that chunking is an
execution detail, never a semantic one.  These suites drive it with
hypothesis-chosen populations and chunk sizes:

* generator output — any chunking concatenates to the materialized
  population, bitwise,
* audit verdicts — the chunked audit reproduces the monolithic audit's
  verdict dict (gains, witnesses, counts) bitwise, whether the
  population is held resident across passes or re-streamed per pass,
  and at every in-call thread count (``THREADS`` in {1, 2, 4}: block
  slices folded concurrently, the next chunk prefetched), and
* tournament league tables — already covered at the worker-count level by
  ``tests/schemes/test_tournament.py`` and the CI byte-equality check;
  here the campaign substrate is exercised through a population-by-
  reference scenario to pin the new axis.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.populations import SEED_BLOCK, PopulationArrays, PopulationSpec
from repro.populations import spec as spec_module
from repro.populations import threads as threads_module
from repro.schemes.population_audit import (
    PopulationAuditConfig,
    audit_population,
    audit_population_grid,
    iter_population_gains,
)
from repro.schemes.registry import scheme_names
from repro.sim.fastpath import (
    assemble_committee,
    committee_probability,
    committee_step,
    sample_committee_stream,
)

#: Hypothesis-sized populations: a few seed blocks, so multi-chunk paths
#: are exercised without slowing the deterministic CI profile.
_SIZES = st.integers(min_value=50, max_value=2 * SEED_BLOCK + 200)
_CHUNKS = st.one_of(
    st.none(), st.integers(min_value=1, max_value=2 * SEED_BLOCK + 300)
)
_FAMILIES = st.sampled_from(
    [
        ("zipf", {"exponent": 1.8, "scale": 2.0}),
        ("pareto", {"alpha": 1.4, "minimum": 2.0}),
        ("lognormal", {"median": 30.0, "sigma": 1.2}),
        ("uniform", {"low": 2.0, "high": 80.0}),
    ]
)
_DTYPES = st.sampled_from(["float64", "float32"])

#: The residency axis: ``RESIDENT_BYTES`` values forcing every population
#: here to stream (re-synthesize per pass) and to stay resident.
_RESIDENCY_BUDGETS = (0, 1 << 40)

#: The thread axis: in-call thread counts the audit is run at (the
#: derived ``THREADS`` value is patched; it is not a user option).
_THREAD_COUNTS = (1, 2, 4)


def _at_threads(patch, count):
    """Run the streamed engines at ``count`` in-call threads.

    Slices may be a single seed block, so the few-block populations here
    are really split across threads.
    """
    patch.setattr(threads_module, "THREADS", count)
    patch.setattr(threads_module, "MIN_SLICE_BLOCKS", 1)


@given(family=_FAMILIES, size=_SIZES, chunk=_CHUNKS, dtype=_DTYPES,
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_generator_output_identical_at_any_chunk_size(family, size, chunk, dtype, seed):
    """Streaming a population re-chunks it, never re-draws it."""
    name, params = family
    spec = PopulationSpec(
        family=name, size=size, params=params, cooperation=0.8, dtype=dtype,
        seed=seed,
    )
    full = spec.materialize()
    stitched = PopulationArrays.concat(list(spec.iter_chunks(chunk)))
    assert np.array_equal(stitched.stake, full.stake)
    assert np.array_equal(stitched.cost, full.cost)
    assert np.array_equal(stitched.behavior, full.behavior)


@given(
    family=_FAMILIES,
    size=st.integers(min_value=60, max_value=SEED_BLOCK + 500),
    chunk=st.integers(min_value=1, max_value=SEED_BLOCK + 600),
    scheme=st.sampled_from(["foundation", "role_based", "irs"]),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=15, deadline=None)
def test_audit_verdicts_identical_at_any_chunk_size(family, size, chunk, scheme, seed):
    """The chunked audit is bit-identical to the serial monolithic audit."""
    name, params = family
    spec = PopulationSpec(family=name, size=size, params=params, seed=seed)
    mono_cfg = PopulationAuditConfig(n_leaders=2, committee_size=6, chunk_agents=None)
    chunk_cfg = PopulationAuditConfig(n_leaders=2, committee_size=6, chunk_agents=chunk)
    with pytest.MonkeyPatch.context() as patch:
        _at_threads(patch, 1)
        mono = audit_population(scheme, spec, mono_cfg).verdict_dict()
        for count in _THREAD_COUNTS:
            _at_threads(patch, count)
            assert audit_population(scheme, spec, mono_cfg).verdict_dict() == mono
            assert audit_population(scheme, spec, chunk_cfg).verdict_dict() == mono


@given(
    size=st.integers(min_value=60, max_value=SEED_BLOCK + 500),
    chunk=st.integers(min_value=1, max_value=SEED_BLOCK + 600),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=15, deadline=None)
def test_gain_tensor_identical_at_any_chunk_size(size, chunk, seed):
    """Not just the verdict: every per-agent deviation gain is identical."""
    spec = PopulationSpec(family="zipf", size=size, params={"exponent": 2.0}, seed=seed)
    mono_cfg = PopulationAuditConfig(n_leaders=2, committee_size=6, chunk_agents=None)
    chunk_cfg = PopulationAuditConfig(n_leaders=2, committee_size=6, chunk_agents=chunk)
    with pytest.MonkeyPatch.context() as patch:
        _at_threads(patch, 1)
        mono = np.vstack(
            [g for _, g, _ in iter_population_gains("hybrid", spec, mono_cfg)]
        )
        for count in _THREAD_COUNTS:
            _at_threads(patch, count)
            chunked = np.vstack(
                [g for _, g, _ in iter_population_gains("hybrid", spec, chunk_cfg)]
            )
            assert np.array_equal(mono, chunked, equal_nan=True)


@given(
    family=_FAMILIES,
    size=st.integers(min_value=60, max_value=2 * SEED_BLOCK + 300),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=8, deadline=None)
def test_grid_verdict_tensor_identical_at_pinned_chunk_sizes(family, size, seed):
    """The fused verdict tensor is byte-identical at every chunking.

    Serializes the whole (scheme x budget x cost-scale) grid payload at
    the pinned chunk sizes {1, 7, 8192, 16384} plus the monolithic path,
    each with the population held resident and re-streamed per pass
    (``RESIDENT_BYTES`` forced to 2^40 and to 0) and at 1, 2 and 4
    in-call threads, and requires one identical byte string — the fused
    engine inherits the blockwise-reduction contract cell for cell,
    residency only changes how often blocks are synthesized, and thread
    slices are finer chunks merged in population order.
    """
    name, params = family
    spec = PopulationSpec(family=name, size=size, params=params, seed=seed)
    payloads = set()
    for budget, count in itertools.product(_RESIDENCY_BUDGETS, _THREAD_COUNTS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spec_module, "RESIDENT_BYTES", budget)
            _at_threads(patch, count)
            for chunk in (1, 7, SEED_BLOCK, 2 * SEED_BLOCK, None):
                config = PopulationAuditConfig(
                    n_leaders=2, committee_size=6, chunk_agents=chunk
                )
                grid = audit_population_grid(
                    ["foundation", "role_based", "hybrid"],
                    spec,
                    config,
                    budget_multipliers=(1.0, 1.5),
                    cost_scales=(1.0, 2.0),
                )
                payloads.add(json.dumps(grid.to_payload(), sort_keys=True))
    assert len(payloads) == 1


def test_tied_witnesses_identical_at_every_thread_count():
    """Merging thread slices keeps the earliest of exactly tied gains.

    Zipf stakes are integers, so many crowd agents share a stake and
    tie on the maximum gain in every slice; the merged witness must be
    the serial one (a later slice may not replace an equal maximum, and
    slices merge in population order).
    """
    spec = PopulationSpec(
        family="zipf",
        size=6 * SEED_BLOCK + 77,
        params={"exponent": 1.9, "scale": 3.0},
        seed=2021,
    )
    payloads = set()
    for count in _THREAD_COUNTS:
        with pytest.MonkeyPatch.context() as patch:
            _at_threads(patch, count)
            grid = audit_population_grid(
                scheme_names(),
                spec,
                PopulationAuditConfig(chunk_agents=None),
                budget_multipliers=(0.5, 1.0, 2.0),
                cost_scales=(0.5, 2.0),
            )
        assert grid.witnesses()
        payloads.add(json.dumps(grid.to_payload(), sort_keys=True))
    assert len(payloads) == 1


@given(
    size=st.integers(min_value=50, max_value=2 * SEED_BLOCK),
    chunk=st.integers(min_value=1, max_value=2 * SEED_BLOCK + 100),
    tau=st.floats(min_value=10.0, max_value=500.0),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=20, deadline=None)
def test_committee_identical_at_any_chunk_size(size, chunk, tau, seed):
    """Streamed sortition selects the same committee at every chunking.

    Also when drawn chunk by chunk inside the audit's gain pass (the
    ``run_scale`` path), at every in-call thread count.
    """
    spec = PopulationSpec(
        family="uniform", size=size, params={"low": 2.0, "high": 50.0}, seed=seed
    )
    reference = sample_committee_stream(spec, tau, chunk_agents=None)
    chunked = sample_committee_stream(spec, tau, chunk_agents=chunk)
    assert np.array_equal(reference.indices, chunked.indices)
    assert np.array_equal(reference.weights, chunked.weights)
    config = PopulationAuditConfig(n_leaders=2, committee_size=6, chunk_agents=chunk)
    for count in _THREAD_COUNTS:
        parts = []

        def draw(chunk_arrays, units):
            probability = committee_probability(tau, units)
            parts.append(committee_step(spec, chunk_arrays, probability))

        with pytest.MonkeyPatch.context() as patch:
            _at_threads(patch, count)
            audit_population_grid(["role_based"], spec, config, on_chunk=draw)
        fused = assemble_committee(tau, reference.total_stake_units, parts)
        assert np.array_equal(reference.indices, fused.indices)
        assert np.array_equal(reference.weights, fused.weights)
        assert np.array_equal(reference.stakes, fused.stakes)


def test_population_scenario_campaign_identical_across_workers(tmp_path):
    """A population-by-reference scenario merges bit-identically at any
    worker count — the tournament/campaign axis of the chunk contract."""
    from repro.scenarios.experiment import (
        ScenarioCampaignConfig,
        run_scenarios_campaign,
    )

    config = ScenarioCampaignConfig(
        scenarios=("heavytail-zipf",),
        schemes=("foundation", "role_based"),
        n_replications=1,
        n_players=16,
        n_epochs=3,
        simulate_rounds=0,
        seed=77,
    )
    serial = run_scenarios_campaign(config, workers=1)
    parallel = run_scenarios_campaign(config, workers=2)
    for key, trajectory in serial.trajectories.items():
        assert parallel.trajectories[key] == trajectory
