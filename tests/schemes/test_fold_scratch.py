"""The streamed folds' scratch workspace: reuse, aliasing and lifetime.

Every streamed call folds its slices into :class:`~repro.populations.
threads.Lane` buffers that the next chunk's fold, and the next pass,
overwrites.  These tests pin the promises that makes safe and useful: a
lane's buffers really are reused (a dynamics call stops allocating after
its first epoch), nothing a call hands out aliases them, and no lane
outlives its call (the service's job thread keeps no memory after a
job).  The serial one-lane path runs them too when the suite is pinned
to one CPU.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.populations import threads
from repro.populations.spec import PopulationSpec
from repro.populations.threads import CallPool, Lane, call_pool, sliced
from repro.scenarios.population_dynamics import (
    PopulationDynamicsSpec,
    run_population_dynamics,
)
from repro.schemes import AuditConfig, get_scheme
from repro.schemes.audit import _build_cell, _vectorized_gains
from repro.schemes.deviation import SWITCH, fold_rewards
from repro.schemes.population_audit import (
    PopulationAuditConfig,
    _build_structure,
    _chunk_context,
    audit_population_grid,
    iter_population_gains,
)
from repro.service import EngineConfig, JobEngine

#: Streams in five 8192-agent chunks (the last one short).
SPEC = PopulationSpec("zipf", 36_000, params={"exponent": 1.9}, seed=5)
CONFIG = PopulationAuditConfig(chunk_agents=8192)


@pytest.fixture()
def workspace(monkeypatch):
    """Weak references to every lane, and every lane buffer, handed out."""
    refs = []
    take = Lane._take

    def recording(self, key, n, dtype, new):
        view = take(self, key, n, dtype, new)
        refs.extend((weakref.ref(self), weakref.ref(view.base)))
        return view

    monkeypatch.setattr(Lane, "_take", recording)
    return refs


def _assert_released(refs) -> None:
    gc.collect()
    assert refs, "the call took no workspace buffer"
    assert [ref for ref in refs if ref() is not None] == []


def test_lane_hands_the_same_buffer_to_equal_sizes():
    lane = Lane()
    first = lane.empty("x", 100)
    assert np.shares_memory(first, lane.empty("x", 100))
    assert np.shares_memory(first, lane.empty("x", 60))  # a shorter slice
    assert not np.shares_memory(first, lane.empty("y", 100))
    first[:] = 7.0
    assert not lane.zeros("x", 100).any()
    assert lane.empty("x", 200).size == 200  # regrown


def test_consecutive_slices_of_one_index_share_their_lane_buffer():
    spec = PopulationSpec("zipf", 12 * 8192, params={"exponent": 1.9}, seed=5)
    chunks = list(spec.iter_chunks(6 * 8192))  # two equal chunks
    seen = {}

    def fold(part, lane):
        seen[part.offset] = lane.empty("probe", part.n_agents)

    with call_pool(threads.THREADS) as pool:
        for _chunk, partials in sliced(chunks, pool, fold):
            list(partials)
    starts = sorted(seen)
    per_chunk = len(starts) // 2
    assert per_chunk == (2 if threads.THREADS > 1 else 1)
    for first, second in zip(starts[:per_chunk], starts[per_chunk:]):
        assert seen[first].size == seen[second].size
        assert np.shares_memory(seen[first], seen[second])
    if per_chunk > 1:  # slices folding side by side never share a lane
        assert not np.shares_memory(seen[starts[0]], seen[starts[1]])


def test_fold_rewards_reuses_a_passed_lane_and_matches_a_fresh_fold():
    structure = _build_structure([get_scheme("role_based")], SPEC, CONFIG)
    table = structure.tables["role_based"]
    totals = structure.pool_totals["role_based"]
    budgets = [table.fractions * structure.b_i]
    chunks = list(SPEC.iter_chunks(8192))

    def fold(chunk, lane):
        ctx = _chunk_context(structure, SPEC, chunk)
        return fold_rewards(table, ctx, totals, budgets, True, (SWITCH,), lane=lane)

    lane = Lane()
    (base0,), (switch0,) = fold(chunks[0], lane)
    kept = switch0.copy()
    (base1,), (switch1,) = fold(chunks[1], lane)
    assert np.shares_memory(switch0, switch1) and np.shares_memory(base0, base1)
    (fresh_base,), (fresh_switch,) = fold(chunks[1], None)
    np.testing.assert_array_equal(switch1, fresh_switch)
    np.testing.assert_array_equal(base1, fresh_base)
    assert not np.array_equal(kept, switch0)  # overwritten: it was scratch


def test_yielded_gains_survive_the_later_chunks():
    held = []
    for chunk, gains, coop in iter_population_gains("role_based", SPEC, CONFIG):
        held.append((gains, coop, gains.copy(), coop.copy()))
    assert len(held) == 5
    for gains, coop, gains_then, coop_then in held:
        np.testing.assert_array_equal(gains, gains_then)
        np.testing.assert_array_equal(coop, coop_then)


def test_sampled_audit_payload_survives_a_later_fold():
    config = AuditConfig(n_players=24, n_populations=6, seed=3)
    scheme = get_scheme("role_based")
    first = _vectorized_gains(scheme, _build_cell(config, "uniform", 1.0, 1.25))
    then = first.copy()
    _vectorized_gains(scheme, _build_cell(config, "uniform", 2.0, 1.5))
    np.testing.assert_array_equal(first, then)


def _dynamics_spec() -> PopulationDynamicsSpec:
    return PopulationDynamicsSpec(
        name="scratch", population=SPEC, n_epochs=3, chunk_agents=8192
    )


def test_dynamics_trajectory_survives_a_later_run_and_releases_its_lanes(
    workspace,
):
    trajectory = run_population_dynamics(_dynamics_spec(), "role_based")
    then = trajectory.to_payload()
    _assert_released(workspace)
    run_population_dynamics(_dynamics_spec(), "foundation")
    assert trajectory.to_payload() == then


@pytest.mark.parametrize("n_threads", [1, 2])
@pytest.mark.parametrize("resident_bytes", [0, 1 << 40], ids=["streamed", "resident"])
def test_dynamics_lanes_stop_allocating_after_epoch_one(
    monkeypatch, n_threads, resident_bytes
):
    """Every pass of a call folds into the call's lanes, so once epoch 1's
    update and measure passes ran, no lane buffer is created or regrown.
    Two 3-block slices, then a 500-agent chunk on lane 0 alone."""
    from repro.populations import spec as spec_module
    from repro.scenarios import population_dynamics

    monkeypatch.setattr(spec_module, "RESIDENT_BYTES", resident_bytes)
    monkeypatch.setattr(threads, "THREADS", n_threads)
    call_lanes, grown, epoch = [], [], [0]
    init, take = CallPool.__init__, Lane._take
    update_pass = population_dynamics._update_pass

    def recording_init(self, n):
        init(self, n)
        call_lanes.extend(self.lanes)

    def recording_take(self, key, n, dtype, new):
        buffer = self._buffers.get(key)
        if any(self is lane for lane in call_lanes) and (
            buffer is None or buffer.size < n or buffer.dtype != dtype
        ):
            grown.append((epoch[0], key, n))
        return take(self, key, n, dtype, new)

    def marking_update(engine, aggregates, prev_epoch, *args):
        epoch[0] = prev_epoch + 1
        return update_pass(engine, aggregates, prev_epoch, *args)

    monkeypatch.setattr(CallPool, "__init__", recording_init)
    monkeypatch.setattr(Lane, "_take", recording_take)
    monkeypatch.setattr(population_dynamics, "_update_pass", marking_update)
    spec = PopulationDynamicsSpec(
        name="steady",
        population=PopulationSpec(
            "zipf", 6 * 8192 + 500, params={"exponent": 1.9}, cooperation=0.9, seed=5
        ),
        n_epochs=4,
        chunk_agents=6 * 8192,
    )
    for scheme in ("role_based", "foundation"):
        epoch[0] = 0
        run_population_dynamics(spec, scheme)
        assert grown and all(at <= 1 for at, _key, _n in grown), (scheme, grown)
        grown.clear()
    assert len(call_lanes) == 2 * n_threads


def test_grid_audit_releases_its_lanes(workspace):
    grid = audit_population_grid(
        ["role_based", "foundation"], SPEC, CONFIG, cost_scales=(1.0, 2.0)
    )
    assert grid.reports
    _assert_released(workspace)


def test_served_audit_job_leaves_no_lane_on_the_job_thread(workspace):
    engine = JobEngine(EngineConfig())
    engine.start()
    try:
        status = engine.submit(
            "audit", {"agents": 30_000, "chunk_agents": 8192}, "scratch-test"
        )
        assert engine.wait(status.id, timeout_s=120).state == "done"
        # The job thread is still alive, waiting for the next job.
        _assert_released(workspace)
    finally:
        engine.stop()
