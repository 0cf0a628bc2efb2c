"""Property tests for streamed dynamics: chunking is never semantic.

Companion of ``test_chunk_equivalence.py`` (the PR 5 audit suite) for the
evolutionary layer:

* **chunk equivalence** — any ``chunk_agents`` (including pathological
  values like 1 and 7 that split every seed block) and any in-call
  thread count yields byte-identical epoch trajectories, with the
  population held resident across passes or re-streamed per pass, under
  replicator, best-response and churn,
* **simplex conservation** — every epoch record partitions the
  population exactly (cooperating + defecting + offline == players),
* **payoff-monotone share growth** — ``replicator_step`` moves the share
  with the sign of the payoff advantage, never against it, and
* **All-D absorption** — a population seeded at zero cooperation defects
  forever: blocks fail from epoch 1 on and nobody returns.
"""

from __future__ import annotations

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamics import replicator_step
from repro.populations import SEED_BLOCK, PopulationSpec
from repro.populations import spec as spec_module
from repro.populations import threads as threads_module
from repro.scenarios.population_dynamics import (
    PopulationDynamicsSpec,
    run_population_dynamics,
)

#: The satellite contract: these chunk sizes must all replay bitwise.
#: Chunks round up to whole seed blocks, so {1, 7, 64, 8192} stream one
#: block (8192 agents) at a time and 16384 streams two — the population
#: below spans three blocks, so every value exercises real chunk seams
#: against the monolithic reference.
_CHUNK_SIZES = (1, 7, 64, 8192, 16_384)

#: The residency axis: ``RESIDENT_BYTES`` values forcing the population
#: to re-synthesize on every pass (0) or to stay resident (2^40).
_RESIDENCY_BUDGETS = (0, 1 << 40)

#: Update modes: the two rules, plus replicator under per-epoch churn.
_MODES = ("replicator", "best_response", "churn")

#: The thread axis: in-call thread counts the driver is run at (the
#: derived ``THREADS`` value is patched; it is not a user option).
_THREAD_COUNTS = (1, 2, 4)


def _at_threads(patch, count):
    """Run the streamed driver at ``count`` in-call threads.

    Slices may be a single seed block, so the multi-block chunks here
    (16384 and monolithic) are really split across threads.
    """
    patch.setattr(threads_module, "THREADS", count)
    patch.setattr(threads_module, "MIN_SLICE_BLOCKS", 1)


def _spec(seed: int, mode: str, chunk_agents) -> PopulationDynamicsSpec:
    churn = mode == "churn"
    return PopulationDynamicsSpec(
        name="chunk-equivalence",
        population=PopulationSpec(
            family="zipf",
            size=2 * SEED_BLOCK + 700,
            params={"exponent": 1.9, "scale": 3.0},
            cooperation=0.85,
            seed=seed,
        ),
        n_epochs=4,
        update_rule="replicator" if churn else mode,
        churn_rate=0.2 if churn else 0.0,
        n_leaders=3,
        committee_size=8,
        chunk_agents=chunk_agents,
    )


@functools.lru_cache(maxsize=None)
def _reference_payload(seed: int, mode: str, scheme: str) -> str:
    """The serial monolithic (single-chunk) trajectory, serialized canonically."""
    with pytest.MonkeyPatch.context() as patch:
        _at_threads(patch, 1)
        trajectory = run_population_dynamics(_spec(seed, mode, None), scheme)
    return json.dumps(trajectory.to_payload(), sort_keys=True)


@settings(max_examples=16, deadline=None)
@given(
    chunk_agents=st.sampled_from(_CHUNK_SIZES + (None,)),
    resident_bytes=st.sampled_from(_RESIDENCY_BUDGETS),
    threads=st.sampled_from(_THREAD_COUNTS),
    scheme=st.sampled_from(["foundation", "role_based"]),
    mode=st.sampled_from(_MODES),
    seed=st.integers(min_value=0, max_value=2),
)
def test_epoch_records_are_byte_identical_at_any_chunk_size(
    chunk_agents, resident_bytes, threads, scheme, mode, seed
):
    """Chunked, threaded trajectory payloads equal the serial monolithic
    payload, bitwise, whether the population is held resident or
    re-streamed per pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spec_module, "RESIDENT_BYTES", resident_bytes)
        _at_threads(patch, threads)
        trajectory = run_population_dynamics(
            _spec(seed, mode, chunk_agents), scheme
        )
    payload = json.dumps(trajectory.to_payload(), sort_keys=True)
    assert payload == _reference_payload(seed, mode, scheme)


@pytest.mark.parametrize("mode", _MODES)
def test_residency_never_changes_a_trajectory(mode):
    """The full {resident, streamed} x chunk-size x thread-count grid for
    one seed and scheme per mode: every cell serializes to one byte
    string.  Only chunks of two or more blocks split, so the thread axis
    runs on those."""
    payloads = set()
    for resident_bytes in _RESIDENCY_BUDGETS:
        for threads in _THREAD_COUNTS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spec_module, "RESIDENT_BYTES", resident_bytes)
                _at_threads(patch, threads)
                chunk_sizes = (16_384, None) if threads > 1 else _CHUNK_SIZES + (None,)
                for chunk_agents in chunk_sizes:
                    trajectory = run_population_dynamics(
                        _spec(1, mode, chunk_agents), "foundation"
                    )
                    payloads.add(
                        json.dumps(trajectory.to_payload(), sort_keys=True)
                    )
    assert len(payloads) == 1


@settings(max_examples=10, deadline=None)
@given(
    scheme=st.sampled_from(["foundation", "role_based"]),
    cooperation=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=5),
)
def test_epoch_records_conserve_the_behavior_simplex(scheme, cooperation, seed):
    """Every epoch partitions the population exactly; shares sum to one."""
    spec = PopulationDynamicsSpec(
        name="simplex",
        population=PopulationSpec(
            family="zipf", size=400, cooperation=cooperation, seed=seed
        ),
        n_epochs=3,
        n_leaders=2,
        committee_size=5,
        chunk_agents=64,
    )
    trajectory = run_population_dynamics(spec, scheme)
    for record in trajectory.records:
        assert (
            record.n_cooperating + record.n_defecting + record.n_offline
            == record.n_players
        )
        assert 0 <= record.n_cooperating <= record.n_players
        assert record.cooperation_share + record.defection_share == 1.0


@settings(max_examples=60, deadline=None)
@given(
    share=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    payoff_cooperate=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    payoff_defect=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)
def test_replicator_share_growth_is_payoff_monotone(
    share, payoff_cooperate, payoff_defect
):
    """The share moves with the payoff advantage's sign, never against it."""
    stepped = replicator_step(share, payoff_cooperate, payoff_defect)
    assert 0.0 <= stepped <= 1.0
    if payoff_cooperate > payoff_defect:
        assert stepped >= share
    elif payoff_cooperate < payoff_defect:
        assert stepped <= share
    else:
        assert stepped == share


@settings(max_examples=6, deadline=None)
@given(
    scheme=st.sampled_from(["foundation", "role_based"]),
    seed=st.integers(min_value=0, max_value=2),
)
def test_all_defect_is_absorbing_from_zero_cooperation(scheme, seed):
    """Seeded at All-D, the population defects forever and blocks fail.

    Epoch 0 still shows the selected agents performing (they revise only
    from epoch 1); afterwards nobody cooperates under either scheme —
    with every block failing, cooperation costs strictly more than the
    sortition overhead, so All-D is a fixed point of both update rules.
    """
    spec = PopulationDynamicsSpec(
        name="absorption",
        population=PopulationSpec(
            family="zipf", size=400, cooperation=0.0, seed=seed
        ),
        n_epochs=4,
        n_leaders=2,
        committee_size=5,
        chunk_agents=128,
    )
    trajectory = run_population_dynamics(spec, scheme)
    for record in trajectory.records[1:]:
        assert record.n_cooperating == 0
        assert record.n_defecting == record.n_players
        assert record.block_success is False
