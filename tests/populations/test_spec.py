"""Unit tests for PopulationSpec: validation, identity, streaming."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.populations import (
    MAX_AGENTS,
    SEED_BLOCK,
    PopulationArrays,
    PopulationSpec,
)


def small_spec(**overrides) -> PopulationSpec:
    fields = dict(
        family="zipf",
        size=2 * SEED_BLOCK + 123,
        params={"exponent": 1.8},
        seed=9,
    )
    fields.update(overrides)
    return PopulationSpec(**fields)


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            small_spec(size=0)
        with pytest.raises(ConfigurationError, match="int32"):
            small_spec(size=MAX_AGENTS + 1)

    def test_rejects_float_size_at_construction(self):
        # Used to construct, then fail mid-stream with a raw TypeError.
        with pytest.raises(ConfigurationError, match="integer"):
            PopulationSpec("zipf", 20000.0)

    def test_rejects_bool_size(self):
        # True used to be accepted as a one-agent population.
        with pytest.raises(ConfigurationError, match="integer"):
            small_spec(size=True)
        with pytest.raises(ConfigurationError, match="integer"):
            small_spec(size=np.bool_(True))

    def test_rejects_non_numeric_size(self):
        with pytest.raises(ConfigurationError, match="integer"):
            small_spec(size="20000")

    def test_numpy_integer_size_is_normalized(self):
        # Used to fail with a misleading "JSON-serializable" message.
        spec = PopulationSpec("zipf", np.int64(20000))
        assert type(spec.size) is int
        assert spec == PopulationSpec("zipf", 20000)
        assert spec.cache_key() == PopulationSpec("zipf", 20000).cache_key()

    def test_chunk_blocks_rejects_non_integral_chunk_agents(self):
        spec = small_spec()
        for bad in (1.5, 8192.0, True):
            with pytest.raises(ConfigurationError, match="integer"):
                spec.chunk_blocks(bad)
        assert spec.chunk_blocks(np.int64(SEED_BLOCK + 1)) == 2

    def test_rejects_unknown_family_and_params_eagerly(self):
        with pytest.raises(ConfigurationError):
            small_spec(family="nope")
        with pytest.raises(ConfigurationError):
            small_spec(params={"exponent": 0.5})

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            small_spec(cooperation=1.5)
        with pytest.raises(ConfigurationError):
            small_spec(cost_jitter=-0.1)
        with pytest.raises(ConfigurationError):
            small_spec(dtype="float16")

    def test_params_roundtrip(self):
        spec = small_spec(cooperation=0.7, cost_jitter=0.2, dtype="float32")
        assert PopulationSpec.from_params(spec.to_params()) == spec

    def test_cache_key_covers_dtype_but_not_draws(self):
        spec = small_spec()
        assert spec.cache_key() != small_spec(dtype="float32").cache_key()
        assert spec.cache_key() != small_spec(seed=10).cache_key()
        assert spec.cache_key() == small_spec().cache_key()


class TestHashable:
    """A frozen spec is a value: it hashes, and its params cannot move."""

    def test_keys_a_dict_and_sits_in_a_set(self):
        spec = PopulationSpec("zipf", 10, params={"exponent": 1.9})
        assert {spec: "a"}[PopulationSpec("zipf", 10, params={"exponent": 1.9})] == "a"
        assert len({spec, small_spec(), small_spec()}) == 2

    def test_equal_specs_hash_equal(self):
        pairs = [
            (small_spec(), small_spec()),
            (small_spec(params={"exponent": 2}), small_spec(params={"exponent": 2.0})),
            (small_spec(size=np.int64(20_000)), small_spec(size=20_000)),
            (small_spec(cooperation=1), small_spec(cooperation=1.0)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        assert small_spec() != small_spec(seed=10)

    def test_callers_dict_cannot_change_the_spec(self):
        params = {"exponent": 1.9}
        spec = PopulationSpec("zipf", 10, params=params)
        key = spec.cache_key()
        params["exponent"] = 3.0
        params["scale"] = 2.0
        assert dict(spec.params) == {"exponent": 1.9}
        assert spec.cache_key() == key
        with pytest.raises(TypeError):
            spec.params["exponent"] = 3.0

    def test_copies_and_pickles_stay_equal(self):
        import copy
        import pickle

        spec = small_spec(cooperation=0.7, dtype="float32")
        for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert clone == spec and hash(clone) == hash(spec)
            assert clone.cache_key() == spec.cache_key()


class TestStreaming:
    def test_chunks_concatenate_to_materialized(self):
        spec = small_spec(cooperation=0.6, cost_jitter=0.1)
        full = spec.materialize()
        assert full.n_agents == spec.size
        for chunk_agents in (1, SEED_BLOCK, SEED_BLOCK + 1, spec.size):
            stitched = PopulationArrays.concat(list(spec.iter_chunks(chunk_agents)))
            assert np.array_equal(stitched.stake, full.stake)
            assert np.array_equal(stitched.cost, full.cost)
            assert np.array_equal(stitched.behavior, full.behavior)

    def test_chunk_offsets_are_block_aligned_and_global(self):
        spec = small_spec()
        offsets = [chunk.offset for chunk in spec.iter_chunks(SEED_BLOCK)]
        assert offsets == [0, SEED_BLOCK, 2 * SEED_BLOCK]

    def test_float32_stream_is_cast_of_float64_stream(self):
        spec64 = small_spec()
        spec32 = small_spec(dtype="float32")
        assert np.array_equal(
            spec32.materialize().stake, spec64.materialize().stake.astype(np.float32)
        )

    def test_streaming_summary_matches_materialized(self):
        spec = small_spec(cooperation=0.8)
        assert spec.streaming_summary(SEED_BLOCK) == spec.materialize().summary()

    def test_chunk_draws_alignment_enforced(self):
        spec = small_spec()
        with pytest.raises(ConfigurationError, match="aligned"):
            spec.chunk_draws(7, 10, "x", lambda rng, n: rng.random(n))
        with pytest.raises(ConfigurationError, match="exceeds"):
            spec.chunk_draws(0, spec.size + 1, "x", lambda rng, n: rng.random(n))

    def test_consumer_columns_are_independent(self):
        spec = small_spec()
        a = spec.chunk_draws(0, 100, "audit.race", lambda rng, n: rng.random(n))
        b = spec.chunk_draws(0, 100, "audit.sync", lambda rng, n: rng.random(n))
        assert not np.array_equal(a, b)

    def test_behavior_mix_tracks_cooperation(self):
        spec = small_spec(cooperation=0.25)
        share = spec.materialize().cooperation_share()
        assert 0.2 < share < 0.3

    def test_cost_jitter_mean_one(self):
        spec = small_spec(cost_jitter=0.3)
        cost = spec.materialize().cost
        assert cost.mean() == pytest.approx(1.0, abs=0.02)
        assert cost.std() > 0.1
