"""Unit tests for the simulated cryptographic primitives."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CryptoError
from repro.sim import crypto
from repro.sim.crypto import KeyPair


class TestKeyPair:
    def test_generation_is_deterministic(self):
        assert KeyPair.generate("seed") == KeyPair.generate("seed")

    def test_distinct_seeds_give_distinct_keys(self):
        assert KeyPair.generate("a") != KeyPair.generate("b")

    def test_public_differs_from_private(self):
        keypair = KeyPair.generate("x")
        assert keypair.public != keypair.private


class TestVrf:
    def test_output_in_unit_interval(self, keypair):
        output = crypto.vrf_evaluate(keypair, seed=1, round_index=2, step=3)
        assert 0.0 <= output.value < 1.0

    def test_deterministic(self, keypair):
        a = crypto.vrf_evaluate(keypair, 1, 2, 3)
        b = crypto.vrf_evaluate(keypair, 1, 2, 3)
        assert a == b

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=100))
    def test_values_spread_over_unit_interval(self, seed, step):
        keypair = KeyPair.generate("spread")
        value = crypto.vrf_evaluate(keypair, seed, 1, step).value
        assert 0.0 <= value < 1.0


class TestPriorities:
    def test_priority_in_unit_interval(self):
        assert 0.0 <= crypto.subuser_priority(12345, 0) < 1.0

    def test_distinct_subusers_get_distinct_priorities(self):
        priorities = {crypto.subuser_priority(99, i) for i in range(50)}
        assert len(priorities) == 50

    def test_negative_subuser_index_raises(self):
        with pytest.raises(CryptoError):
            crypto.subuser_priority(1, -1)


class TestSeeds:
    def test_next_seed_changes(self):
        assert crypto.next_round_seed(1, 1) != 1

    def test_next_seed_deterministic(self):
        assert crypto.next_round_seed(5, 9) == crypto.next_round_seed(5, 9)

    def test_refresh_marks_boundaries(self):
        _, refreshed = crypto.refresh_seed(1, 10, refresh_interval=5)
        assert refreshed
        _, not_refreshed = crypto.refresh_seed(1, 11, refresh_interval=5)
        assert not not_refreshed

    def test_round_zero_is_not_refreshed(self):
        _, refreshed = crypto.refresh_seed(1, 0, refresh_interval=5)
        assert not refreshed

    def test_refresh_differs_from_plain_advance(self):
        plain = crypto.next_round_seed(7, 5)
        refreshed, _ = crypto.refresh_seed(7, 5, refresh_interval=5)
        assert plain != refreshed

    def test_invalid_interval_raises(self):
        with pytest.raises(CryptoError):
            crypto.refresh_seed(1, 1, refresh_interval=0)


class TestHashHelpers:
    def test_sha256_int_is_order_sensitive(self):
        assert crypto.sha256_int("a", "b") != crypto.sha256_int("b", "a")

    def test_hash_to_unit_interval_bounds(self):
        for value in (0, 1, 2**255, 2**256 - 1):
            assert 0.0 <= crypto.hash_to_unit_interval(value) < 1.0
