"""Unit and property tests for cryptographic sortition."""

from __future__ import annotations

import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.errors import SortitionError
from repro.sim.crypto import KeyPair
from repro.sim.sortition import (
    _SCALAR_TAIL,
    Role,
    binomial_weight,
    binomial_weights,
    sample_population_weights,
    sortition,
    verify_sortition,
)


class TestBinomialWeight:
    def test_zero_stake_never_selected(self):
        assert binomial_weight(0.5, 0, 0.1) == 0

    def test_zero_probability_never_selected(self):
        assert binomial_weight(0.99, 100, 0.0) == 0

    def test_probability_one_selects_everything(self):
        assert binomial_weight(0.5, 17, 1.0) == 17

    def test_low_vrf_value_gives_zero(self):
        # F(0) = (1-p)^w; a value below it must select nothing.
        p, w = 0.01, 10
        f0 = (1 - p) ** w
        assert binomial_weight(f0 / 2, w, p) == 0

    def test_value_just_above_f0_selects_one(self):
        p, w = 0.01, 10
        f0 = (1 - p) ** w
        assert binomial_weight(f0 * 1.0001, w, p) == 1

    def test_weight_never_exceeds_stake(self):
        assert binomial_weight(1.0 - 1e-12, 5, 0.9) <= 5

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=0, max_value=500),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_weight_in_range(self, value, stake, probability):
        weight = binomial_weight(value, stake, probability)
        assert 0 <= weight <= stake

    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=1e-4, max_value=0.5),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=200)
    def test_weight_is_monotone_in_vrf_value(self, stake, probability, value):
        """The CDF inversion must be monotone non-decreasing in the draw."""
        lower = binomial_weight(value * 0.5, stake, probability)
        upper = binomial_weight(value, stake, probability)
        assert lower <= upper

    def test_matches_scipy_cdf_inversion(self):
        """Cross-check against scipy's binomial CDF on a grid."""
        stake, probability = 40, 0.05
        for value in (0.01, 0.13, 0.5, 0.9, 0.999, 0.999999):
            ours = binomial_weight(value, stake, probability)
            expected = int(scipy_stats.binom.ppf(value, stake, probability))
            # ppf gives smallest k with F(k) >= q; our convention selects
            # j with F(j-1) <= q < F(j), identical for continuous draws.
            assert ours == expected

    def test_invalid_vrf_value_raises(self):
        with pytest.raises(SortitionError):
            binomial_weight(1.0, 10, 0.1)

    def test_negative_stake_raises(self):
        with pytest.raises(SortitionError):
            binomial_weight(0.5, -1, 0.1)

    def test_bad_probability_raises(self):
        with pytest.raises(SortitionError):
            binomial_weight(0.5, 10, 1.5)


class TestBinomialWeightsActiveSet:
    """The batch kernel iterates only still-active elements and scatters
    each one back as it retires; one batch mixing every retirement
    iteration must still equal the scalar oracle elementwise."""

    P = 1e-3
    #: Largest double below 1: with a large stake the pmf underflows
    #: before the cdf passes it, forcing full weight.
    TAIL = float(np.nextafter(1.0, 0.0))
    # (vrf value, stake units): zero stake, j=0, j=1, small j, a whale
    # (mean 1000 sub-users) and a forced-underflow element.
    CASES = (
        (0.5, 0),
        (0.0, 1_000),
        (0.5, 1_000),
        (0.95, 1_000),
        (0.999, 3_000),
        (0.5, 1_000_000),
        (TAIL, 1_000),
    )

    def _oracle(self, values, stakes):
        return [binomial_weight(v, int(w), self.P) for v, w in zip(values, stakes)]

    def test_mixed_retirements_match_scalar_oracle(self):
        values = np.array([v for v, _ in self.CASES])
        stakes = np.array([w for _, w in self.CASES], dtype=np.int64)
        weights = binomial_weights(values, stakes, self.P)
        assert weights.tolist() == self._oracle(values, stakes)
        assert weights[0] == weights[1] == 0 and weights[2] == 1
        # The whale walks hundreds of steps; with the crowd this small it
        # walks them all in the scalar tail.
        assert weights[5] >= 500
        assert weights[6] == 1_000  # forced to full weight by underflow

    def test_broadcast_scalar_stake_matches_scalar_oracle(self):
        values = np.array([0.0, 0.2, 0.5, 0.9, self.TAIL, 0.5])
        for stake in (0, 1, 1_000, 1_000_000):
            weights = binomial_weights(values, stake, self.P)
            assert weights.shape == values.shape
            assert weights.tolist() == self._oracle(values, [stake] * values.size)

    def test_2d_batch_keeps_shape_and_matches_oracle(self):
        values = np.array([v for v, _ in self.CASES] * 2).reshape(2, -1)
        stakes = np.array([w for _, w in self.CASES] * 2).reshape(2, -1)
        weights = binomial_weights(values, stakes, self.P)
        assert weights.shape == values.shape
        assert weights.ravel().tolist() == self._oracle(values.ravel(), stakes.ravel())

    def test_read_only_inputs_are_accepted_and_not_mutated(self):
        values = np.array([v for v, _ in self.CASES])
        stakes = np.array([w for _, w in self.CASES], dtype=np.int64)
        values.setflags(write=False)
        stakes.setflags(write=False)
        before = values.copy(), stakes.copy()
        weights = binomial_weights(values, stakes, self.P)
        assert weights.flags.writeable
        assert np.array_equal(values, before[0])
        assert np.array_equal(stakes, before[1])
        assert weights.tolist() == self._oracle(values, stakes)


class TestScalarTailHandoff:
    """The lockstep walk hands its last ``_SCALAR_TAIL`` stragglers to the
    scalar continuation; every element must come out as the scalar oracle
    says, wherever the handoff falls in its walk.

    Each case checks its own geometry through the oracle weights: an
    element that neither underflows nor stops at ``j == units`` is still
    searching after ``k`` lockstep iterations exactly when its weight
    exceeds ``k``.
    """

    P = 1e-3
    TAIL = float(np.nextafter(1.0, 0.0))

    @staticmethod
    def _oracle(values, units, probability):
        units = np.broadcast_to(units, np.shape(values))
        return [
            binomial_weight(v, int(w), probability)
            for v, w in zip(np.ravel(values), np.ravel(units))
        ]

    @staticmethod
    def _active_after_f0(values, units, probability):
        units = np.broadcast_to(units, np.shape(values))
        f0 = (1.0 - probability) ** units.astype(float)
        return int(((f0 <= values) & (units > 0)).sum())

    def _crowd(self, n, seed=5):
        """``n`` elements of 5000 units (mean weight 5) drawn in the upper
        half of the CDF, plus three whales of mean weight 300."""
        rng = np.random.default_rng(seed)
        values = np.concatenate([rng.uniform(0.5, 0.99, n), [0.3, 0.7, 0.95]])
        units = np.concatenate([np.full(n, 5_000), [300_000] * 3]).astype(np.int64)
        return values, units

    def test_handoff_at_iteration_zero(self):
        rng = np.random.default_rng(1)
        values = np.zeros(1_000)
        units = rng.integers(1, 400_000, 1_000)
        live = rng.choice(1_000, _SCALAR_TAIL, replace=False)
        values[live] = rng.uniform(0.2, 1.0, _SCALAR_TAIL)
        active = self._active_after_f0(values, units, self.P)
        assert 0 < active <= _SCALAR_TAIL
        weights = binomial_weights(values, units, self.P)
        assert weights.tolist() == self._oracle(values, units, self.P)
        assert weights.max() >= 100

    def test_handoff_mid_walk(self):
        values, units = self._crowd(4 * _SCALAR_TAIL)
        expected = self._oracle(values, units, self.P)
        weights = np.array(expected)
        assert (weights < units).all()  # no underflow, no units stop
        # More than the handoff size still searching after 2 iterations,
        # at most the handoff size before the whales finish.
        assert (weights > 2).sum() > _SCALAR_TAIL
        assert (weights > 20).sum() <= _SCALAR_TAIL
        assert weights[-3:].min() > 200
        assert binomial_weights(values, units, self.P).tolist() == expected

    def test_underflow_inside_the_tail(self):
        values, units = self._crowd(4 * _SCALAR_TAIL)
        # TAIL at 1000 units underflows the pmf at j = 164, long after
        # the crowd has retired.
        values = np.concatenate([values, [self.TAIL, self.TAIL]])
        units = np.concatenate([units, [1_000, 5_000]])
        weights = binomial_weights(values, units, self.P)
        assert weights.tolist() == self._oracle(values, units, self.P)
        assert weights[-2:].tolist() == [1_000, 5_000]

    def test_units_stop_inside_the_tail(self):
        # At p = 0.999 three-unit elements retire within 3 iterations; a
        # TAIL value at 40 units never passes its cdf and stops at
        # j == units in the scalar tail.
        p = 0.999
        rng = np.random.default_rng(2)
        n = 4 * _SCALAR_TAIL
        values = np.concatenate([rng.uniform(0.0, 0.99, n), [self.TAIL, self.TAIL]])
        units = np.concatenate([np.full(n, 3), [40, 10]]).astype(np.int64)
        assert self._active_after_f0(values, units, p) > _SCALAR_TAIL
        weights = binomial_weights(values, units, p)
        assert weights.tolist() == self._oracle(values, units, p)
        assert weights[-2:].tolist() == [40, 10]

    def test_2d_batch_hands_off_mid_walk(self):
        values, units = self._crowd(4 * _SCALAR_TAIL + 1)
        values, units = values.reshape(2, -1), units.reshape(2, -1)
        weights = binomial_weights(values, units, self.P)
        assert weights.shape == values.shape
        assert weights.ravel().tolist() == self._oracle(values, units, self.P)

    def test_broadcast_scalar_stake_hands_off_mid_walk(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.uniform(0.5, 0.99, 4 * _SCALAR_TAIL),
                                 [self.TAIL, 0.999999]])
        stake = 5_000
        assert self._active_after_f0(values, stake, self.P) > _SCALAR_TAIL
        weights = binomial_weights(values, stake, self.P)
        assert weights.tolist() == self._oracle(values, stake, self.P)
        assert weights[-2] == stake  # underflow inside the tail

    @pytest.mark.parametrize("handoff", [0, 1, 2, 7, 64, 10**9])
    def test_result_does_not_depend_on_the_handoff_size(self, handoff, monkeypatch):
        # 0 walks everything in lockstep, 10**9 everything in scalar code.
        # ``repro.sim.sortition`` the attribute is the function; patch the module.
        module = importlib.import_module("repro.sim.sortition")
        monkeypatch.setattr(module, "_SCALAR_TAIL", handoff)
        values, units = self._crowd(3 * 64)
        values = np.concatenate([values, [self.TAIL, 0.0, 0.5]])
        units = np.concatenate([units, [1_000, 7, 0]])
        weights = binomial_weights(values, units, self.P)
        assert weights.tolist() == self._oracle(values, units, self.P)


class TestBatchValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0, -0.1])
    def test_non_finite_or_out_of_range_vrf_values_raise(self, bad):
        with pytest.raises(SortitionError, match="vrf values"):
            binomial_weights([bad, 0.5], [100, 100], 0.01)
        with pytest.raises(SortitionError, match="vrf value"):
            binomial_weight(bad, 100, 0.01)

    def test_nan_probability_raises(self):
        with pytest.raises(SortitionError, match="probability"):
            binomial_weights([0.5], [100], math.nan)
        with pytest.raises(SortitionError, match="probability"):
            binomial_weight(0.5, 100, math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_stakes_raise_before_the_int_cast(self, bad):
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            # No "invalid value encountered in cast" on the way to the error.
            warnings.simplefilter("error")
            with pytest.raises(SortitionError, match="finite"):
                sample_population_weights([1.0, bad], 10.0, 5.0, rng)


class TestSortition:
    def test_proof_roundtrip_verifies(self):
        keypair = KeyPair.generate("node-1")
        proof = sortition(keypair, seed=9, round_index=4, role=Role.STEP,
                          stake=30, total_stake=1000, expected_size=100, step=2)
        assert verify_sortition(proof, keypair, seed=9)

    def test_verification_rejects_wrong_seed(self):
        keypair = KeyPair.generate("node-1")
        proof = sortition(keypair, 9, 4, Role.STEP, 30, 1000, 100, step=2)
        assert not verify_sortition(proof, keypair, seed=10)

    def test_verification_rejects_wrong_key(self):
        keypair = KeyPair.generate("node-1")
        other = KeyPair.generate("node-2")
        proof = sortition(keypair, 9, 4, Role.STEP, 30, 1000, 100, step=2)
        assert not verify_sortition(proof, other, seed=9)

    def test_verification_rejects_inflated_weight(self):
        keypair = KeyPair.generate("node-1")
        proof = sortition(keypair, 9, 4, Role.STEP, 30, 1000, 100, step=2)
        from dataclasses import replace

        forged = replace(proof, weight=proof.weight + 1, priority=0.0)
        assert not verify_sortition(forged, keypair, seed=9)

    def test_unselected_proof_has_no_priority(self):
        keypair = KeyPair.generate("tiny")
        proof = sortition(keypair, 1, 1, Role.PROPOSER, stake=1,
                          total_stake=10**9, expected_size=1)
        assert proof.weight == 0
        assert proof.priority is None
        assert not proof.selected

    def test_selected_proof_has_priority_in_unit_interval(self):
        keypair = KeyPair.generate("whale")
        proof = sortition(keypair, 1, 1, Role.PROPOSER, stake=1000,
                          total_stake=1000, expected_size=900)
        assert proof.selected
        assert 0.0 <= proof.priority < 1.0

    def test_roles_have_independent_outcomes(self):
        keypair = KeyPair.generate("node")
        kwargs = dict(seed=5, round_index=1, stake=100, total_stake=200, expected_size=100)
        a = sortition(keypair, role=Role.PROPOSER, **kwargs)
        b = sortition(keypair, role=Role.STEP, **kwargs)
        assert a.vrf.proof != b.vrf.proof

    def test_steps_have_independent_outcomes(self):
        keypair = KeyPair.generate("node")
        kwargs = dict(seed=5, round_index=1, role=Role.STEP, stake=100,
                      total_stake=200, expected_size=100)
        assert sortition(keypair, step=1, **kwargs).vrf.proof != sortition(
            keypair, step=2, **kwargs
        ).vrf.proof

    def test_negative_stake_raises(self):
        keypair = KeyPair.generate("node")
        with pytest.raises(SortitionError):
            sortition(keypair, 1, 1, Role.STEP, -1, 100, 10)

    def test_stake_above_total_raises(self):
        keypair = KeyPair.generate("node")
        with pytest.raises(SortitionError):
            sortition(keypair, 1, 1, Role.STEP, 200, 100, 10)

    def test_zero_total_stake_raises(self):
        keypair = KeyPair.generate("node")
        with pytest.raises(SortitionError):
            sortition(keypair, 1, 1, Role.STEP, 0, 0, 10)


class TestSelectionStatistics:
    def test_expected_committee_weight_close_to_tau(self):
        """Across many nodes, total selected weight concentrates near tau."""
        tau = 50.0
        n_nodes, stake = 200, 20
        total = n_nodes * stake
        total_weight = 0
        for i in range(n_nodes):
            keypair = KeyPair.generate(("stat", i))
            proof = sortition(keypair, seed=123, round_index=7, role=Role.STEP,
                              stake=stake, total_stake=total, expected_size=tau, step=1)
            total_weight += proof.weight
        # Binomial(total=4000, p=50/4000): std ~ 7; allow 4 sigma.
        assert abs(total_weight - tau) < 4 * math.sqrt(tau)

    def test_richer_nodes_selected_more_often(self):
        rich_hits = poor_hits = 0
        for i in range(300):
            rich = sortition(KeyPair.generate(("rich", i)), i, 1, Role.STEP,
                             stake=100, total_stake=10_000, expected_size=500)
            poor = sortition(KeyPair.generate(("poor", i)), i, 1, Role.STEP,
                             stake=10, total_stake=10_000, expected_size=500)
            rich_hits += rich.weight
            poor_hits += poor.weight
        assert rich_hits > 5 * poor_hits
