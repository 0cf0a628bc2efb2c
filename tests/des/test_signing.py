"""Per-node sortition, signatures and their verification (the DES's checks)."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.errors import SortitionError
from repro.sim.crypto import KeyPair, vrf_evaluate
from repro.sim.sortition import Role

from des.signing import (
    Signature,
    sign,
    sortition,
    verify_signature,
    verify_sortition,
    vrf_verify,
)


class TestSignatures:
    def test_sign_verify_roundtrip(self, keypair):
        signature = sign(keypair, "hello", 42)
        assert verify_signature(signature, keypair, "hello", 42)

    def test_tampered_message_fails(self, keypair):
        signature = sign(keypair, "hello", 42)
        assert not verify_signature(signature, keypair, "hello", 43)

    def test_wrong_key_fails(self, keypair):
        other = KeyPair.generate("other")
        signature = sign(keypair, "hello")
        assert not verify_signature(signature, other, "hello")

    def test_signer_identity_is_bound(self, keypair):
        other = KeyPair.generate("other")
        signature = sign(keypair, "msg")
        forged = Signature(
            signer_public=other.public,
            message_digest=signature.message_digest,
            tag=signature.tag,
        )
        assert not verify_signature(forged, other, "msg")


class TestVerifySortition:
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
        forged = replace(proof, weight=proof.weight + 1, priority=0.0)
        assert not verify_sortition(forged, keypair, seed=9)


class TestVrfVerify:
    def test_verify_accepts_honest_output(self, keypair):
        output = vrf_evaluate(keypair, 1, 2, 3)
        assert vrf_verify(output, keypair, 1, 2, 3)

    def test_verify_rejects_wrong_context(self, keypair):
        output = vrf_evaluate(keypair, 1, 2, 3)
        assert not vrf_verify(output, keypair, 1, 2, 4)

    def test_verify_rejects_wrong_key(self, keypair):
        output = vrf_evaluate(keypair, 1, 2, 3)
        assert not vrf_verify(output, KeyPair.generate("other"), 1, 2, 3)


class TestSortition:
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
