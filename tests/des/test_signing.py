"""Message signatures and sortition-proof verification (the DES's checks)."""

from __future__ import annotations

from dataclasses import replace

from repro.sim.crypto import KeyPair
from repro.sim.sortition import Role, sortition

from des.signing import Signature, sign, verify_signature, verify_sortition


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
