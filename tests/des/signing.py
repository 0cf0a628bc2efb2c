"""Message signatures and sortition-proof verification, as the DES checks them.

The fast kernel never signs or verifies a message: it draws sortition
weights in batch and counts verification work in closed form.  The DES
does the per-message work, so these primitives live with it.  They build
on the kernel's keyed-hash cryptography (:mod:`repro.sim.crypto`): the
simulator holds every key, so a signature is SHA-256 over the private
key and the message digest, and verification recomputes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CryptoError
from repro.sim.crypto import KeyPair, sha256_int, subuser_priority, vrf_verify
from repro.sim.sortition import SortitionProof, _role_step_tag, binomial_weight


@dataclass(frozen=True)
class Signature:
    """A simulated digital signature over a message digest."""

    signer_public: int
    message_digest: int
    tag: int

    def __post_init__(self) -> None:
        if self.tag < 0:
            raise CryptoError("signature tag must be non-negative")


def sign(keypair: KeyPair, *message_parts: object) -> Signature:
    """Sign a message with ``keypair``'s private key."""
    digest = sha256_int(*message_parts)
    tag = sha256_int("sig", keypair.private, digest)
    return Signature(signer_public=keypair.public, message_digest=digest, tag=tag)


def verify_signature(signature: Signature, keypair: KeyPair, *message_parts: object) -> bool:
    """Verify that ``signature`` was produced by ``keypair`` over the message.

    A mismatched signer, tampered message, or wrong key all fail.
    """
    if signature.signer_public != keypair.public:
        return False
    digest = sha256_int(*message_parts)
    if digest != signature.message_digest:
        return False
    return signature.tag == sha256_int("sig", keypair.private, digest)


def verify_sortition(proof: SortitionProof, keypair: KeyPair, seed: int) -> bool:
    """Publicly verify a proof against the round seed ``Q_{r-1}`` (cost ``c_vs``).

    Recomputes the VRF under the claimed identity's key and re-derives the
    weight and priority from the public inputs carried by the proof.  The
    seed is public ledger state in the real protocol.
    """
    if proof.public_key != keypair.public:
        return False
    if not vrf_verify(
        proof.vrf, keypair, seed, proof.round_index, _role_step_tag(proof.role, proof.step)
    ):
        return False
    stake_units = int(proof.stake)
    probability = min(1.0, proof.expected_size / proof.total_stake)
    if binomial_weight(proof.vrf.value, stake_units, probability) != proof.weight:
        return False
    if proof.weight == 0:
        return proof.priority is None
    expected_priority = min(
        subuser_priority(proof.vrf.proof, index) for index in range(proof.weight)
    )
    return proof.priority == expected_priority
