"""Per-node sortition, signatures and their verification, as the DES runs them.

The fast kernel never signs or verifies a message: it draws sortition
weights in batch and counts verification work in closed form.  The DES
does the per-message work — one :func:`sortition` call per node, role
and step, each with a verifiable :class:`SortitionProof` — so these
primitives live with it.  They build on the kernel's keyed-hash
cryptography (:mod:`repro.sim.crypto`) and binomial inversion
(:mod:`repro.sim.sortition`): the simulator holds every key, so a
signature is SHA-256 over the private key and the message digest, and
verification recomputes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CryptoError, SortitionError
from repro.sim.crypto import (
    KeyPair,
    VrfOutput,
    hash_to_unit_interval,
    sha256_int,
    subuser_priority,
    vrf_evaluate,
)
from repro.sim.sortition import Role, binomial_weight


@dataclass(frozen=True)
class SortitionProof:
    """The verifiable outcome of one sortition evaluation.

    Attributes
    ----------
    public_key:
        Identity of the node that ran sortition.
    role / round_index / step:
        The context the proof is bound to.  ``step`` is 0 for proposers.
    vrf:
        The underlying VRF output and proof.
    weight:
        Number of selected sub-users ``j`` (0 means not selected).
    priority:
        Minimum sub-user priority hash; lower is better.  ``None`` when
        ``weight == 0``.  Used to rank competing block proposals
        (paper Section II-B2, Credential messages).
    stake / total_stake / expected_size:
        The public inputs needed for verification.
    """

    public_key: int
    role: Role
    round_index: int
    step: int
    vrf: VrfOutput
    weight: int
    priority: Optional[float]
    stake: float
    total_stake: float
    expected_size: float

    @property
    def selected(self) -> bool:
        """Whether the node was selected for the role (weight > 0)."""
        return self.weight > 0


def _role_step_tag(role: Role, step: int) -> int:
    """Encode (role, step) into the VRF step argument to separate domains."""
    base = {Role.PROPOSER: 0, Role.STEP: 1_000, Role.FINAL: 2_000}[role]
    return base + step


def sortition(
    keypair: KeyPair,
    seed: int,
    round_index: int,
    role: Role,
    stake: float,
    total_stake: float,
    expected_size: float,
    step: int = 0,
) -> SortitionProof:
    """Run sortition for one node and one role; always returns a proof.

    A proof with ``weight == 0`` means "not selected" and is never gossiped,
    but the paper's cost model still charges ``c_so`` for computing it.
    """
    if stake < 0:
        raise SortitionError(f"stake must be non-negative, got {stake}")
    if total_stake <= 0:
        raise SortitionError(f"total stake must be positive, got {total_stake}")
    if stake > total_stake:
        raise SortitionError(f"stake {stake} exceeds total stake {total_stake}")
    if expected_size <= 0:
        raise SortitionError(f"expected committee size must be positive, got {expected_size}")

    vrf = vrf_evaluate(keypair, seed, round_index, _role_step_tag(role, step))
    stake_units = int(stake)
    probability = min(1.0, expected_size / total_stake)
    weight = binomial_weight(vrf.value, stake_units, probability)
    priority = None
    if weight > 0:
        priority = min(
            subuser_priority(vrf.proof, index) for index in range(weight)
        )
    return SortitionProof(
        public_key=keypair.public,
        role=role,
        round_index=round_index,
        step=step,
        vrf=vrf,
        weight=weight,
        priority=priority,
        stake=stake,
        total_stake=total_stake,
        expected_size=expected_size,
    )


def vrf_verify(
    output: VrfOutput,
    keypair: KeyPair,
    seed: int,
    round_index: int,
    step: int,
) -> bool:
    """Check that ``output`` is the unique valid VRF output for the inputs."""
    expected = sha256_int("vrf", keypair.private, seed, round_index, step)
    return output.proof == expected and output.value == hash_to_unit_interval(expected)


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
