"""Simulated cryptographic primitives: keys, hashes, round seeds, and a VRF.

The paper's analysis never attacks the cryptography — it relies on two
properties that a keyed-hash construction provides exactly, deterministically
and cheaply in simulation:

* **Verifiable random function (VRF)**: for each ``(key, seed, round, step)``
  the VRF output is a uniform-looking value in ``[0, 1)`` that the key holder
  can prove and anyone can verify (paper Section II-B4, citing Micali et al.).
* **Random seeds** ``Q_r``: each round's seed is derived from the previous
  round's seed, refreshed deterministically (paper Section III-A, cost c_se).

Implementation: private keys are random 64-bit integers.  The VRF output is
a SHA-256 digest over the private key and its inputs, reinterpreted as a
fraction in ``[0, 1)``; its proof is the digest itself.  Message signatures,
VRF and sortition-proof verification are per-message work only the
discrete-event oracle does, so they live with it (``tests/des/signing.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from repro.errors import CryptoError

_HASH_BITS = 256
_MANTISSA_BITS = 53  # float64 mantissa: keeps the mapping exact and < 1.0


def sha256_int(*parts: object) -> int:
    """Hash the canonical string encoding of ``parts`` to a 256-bit integer."""
    payload = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


def hash_to_unit_interval(value: int) -> float:
    """Map a 256-bit hash value to a float in ``[0, 1)``.

    Only the top 53 bits are used so the result is exactly representable
    in a float64 and strictly below 1.0 even for the all-ones input.
    """
    top_bits = (value % 2**_HASH_BITS) >> (_HASH_BITS - _MANTISSA_BITS)
    return top_bits / float(2**_MANTISSA_BITS)


@dataclass(frozen=True)
class KeyPair:
    """A simulated public/private key pair.

    The public key doubles as the node's network identity, mirroring how
    Algorand addresses are public keys (paper Section II-B2).
    """

    public: int
    private: int

    @staticmethod
    def generate(seed_material: object) -> "KeyPair":
        """Deterministically derive a key pair from arbitrary seed material."""
        private = sha256_int("keygen.private", seed_material) % 2**64
        public = sha256_int("keygen.public", private) % 2**64
        return KeyPair(public=public, private=private)


@dataclass(frozen=True)
class VrfOutput:
    """The result of evaluating the simulated VRF.

    Attributes
    ----------
    value:
        Uniform value in ``[0, 1)`` used for sortition threshold tests.
    proof:
        The 256-bit digest acting as the verifiable proof ``sig_i(r, s, Q)``.
    """

    value: float
    proof: int


def vrf_evaluate(keypair: KeyPair, seed: int, round_index: int, step: int) -> VrfOutput:
    """Evaluate the VRF for ``(seed, round, step)`` under a private key.

    Mirrors ``sig_i(r, s, Q_{r-1})`` from paper Section II-B4: the sortition
    proof for step ``s`` of round ``r`` is a signature over the round, step
    and the previous round's publicly known seed.
    """
    proof = sha256_int("vrf", keypair.private, seed, round_index, step)
    return VrfOutput(value=hash_to_unit_interval(proof), proof=proof)


def subuser_priority(proof: int, subuser_index: int) -> float:
    """Priority of one selected sub-user: ``H(proof || index)`` in ``[0, 1)``.

    Algorand breaks ties between block proposers by hashing the sortition
    proof with each selected sub-user index and keeping the minimum; the
    block whose proposer has the *lowest* hash wins (highest priority).
    """
    if subuser_index < 0:
        raise CryptoError(f"sub-user index must be non-negative, got {subuser_index}")
    return hash_to_unit_interval(sha256_int("priority", proof, subuser_index))


def next_round_seed(previous_seed: int, round_index: int) -> int:
    """Derive the seed ``Q_r`` for the next round from ``Q_{r-1}``.

    Paper Section III-A: "a new seed is published in each round ... generated
    by VRF from the last seed value and the current round number".
    """
    return sha256_int("seed", previous_seed, round_index) % 2**64


def refresh_seed(previous_seed: int, round_index: int, refresh_interval: int) -> Tuple[int, bool]:
    """Advance the seed, applying the periodic security refresh.

    Algorand refreshes the seed every ``R`` rounds (paper Section III-A).
    Returns the new seed and a flag marking whether this round was a refresh
    boundary (used by the cost model to account for c_se).
    """
    if refresh_interval <= 0:
        raise CryptoError(f"refresh interval must be positive, got {refresh_interval}")
    refreshed = round_index % refresh_interval == 0 and round_index > 0
    if refreshed:
        new_seed = sha256_int("seed.refresh", previous_seed, round_index) % 2**64
    else:
        new_seed = next_round_seed(previous_seed, round_index)
    return new_seed, refreshed
