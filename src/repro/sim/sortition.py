"""Cryptographic sortition: private, stake-weighted role selection.

Algorand selects block proposers and per-step committee members by having
every node evaluate a VRF locally and map the uniform output to a number of
selected "sub-users" via the binomial distribution (Gilad et al., SOSP'17;
paper Section II-B4).  A node with stake ``w`` out of total stake ``W``,
for an expected committee size of ``tau`` sub-users, is selected with weight

    j  such that  vrf_value ∈ [ F(j-1; w, p), F(j; w, p) ),   p = tau / W,

where ``F`` is the binomial CDF.  The expected total selected weight across
the network is exactly ``tau``, selection is private (nobody can predict or
bias who is chosen), and the proof is publicly verifiable.

The selection is per *sub-user*: a node voting with weight ``j`` counts as
``j`` committee votes, which is how stake-weighting enters vote counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import SortitionError
from repro.sim import crypto
from repro.sim.crypto import KeyPair, VrfOutput


class Role(str, Enum):
    """Protocol roles a node can be selected for in a round.

    ``PROPOSER`` corresponds to leaders (set L in the paper), ``STEP`` to a
    BA* voting-step committee, and ``FINAL`` to the final-vote committee.
    """

    PROPOSER = "proposer"
    STEP = "step"
    FINAL = "final"


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


def binomial_weight(vrf_value: float, stake_units: int, probability: float) -> int:
    """Invert the binomial CDF at ``vrf_value`` for ``Binom(stake_units, p)``.

    Returns the unique ``j`` with ``F(j-1) <= vrf_value < F(j)``.  Computed
    with the standard multiplicative pmf recurrence, which is numerically
    stable for the small ``p`` regime sortition operates in.
    """
    if not 0.0 <= vrf_value < 1.0:
        raise SortitionError(f"vrf value must be in [0, 1), got {vrf_value}")
    if stake_units < 0:
        raise SortitionError(f"stake units must be non-negative, got {stake_units}")
    if not 0.0 <= probability <= 1.0:
        raise SortitionError(f"selection probability must be in [0, 1], got {probability}")
    if stake_units == 0 or probability == 0.0:
        return 0
    if probability == 1.0:
        return stake_units

    pmf = (1.0 - probability) ** stake_units
    return _finish_walk(
        vrf_value, stake_units, pmf, pmf, 0, probability / (1.0 - probability)
    )


#: Still-searching elements at or below which :func:`binomial_weights`
#: stops stepping in lockstep and finishes each element in scalar code: a
#: lockstep iteration costs about a dozen numpy calls however few elements
#: it carries, and in a heavy-tailed population most iterations carry a
#: handful of whales.
_SCALAR_TAIL = 64


def _finish_walk(
    value: float, units: int, pmf: float, cdf: float, j: int, ratio: float
) -> int:
    """Finish one element's CDF walk from ``pmf(j)`` and ``F(j)``.

    The recurrence is ``pmf(0) = (1-p)^w``, then
    ``pmf(k+1) = pmf(k) * (w-k)/(k+1) * ratio`` with ``ratio = p/(1-p)``.
    :func:`binomial_weight` walks from ``j = 0``; :func:`binomial_weights`
    hands its stragglers over wherever its lockstep walk leaves them.  The
    lockstep walk runs the same IEEE operations in the same order on
    ``float64`` arrays, so an element's result does not depend on where
    the handoff falls.
    """
    units_f = float(units)
    while cdf <= value and j < units:
        pmf = pmf * ((units_f - j) / (j + 1) * ratio)
        j += 1
        cdf = cdf + pmf
        if pmf < 1e-300 and cdf <= value:
            # Floating-point underflow in an extreme tail: everything that
            # remains is mass we can no longer resolve; select all of it.
            return units
    return j


def binomial_weights(
    vrf_values: Union[Sequence[float], np.ndarray],
    stake_units: Union[int, Sequence[int], np.ndarray],
    probability: float,
) -> np.ndarray:
    """Vectorized :func:`binomial_weight` over a population of nodes.

    Runs the same multiplicative pmf recurrence as the scalar path, so
    each element performs the identical sequence of floating-point
    operations it would perform under :func:`binomial_weight`, and the
    batch path is a drop-in replacement for it.

    The walk has two phases.  *Lockstep for the crowd*: after the initial
    ``F(0)`` test the kernel keeps the flat indices of elements with
    ``F(0) <= value`` and advances compacted ``float64`` copies of their
    state one ``j`` at a time, scattering each element back as it
    retires.  An iteration costs a fixed dozen numpy calls plus a term
    linear in the elements it carries.  *A scalar tail for the
    stragglers*: once at most ``_SCALAR_TAIL`` elements are still
    searching, each finishes in plain Python floats through the scalar
    path's own continuation, from the ``(pmf, F, j)`` the lockstep left
    it.  In a heavy-tailed population almost every agent retires at
    ``j = 0`` and a few whales need hundreds of steps; the lockstep runs
    only while the crowd is wide, and the whales cost a few hundred
    nanoseconds per step instead of a dozen numpy calls.

    ``vrf_values`` and ``stake_units`` broadcast against each other;
    ``probability`` is shared, matching one role's selection probability
    ``tau / W``.  Returns an ``int64`` array of selected sub-user counts.
    Non-finite VRF values and a NaN probability raise
    :class:`~repro.errors.SortitionError`, as the scalar path does.
    """
    values = np.asarray(vrf_values, dtype=float)
    units = np.asarray(stake_units, dtype=np.int64)
    # Written so NaN fails the test: min/max propagate NaN.
    if values.size and not (values.min() >= 0.0 and values.max() < 1.0):
        raise SortitionError("vrf values must be finite and in [0, 1)")
    if units.size and units.min() < 0:
        raise SortitionError("stake units must be non-negative")
    if not 0.0 <= probability <= 1.0:
        raise SortitionError(
            f"selection probability must be in [0, 1], got {probability}"
        )
    values, units = np.broadcast_arrays(values, units)
    if probability == 0.0:
        return np.zeros(values.shape, dtype=np.int64)
    if probability == 1.0:
        return units.astype(np.int64).copy()

    units_f = units.astype(float)
    pmf = (1.0 - probability) ** units_f
    selected = np.zeros(values.shape, dtype=np.int64)
    ratio = probability / (1.0 - probability)
    # selected == 0 here, so ``selected < units`` is ``units > 0``.
    index = np.flatnonzero((pmf <= values) & (units > 0))
    if not index.size:
        return selected
    pmf = pmf.ravel()[index]
    cdf = pmf.copy()
    value = values.ravel()[index]
    unit = units.ravel()[index]
    unit_f = units_f.ravel()[index]
    count = np.zeros(index.size, dtype=np.int64)
    flat = selected.reshape(-1)
    while index.size > _SCALAR_TAIL:
        pmf = pmf * ((unit_f - count) / (count + 1) * ratio)
        count += 1
        cdf = cdf + pmf
        searching = cdf <= value
        # Floating-point underflow in an extreme tail: the element is
        # forced to full weight (and so retires), like the scalar path.
        underflow = searching & (pmf < 1e-300)
        if underflow.any():
            count[underflow] = unit[underflow]
        searching &= count < unit
        if searching.all():
            continue
        retired = ~searching
        flat[index[retired]] = count[retired]
        index = index[searching]
        pmf, cdf, value = pmf[searching], cdf[searching], value[searching]
        unit, unit_f, count = unit[searching], unit_f[searching], count[searching]
    # The stragglers: plain Python floats and ints, not numpy scalars,
    # whose arithmetic is several times slower.
    ratio = float(ratio)
    for position, v, w, pmf_j, cdf_j, j in zip(
        index.tolist(), value.tolist(), unit.tolist(),
        pmf.tolist(), cdf.tolist(), count.tolist(),
    ):
        flat[position] = _finish_walk(v, w, pmf_j, cdf_j, j, ratio)
    return selected


def sample_population_weights(
    stakes: Union[Sequence[float], np.ndarray],
    total_stake: float,
    expected_size: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one round of sortition outcomes for an entire population.

    Draws an idealized-VRF uniform per node and inverts the binomial CDF in
    one batch — the vectorized equivalent of calling :func:`sortition` for
    every node, minus the per-node cryptography.  Used by population-scale
    analyses (committee-size calibration, role-stake sampling) where only
    the selected weights matter, not verifiable proofs.
    """
    if total_stake <= 0:
        raise SortitionError(f"total stake must be positive, got {total_stake}")
    if expected_size <= 0:
        raise SortitionError(
            f"expected committee size must be positive, got {expected_size}"
        )
    stakes_f = np.asarray(stakes, dtype=float)
    # Before the int cast: NaN/inf would cast to garbage with a warning.
    if not np.isfinite(stakes_f).all():
        raise SortitionError("stakes must be finite")
    units = stakes_f.astype(np.int64)
    if units.size and units.min() < 0:
        raise SortitionError("stakes must be non-negative")
    probability = min(1.0, expected_size / total_stake)
    values = rng.random(units.shape)
    return binomial_weights(values, units, probability)


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

    vrf = crypto.vrf_evaluate(keypair, seed, round_index, _role_step_tag(role, step))
    stake_units = int(stake)
    probability = min(1.0, expected_size / total_stake)
    weight = binomial_weight(vrf.value, stake_units, probability)
    priority = None
    if weight > 0:
        priority = min(
            crypto.subuser_priority(vrf.proof, index) for index in range(weight)
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


def verify_sortition(proof: SortitionProof, keypair: KeyPair, seed: int) -> bool:
    """Publicly verify a proof against the round seed ``Q_{r-1}`` (cost ``c_vs``).

    Recomputes the VRF under the claimed identity's key and re-derives the
    weight and priority from the public inputs carried by the proof.  The
    seed is public ledger state in the real protocol.
    """
    if proof.public_key != keypair.public:
        return False
    if not crypto.vrf_verify(
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
        crypto.subuser_priority(proof.vrf.proof, index) for index in range(proof.weight)
    )
    return proof.priority == expected_priority
