"""Golden pins of the batched sortition kernel's output bytes.

The differential suite holds :func:`~repro.sim.sortition.binomial_weights`
to the scalar :func:`~repro.sim.sortition.binomial_weight` element for
element.  That says nothing about history once both paths share code, so
this suite pins the SHA-256 of the ``int64`` weights for a fixed set of
batches, recorded before any rewrite of the CDF walk:

- the service audit's 5k and 30k zipf populations at three seeds, each
  inverted at a 2000-seat committee's probability, chunk by chunk as
  :func:`~repro.sim.fastpath.committee_step` draws them,
- the first 131072-agent chunk of the 10^6 zipf grid population at that
  population's committee probability (stored: computing it streams all
  10^6 agents),
- the Figure 3 shape: 80 nodes with U(1, 50) stakes tiled over steps,
  once per role, and
- hand-built edge batches: elements forced to full weight by pmf
  underflow, and elements that stop at ``j == units`` with ``p`` near 1.

Each batch also pins the SHA-256 of its inputs, so a failure says whether
the kernel or the population synthesis moved.

Regenerate (only when a change is *meant* to move sortition output) with::

    PYTHONPATH=src python tests/sim/test_sortition_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from repro.analysis.scale import ScaleConfig
from repro.sim.fastpath import committee_probability
from repro.sim.sortition import binomial_weights

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "sortition_weights.json"

#: Largest double below 1: the extreme tail of every CDF walk.
TAIL = float(np.nextafter(1.0, 0.0))

#: The audit's committee and the 10^6 grid's streaming window.
COMMITTEE_SEATS = 2000.0
GRID_AGENTS = 1_000_000
GRID_CHUNK = 131_072

#: A batch: (vrf values, stake units, probability).
Batch = Tuple[np.ndarray, np.ndarray, float]


def _population_batch(n_agents: int, seed: int, chunk_agents: Optional[int],
                      probability: Optional[float] = None) -> Batch:
    """One zipf population's committee draw, as ``committee_step`` makes it.

    ``chunk_agents`` set keeps only the first chunk; ``probability`` None
    computes the committee probability from the whole population.
    """
    spec = ScaleConfig(n_agents=n_agents, seed=seed).population_spec()
    chunks = spec.iter_chunks(chunk_agents)
    if chunk_agents is not None:
        chunks = [next(iter(chunks))]
    values, units = [], []
    for chunk in chunks:
        units.append(chunk.stake64().astype(np.int64))
        values.append(
            spec.chunk_draws(
                chunk.offset, chunk.n_agents, "committee.vrf",
                lambda rng, n: rng.random(n),
            )
        )
    units_all = np.concatenate(units)
    if probability is None:
        probability = committee_probability(COMMITTEE_SEATS, int(units_all.sum()))
    return np.concatenate(values), units_all, probability


def _grid_probability() -> float:
    """The 10^6 zipf population's committee probability (streams it all)."""
    spec = ScaleConfig(n_agents=GRID_AGENTS, seed=2021).population_spec()
    total = sum(
        int(chunk.stake64().astype(np.int64).sum())
        for chunk in spec.iter_chunks(GRID_CHUNK)
    )
    return committee_probability(COMMITTEE_SEATS, total)


def _fig3_batch(tau: float, steps: int) -> Batch:
    """80 nodes, U(1, 50) stakes, one role's values tiled over ``steps``."""
    rng = np.random.default_rng(2020)
    stakes = rng.uniform(1.0, 50.0, 80)
    units = stakes.astype(np.int64)
    values = rng.random(80 * steps)
    return values, np.tile(units, steps), min(1.0, tau / stakes.sum())


def _edge_batches() -> Dict[str, Batch]:
    return {
        # At p = 1e-3 a TAIL value with 1000+ units underflows the pmf
        # before the cdf passes it; the other elements walk normally.
        "edge_underflow": (
            np.array([TAIL, 0.5, TAIL, 0.999, TAIL, 0.0]),
            np.array([1_000, 1_000, 5_000, 3_000, 300, 1_000], dtype=np.int64),
            1e-3,
        ),
        # At p = 0.999 a TAIL value's cdf never passes it: the walk stops
        # at j == units without underflow.
        "edge_full_weight": (
            np.array([TAIL, TAIL, 0.5, TAIL, 0.9]),
            np.array([40, 10, 40, 3, 200], dtype=np.int64),
            0.999,
        ),
    }


def _batches(grid_probability: float) -> Dict[str, Batch]:
    batches: Dict[str, Batch] = {}
    for n_agents in (5_000, 30_000):
        for seed in (2021, 3, 7):
            batches[f"audit_{n_agents}_seed{seed}"] = _population_batch(
                n_agents, seed, None
            )
    batches["grid_1m_chunk0"] = _population_batch(
        GRID_AGENTS, 2021, GRID_CHUNK, grid_probability
    )
    for role, tau, steps in (("proposer", 8.0, 1), ("step", 60.0, 12),
                             ("final", 80.0, 1)):
        batches[f"fig3_80_{role}"] = _fig3_batch(tau, steps)
    batches.update(_edge_batches())
    return batches


def _sha256(*arrays: np.ndarray) -> str:
    """Digest of the arrays' little-endian bytes, concatenated."""
    digest = hashlib.sha256()
    for array in arrays:
        little_endian = array.dtype.newbyteorder("<")
        digest.update(np.ascontiguousarray(array, dtype=little_endian).tobytes())
    return digest.hexdigest()


def _record(batch: Batch) -> dict:
    values, units, probability = batch
    weights = binomial_weights(values, units, probability)
    return {
        "agents": int(values.size),
        "probability": probability.hex(),
        "inputs_sha256": _sha256(values, units),
        "weights_sha256": _sha256(weights),
        "weight_sum": int(weights.sum()),
        "max_weight": int(weights.max()),
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def batches() -> Dict[str, Batch]:
    grid = GOLDEN["batches"]["grid_1m_chunk0"]["probability"]
    return _batches(float.fromhex(grid))


def test_golden_covers_every_batch(batches):
    assert sorted(GOLDEN["batches"]) == sorted(batches)


@pytest.mark.parametrize("name", sorted(GOLDEN["batches"]))
def test_weights_match_golden(name, batches):
    expected = GOLDEN["batches"][name]
    record = _record(batches[name])
    # Inputs first: a population-synthesis change is not a kernel change.
    assert record["inputs_sha256"] == expected["inputs_sha256"], name
    assert record["probability"] == expected["probability"], name
    assert record == expected, name


def test_batches_reach_the_tail_cases(batches):
    """The pins cover whales, the underflow rule and the units stop."""
    values, units, p = batches["edge_underflow"]
    weights = binomial_weights(values, units, p)
    assert weights[0] == 1_000 and weights[2] == 5_000 and weights[4] == 300
    values, units, p = batches["edge_full_weight"]
    weights = binomial_weights(values, units, p)
    assert weights[0] == 40 and weights[1] == 10 and weights[3] == 3
    values, units, p = batches["audit_5000_seed2021"]
    assert binomial_weights(values, units, p).max() >= 100


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    batches = _batches(_grid_probability())
    payload = {
        "note": (
            "SHA-256 of binomial_weights' int64 (little-endian) output per "
            "batch; probability is float.hex; see tests/sim/"
            "test_sortition_golden.py"
        ),
        "batches": {name: _record(batch) for name, batch in batches.items()},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
