"""Golden SHA-256 pins of the population audit's bytes.

Single-cell audits and fused grid cells share one gain kernel, so a
fused-vs-per-cell comparison cannot catch a drift that moves both.  This
suite pins the kernel's output to digests recorded before any kernel
rewrite:

- every per-agent gain tensor :func:`iter_population_gains` streams, for
  every registered scheme under the ``theorem3``, ``all_c`` and
  ``population`` targets (the population cases cover a failed base block
  and the sole strong-synchrony defector who can restore it);
- the fused grid payload for 3 budget multipliers x 2 cost scales on a
  multi-block 20k-agent zipf population, at a streamed and the
  monolithic chunk size, serial and on in-call threads.

Regenerate (only when a change is *meant* to move audit bytes) with::

    PYTHONPATH=src python tests/schemes/test_audit_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.populations import SEED_BLOCK, PopulationSpec
from repro.populations import threads as threads_module
from repro.schemes.deviation import SWITCH
from repro.schemes.population_audit import (
    PopulationAuditConfig,
    _build_structure,
    _chunk_context,
    _chunks,
    audit_population_grid,
    iter_population_gains,
)
from repro.schemes.registry import resolve_scheme, scheme_names

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "population_audit.json"

_ZIPF = PopulationSpec(
    family="zipf",
    size=2 * SEED_BLOCK + 321,
    params={"exponent": 1.9, "scale": 3.0},
    seed=11,
)
_SHAPE = {"n_leaders": 3, "committee_size": 8, "chunk_agents": SEED_BLOCK}

#: (case name, population, audit config) for the gain-tensor digests.
GAIN_CASES = (
    ("theorem3", _ZIPF, PopulationAuditConfig(target="theorem3", **_SHAPE)),
    ("all_c", _ZIPF, PopulationAuditConfig(target="all_c", **_SHAPE)),
    (
        "population_failed_block",
        _ZIPF.with_overrides(cooperation=0.7),
        PopulationAuditConfig(target="population", **_SHAPE),
    ),
    (
        "population_sole_defector",
        PopulationSpec(family="uniform", size=150, cooperation=0.992, seed=0),
        PopulationAuditConfig(
            target="population", n_leaders=2, committee_size=5, chunk_agents=64
        ),
    ),
)

GRID_SPEC = PopulationSpec(
    family="zipf", size=20_000, params={"exponent": 1.9, "scale": 3.0}, seed=2021
)
GRID_BUDGETS = (0.5, 1.0, 2.0)
GRID_SCALES = (0.5, 2.0)
GRID_CHUNKS = (8192, None)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gain_digest(
    scheme: str, spec: PopulationSpec, config: PopulationAuditConfig
) -> str:
    """SHA-256 of the streamed ``(n, 3)`` gain tensor, chunks stacked."""
    gains = np.vstack([g for _, g, _ in iter_population_gains(scheme, spec, config)])
    return _sha256(np.ascontiguousarray(gains, dtype=np.float64).tobytes())


def grid_digest(chunk_agents) -> str:
    """SHA-256 of the canonical JSON grid payload at one chunk size."""
    config = PopulationAuditConfig(chunk_agents=chunk_agents)
    grid = audit_population_grid(
        scheme_names(),
        GRID_SPEC,
        config,
        budget_multipliers=GRID_BUDGETS,
        cost_scales=GRID_SCALES,
    )
    return _sha256(json.dumps(grid.to_payload(), sort_keys=True).encode())


def compute_digests() -> Dict[str, str]:
    """Every pinned digest, keyed by a stable case label."""
    digests: Dict[str, str] = {}
    for case, spec, config in GAIN_CASES:
        for scheme in scheme_names():
            digests[f"gains/{case}/{scheme}"] = gain_digest(scheme, spec, config)
    for chunk_agents in GRID_CHUNKS:
        digests[f"grid/chunk={chunk_agents}"] = grid_digest(chunk_agents)
    return digests


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenAuditBytes:
    def test_population_cases_hit_the_failed_block_branches(self):
        role_based = [resolve_scheme("role_based")]
        by_case = {case: (spec, config) for case, spec, config in GAIN_CASES}
        failed = _build_structure(role_based, *by_case["population_failed_block"])
        assert not failed.census.holds and failed.census.sync_defectors > 1
        spec, config = by_case["population_sole_defector"]
        sole = _build_structure(role_based, spec, config)
        assert not sole.census.holds and sole.census.sync_defectors == 1
        restorers = [
            chunk.offset + row
            for chunk in _chunks(spec, config)
            for row in sole.census.flips(_chunk_context(sole, spec, chunk), SWITCH)
        ]
        assert len(restorers) == 1

    def test_fixture_covers_every_scheme_and_case(self):
        assert sorted(_golden()) == sorted(
            [
                f"gains/{case}/{scheme}"
                for case, _, _ in GAIN_CASES
                for scheme in scheme_names()
            ]
            + [f"grid/chunk={chunk}" for chunk in GRID_CHUNKS]
        )

    @pytest.mark.parametrize("case", [case for case, _, _ in GAIN_CASES])
    @pytest.mark.parametrize("scheme", scheme_names())
    def test_gain_tensor_matches_golden(self, case, scheme):
        _, spec, config = next(item for item in GAIN_CASES if item[0] == case)
        assert gain_digest(scheme, spec, config) == _golden()[f"gains/{case}/{scheme}"]

    @pytest.mark.parametrize("chunk_agents", GRID_CHUNKS)
    def test_grid_payload_matches_golden(self, chunk_agents):
        assert grid_digest(chunk_agents) == _golden()[f"grid/chunk={chunk_agents}"]

    @pytest.mark.parametrize("threads", (1, 2))
    def test_grid_payload_matches_golden_at_thread_count(self, threads, monkeypatch):
        monkeypatch.setattr(threads_module, "THREADS", threads)
        monkeypatch.setattr(threads_module, "MIN_SLICE_BLOCKS", 1)
        for chunk_agents in GRID_CHUNKS:
            assert grid_digest(chunk_agents) == _golden()[f"grid/chunk={chunk_agents}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_audit_golden.py --write")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
