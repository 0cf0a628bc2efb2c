"""Golden pins of the service's canonical job params and memoization keys.

``job_keys.json`` records, for about twenty requests across the four job
kinds, the canonical params :func:`repro.service.prepare_job` derives
and the SHA-256 key they hash to.  The cases cover service defaults,
widened audit grids, ``family_params``, both dtypes, every accepted
``backend`` spelling and explicit ``chunk_agents``.  A memo key is a
promise to clients (repeat requests hit the cache, shard caches stay
warm), so a refactor of the validation layer must reproduce every entry
byte for byte.

One entry is a documented alias: ``audit-defaults`` was recorded while
an omitted ``chunk_agents`` canonicalized to ``None``, a second key for
the computation ``audit-defaults-explicit-chunk`` already names.  It now
maps to that pinned explicit key (see :data:`ALIASES`).

Two requests once pinned here, ``scenarios-des`` and ``tournament-des``,
asked for the discrete-event simulator, which is now the kernel's test
oracle and no longer a backend.  They are :data:`REJECTED`: the service
must refuse them instead of keying them.

Regenerate (only when a change is *meant* to move keys) with::

    PYTHONPATH=src python tests/service/test_job_key_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.errors import ConfigurationError
from repro.service import prepare_job

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "job_keys.json"

#: (case name, kind, request params).
CASES: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("audit-defaults", "audit", {}),
    ("audit-defaults-explicit-chunk", "audit", {"chunk_agents": 131072}),
    (
        "audit-two-schemes",
        "audit",
        {"agents": 2000, "schemes": ["foundation", "role_based"], "chunk_agents": 4096},
    ),
    (
        "audit-widened-grid",
        "audit",
        {
            "agents": 5000,
            "chunk_agents": 8192,
            "budget_multipliers": [1, 1.5],
            "cost_scales": [0.5, 2],
        },
    ),
    (
        "audit-lognormal-float32",
        "audit",
        {
            "family": "lognormal",
            "family_params": {"median": 10.0, "sigma": 1.0},
            "agents": 3000,
            "chunk_agents": 1024,
            "dtype": "float32",
            "seed": 5,
        },
    ),
    (
        "audit-float64-seed0",
        "audit",
        {"agents": 1000, "dtype": "float64", "seed": 0, "chunk_agents": 131072},
    ),
    (
        "audit-pareto",
        "audit",
        {
            "family": "pareto",
            "family_params": {"alpha": 1.8},
            "agents": 4000,
            "chunk_agents": 2048,
            "schemes": ["hybrid"],
        },
    ),
    ("dynamics-defaults", "dynamics", {}),
    (
        "dynamics-e2e",
        "dynamics",
        {"agents": 8192, "epochs": 2, "schemes": ["role_based"]},
    ),
    (
        "dynamics-lognormal-float32",
        "dynamics",
        {
            "name": "dynamics-small",
            "family": "lognormal",
            "family_params": {"median": 10.0, "sigma": 1.0},
            "agents": 8192,
            "epochs": 2,
            "schemes": ["role_based"],
            "dtype": "float32",
        },
    ),
    (
        "dynamics-explicit-chunk",
        "dynamics",
        {"agents": 600, "chunk_agents": 4096, "seed": 9, "name": "probe"},
    ),
    (
        "dynamics-zipf-float64",
        "dynamics",
        {"family_params": {"exponent": 1.8}, "dtype": "float64", "agents": 10000},
    ),
    ("scenarios-defaults", "scenarios", {}),
    (
        "scenarios-fast",
        "scenarios",
        {"backend": "fast", "replications": 1, "simulate_rounds": 0, "seed": 3},
    ),
    ("scenarios-null-backend", "scenarios", {"backend": None}),
    ("tournament-defaults", "tournament", {}),
    (
        "tournament-widened",
        "tournament",
        {"budget_multipliers": [1.25], "cost_scales": [2.0]},
    ),
    (
        "tournament-grid",
        "tournament",
        {
            "budget_multipliers": [1, 1.5, 2],
            "cost_scales": [0.5, 1],
            "players": 10,
            "epochs": 3,
            "replications": 1,
            "simulate_rounds": 0,
            "seed": 2021,
            "backend": "fast",
        },
    ),
)

#: Requests that once had keys and must now be refused.
REJECTED: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("scenarios-des", "scenarios", {"backend": "des", "players": 12, "epochs": 3}),
    ("tournament-des", "tournament", {"backend": "des"}),
)

#: Cases whose pinned entry was a second key for one computation; each
#: must now produce the entry of the case it aliases.
ALIASES: Dict[str, str] = {"audit-defaults": "audit-defaults-explicit-chunk"}


def compute_entries() -> List[Dict[str, Any]]:
    """One golden entry per case, from the current ``prepare_job``."""
    entries = []
    for name, kind, params in CASES:
        job = prepare_job(kind, params)
        entries.append(
            {
                "name": name,
                "kind": kind,
                "params": params,
                "canonical": job.params,
                "key": job.key,
            }
        )
    return entries


def _canonical_bytes(entry: Dict[str, Any]) -> str:
    return json.dumps(
        {"canonical": entry["canonical"], "key": entry["key"]}, sort_keys=True
    )


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    return {entry["name"]: entry for entry in json.loads(GOLDEN_PATH.read_text())}


@pytest.fixture(scope="module")
def current() -> Dict[str, Dict[str, Any]]:
    return {entry["name"]: entry for entry in compute_entries()}


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, _, _ in CASES)
    assert {entry["kind"] for entry in golden.values()} == {
        "audit",
        "dynamics",
        "scenarios",
        "tournament",
    }


@pytest.mark.parametrize("name", [name for name, _, _ in CASES])
def test_job_key_matches_golden(name, golden, current):
    pinned = golden[ALIASES.get(name, name)]
    assert current[name]["params"] == golden[name]["params"]
    assert _canonical_bytes(current[name]) == _canonical_bytes(pinned)


@pytest.mark.parametrize(
    "name, kind, params", REJECTED, ids=[name for name, _, _ in REJECTED]
)
def test_des_request_is_refused(name, kind, params, golden):
    assert name not in golden
    with pytest.raises(ConfigurationError, match="tests/des"):
        prepare_job(kind, params)


def test_aliases_were_distinct_keys_when_pinned(golden):
    """The alias entries record the old duplicate key, not a typo."""
    for name, target in ALIASES.items():
        assert golden[name]["key"] != golden[target]["key"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_job_key_golden.py --write")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_entries(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
