"""CI guard: the streamed dynamics trajectories must match the goldens.

The golden JSON fixtures under ``tests/scenarios/golden/`` pin the full
epoch trajectories (every record field, bit-exact floats) of small
fixed-seed populations:

* the paper's two Section V schemes under the replicator rule —
  foundation unravels, role-based sharing stabilizes
  (``population_dynamics_{foundation,role_based}.json``, bare trajectory
  payloads);
* the paths those two leave unpinned — the ``best_response`` rule, stake
  churn, the ``irs`` and ``axiomatic_tau`` schemes, a float32 population
  and a run whose epoch 1 fails on a sole strong-synchrony defector
  whose return to C the block rule counts as restoring the block
  (``population_dynamics_<case>.json``, each carrying its own
  ``spec`` and ``scheme`` next to the ``trajectory`` so the replay test
  needs no copy of the case table).

This script re-runs the streamed driver and fails if any byte of any
payload diverges, so a refactor of the chunked kernels can't silently
change the paper's conclusions.  Exits non-zero on divergence (fails the
CI job).

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_dynamics_drift.py
    PYTHONPATH=src python benchmarks/check_dynamics_drift.py --write  # regen

``--write`` regenerates the fixtures — only for intentional semantic
changes, with the diff reviewed and the campaign version bumped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

_REPO_ROOT = Path(__file__).resolve().parent.parent
_GOLDEN_DIR = _REPO_ROOT / "tests" / "scenarios" / "golden"

#: The two bare-payload fixtures: the Section V replicator verdicts.
SCHEMES = ("foundation", "role_based")

#: Self-describing cases: name -> (spec overrides, scheme).  Each runs
#: on a three-seed-block population (two full blocks and a ragged tail;
#: Zipf unless overridden) streamed in one-block chunks, so every pass
#: crosses chunk seams.
CASES: Dict[str, Tuple[Dict[str, Any], str]] = {
    "best_response_foundation": ({"update_rule": "best_response"}, "foundation"),
    "best_response_role_based": ({"update_rule": "best_response"}, "role_based"),
    "best_response_irs": ({"update_rule": "best_response"}, "irs"),
    "churn_foundation": ({"churn_rate": 0.05}, "foundation"),
    "churn_role_based": ({"churn_rate": 0.05}, "role_based"),
    "churn_irs": ({"churn_rate": 0.05}, "irs"),
    "irs_cost_jitter": ({"population": {"cost_jitter": 0.25}}, "irs"),
    "axiomatic_tau": ({}, "axiomatic_tau"),
    # Continuous stakes and jittered costs, so the float32 cast rounds.
    "float32_role_based": (
        {
            "population": {
                "dtype": "float32",
                "family": "lognormal",
                "params": {"median": 10.0, "sigma": 1.0},
                "cost_jitter": 0.25,
            }
        },
        "role_based",
    ),
    # Budget below the Theorem 3 optimum on continuous stakes: exactly
    # one strong-synchrony agent (the smallest stake) best-responds with
    # D, so epoch 1 fails on a sole defector whose return restores it.
    "sole_sync_defector": (
        {
            "update_rule": "best_response",
            "budget_multiplier": 0.9,
            "population": {
                "family": "lognormal",
                "params": {"median": 10.0, "sigma": 1.0},
                "cooperation": 0.95,
            },
        },
        "role_based",
    ),
}


def golden_path(name: str) -> Path:
    """Fixture location for one pinned trajectory (scheme or case name)."""
    return _GOLDEN_DIR / f"population_dynamics_{name}.json"


def golden_spec():
    """The Section V replicator run: small, fixed-seed, chunked."""
    from repro.populations import PopulationSpec
    from repro.scenarios.population_dynamics import PopulationDynamicsSpec

    return PopulationDynamicsSpec(
        name="golden",
        population=PopulationSpec(
            family="zipf",
            size=16_384,
            params={"exponent": 1.9, "scale": 3.0},
            cooperation=0.9,
            seed=2021,
        ),
        n_epochs=8,
        chunk_agents=8_192,
    )


def case_spec(name: str):
    """The spec of one self-describing case."""
    from repro.populations import SEED_BLOCK, PopulationSpec
    from repro.scenarios.population_dynamics import PopulationDynamicsSpec

    overrides, _scheme = CASES[name]
    overrides = dict(overrides)
    population = {
        "family": "zipf",
        "size": 2 * SEED_BLOCK + 700,
        "params": {"exponent": 1.9, "scale": 3.0},
        "cooperation": 0.9,
        "seed": 2021,
    }
    population.update(overrides.pop("population", {}))
    settings = {
        "name": f"golden-{name}",
        "population": PopulationSpec(**population),
        "n_epochs": 6,
        "chunk_agents": SEED_BLOCK,
    }
    settings.update(overrides)
    return PopulationDynamicsSpec(**settings)


def _canonical(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def compute_payload(name: str) -> str:
    """One fixture's content (scheme name or case name), canonically."""
    from repro.scenarios.population_dynamics import run_population_dynamics

    if name in SCHEMES:
        return _canonical(run_population_dynamics(golden_spec(), name).to_payload())
    spec = case_spec(name)
    scheme = CASES[name][1]
    return _canonical(
        {
            "scheme": scheme,
            "spec": spec.to_params(),
            "trajectory": run_population_dynamics(spec, scheme).to_payload(),
        }
    )


def main(argv=None) -> int:
    """Compare (or with ``--write`` regenerate) the golden trajectories."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate the golden fixtures instead of checking them",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(_REPO_ROOT / "src"))

    failed = False
    for name in SCHEMES + tuple(CASES):
        path = golden_path(name)
        current = compute_payload(name)
        if args.write:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(current)
            print(f"wrote {path}")
            continue
        if not path.exists():
            print(f"FAIL: missing golden fixture {path} (run with --write)")
            failed = True
            continue
        if path.read_text() != current:
            print(
                f"FAIL: {name} trajectory diverged from {path.name} — the "
                "streamed dynamics semantics changed; if intentional, bump "
                "CAMPAIGN_VERSION and regenerate with --write"
            )
            failed = True
        else:
            print(f"OK: {name} trajectory matches {path.name}")
    if failed:
        return 1
    if not args.write:
        print("dynamics goldens: no drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
