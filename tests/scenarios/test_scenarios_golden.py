"""Golden bytes for the scenario engine.

``golden/scenarios_small.csv`` holds the bytes of
``repro-runner scenarios --scale small``: every scenario family and
scheme, epoch by epoch, through :mod:`repro.scenarios.dynamics`.  A
change that moves the scenario engine onto another kernel must keep
these bytes (CI also ``cmp``\\ s the CLI CSV against this file).

``golden/scenario_records_paper.json`` pins the paper-size runs the
small CSV is too small to reach: the SHA-256 of every
:func:`~repro.scenarios.dynamics.run_scenario` trajectory payload (full
``repr`` floats) for the seven families x five schemes at 80 players
and 30 epochs, ``simulate_rounds=0``, seed 2021.  It was recorded on the
scalar-game engine, before epochs moved onto array pool tables.

Regenerate (only when a change is *meant* to move these bytes) with::

    PYTHONPATH=src python tests/scenarios/test_scenarios_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "scenarios_small.csv"
PAPER_PATH = GOLDEN_DIR / "scenario_records_paper.json"

#: The built-in schemes, at their default parameters.
PAPER_SCHEMES = ("foundation", "role_based", "irs", "axiomatic_tau", "hybrid")
PAPER_OVERRIDES = {"n_players": 80, "n_epochs": 30, "simulate_rounds": 0}
PAPER_SEED = 2021


def scenarios_csv(out_dir: Path) -> bytes:
    """The CLI's small-scale scenarios CSV bytes."""
    from repro.analysis.runner import main

    code = main(
        ["scenarios", "--scale", "small", "--out", str(out_dir), "--no-progress"]
    )
    assert code == 0
    return (out_dir / "scenarios.csv").read_bytes()


def paper_digests() -> Dict[str, str]:
    """SHA-256 of each paper-size trajectory payload, keyed ``family/scheme``."""
    from repro.scenarios.dynamics import run_scenario
    from repro.scenarios.registry import get_scenario, scenario_names

    digests: Dict[str, str] = {}
    for family in scenario_names():
        spec = get_scenario(family).with_overrides(**PAPER_OVERRIDES)
        for scheme in PAPER_SCHEMES:
            payload = run_scenario(spec, scheme, PAPER_SEED).to_payload()
            data = json.dumps(payload, sort_keys=True).encode()
            digests[f"{family}/{scheme}"] = hashlib.sha256(data).hexdigest()
    return digests


def test_small_scenarios_csv_matches_golden(tmp_path):
    assert scenarios_csv(tmp_path) == GOLDEN_PATH.read_bytes()


def test_paper_size_trajectories_match_golden():
    expected = json.loads(PAPER_PATH.read_text())["digests"]
    assert len(expected) == 7 * len(PAPER_SCHEMES)
    assert paper_digests() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_scenarios_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN_PATH.write_bytes(scenarios_csv(Path(scratch)))
    print(f"wrote {GOLDEN_PATH}")
    record = {
        "note": (
            "SHA-256 of json.dumps(run_scenario(spec, scheme, seed)"
            ".to_payload(), sort_keys=True); see tests/scenarios/"
            "test_scenarios_golden.py"
        ),
        "overrides": PAPER_OVERRIDES,
        "seed": PAPER_SEED,
        "digests": paper_digests(),
    }
    PAPER_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PAPER_PATH}")
