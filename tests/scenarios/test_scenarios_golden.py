"""Golden bytes for the scalar scenario engine.

``golden/scenarios_small.csv`` holds the bytes of
``repro-runner scenarios --scale small``: every scenario family and
scheme, epoch by epoch, through :mod:`repro.scenarios.dynamics`.  A
change that moves the scenario engine onto another kernel must keep
these bytes (CI also ``cmp``\\ s the CLI CSV against this file).

Regenerate (only when a change is *meant* to move these bytes) with::

    PYTHONPATH=src python tests/scenarios/test_scenarios_golden.py --write
"""

from __future__ import annotations

import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "scenarios_small.csv"


def scenarios_csv(out_dir: Path) -> bytes:
    """The CLI's small-scale scenarios CSV bytes."""
    from repro.analysis.runner import main

    code = main(
        ["scenarios", "--scale", "small", "--out", str(out_dir), "--no-progress"]
    )
    assert code == 0
    return (out_dir / "scenarios.csv").read_bytes()


def test_small_scenarios_csv_matches_golden(tmp_path):
    assert scenarios_csv(tmp_path) == GOLDEN_PATH.read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_scenarios_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN_PATH.write_bytes(scenarios_csv(Path(scratch)))
    print(f"wrote {GOLDEN_PATH}")
