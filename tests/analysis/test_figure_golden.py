"""Golden pins of the Figure 5, 6 and 7(c) CSVs and the fig6/fig7c shard keys.

``golden/fig{5,6,7c}_small.csv`` are the bytes ``runner <fig> --scale
small --workers 1 --out`` writes, and ``golden/figure_shard_keys.json``
holds every ``Shard.key`` of :func:`fig6_sweep_spec` and
:func:`fig7c_sweep_spec` at the ``small`` preset.  A shard key names a
cached result on disk, so a refactor of the figure drivers must keep
both the CSV bytes and the keys: a ``--cache-dir`` written before it
then still reads as fully cached.

Regenerate (only when a change is *meant* to move them) with::

    PYTHONPATH=src python tests/analysis/test_figure_golden.py --write
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.reward_comparison import fig6_sweep_spec, fig7c_sweep_spec
from repro.analysis.runner import run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"
KEYS_PATH = GOLDEN / "figure_shard_keys.json"
FIGURES = ("fig5", "fig6", "fig7c")


def figure_csv(name: str, out: Path) -> bytes:
    """The CSV bytes ``runner <name> --scale small --workers 1`` writes."""
    outcome = run_experiment(name, scale="small", out=out, workers=1)
    return outcome.csv_path.read_bytes()


def shard_keys() -> Dict[str, List[str]]:
    """Every shard key of the fig6 and fig7c campaigns at ``--scale small``."""
    specs = (
        fig6_sweep_spec(EXPERIMENTS["fig6"].configure("small", {})),
        fig7c_sweep_spec(EXPERIMENTS["fig7c"].configure("small", {})),
    )
    return {spec.name: [shard.key for shard in spec.shards()] for spec in specs}


@pytest.mark.parametrize("name", FIGURES)
def test_figure_csv_matches_golden(name, tmp_path):
    assert figure_csv(name, tmp_path) == (GOLDEN / f"{name}_small.csv").read_bytes()


def test_shard_keys_match_golden():
    assert shard_keys() == json.loads(KEYS_PATH.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_figure_golden.py --write")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in FIGURES:
            path = GOLDEN / f"{name}_small.csv"
            path.write_bytes(figure_csv(name, Path(scratch)))
            print(f"wrote {path}")
    KEYS_PATH.write_text(json.dumps(shard_keys(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {KEYS_PATH}")
