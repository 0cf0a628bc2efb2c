"""Golden pins of the sampled audit's gain tensors and the tournament CSV.

The sampled engine (:func:`repro.schemes.audit._vectorized_gains`) feeds
every tournament IC margin, and it shares its closed-form deviation
kernel with the streamed audit and the streamed dynamics.  A
kernel-sharing refactor can move all of them at once, so this suite pins
two outputs recorded before any such rewrite:

- ``sampled_audit_gains.json``: every ``(3, B, N)`` gain tensor, as the
  exact ``repr`` of each float (``nan`` marks a player's current
  strategy), for every registered scheme under both target profiles, all
  three stake kinds, a budget below and above the Theorem 3 bound, and a
  sole-leader shape;
- ``tournament_small.csv``: the bytes of
  ``repro-runner tournament --scale small``.

Regenerate (only when a change is *meant* to move these bytes) with::

    PYTHONPATH=src python tests/schemes/test_sampled_audit_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.schemes.audit import (
    STAKE_KINDS,
    AuditConfig,
    _build_cell,
    _vectorized_gains,
)
from repro.schemes.registry import get_scheme, scheme_names

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GAINS_PATH = _GOLDEN_DIR / "sampled_audit_gains.json"
TOURNAMENT_PATH = _GOLDEN_DIR / "tournament_small.csv"

_SHAPE = dict(
    n_players=13,
    committee_size=6,
    n_populations=2,
    stake_kinds=STAKE_KINDS,
    cost_scales=(1.5,),
    budget_multipliers=(0.75, 1.25),
    oracle_samples=0,
    seed=7,
)

#: (case name, audit config): both targets, plus a sole leader whose
#: withdrawal alone breaks the block.
CASES: Tuple[Tuple[str, AuditConfig], ...] = (
    ("theorem3", AuditConfig(n_leaders=3, target="theorem3", **_SHAPE)),
    ("all_c", AuditConfig(n_leaders=3, target="all_c", **_SHAPE)),
    ("sole_leader", AuditConfig(n_leaders=1, target="theorem3", **_SHAPE)),
)


def _cells(config: AuditConfig):
    for stake_kind in config.stake_kinds:
        for cost_scale in config.cost_scales:
            for multiplier in config.budget_multipliers:
                label = f"{stake_kind}/c{cost_scale:g}/x{multiplier:g}"
                yield label, _build_cell(config, stake_kind, cost_scale, multiplier)


def tensor_lines(name: str, cell) -> List[str]:
    """One scheme's gain tensor: a line of float reprs per (target, population)."""
    gains = _vectorized_gains(get_scheme(name), cell)
    return [
        " ".join(repr(float(value)) for value in row)
        for row in gains.reshape(-1, gains.shape[-1])
    ]


def compute_gains() -> Dict[str, List[str]]:
    """Every pinned tensor, keyed ``case/stake_kind/cost/budget/scheme``."""
    return {
        f"{case}/{label}/{name}": tensor_lines(name, cell)
        for case, config in CASES
        for label, cell in _cells(config)
        for name in scheme_names()
    }


def tournament_csv(out_dir: Path) -> bytes:
    """The CLI's small-scale tournament CSV bytes."""
    from repro.analysis.runner import main

    code = main(
        ["tournament", "--scale", "small", "--out", str(out_dir), "--no-progress"]
    )
    assert code == 0
    return (out_dir / "tournament.csv").read_bytes()


def _golden_gains() -> Dict[str, List[str]]:
    return json.loads(GAINS_PATH.read_text())


class TestSampledAuditGolden:
    def test_fixture_covers_every_scheme_case_and_cell(self):
        expected = {
            f"{case}/{label}/{name}"
            for case, config in CASES
            for label, _ in _cells(config)
            for name in scheme_names()
        }
        assert set(_golden_gains()) == expected

    def test_cases_cover_a_sole_leader_and_both_targets(self):
        targets = {config.target for _, config in CASES}
        assert targets == {"theorem3", "all_c"}
        assert any(config.n_leaders == 1 for _, config in CASES)

    @pytest.mark.parametrize("case", [case for case, _ in CASES])
    def test_gain_tensors_match_golden(self, case):
        golden = _golden_gains()
        config = dict(CASES)[case]
        for label, cell in _cells(config):
            for name in scheme_names():
                key = f"{case}/{label}/{name}"
                assert tensor_lines(name, cell) == golden[key], key


class TestTournamentGolden:
    def test_small_tournament_csv_matches_golden(self, tmp_path):
        assert tournament_csv(tmp_path) == TOURNAMENT_PATH.read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_sampled_audit_golden.py --write")
    import tempfile

    _GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    GAINS_PATH.write_text(json.dumps(compute_gains(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GAINS_PATH}")
    with tempfile.TemporaryDirectory() as scratch:
        TOURNAMENT_PATH.write_bytes(tournament_csv(Path(scratch)))
    print(f"wrote {TOURNAMENT_PATH}")
