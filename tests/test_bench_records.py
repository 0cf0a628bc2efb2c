"""Every committed ``BENCH_*.json`` record passes its own write guard.

Each benchmark refuses to write a record its ``guard_violations`` finds
problems with; this pins that the records in the tree still agree with
the guards as they stand now, so a guard that tightens (or a record
edited by hand) cannot leave a committed record that contradicts it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Record file -> the benchmark script that writes and guards it.
RECORDS = {
    "BENCH_des.json": "bench_fastpath.py",
    "BENCH_dynamics.json": "bench_population_dynamics.py",
    "BENCH_scale.json": "bench_population_scale.py",
    "BENCH_schemes.json": "bench_scheme_audit.py",
}


def _load_script(name: str):
    """Import one benchmark script by path (benchmarks/ is no package)."""
    path = REPO_ROOT / "benchmarks" / name
    spec = importlib.util.spec_from_file_location(f"_bench_guard_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_committed_record_passes_its_guard(record):
    payload = json.loads((REPO_ROOT / record).read_text())
    script = _load_script(RECORDS[record])
    assert script.guard_violations(payload) == []
