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



def _scale_record():
    """The committed scale record and the script that guards it."""
    payload = json.loads((REPO_ROOT / "BENCH_scale.json").read_text())
    return payload, _load_script(RECORDS["BENCH_scale.json"])


def test_scale_rows_record_repeated_timings():
    """Each size row is the median of repeated runs, with its IQR beside it."""
    payload, script = _scale_record()
    for row in payload["sizes"]:
        assert row["repeats"] >= script.REPEATS
        for name in script.TIMINGS:
            assert row[f"{name}_iqr"] >= 0.0
        for name in script.GUARDED:
            assert row[f"{name}_iqr"] <= script.MAX_IQR_SHARE * row[name]


def test_scale_row_takes_median_iqr_and_largest_rss():
    script = _load_script(RECORDS["BENCH_scale.json"])
    payloads = [
        {
            "elapsed_s": elapsed,
            "peak_rss_mb": 100.0 + elapsed,
            "schemes": {
                "a": {"agents_per_second": 10.0 * elapsed, "certified": True},
                "b": {"agents_per_second": 30.0 * elapsed, "certified": False},
            },
            "committee": {"agents_per_s": 5.0},
            "minor_faults_per_million_agents": 1000.0 * elapsed,
        }
        for elapsed in (4.0, 1.0, 100.0, 3.0, 2.0)
    ]
    row = script._row(1000, payloads)
    assert row["repeats"] == 5
    # Sorted 1, 2, 3, 4, 100: median 3, quartiles 2 and 4.
    assert (row["elapsed_s"], row["elapsed_s_iqr"]) == (3.0, 2.0)
    audit = "audit_agents_per_second_mean"
    assert (row[audit], row[f"{audit}_iqr"]) == (60.0, 40.0)
    committee = "committee_agents_per_second"
    assert (row[committee], row[f"{committee}_iqr"]) == (5.0, 0.0)
    faults = "minor_faults_per_million_agents"
    assert (row[faults], row[f"{faults}_iqr"]) == (3000.0, 2000.0)
    assert row["peak_rss_mb"] == 200.0
    assert row["certified"] == {"a": True, "b": False}


def test_scale_rows_record_gain_pass_faults():
    payload, _script = _scale_record()
    for row in payload["sizes"]:
        assert row["minor_faults_per_million_agents"] > 0.0


@pytest.mark.parametrize("timing", ["elapsed_s", "audit_agents_per_second_mean"])
def test_scale_guard_refuses_a_wide_row(timing):
    payload, script = _scale_record()
    row = payload["sizes"][1]
    row[f"{timing}_iqr"] = 1.5 * script.MAX_IQR_SHARE * row[timing]
    problems = script.guard_violations(payload)
    assert len(problems) == 1 and f"{timing} IQR" in problems[0]


def test_scale_guard_refuses_a_single_sample_row():
    payload, script = _scale_record()
    payload["sizes"][1]["repeats"] = 1
    problems = script.guard_violations(payload)
    assert len(problems) == 1 and "1 repeats" in problems[0]


def _schemes_record():
    """The committed scheme-audit record and the script that guards it."""
    payload = json.loads((REPO_ROOT / "BENCH_schemes.json").read_text())
    return payload, _load_script(RECORDS["BENCH_schemes.json"])


def test_schemes_record_stores_median_and_iqr():
    payload, script = _schemes_record()
    assert payload["repeats"] >= script.REPEATS >= 5
    for name in script.TIMINGS:
        assert 0.0 <= payload[f"{name}_iqr"] <= script.MAX_IQR_SHARE * payload[name]
    medians = payload["scalar_oracle_s"] / payload["vectorized_s"]
    assert payload["speedup"] == round(medians, 1)


@pytest.mark.parametrize("timing", ["scalar_oracle_s", "vectorized_s"])
def test_schemes_guard_refuses_a_wide_timing(timing):
    payload, script = _schemes_record()
    payload[f"{timing}_iqr"] = 1.5 * script.MAX_IQR_SHARE * payload[timing]
    problems = script.guard_violations(payload)
    assert len(problems) == 1 and f"{timing} IQR" in problems[0]


def test_schemes_guard_refuses_a_single_sample_record():
    payload, script = _schemes_record()
    payload["repeats"] = 1
    problems = script.guard_violations(payload)
    assert len(problems) == 1 and "1 repeats" in problems[0]


def _dynamics_record():
    """The committed dynamics record and the script that guards it."""
    payload = json.loads((REPO_ROOT / "BENCH_dynamics.json").read_text())
    return payload, _load_script(RECORDS["BENCH_dynamics.json"])


def test_dynamics_rows_record_repeated_timings():
    """Each size row is the median of repeated runs, with its IQR beside it."""
    payload, script = _dynamics_record()
    for row in payload["sizes"]:
        assert row["repeats"] >= script.REPEATS >= 5
        for name in script.TIMINGS:
            assert row[f"{name}_iqr"] >= 0.0
        for name in script.GUARDED:
            assert row[f"{name}_iqr"] <= script.MAX_IQR_SHARE * row[name]
        assert row["minor_faults_per_million_agent_epochs"] > 0.0


def test_dynamics_row_takes_median_iqr_and_largest_rss():
    script = _load_script(RECORDS["BENCH_dynamics.json"])
    payloads = [
        {
            "n_epochs": 20,
            "threads": 2,
            "schemes": {"role_based": {"final_defection": 0.0}},
            "elapsed_s": elapsed,
            "agent_epochs_per_second": 10.0 / elapsed,
            "minor_faults_per_million_agent_epochs": 100.0 * elapsed,
            "peak_rss_mb": 50.0 + elapsed,
        }
        for elapsed in (4.0, 1.0, 5.0, 2.0, 100.0)
    ]
    row = script._row(1000, payloads, script._sample, script._verdict)
    assert row["repeats"] == 5
    # Sorted 1, 2, 4, 5, 100: median 4, quartiles 2 and 5.
    assert (row["elapsed_s"], row["elapsed_s_iqr"]) == (4.0, 3.0)
    rate = "agent_epochs_per_second"
    assert (row[rate], row[f"{rate}_iqr"]) == (2.5, 5.0 - 2.0)
    faults = "minor_faults_per_million_agent_epochs"
    assert (row[faults], row[f"{faults}_iqr"]) == (400.0, 300.0)
    assert row["peak_rss_mb"] == 150.0
    assert (row["n_epochs"], row["threads"]) == (20, 2)
    assert row["schemes"] == {"role_based": {"final_defection": 0.0}}


@pytest.mark.parametrize("timing", ["elapsed_s", "agent_epochs_per_second"])
def test_dynamics_guard_refuses_a_wide_row(timing):
    payload, script = _dynamics_record()
    row = payload["sizes"][-1]
    row[f"{timing}_iqr"] = 1.5 * script.MAX_IQR_SHARE * row[timing]
    problems = script.guard_violations(payload)
    assert len(problems) == 1 and f"{timing} IQR" in problems[0]


def test_dynamics_guard_refuses_a_single_sample_row():
    payload, script = _dynamics_record()
    payload["sizes"][-1]["repeats"] = 1
    problems = script.guard_violations(payload)
    assert len(problems) == 1 and "1 repeats" in problems[0]
