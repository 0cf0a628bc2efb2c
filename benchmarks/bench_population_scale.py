"""Population-scale audit throughput and memory versus population size.

Not a paper figure — the ROADMAP's "millions of users" scaling record.
Sweeps the chunked epsilon-IC audit (every registered scheme over a
streamed Zipf population) across population sizes up to 10^7, measuring
audit throughput (agents/second) and peak RSS, and re-checks the
acceptance invariant that the chunked path is bit-identical to the
monolithic path on a size that fits in memory.  Each measurement runs
in a fresh subprocess so its peak RSS is honest (``ru_maxrss`` is a
process lifetime maximum); every size is measured :data:`REPEATS`
times, interleaved with the other sizes, and its row records the median
and the interquartile range (IQR) of each timing.  Results land in
``BENCH_scale.json`` at the repo root — only when every invariant holds
and no row's audit timings spread wider than :data:`MAX_IQR_SHARE`
(:func:`guard_violations`).

Also records the fused verdict-tensor audit: the full (scheme x budget
x cost-scale) grid over the 10^7 population in **one** streamed pass
(:func:`repro.schemes.population_audit.audit_population_grid`) versus
the per-cell baseline that re-streams the population for every
(budget, cost-scale) cell — same verdicts, one pass, flat RSS.

The audit runs on in-call threads
(:data:`repro.populations.threads.THREADS`, derived from the CPUs the
process may use); the record also re-runs one streamed size serially and
requires the identical audit payload.

Run via ``pytest benchmarks/bench_population_scale.py`` (the full
sweep plus the grid comparison, a few minutes of which the per-cell
baseline is most), or directly::

    PYTHONPATH=src python benchmarks/bench_population_scale.py --sizes 10000,1000000
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_JSON = _REPO_ROOT / "BENCH_scale.json"

#: The swept population sizes (agents).  10^7 dominates the runtime.
DEFAULT_SIZES = (10_000, 100_000, 1_000_000, 10_000_000)

#: The audited population family — heavy-tailed, exchange-scale.
FAMILY = "zipf"
FAMILY_PARAMS = {"exponent": 1.9, "scale": 3.0}
CHUNK_AGENTS = 131_072
SEED = 2021

#: The fused verdict-tensor comparison: every registered scheme audited
#: at each (budget, cost-scale) cell over the largest swept population,
#: once fused (one streamed pass) and once per cell (a fresh streamed
#: audit per cell — the pre-fusion baseline).
GRID_AGENTS = 10_000_000
GRID_BUDGETS = (1.0, 1.5, 2.0)
GRID_COST_SCALES = (0.5, 1.0, 2.0)

#: The streamed size (above ``RESIDENT_BYTES``) re-run at one thread:
#: its audit payload must equal the threaded run's.
SERIAL_CHECK_AGENTS = 1_000_000

#: O(chunk) memory: the largest size's (and the fused grid's) peak RSS
#: stays below this multiple of the smallest size's, while the
#: population grows 1000x.
RSS_GROWTH_LIMIT = 6

#: Fresh-process measurements per size.  The sweep runs the sizes in
#: turn, ``REPEATS`` times over, so drift on a shared host lands on every
#: size alike.
REPEATS = 5

#: A row is refused when the IQR of one of its :data:`GUARDED` timings
#: exceeds this share of their median: such a row could not tell a 1.5x
#: change from the host's drift.  On a shared 2-vCPU host, three of four
#: sweeps had a row whose elapsed or audit-rate IQR was 29-48% of its
#: median.
MAX_IQR_SHARE = 0.5

#: The measured row fields; each is stored as a median with an ``_iqr``
#: twin.  ``minor_faults_per_million_agents`` counts the page faults
#: (``RUSAGE_SELF`` ``ru_minflt``) taken inside ``run_scale``, both passes
#: and the committee included, per 10^6 agents.
TIMINGS = (
    "elapsed_s",
    "audit_agents_per_second_mean",
    "committee_agents_per_second",
    "minor_faults_per_million_agents",
)

#: The timings the spread guard holds.  The committee rate is recorded
#: but not held: its time is a sum of per-chunk steps, a few
#: milliseconds below 10^6 agents, and its IQR reached 54% at 10^5.
GUARDED = ("elapsed_s", "audit_agents_per_second_mean")


def _child_payload(
    size: int, chunk_agents: int, serial: bool = False
) -> Dict[str, object]:
    """Run one size's audit in-process and return its payload.

    ``serial`` pins the audit to one thread (the derived thread count is
    a module value, patched here as the tests patch it).
    """
    from repro.analysis.scale import ScaleConfig, run_scale
    from repro.populations import threads
    from repro.telemetry import capture

    if serial:
        threads.THREADS = 1
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with capture() as registry:
        result = run_scale(
            ScaleConfig(
                family=FAMILY,
                family_params=dict(FAMILY_PARAMS),
                n_agents=size,
                chunk_agents=chunk_agents,
                seed=SEED,
            )
        )
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    payload = dict(result.to_payload())
    payload["minor_faults_per_million_agents"] = faults * 1e6 / size
    payload["threads"] = threads.THREADS
    payload["telemetry"] = registry.snapshot()
    return payload


def _grid_child_payload(size: int, chunk_agents: int, mode: str) -> Dict[str, object]:
    """Run the grid audit in-process, fused or per cell, and report timing."""
    from dataclasses import replace

    from repro.analysis.scale import peak_rss_mb
    from repro.populations import PopulationSpec
    from repro.schemes.population_audit import (
        PopulationAuditConfig,
        audit_population_grid,
        audit_populations,
    )
    from repro.schemes.registry import scheme_names
    from repro.telemetry import capture, span

    spec = PopulationSpec(
        family=FAMILY, size=size, params=dict(FAMILY_PARAMS), seed=SEED
    )
    config = PopulationAuditConfig(chunk_agents=chunk_agents)
    verdicts: Dict[str, bool] = {}
    with capture() as registry:
        with span(f"bench.grid_{mode}", agents=size) as timer:
            if mode == "fused":
                grid = audit_population_grid(
                    scheme_names(),
                    spec,
                    config,
                    budget_multipliers=GRID_BUDGETS,
                    cost_scales=GRID_COST_SCALES,
                )
                for (name, b, c), report in grid.reports.items():
                    verdicts[f"{name}@b{b:g}c{c:g}"] = report.certified
            else:
                for b in GRID_BUDGETS:
                    for c in GRID_COST_SCALES:
                        reports = audit_populations(
                            scheme_names(),
                            spec,
                            replace(config, budget_multiplier=b, cost_scale=c),
                        )
                        for name, report in reports.items():
                            verdicts[f"{name}@b{b:g}c{c:g}"] = report.certified
    return {
        "elapsed_s": timer.elapsed_s,
        "peak_rss_mb": peak_rss_mb(),
        "verdicts": dict(sorted(verdicts.items())),
        "telemetry": registry.snapshot(),
    }


def _run_child(
    size: int, chunk_agents: int, grid_mode: str = "", serial: bool = False
) -> Dict[str, object]:
    """Measure one size in a fresh subprocess (honest per-size peak RSS)."""
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(size),
            "--chunk-agents", str(chunk_agents)]
    if grid_mode:
        argv += ["--grid-mode", grid_mode]
    if serial:
        argv.append("--serial")
    completed = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout)


def _monolithic_match(size: int = 10_000) -> bool:
    """The acceptance invariant: chunked verdicts == monolithic verdicts."""
    from repro.populations import PopulationSpec
    from repro.schemes.population_audit import (
        PopulationAuditConfig,
        audit_populations,
    )
    from repro.schemes.registry import scheme_names

    spec = PopulationSpec(
        family=FAMILY, size=size, params=dict(FAMILY_PARAMS), seed=SEED
    )
    chunked = audit_populations(
        scheme_names(), spec, PopulationAuditConfig(chunk_agents=CHUNK_AGENTS // 16)
    )
    monolithic = audit_populations(
        scheme_names(), spec, PopulationAuditConfig(chunk_agents=None)
    )
    return all(
        chunked[name].verdict_dict() == monolithic[name].verdict_dict()
        for name in scheme_names()
    )


def _median_iqr(values: List[float]) -> Tuple[float, float]:
    """The median and the interquartile range (linear quartiles)."""
    low, median, high = numpy.percentile(values, [25, 50, 75])
    return float(median), float(high - low)


def _audit_sample(payload: Dict[str, object]) -> Dict[str, float]:
    """One audit measurement's :data:`TIMINGS`."""
    schemes = payload["schemes"]
    return {
        "elapsed_s": payload["elapsed_s"],
        "audit_agents_per_second_mean": sum(
            entry["agents_per_second"] for entry in schemes.values()
        )
        / len(schemes),
        "committee_agents_per_second": payload["committee"]["agents_per_s"],
        "minor_faults_per_million_agents": payload["minor_faults_per_million_agents"],
    }


def _audit_verdict(payload: Dict[str, object]) -> Dict[str, object]:
    """The audit verdicts a row carries (the same in every repeat)."""
    return {
        "certified": {
            name: entry["certified"] for name, entry in payload["schemes"].items()
        }
    }


def _row(
    size: int,
    payloads: List[Dict[str, object]],
    sample: Callable[[Dict[str, object]], Dict[str, float]] = _audit_sample,
    verdict: Callable[[Dict[str, object]], Dict[str, object]] = _audit_verdict,
) -> Dict[str, object]:
    """One size's record row from its repeated measurements.

    Every value ``sample`` reads from a measurement is stored as the
    median of the repeats with its IQR beside it (``_iqr``); the peak RSS
    is the largest of the repeats', and ``verdict`` adds the fields it
    reads from the first repeat.  Other benchmarks' records reuse this
    with their own ``sample`` and ``verdict``.
    """
    samples = [sample(payload) for payload in payloads]
    row: Dict[str, object] = {"n_agents": size, "repeats": len(payloads)}
    for name in samples[0]:
        row[name], row[f"{name}_iqr"] = _median_iqr([values[name] for values in samples])
    row["peak_rss_mb"] = max(payload["peak_rss_mb"] for payload in payloads)
    row.update(verdict(payloads[0]))
    return row


def guard_violations(payload: Dict[str, object]) -> List[str]:
    """Every acceptance invariant a ``BENCH_scale.json`` payload breaks.

    Chunked == monolithic verdicts, serial == threaded audit payloads,
    fused grid verdicts == per-cell verdicts (and the fused pass
    faster), the O(chunk) RSS envelope, and per size at least
    :data:`REPEATS` measurements whose :data:`GUARDED` timings' IQR
    stays within :data:`MAX_IQR_SHARE` of their median.  A payload
    this returns problems for is never written.
    """
    problems = []
    for row in payload["sizes"]:
        if row["repeats"] < REPEATS:
            problems.append(
                f"{row['n_agents']} agents: {row['repeats']} repeats, "
                f"need {REPEATS}"
            )
        for name in GUARDED:
            if row[f"{name}_iqr"] > MAX_IQR_SHARE * row[name]:
                problems.append(
                    f"{row['n_agents']} agents: {name} IQR "
                    f"{row[name + '_iqr']:.3g} exceeds {MAX_IQR_SHARE:.0%} "
                    f"of its median {row[name]:.3g}"
                )
    if payload["monolithic_match_at_10k"] is not True:
        problems.append("chunked verdicts differ from the monolithic path")
    if payload["threads"]["serial_match"] is not True:
        problems.append(
            "the serial audit payload differs from the threaded one at "
            f"{payload['threads']['n_agents']} agents"
        )
    grid = payload["fused_grid"]
    if grid["verdicts_match"] is not True:
        problems.append("fused grid verdicts diverged from the per-cell baseline")
    if not grid["speedup"] > 1.0:
        problems.append(
            f"fused grid audit ({grid['fused_elapsed_s']:.1f}s) is not faster "
            f"than the per-cell baseline ({grid['per_cell_elapsed_s']:.1f}s)"
        )
    envelope = RSS_GROWTH_LIMIT * payload["sizes"][0]["peak_rss_mb"]
    if not payload["sizes"][-1]["peak_rss_mb"] < envelope:
        problems.append("peak RSS scaled with population size")
    if not grid["fused_peak_rss_mb"] < envelope:
        problems.append("fused grid audit RSS scaled with the number of cells")
    return problems


def run_benchmark(
    sizes=DEFAULT_SIZES,
    chunk_agents: int = CHUNK_AGENTS,
    grid_agents: int = GRID_AGENTS,
) -> Dict[str, object]:
    """Sweep the sizes, verify the invariants, write ``BENCH_scale.json``.

    Raises ``AssertionError`` instead of writing when the payload breaks
    :func:`guard_violations`: the committed record stays the last one
    that held.
    """
    from repro.telemetry import merge_snapshots

    measured: Dict[int, List[Dict[str, object]]] = {size: [] for size in sizes}
    snapshots: List[Dict[str, object]] = []
    for _ in range(REPEATS):
        for size in sizes:
            payload = _run_child(size, chunk_agents)
            # Counters are the same in every repeat: keep the first's.
            telemetry = payload.pop("telemetry")
            if not measured[size]:
                snapshots.append(telemetry)
            measured[size].append(payload)
    rows = [_row(size, measured[size]) for size in sizes]
    audits = {size: measured[size][0]["audit"] for size in sizes}
    derived_threads = measured[sizes[-1]][0]["threads"]
    serial_size = max(
        (size for size in sizes if size <= SERIAL_CHECK_AGENTS), default=sizes[0]
    )
    serial = _run_child(serial_size, chunk_agents, serial=True)
    serial.pop("telemetry")
    fused = _run_child(grid_agents, chunk_agents, grid_mode="fused")
    per_cell = _run_child(grid_agents, chunk_agents, grid_mode="percell")
    # Child order is deterministic (sweep order, then fused, then per-cell),
    # so the merged snapshot is too.
    snapshots += [fused.pop("telemetry"), per_cell.pop("telemetry")]
    payload = {
        "benchmark": "population-scale-chunked-audit",
        "date": datetime.date.today().isoformat(),
        "machine": (
            f"{os.cpu_count()}-core {platform.system()} container, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}"
        ),
        "note": (
            "Chunked epsilon-IC audit of every registered scheme over a "
            f"streamed {FAMILY} population ({FAMILY_PARAMS}), chunk_agents="
            f"{chunk_agents}, budget 1.5x the Theorem 3 bound.  Each size is "
            f"measured {REPEATS} times in fresh subprocesses, interleaved with "
            "the other sizes; a row's timings are the median with the IQR "
            "beside it (_iqr), and its peak RSS is the largest of the "
            "repeats'.  minor_faults_per_million_agents counts the page "
            "faults (RUSAGE_SELF ru_minflt) taken inside run_scale per 10^6 "
            "agents.  Peak RSS stays O(chunk) while "
            "population size grows 1000x.  monolithic_match asserts the "
            "chunked path reproduces the monolithic path's verdicts "
            "bit-identically at 10^4 agents.  The audit runs on the "
            "derived in-call thread count (threads.derived); threads."
            "serial_match asserts a one-thread re-run at threads.n_agents "
            "produces the identical audit payload.  The committee is drawn "
            "inside the audit's gain pass, so committee_agents_per_second "
            "divides the population by the accumulated time of those "
            "per-chunk committee steps.  fused_grid times the one-pass "
            "(scheme x budget x cost-scale) verdict tensor against the "
            "per-cell baseline that re-streams the population per cell."
        ),
        "family": FAMILY,
        "family_params": FAMILY_PARAMS,
        "chunk_agents": chunk_agents,
        "schemes": sorted(rows[0]["certified"]) if rows else [],
        "monolithic_match_at_10k": _monolithic_match(),
        "threads": {
            "derived": derived_threads,
            "n_agents": serial_size,
            "serial_match": serial["audit"] == audits[serial_size],
        },
        "sizes": rows,
        "fused_grid": {
            "n_agents": grid_agents,
            "budget_multipliers": list(GRID_BUDGETS),
            "cost_scales": list(GRID_COST_SCALES),
            "cells_per_scheme": len(GRID_BUDGETS) * len(GRID_COST_SCALES),
            "fused_elapsed_s": fused["elapsed_s"],
            "fused_peak_rss_mb": fused["peak_rss_mb"],
            "per_cell_elapsed_s": per_cell["elapsed_s"],
            "per_cell_peak_rss_mb": per_cell["peak_rss_mb"],
            "speedup": per_cell["elapsed_s"] / fused["elapsed_s"],
            "verdicts_match": fused["verdicts"] == per_cell["verdicts"],
        },
        "telemetry": merge_snapshots(snapshots),
    }
    violations = guard_violations(payload)
    if violations:
        raise AssertionError("not writing BENCH_scale.json: " + "; ".join(violations))
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _format_report(payload: Dict[str, object]) -> str:
    """Human-readable summary of the benchmark payload."""
    lines = [
        "Population-scale audit benchmark (all registered schemes, "
        f"family {payload['family']}, chunk {payload['chunk_agents']}):",
        f"{'agents':>12}  {'audit M agents/s (IQR)':>22}  {'peak RSS MB':>11}  "
        f"{'elapsed s (IQR)':>15}",
    ]
    for row in payload["sizes"]:
        lines.append(
            f"{row['n_agents']:>12,}  "
            f"{row['audit_agents_per_second_mean'] / 1e6:>14.2f} "
            f"({row['audit_agents_per_second_mean_iqr'] / 1e6:>5.2f})  "
            f"{row['peak_rss_mb']:>11.0f}  {row['elapsed_s']:>7.2f} "
            f"({row['elapsed_s_iqr']:>5.2f})"
        )
    lines.append(
        f"chunked == monolithic at 10^4: {payload['monolithic_match_at_10k']}"
    )
    threads = payload["threads"]
    lines.append(
        f"serial == {threads['derived']}-thread audit payload at "
        f"{threads['n_agents']:,}: {threads['serial_match']}"
    )
    grid = payload["fused_grid"]
    lines.append(
        f"fused verdict tensor at {grid['n_agents']:,} agents x "
        f"{grid['cells_per_scheme']} cells: "
        f"{grid['fused_elapsed_s']:.1f}s fused vs "
        f"{grid['per_cell_elapsed_s']:.1f}s per-cell "
        f"({grid['speedup']:.2f}x, verdicts "
        f"{'match' if grid['verdicts_match'] else 'DIVERGED'}, "
        f"RSS {grid['fused_peak_rss_mb']:.0f} MiB)"
    )
    lines.append(f"[written to {_BENCH_JSON}]")
    return "\n".join(lines)


def test_bench_population_scale(report):
    """Pytest entry point: run the sweep; it fails before writing a bad record."""
    report(_format_report(run_benchmark()))


def main(argv=None) -> int:
    """Command-line driver (also the per-size ``--child`` entry)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", type=int, default=None,
                        help="internal: run one size in-process, print JSON")
    parser.add_argument("--grid-mode", choices=("fused", "percell"), default="",
                        help="internal: with --child, run the grid comparison")
    parser.add_argument("--serial", action="store_true",
                        help="internal: with --child, audit on one thread")
    parser.add_argument("--sizes", default=",".join(str(s) for s in DEFAULT_SIZES),
                        help="comma-separated population sizes to sweep")
    parser.add_argument("--chunk-agents", type=int, default=CHUNK_AGENTS)
    parser.add_argument("--grid-agents", type=int, default=GRID_AGENTS,
                        help="population size of the fused-vs-per-cell grid run")
    args = parser.parse_args(argv)
    if args.child is not None:
        if args.grid_mode:
            payload = _grid_child_payload(args.child, args.chunk_agents, args.grid_mode)
        else:
            payload = _child_payload(args.child, args.chunk_agents, args.serial)
        json.dump(payload, sys.stdout)
        return 0
    sizes = tuple(int(token) for token in args.sizes.split(","))
    payload = run_benchmark(sizes, args.chunk_agents, args.grid_agents)
    print(_format_report(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
