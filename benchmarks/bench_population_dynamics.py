"""Streamed evolutionary-dynamics throughput, memory and verdicts at scale.

Not a paper figure — the ROADMAP's "million-agent dynamics" scaling
record.  Evolves streamed Zipf populations through 20 replicator epochs
under the paper's two Section V schemes, measuring epoch throughput
(agent-epochs/second), minor page faults and peak RSS, and re-checks the
acceptance invariants: the trajectories are byte-identical across chunk
sizes, the foundation scheme unravels toward All-D, and role-based
sharing keeps cooperation stable with blocks produced.  Each size runs
in a fresh subprocess so its peak RSS is honest (``ru_maxrss`` is a
process lifetime maximum); every size is measured ``REPEATS`` times,
interleaved with the other sizes, and its row records the median and
the IQR of each timing, through the population-scale benchmark's row
helpers (``bench_population_scale._row``).  The driver runs on in-call threads
(:data:`repro.populations.threads.THREADS`, derived from the CPUs the
process may use); the record also re-runs one streamed size serially and
requires the identical trajectories.  Results land in
``BENCH_dynamics.json`` at the repo root — only when every invariant
holds (:func:`guard_violations`), which refuses single-sample rows and
rows whose timings spread wider than ``MAX_IQR_SHARE`` of their median.

Run via ``pytest benchmarks/bench_population_dynamics.py`` (the full
sweep, a few minutes, most of it the five threaded and the serial 10^6
runs), or directly::

    PYTHONPATH=src python benchmarks/bench_population_dynamics.py --sizes 100000
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_population_scale import (  # noqa: E402 (needs the path above)
    MAX_IQR_SHARE,
    REPEATS,
    _row,
)

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_JSON = _REPO_ROOT / "BENCH_dynamics.json"

#: The swept population sizes (agents).  10^6 dominates the runtime.
DEFAULT_SIZES = (100_000, 1_000_000)

#: The evolved population family — heavy-tailed, exchange-scale.
FAMILY = "zipf"
FAMILY_PARAMS = {"exponent": 1.9, "scale": 3.0}
CHUNK_AGENTS = 131_072
EPOCHS = 20
SEED = 2021
SCHEMES = ("foundation", "role_based")

#: Peak-RSS ceiling per size: within 2x of the streamed audit's ~124 MB
#: envelope (``BENCH_scale.json``).  The run holds ~2 bytes per agent
#: (synchrony draws and the realized profile) on top of O(chunk), ~2 MB
#: at 10^6 agents.
MAX_PEAK_RSS_MB = 248.0

#: The streamed size (above ``RESIDENT_BYTES``) re-run at one thread:
#: its trajectories must equal the threaded run's.
SERIAL_CHECK_AGENTS = 1_000_000

#: The timings a row stores as a median with an ``_iqr`` twin.
#: ``minor_faults_per_million_agent_epochs`` counts the page faults
#: (``RUSAGE_SELF`` ``ru_minflt``) taken inside the two-scheme sweep.
TIMINGS = (
    "elapsed_s",
    "agent_epochs_per_second",
    "minor_faults_per_million_agent_epochs",
)

#: The timings the spread guard holds (``MAX_IQR_SHARE`` of the median).
GUARDED = ("elapsed_s", "agent_epochs_per_second")


def _dynamics_spec(size: int, chunk_agents, epochs: int = EPOCHS):
    """The benchmark's dynamics spec at one population size."""
    from repro.populations import PopulationSpec
    from repro.scenarios.population_dynamics import PopulationDynamicsSpec

    return PopulationDynamicsSpec(
        name=f"bench-{size}",
        population=PopulationSpec(
            family=FAMILY,
            size=size,
            params=dict(FAMILY_PARAMS),
            cooperation=0.9,
            seed=SEED,
        ),
        n_epochs=epochs,
        chunk_agents=chunk_agents,
    )


def _child_payload(
    size: int, chunk_agents: int, serial: bool = False
) -> Dict[str, object]:
    """Run one size's two-scheme evolution in-process; return its payload.

    ``serial`` pins the driver to one thread (the derived thread count is
    a module value, patched here as the tests patch it).  Each scheme
    reports the SHA-256 of its canonical trajectory payload, so runs can
    be compared without shipping the trajectories.
    """
    from repro.populations import threads
    from repro.scenarios.population_dynamics import run_population_dynamics
    from repro.telemetry import capture, span

    if serial:
        threads.THREADS = 1
    spec = _dynamics_spec(size, chunk_agents)
    schemes: Dict[str, Dict[str, object]] = {}
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with capture() as registry:
        with span("bench.dynamics_sweep", agents=size) as timer:
            for scheme in SCHEMES:
                trajectory = run_population_dynamics(spec, scheme)
                final = trajectory.records[-1]
                blocks = trajectory.block_series()
                schemes[scheme] = {
                    "final_defection": final.defection_share,
                    "block_rate": sum(blocks) / len(blocks),
                    "final_block": final.block_success,
                    "budget_efficiency": final.budget_efficiency,
                    "trajectory_sha256": hashlib.sha256(
                        json.dumps(trajectory.to_payload(), sort_keys=True).encode()
                    ).hexdigest(),
                }
    usage = resource.getrusage(resource.RUSAGE_SELF)
    elapsed = timer.elapsed_s
    agent_epochs = size * EPOCHS * len(SCHEMES)
    return {
        "n_agents": size,
        "n_epochs": EPOCHS,
        "elapsed_s": elapsed,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "agent_epochs_per_second": agent_epochs / elapsed,
        "minor_faults_per_million_agent_epochs": (usage.ru_minflt - faults)
        * 1e6
        / agent_epochs,
        "threads": threads.THREADS,
        "schemes": schemes,
        "telemetry": registry.snapshot(),
    }


def _run_child(size: int, chunk_agents: int, serial: bool = False) -> Dict[str, object]:
    """Measure one size in a fresh subprocess (honest per-size peak RSS)."""
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(size),
            "--chunk-agents", str(chunk_agents)]
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


def _chunk_invariance(size: int = 20_000) -> bool:
    """The acceptance invariant: byte-identical records at any chunk size."""
    from repro.scenarios.population_dynamics import run_population_dynamics

    def payload(chunk_agents) -> str:
        spec = _dynamics_spec(size, chunk_agents, epochs=6)
        return json.dumps(
            run_population_dynamics(spec, "role_based").to_payload(),
            sort_keys=True,
        )

    reference = payload(None)
    return all(payload(chunk) == reference for chunk in (4096, 16384, 65536))


def _sample(payload: Dict[str, object]) -> Dict[str, float]:
    """One measurement's :data:`TIMINGS`."""
    return {name: payload[name] for name in TIMINGS}


def _verdict(payload: Dict[str, object]) -> Dict[str, object]:
    """The fields a row takes from its first repeat (the same in every one)."""
    return {
        "n_epochs": payload["n_epochs"],
        "threads": payload["threads"],
        "schemes": payload["schemes"],
    }


def guard_violations(payload: Dict[str, object]) -> List[str]:
    """Every acceptance invariant a ``BENCH_dynamics.json`` payload breaks.

    Chunk invariance, serial == threaded trajectories, the Section V
    verdicts at every size (naive sharing unravels, role-based
    stabilizes with blocks produced), the peak-RSS envelope, and per
    size at least ``REPEATS`` measurements whose :data:`GUARDED`
    timings' IQR stays within ``MAX_IQR_SHARE`` of their median.  A
    payload this returns problems for is never written.
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
    if payload["chunk_invariance_at_20k"] is not True:
        problems.append("trajectories differ across chunk sizes at 2*10^4")
    if payload["threads"]["serial_match"] is not True:
        problems.append(
            "the serial trajectories differ from the threaded ones at "
            f"{payload['threads']['n_agents']} agents"
        )
    for row in payload["sizes"]:
        size = row["n_agents"]
        schemes = row["schemes"]
        if not schemes["foundation"]["final_defection"] > 0.9:
            problems.append(f"foundation did not unravel at {size} agents")
        if not schemes["role_based"]["final_defection"] < 0.1:
            problems.append(f"role_based did not stabilize at {size} agents")
        if schemes["role_based"]["final_block"] is not True:
            problems.append(f"role_based final block failed at {size} agents")
        if not row["peak_rss_mb"] < MAX_PEAK_RSS_MB:
            problems.append(
                f"peak RSS {row['peak_rss_mb']:.0f} MB at {size} agents left "
                f"the {MAX_PEAK_RSS_MB:.0f} MB envelope"
            )
    return problems


def run_benchmark(sizes=DEFAULT_SIZES, chunk_agents: int = CHUNK_AGENTS) -> Dict[str, object]:
    """Sweep the sizes, verify the invariants, write ``BENCH_dynamics.json``.

    Raises ``AssertionError`` instead of writing when the payload breaks
    :func:`guard_violations`: the committed record stays the last one
    that held.
    """
    import numpy

    from repro.telemetry import merge_snapshots

    measured: Dict[int, List[Dict[str, object]]] = {size: [] for size in sizes}
    snapshots: List[Dict[str, object]] = []
    for _ in range(REPEATS):
        for size in sizes:
            child = _run_child(size, chunk_agents)
            # Counters are the same in every repeat: keep the first's.
            telemetry = child.pop("telemetry")
            if not measured[size]:
                snapshots.append(telemetry)
            measured[size].append(child)
    rows = [_row(size, measured[size], _sample, _verdict) for size in sizes]
    serial_size = max(
        (size for size in sizes if size <= SERIAL_CHECK_AGENTS), default=sizes[0]
    )
    serial = _run_child(serial_size, chunk_agents, serial=True)
    threaded = next(row for row in rows if row["n_agents"] == serial_size)
    payload = {
        "benchmark": "population-dynamics-streamed-epochs",
        "date": datetime.date.today().isoformat(),
        "machine": (
            f"{os.cpu_count()}-core {platform.system()} container, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}"
        ),
        "note": (
            "Streamed Section V replicator dynamics (counterfactual crowd "
            f"fitness + selected best response) over {FAMILY} populations "
            f"({FAMILY_PARAMS}), {EPOCHS} epochs, chunk_agents="
            f"{chunk_agents}, cooperation seeded at 0.9.  Each size is "
            f"measured {REPEATS} times in fresh subprocesses, interleaved "
            "with the other sizes; a row's timings are the median with the "
            "IQR beside it (_iqr), and its peak RSS is the largest of the "
            "repeats': O(chunk) plus ~2 bytes per agent (held synchrony "
            "draws and realized profile).  "
            "minor_faults_per_million_agent_epochs counts the page faults "
            "(RUSAGE_SELF ru_minflt) taken inside the two-scheme sweep.  "
            "chunk_invariance_at_20k asserts the trajectories are "
            "byte-identical at four chunk sizes.  The driver runs on the "
            "derived in-call thread count (threads.derived); "
            "threads.serial_match asserts a one-thread re-run at "
            "threads.n_agents produces the identical trajectories."
        ),
        "family": FAMILY,
        "family_params": FAMILY_PARAMS,
        "chunk_agents": chunk_agents,
        "schemes": list(SCHEMES),
        "chunk_invariance_at_20k": _chunk_invariance(),
        "threads": {
            "derived": threaded["threads"],
            "n_agents": serial_size,
            "serial_match": all(
                serial["schemes"][scheme]["trajectory_sha256"]
                == threaded["schemes"][scheme]["trajectory_sha256"]
                for scheme in SCHEMES
            ),
        },
        "sizes": rows,
        "telemetry": merge_snapshots(snapshots),
    }
    violations = guard_violations(payload)
    if violations:
        raise AssertionError(
            "not writing BENCH_dynamics.json: " + "; ".join(violations)
        )
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _format_report(payload: Dict[str, object]) -> str:
    """Human-readable summary of the benchmark payload."""
    lines = [
        "Streamed dynamics benchmark (foundation vs role_based, "
        f"family {payload['family']}, {EPOCHS} epochs, "
        f"chunk {payload['chunk_agents']}):",
        f"{'agents':>12}  {'M agent-epochs/s (IQR)':>22}  {'peak RSS MB':>11}  "
        f"{'elapsed s (IQR)':>15}  {'foundation d∞':>13}  {'role_based d∞':>13}",
    ]
    for row in payload["sizes"]:
        schemes = row["schemes"]
        lines.append(
            f"{row['n_agents']:>12,}  "
            f"{row['agent_epochs_per_second'] / 1e6:>14.2f} "
            f"({row['agent_epochs_per_second_iqr'] / 1e6:>5.2f})  "
            f"{row['peak_rss_mb']:>11.0f}  {row['elapsed_s']:>7.2f} "
            f"({row['elapsed_s_iqr']:>5.2f})  "
            f"{schemes['foundation']['final_defection']:>13.3f}  "
            f"{schemes['role_based']['final_defection']:>13.3f}"
        )
    lines.append(
        f"byte-identical across chunk sizes at 2*10^4: "
        f"{payload['chunk_invariance_at_20k']}"
    )
    threads = payload["threads"]
    lines.append(
        f"serial == {threads['derived']}-thread trajectories at "
        f"{threads['n_agents']:,}: {threads['serial_match']}"
    )
    lines.append(f"[written to {_BENCH_JSON}]")
    return "\n".join(lines)


def test_bench_population_dynamics(report):
    """Pytest entry point: run the sweep; it fails before writing a bad record."""
    report(_format_report(run_benchmark()))


def main(argv=None) -> int:
    """Command-line driver (also the per-size ``--child`` entry)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", type=int, default=None,
                        help="internal: run one size in-process, print JSON")
    parser.add_argument("--sizes", default=",".join(str(s) for s in DEFAULT_SIZES),
                        help="comma-separated population sizes to sweep")
    parser.add_argument("--chunk-agents", type=int, default=CHUNK_AGENTS)
    parser.add_argument("--serial", action="store_true",
                        help="internal: run the child on one thread")
    args = parser.parse_args(argv)
    if args.child is not None:
        json.dump(
            _child_payload(args.child, args.chunk_agents, args.serial), sys.stdout
        )
        return 0
    sizes = tuple(int(token) for token in args.sizes.split(","))
    payload = run_benchmark(sizes, args.chunk_agents)
    print(_format_report(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
