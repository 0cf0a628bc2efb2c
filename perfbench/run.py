"""The repository benchmark: four workloads, untraced and traced.

Run from the repository root::

    python3 perfbench/run.py --all                  # everything, then exit 1 on a failed check
    python3 perfbench/run.py --workload audit_grid_1m --seed 2021 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` alternates untraced and traced passes over the same inputs
and reports the per-layer metrics (see ``README.md``).  Every line but
the last is for people; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("audit_grid_1m", "dynamics_200k", "fig3_campaign", "service_session")

#: Fresh processes whose set-up time is measured per run (median reported).
SETUP_PROBES = 5
#: Fewest passes (untraced) or untraced/traced pairs a run makes.
MIN_PASSES = 3
MIN_PAIRS = 2


def show(name: str, value: float, unit: str, note: str = "") -> None:
    """One human-readable metric line."""
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation), 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def enough(elapsed: float, done: int, minimum: int, seconds: float) -> bool:
    """Stop once ``minimum`` units ran and one more would pass ``seconds``."""
    return done >= minimum and elapsed * (done + 1) / done > seconds


def result(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def report_problems(problems: List[str]) -> None:
    for problem in problems[:10]:
        print(f"  CHECK FAILED: {problem}")


# -- in-process workloads ----------------------------------------------------


def probe_setup(name: str, seed: int) -> List[float]:
    """Spawn-to-ready seconds of :data:`SETUP_PROBES` fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--probe", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = process.stdout.readline().strip()
        times.append(time.perf_counter() - started)
        process.stdout.close()
        if process.wait(timeout=120) != 0 or line != "ready":
            raise RuntimeError(f"set-up probe of {name} failed: {line!r}")
    return times


def run_in_process(name: str, seed: int, seconds: float, trace: bool, scratch: Path):
    from workloads import IN_PROCESS

    setup = [] if trace else probe_setup(name, seed)
    workload = IN_PROCESS[name](seed, scratch)
    workload.warm_up()
    if trace:
        return trace_in_process(workload, seconds, scratch)

    passes = []
    started = time.perf_counter()
    while not enough(time.perf_counter() - started, len(passes), MIN_PASSES, seconds):
        passes.append(workload.run_pass(len(passes)))
    failed = sum(1 for p in passes if p.problems)
    op_ms = [ms for p in passes for ms in p.op_ms]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "work_per_s": (statistics.median(p.work / p.wall_s for p in passes), "1/s"),
        "latency_p50_ms": (statistics.median(op_ms), "ms"),
    }
    print(f"# {name} seed={seed} trace=0: {len(passes)} passes")
    show("setup_s", metrics["setup_s"][0], "s", f"median of {len(setup)} fresh processes")
    show("peak_rss_mb", metrics["peak_rss_mb"][0], "MiB", "this process")
    show("failed_share", failed / len(passes), "ratio", f"{failed} of {len(passes)} passes")
    show(workload.work_name, metrics["work_per_s"][0], "1/s", f"median of {len(passes)} passes")
    show(workload.op_name, metrics["latency_p50_ms"][0], "ms", f"n={len(op_ms)}")
    for detail in passes[0].details:
        show(detail, statistics.median(p.details[detail] for p in passes), "ms",
             f"n={len(passes)}")
    for p in passes:
        report_problems(p.problems)
    return result(failed == 0, len(passes), failed, metrics)


def trace_in_process(workload, seconds: float, scratch: Path):
    """Pairs of one untraced and one traced pass over the same inputs."""
    from layers import PER_LAYER, accounted_s, install, layer_metrics
    from tracing import SpanRecorder

    recorder = SpanRecorder()
    spool = scratch / "spool"
    ratios, traced_walls, problems = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while not enough(time.perf_counter() - started, len(ratios), MIN_PAIRS, seconds):
        index = len(ratios)
        walls = {}
        # Alternate which side runs first, so drift does not favour one.
        for traced in (False, True) if index % 2 == 0 else (True, False):
            patches = install(recorder, spool) if traced else None
            pass_started = time.perf_counter()
            try:
                done = workload.run_pass(index)
            finally:
                walls[traced] = time.perf_counter() - pass_started
                if patches is not None:
                    patches.undo()
                    recorder.collect(spool)
            attempted += 1
            failed += bool(done.problems)
            problems.extend(done.problems)
        ratios.append(walls[True] / walls[False])
        traced_walls.append(walls[True])
    n = len(traced_walls)
    metrics = layer_metrics(recorder, n)
    metrics["trace.wall_s"] = sum(traced_walls) / n
    metrics["trace.other_s"] = metrics["trace.wall_s"] - accounted_s(recorder) / n
    metrics["trace.overhead"] = statistics.median(ratios) - 1.0
    print(f"# {workload.name} seed={workload.seed} trace=1: {n} untraced/traced pairs")
    print_layers(metrics, "main-process spans + trace.other_s = trace.wall_s, per traced pass")
    report_problems(problems)
    units = dict(PER_LAYER)
    return result(
        failed == 0, attempted, failed, {k: (metrics[k], units[k]) for k, _ in PER_LAYER}
    )


def print_layers(metrics: Dict[str, float], note: str) -> None:
    from layers import PER_LAYER

    print(f"  ({note})")
    for name, unit in PER_LAYER:
        if metrics[name] or name.startswith("trace."):
            show(name, metrics[name], unit)


# -- the service session -----------------------------------------------------


def check_exit(session, code: int) -> None:
    """A served session fails unless its server stopped on SIGINT (130)."""
    if code != 130:
        session.failed += 1
        session.problems.append(f"server exited with {code}, expected 130")


def run_service(seed: int, seconds: float, trace: bool, scratch: Path):
    from workloads import COLD_AGENTS, Server, run_session, server_argv, server_env, verify_served

    env = server_env(ROOT)
    if trace:
        return trace_service(seed, seconds, scratch, env)
    setup = []
    for _ in range(SETUP_PROBES - 1):
        probe = Server(server_argv(), ROOT, env)
        setup.append(probe.setup_s)
        probe.stop()
    server = Server(server_argv(), ROOT, env)
    setup.append(server.setup_s)
    try:
        session = run_session(server.port, seed, seconds)
        rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    check_exit(session, code)
    verify_served(session)

    from repro.schemes.registry import scheme_names

    cells = len(scheme_names())
    cold_p50 = statistics.median(session.cold_ms)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "work_per_s": (COLD_AGENTS * cells / (cold_p50 / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(session.memo_ms), "ms"),
    }
    print(f"# service_session seed={seed} trace=0: {session.rounds} rounds")
    show("setup_s", metrics["setup_s"][0], "s", f"median of {len(setup)} server spawns")
    show("peak_rss_mb", rss, "MiB", "server VmHWM")
    show("failed_share", session.failed / session.attempted, "ratio",
         f"{session.failed} of {session.attempted} requests")
    show("cold_agent_cells_per_s", metrics["work_per_s"][0], "1/s", "at cold_p50_ms")
    for label, samples, q in (
        ("memo_p50_ms", session.memo_ms, 50),
        ("memo_p99_ms", session.memo_ms, 99),
        ("cold_p50_ms", session.cold_ms, 50),
        ("cold_p90_ms", session.cold_ms, 90),
        ("busy_memo_p99_ms", session.busy_memo_ms, 99),
    ):
        show(label, percentile(samples, q), "ms", f"n={len(samples)}")
    report_problems(session.problems)
    return result(session.failed == 0, session.attempted, session.failed, metrics)


def trace_service(seed: int, seconds: float, scratch: Path, env):
    """Plain, traced, traced, plain servers, each serving the same session."""
    from layers import PER_LAYER, accounted_s, layer_metrics
    from tracing import SpanRecorder
    from workloads import Server, run_session, server_argv, verify_served

    recorder = SpanRecorder()
    sessions = {False: [], True: []}
    rounds = None
    for index, traced in enumerate((False, True, True, False)):
        spans_out = scratch / f"server-spans-{index}.json" if traced else None
        server = Server(server_argv(spans_out), ROOT, env)
        try:
            session = run_session(server.port, seed, seconds / 4, rounds)
        finally:
            code = server.stop()
        check_exit(session, code)
        rounds = session.rounds
        sessions[traced].append(session)
        if traced:
            recorder.absorb(json.loads(spans_out.read_text(encoding="utf-8")))
    everything = sessions[False] + sessions[True]
    reference = everything[0]
    for session in everything[1:]:
        for key, served in session.served.items():
            if reference.served.get(key) != served:
                session.failed += 1
                session.problems.append(f"bytes for {key} differ between servers")
    verify_served(reference)

    walls = {traced: sum(s.wall_s for s in sessions[traced]) for traced in sessions}
    metrics = layer_metrics(recorder, 2)
    metrics["trace.wall_s"] = walls[True] / 2
    metrics["trace.other_s"] = metrics["trace.wall_s"] - accounted_s(recorder) / 2
    metrics["trace.overhead"] = walls[True] / walls[False] - 1.0
    print(f"# service_session seed={seed} trace=1: 4 sessions of {rounds} rounds")
    print_layers(metrics, "server loop-thread spans + trace.other_s = client session wall")
    report_problems([p for s in everything for p in s.problems])
    failed = sum(s.failed for s in everything)
    units = dict(PER_LAYER)
    return result(
        failed == 0,
        sum(s.attempted for s in everything),
        failed,
        {k: (metrics[k], units[k]) for k, _ in PER_LAYER},
    )


# -- entry points -------------------------------------------------------------


def run_all(args) -> int:
    """Every workload untraced, then traced; non-zero if any check failed."""
    ok = True
    for trace in (0, 1):
        for name in WORKLOADS:
            command = [sys.executable, str(Path(__file__)), "--workload", name,
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = run.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                last = json.loads(lines[-1]) if lines else {}
            except json.JSONDecodeError:
                last = {}
            if run.returncode != 0 or not last.get("correct"):
                print(f"  FAILED: {name} trace={trace} (exit {run.returncode})")
                ok = False
                continue
            for metric, entry in last["metrics"].items():
                show(metric, entry["value"], entry["unit"], "(BENCHMARK.json)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 2021; fig3_campaign: 2020)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")

    from workloads import IN_PROCESS

    seed = args.seed
    if seed is None:
        seed = IN_PROCESS[args.workload].default_seed if args.workload in IN_PROCESS else 2021
    if args.probe:
        IN_PROCESS[args.workload](seed, ROOT)
        print("ready", flush=True)
        return 0

    scratch = ROOT / ".perfbench-tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        if args.workload == "service_session":
            outcome = run_service(seed, args.seconds, bool(args.trace), scratch)
        else:
            outcome = run_in_process(args.workload, seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
