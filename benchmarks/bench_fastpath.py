"""The vectorized round kernel vs the discrete-event simulator.

Not a paper figure — tracks the speedup that makes full-fidelity
simulation campaigns cheap: the fast kernel replaces the per-message
event loop with batched sortition, hop-budget gossip reachability and
array-reduction vote tallies, while the DES stays with the test suite
(``tests/des``) as the differential oracle.  This benchmark

* times both engines on a paired Figure 3 subset (identical configs and
  seeds) and checks they agree record for record,
* times the full bench-scale Figure 3 campaign on the fast kernel
  against the recorded seed baseline (98.2s serial, BENCH_sweep.json),
* times a small scenario campaign with ``simulate_rounds`` raised 10x,
* measures the telemetry tax on the kernel — enabled-registry rounds vs
  null-registry rounds stepped in lockstep for at least one CPU second
  per side, median of ratios — and
* writes every measurement to ``BENCH_des.json`` at the repo root — the
  file the CI drift guard (``benchmarks/check_fastpath_drift.py``)
  checks against — including the merged telemetry snapshot of the
  instrumented measurements under a ``telemetry`` key.  A record that
  fails its own ``ci_guard`` is not written; the run fails instead.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import List

import numpy as np

from repro.analysis.defection import (
    DefectionExperimentConfig,
    run_defection_experiment,
    shape_assertions,
)
from repro.analysis.plotting import format_table
from repro.analysis.reward_comparison import (
    RewardComparisonConfig,
    run_truncation_experiment,
)
from repro.scenarios import ScenarioCampaignConfig, run_scenarios_campaign
from repro.sim import FastSimulation, SimulationConfig, crypto
from repro.telemetry import capture, span

# The discrete-event simulator is the fast kernel's test oracle: it lives
# with the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from des import AlgorandSimulation  # noqa: E402

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_des.json"

#: Seed-baseline timing of the bench-scale Figure 3 campaign on the DES
#: (BENCH_sweep.json, measured after PR 1's event-engine optimizations).
_SEED_FIG3_DES_S = 98.157

#: The paired subset both backends run end to end: small enough for CI,
#: large enough that the DES side dominates measurement noise.
_PAIRED_RATES = (0.05, 0.30)
_PAIRED_RUNS = 2
_PAIRED_ROUNDS = 8
_PAIRED_NODES = 60

#: Fast-vs-DES speedup the CI box must clear (see check_fastpath_drift).
_GUARD_MIN_SPEEDUP = 8.0
_GUARD_TOLERANCE = 0.25

#: Batched-VRF speedup over the per-key hashing loop the CI box must
#: clear (measured ~2x from the pre-absorbed SHA-256 states plus the
#: single frombuffer extraction; guarded well below that).
_GUARD_MIN_VRF_SPEEDUP = 1.6

#: Shape of the VRF microbench: keys per sortition call and evaluations.
_VRF_NODES = 120
_VRF_REPS = 40

#: Telemetry tax the CI box must stay under: enabled-registry rounds may
#: cost at most this fraction more than null-registry rounds.  Disabled
#: mode does strictly less work than enabled mode (the same branch
#: checks, none of the observations), so this also bounds the disabled
#: overhead the default configuration pays.
_GUARD_MAX_TELEMETRY_OVERHEAD = 0.03

#: Shape of the telemetry-overhead measurement: each side of a
#: measurement runs at least this much CPU time (runs of a few tens of
#: milliseconds gave estimates anywhere from 1% to 6% on the same code),
#: and this many measurements feed the median-of-ratios estimator.  The
#: ratios spread over one to two points on a shared host, so the median
#: takes nine of them (five left it within noise of the 3% ceiling), and
#: their interquartile range is recorded so a reading can be told from
#: its noise.
_TELEMETRY_MIN_SECONDS = 1.0
_TELEMETRY_REPS = 9


def _machine() -> str:
    return (
        f"{os.cpu_count()}-core {platform.system()} container, "
        f"Python {platform.python_version()}, numpy {np.__version__}"
    )


def _paired_config(rate: float, run: int) -> SimulationConfig:
    return SimulationConfig(
        n_nodes=_PAIRED_NODES,
        seed=9_000 + int(rate * 100) * 10 + run,
        defection_rate=rate,
        tau_proposer=8.0,
        tau_step=60.0,
        tau_final=80.0,
    )


def run_paired_subset(engine: str):
    """Run the paired subset on ``"fast"`` (the kernel) or ``"des"`` (its
    test oracle); returns (records, seconds)."""
    cls = FastSimulation if engine == "fast" else AlgorandSimulation
    records = []
    start = time.perf_counter()
    for rate in _PAIRED_RATES:
        for run in range(_PAIRED_RUNS):
            metrics = cls(_paired_config(rate, run)).run(_PAIRED_ROUNDS)
            records.append(
                [
                    (r.n_final, r.n_tentative, r.n_none, r.steps_used, r.n_leaders)
                    for r in metrics.records
                ]
            )
    return records, time.perf_counter() - start


def run_vrf_microbench(n_nodes: int = _VRF_NODES, reps: int = _VRF_REPS):
    """Batched counter-mode VRF vs the per-key hashing loop.

    Returns ``(bit_identical, speedup)``: the kernel's ``_vrf_values``
    must reproduce ``crypto.vrf_evaluate`` exactly on the proposer,
    step, and final tag domains, and the speedup is naive-loop seconds
    over batched seconds for ``reps`` whole-committee sortition
    evaluations at ``n_nodes`` keys.
    """
    simulation = FastSimulation(SimulationConfig(n_nodes=n_nodes, seed=17))
    keypairs = simulation._keypairs
    domains = [(987_654_321, 5, 0), (424_242, 9, 1_001), (7, 2, 2_013)]
    bit_identical = all(
        simulation._vrf_values(seed, rnd, (tag,))[0].tolist()
        == [crypto.vrf_evaluate(kp, seed, rnd, tag).value for kp in keypairs]
        for seed, rnd, tag in domains
    )
    start = time.perf_counter()
    for rep in range(reps):
        simulation._vrf_values(987_654_321, rep, (1_001,))
    batched_s = time.perf_counter() - start
    start = time.perf_counter()
    for rep in range(reps):
        [crypto.vrf_evaluate(kp, 987_654_321, rep, 1_001).value for kp in keypairs]
    naive_s = time.perf_counter() - start
    return bit_identical, naive_s / batched_s


def run_telemetry_overhead_microbench(
    min_seconds: float = _TELEMETRY_MIN_SECONDS, reps: int = _TELEMETRY_REPS
):
    """Fast-kernel rounds with a live registry vs the null registry.

    Each of ``reps`` measurements builds two simulations of one config,
    one inside a live registry (instruments resolve at construction) and
    one under the null registry, and steps them round by round in
    lockstep, alternating which goes first, until the null-registry side
    has spent ``min_seconds`` of process CPU time.  Both sides do the same
    protocol work at the same moments, so host drift cancels round by
    round, and CPU time leaves out time the host gives to other
    processes.  Returns ``(rounds, disabled_s, enabled_s, overhead,
    spread)``: the rounds per side of the last measurement, each side's
    minimum total, the median enabled/disabled ratio minus one, and the
    interquartile range of the ratios.  Disabled
    mode does strictly less per-round work than enabled mode, so the
    overhead is an upper bound on the tax the default (telemetry-off)
    configuration pays for the instrumentation hooks.
    """
    import statistics

    best = {False: float("inf"), True: float("inf")}
    ratios = []
    rounds = 0
    for _ in range(reps):
        disabled = FastSimulation(_paired_config(0.05, 0))
        with capture():
            enabled = FastSimulation(_paired_config(0.05, 0))
        spent = {False: 0.0, True: 0.0}
        rounds = 0
        while spent[False] < min_seconds:
            order = (False, True) if rounds % 2 == 0 else (True, False)
            for mode in order:
                simulation = enabled if mode else disabled
                start = time.process_time()
                simulation.run_round()
                spent[mode] += time.process_time() - start
            rounds += 1
        for mode in (False, True):
            best[mode] = min(best[mode], spent[mode])
        ratios.append(spent[True] / spent[False])
    overhead = statistics.median(ratios) - 1.0
    lower, _, upper = statistics.quantiles(ratios, n=4)
    return rounds, best[False], best[True], overhead, upper - lower


def guard_violations(payload) -> List[str]:
    """Every way a ``BENCH_des.json`` payload fails its own ``ci_guard``.

    Applies the thresholds ``check_fastpath_drift`` enforces, tolerance
    included, to the payload's own measurements, so a record that this
    returns problems for is never written.
    """
    guard = payload["ci_guard"]
    problems = []
    paired = payload["paired_subset"]
    if not paired["records_exact_match"]:
        problems.append("fast kernel diverged from the DES on the paired subset")
    floor = guard["min_speedup"] * (1.0 - guard["tolerance"])
    if paired["speedup"] < floor:
        problems.append(
            f"paired speedup {paired['speedup']:.2f}x is below the "
            f"{floor:.2f}x floor"
        )
    vrf = payload["vrf_microbench"]
    if not vrf["bit_identical"]:
        problems.append("batched VRF diverged from crypto.vrf_evaluate")
    vrf_floor = guard["min_vrf_speedup"] * (1.0 - guard["tolerance"])
    if vrf["speedup_vs_per_key_loop"] < vrf_floor:
        problems.append(
            f"VRF speedup {vrf['speedup_vs_per_key_loop']:.2f}x is below the "
            f"{vrf_floor:.2f}x floor"
        )
    ceiling = guard["max_telemetry_overhead"] * (1.0 + guard["tolerance"])
    overhead = payload["telemetry_overhead"]["overhead"]
    if overhead > ceiling:
        problems.append(
            f"telemetry overhead {overhead:.2%} exceeds the {ceiling:.2%} ceiling"
        )
    return problems


def test_bench_fastpath_vs_des(benchmark, report):
    """All fast-kernel measurements, recorded to BENCH_des.json."""
    # 1. Paired subset: both backends, identical seeds, must agree.
    des_records, des_s = run_paired_subset("des")
    fast_records, fast_s = benchmark.pedantic(
        run_paired_subset, args=("fast",), rounds=1, iterations=1
    )
    paired_speedup = des_s / fast_s
    agreement = des_records == fast_records

    # Sections 2, 3 and 5 run inside one captured registry: spans replace
    # the hand-rolled perf_counter pairs, and the merged snapshot (kernel
    # round/VRF metrics included) lands in the payload's telemetry key.
    with capture() as telemetry_registry:
        # 2. Full bench-scale Figure 3 campaign on the fast kernel.
        fig3_config = DefectionExperimentConfig(
            n_runs=3, n_rounds=12, n_nodes=60, backend="fast"
        )
        with span("bench.fig3_campaign") as timer:
            fig3 = run_defection_experiment(fig3_config, workers=1)
        fig3_fast_s = timer.elapsed_s
        problems = shape_assertions(fig3)

        # 3. Scenario campaign with simulate_rounds raised 10x over the small
        #    scale default (2 -> 20), on the fast kernel.
        campaign_config = ScenarioCampaignConfig(
            n_replications=2,
            n_players=28,
            n_epochs=10,
            simulate_rounds=20,
        )
        with span("bench.scenario_campaign") as timer:
            run_scenarios_campaign(campaign_config, workers=1)
        campaign_fast_s = timer.elapsed_s

        # 5. Figure 7(c) for the record: analytic in the stake vector, so the
        #    backend switch leaves it untouched — timed to document that the
        #    fast-kernel change did not perturb the non-simulator figures.
        with span("bench.fig7c") as timer:
            run_truncation_experiment(
                RewardComparisonConfig(n_nodes=50_000, n_instances=2, n_rounds=2),
                workers=1,
            )
        fig7c_s = timer.elapsed_s
    telemetry_snapshot = telemetry_registry.snapshot()

    # 4. Batched-VRF hot loop: bit-identity plus speedup over the naive
    #    per-key hashing loop it replaced.  Runs outside the captured
    #    registry so the speedup compares uninstrumented timings.
    vrf_exact, vrf_speedup = run_vrf_microbench()

    # 6. Telemetry tax on the kernel: null registry vs live registry.
    tel_rounds, tel_disabled_s, tel_enabled_s, tel_overhead, tel_iqr = (
        run_telemetry_overhead_microbench()
    )

    table = format_table(
        ("measurement", "des", "fast", "speedup"),
        [
            (
                "paired fig3 subset",
                f"{des_s:.2f}s",
                f"{fast_s:.2f}s",
                f"{paired_speedup:.1f}x",
            ),
            (
                "fig3 bench campaign",
                f"{_SEED_FIG3_DES_S:.1f}s (seed)",
                f"{fig3_fast_s:.2f}s",
                f"{_SEED_FIG3_DES_S / fig3_fast_s:.1f}x",
            ),
            (
                "scenarios 10x rounds",
                "-",
                f"{campaign_fast_s:.2f}s",
                "-",
            ),
            (
                "VRF batch vs loop",
                "-",
                "bit-identical" if vrf_exact else "DIVERGED",
                f"{vrf_speedup:.2f}x",
            ),
            (
                "telemetry on vs off",
                f"{tel_disabled_s * 1000:.1f}ms off",
                f"{tel_enabled_s * 1000:.1f}ms on",
                f"{tel_overhead:+.2%} (IQR {tel_iqr:.2%})",
            ),
        ],
        title="Fast kernel vs discrete-event simulator",
    )
    report(
        table
        + f"\npaired-records agreement: {'exact' if agreement else 'DIVERGED'}"
        + ("\nshape check: OK" if not problems else "\nshape: " + "; ".join(problems))
    )

    payload = {
        "benchmark": "fastpath-kernel-vs-des",
        "date": datetime.date.today().isoformat(),
        "machine": _machine(),
        "note": (
            "The vectorized round kernel (repro.sim.fastpath) vs the "
            "per-message DES.  Paired subset runs identical configs/seeds "
            "on both backends and demands record-for-record agreement; "
            "the fig3 campaign number is the headline serial time vs the "
            "98.2s DES baseline recorded in BENCH_sweep.json."
        ),
        "paired_subset": {
            "rates": list(_PAIRED_RATES),
            "runs_per_rate": _PAIRED_RUNS,
            "rounds": _PAIRED_ROUNDS,
            "n_nodes": _PAIRED_NODES,
            "des_s": des_s,
            "fast_s": fast_s,
            "speedup": paired_speedup,
            "records_exact_match": agreement,
        },
        "fig3_bench": {
            "cmd": "python -m repro.analysis.runner fig3 --scale bench",
            "seed_des_serial_s": _SEED_FIG3_DES_S,
            "fast_serial_s": fig3_fast_s,
            "speedup_vs_seed": _SEED_FIG3_DES_S / fig3_fast_s,
            "shape_assertions_pass": not problems,
        },
        "scenario_campaign": {
            "cmd": (
                "runner scenarios --scale small --backend fast "
                "(simulate_rounds raised 2 -> 20)"
            ),
            "simulate_rounds": 20,
            "fast_serial_s": campaign_fast_s,
            "reference_des_small_simulate_rounds_2_s": 3.93,
        },
        "fig7c_bench": {
            "cmd": "python -m repro.analysis.runner fig7c (analytic; backend-independent)",
            "serial_s": fig7c_s,
        },
        "vrf_microbench": {
            "n_nodes": _VRF_NODES,
            "reps": _VRF_REPS,
            "bit_identical": vrf_exact,
            "speedup_vs_per_key_loop": vrf_speedup,
        },
        "telemetry_overhead": {
            "method": "lockstep rounds, process CPU time, median of ratios",
            "min_run_s": _TELEMETRY_MIN_SECONDS,
            "rounds": tel_rounds,
            "reps": _TELEMETRY_REPS,
            "disabled_s": tel_disabled_s,
            "enabled_s": tel_enabled_s,
            "overhead": tel_overhead,
            "overhead_iqr": tel_iqr,
        },
        "ci_guard": {
            "min_speedup": _GUARD_MIN_SPEEDUP,
            "min_vrf_speedup": _GUARD_MIN_VRF_SPEEDUP,
            "tolerance": _GUARD_TOLERANCE,
            "max_telemetry_overhead": _GUARD_MAX_TELEMETRY_OVERHEAD,
        },
        "telemetry": telemetry_snapshot,
    }
    # A record that fails its own guard is never written: the test fails
    # instead, and the committed record stays the last one that held.
    violations = guard_violations(payload)
    assert not violations, "not writing BENCH_des.json: " + "; ".join(violations)
    assert not problems, f"fig3 shape violated on the fast kernel: {problems}"
    assert fig3_fast_s < 12.0, (
        f"fig3 bench campaign took {fig3_fast_s:.1f}s on the fast kernel; "
        "the acceptance target is <= 12s (>= 8x vs the 98.2s DES baseline)"
    )
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def test_bench_fastpath_round_micro(benchmark, report):
    """Micro: single fast-kernel rounds at fig3 scale (no campaign overhead)."""
    simulation = FastSimulation(_paired_config(0.05, 0))

    def run_rounds():
        simulation.run(5)

    benchmark.pedantic(run_rounds, rounds=3, iterations=1)
    per_round = benchmark.stats.stats.mean / 5
    report(
        f"fast kernel: {per_round * 1000:.2f} ms/round at "
        f"{_PAIRED_NODES} nodes (DES reference ~0.5-1 s/round)"
    )
