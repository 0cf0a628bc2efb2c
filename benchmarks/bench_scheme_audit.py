"""The IC audit engine: vectorized deviation payoffs vs the scalar oracle.

Not a paper figure — tracks the speedup that makes scheme tournaments
cheap: the audit's closed-form pool algebra (the shared kernel in
:mod:`repro.schemes.deviation`) computes every player's deviation payoff
for a whole population batch in a few numpy passes, where the scalar
oracle walks an :class:`AlgorandGame` one ``payoff`` call at a time.  The
two paths must agree to float tolerance (the check
``tests/schemes/test_audit.py`` holds the kernel to); this benchmark
records how much the vectorization buys and writes the measurement to
``BENCH_schemes.json`` at the repo root — only when the record passes
:func:`guard_violations`.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.schemes import AuditConfig, get_scheme, scheme_names
from repro.schemes.audit import _build_cell, _vectorized_gains

# The scalar oracle is a test-side reference: it lives with the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import oracle_cell_gains  # noqa: E402

#: A tournament-sized audit cell: 32 populations of 48 players.
_CONFIG = AuditConfig(
    n_players=48,
    n_leaders=4,
    committee_size=10,
    n_populations=32,
    stake_kinds=("uniform",),
    cost_scales=(1.0,),
    budget_multipliers=(1.25,),
    seed=17,
)

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_schemes.json"

#: The vectorized gains must match the oracle to this tolerance...
RTOL, ATOL = 1e-9, 1e-15

#: ...and beat it by at least this factor (recorded: ~90x).
MIN_SPEEDUP = 10.0

#: Timed repeats of each path, interleaved (oracle, vectorized, oracle,
#: ...), so drift on a shared host lands on both alike.
REPEATS = 7

#: A record is refused when a timing's IQR exceeds this share of its
#: median: such a record could not tell a 1.5x change from the host.
MAX_IQR_SHARE = 0.5

#: The timed record fields; each is stored as a median with an ``_iqr`` twin.
TIMINGS = ("scalar_oracle_s", "vectorized_s")


def _machine() -> str:
    return (
        f"{os.cpu_count()}-core {platform.system()} container, "
        f"Python {platform.python_version()}, numpy {np.__version__}"
    )


def guard_violations(payload: Dict[str, object]) -> List[str]:
    """Every acceptance invariant a ``BENCH_schemes.json`` payload breaks.

    The vectorized gains agree with the scalar oracle (same ``nan``
    marks, values within tolerance), the speedup of the median timings
    clears its floor, and each timing is the median of at least
    :data:`REPEATS` runs whose IQR stays within :data:`MAX_IQR_SHARE` of
    it.  A payload this returns problems for is never written.
    """
    problems = []
    if payload["repeats"] < REPEATS:
        problems.append(f"{payload['repeats']} repeats, need {REPEATS}")
    for name in TIMINGS:
        if payload[f"{name}_iqr"] > MAX_IQR_SHARE * payload[name]:
            problems.append(
                f"{name} IQR {payload[name + '_iqr']:.3g} exceeds "
                f"{MAX_IQR_SHARE:.0%} of its median {payload[name]:.3g}"
            )
    if payload["oracle_agrees"] is not True:
        problems.append(
            f"vectorized gains diverge from the scalar oracle "
            f"(max |diff| {payload['max_abs_diff']:.3e})"
        )
    if not payload["speedup"] >= MIN_SPEEDUP:
        problems.append(
            f"speedup {payload['speedup']}x is below the {MIN_SPEEDUP:g}x floor"
        )
    return problems


def test_bench_vectorized_audit_vs_scalar_oracle(benchmark, report):
    """Time both paths on the same cell for the role-based scheme."""
    cell = _build_cell(_CONFIG, "uniform", 1.0, 1.25)
    scheme = get_scheme("role_based")

    fast = benchmark.pedantic(
        _vectorized_gains, args=(scheme, cell), rounds=3, iterations=1
    )

    paths = {
        "scalar_oracle_s": lambda: np.stack(
            [oracle_cell_gains(scheme, cell, b) for b in range(_CONFIG.n_populations)],
            axis=1,
        ),
        "vectorized_s": lambda: _vectorized_gains(scheme, cell),
    }
    samples = {name: [] for name in TIMINGS}
    for _ in range(REPEATS):
        for name in TIMINGS:
            start = time.perf_counter()
            paths[name]()
            samples[name].append(time.perf_counter() - start)
    timings = {}
    for name in TIMINGS:
        low, median, high = np.percentile(samples[name], [25, 50, 75])
        timings[name], timings[f"{name}_iqr"] = float(median), float(high - low)
    scalar_seconds, vector_seconds = timings["scalar_oracle_s"], timings["vectorized_s"]
    slow = paths["scalar_oracle_s"]()

    agrees = bool(
        np.array_equal(np.isnan(fast), np.isnan(slow))
        and np.allclose(fast, slow, rtol=RTOL, atol=ATOL, equal_nan=True)
    )
    max_diff = float(np.nanmax(np.abs(fast - slow)))
    speedup = scalar_seconds / vector_seconds

    n_deviations = int(np.sum(~np.isnan(fast)))
    payload = {
        "benchmark": "scheme-audit-vectorized-vs-scalar-oracle",
        "date": datetime.date.today().isoformat(),
        "machine": _machine(),
        "note": (
            "One audit cell: deviation payoffs of every player to every "
            "alternative strategy, Theorem 3 target profile, role_based "
            "scheme.  The scalar oracle builds an AlgorandGame per "
            "population and calls payoff() per deviation; the vectorized "
            "engine computes the same tensor with closed-form pool "
            "algebra.  Both paths agree to float tolerance.  Each path is "
            f"timed {REPEATS} times, interleaved with the other; a timing is "
            "the median with the IQR beside it (_iqr), and the speedup is "
            "the ratio of the medians."
        ),
        "cell": {
            "n_populations": _CONFIG.n_populations,
            "n_players": _CONFIG.n_players,
            "n_deviations_checked": n_deviations,
        },
        "repeats": REPEATS,
        **timings,
        "speedup": round(speedup, 1),
        "max_abs_diff": max_diff,
        "oracle_agrees": agrees,
        "schemes_registered": scheme_names(),
    }
    violations = guard_violations(payload)
    if violations:
        raise AssertionError(
            "not writing BENCH_schemes.json: " + "; ".join(violations)
        )
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    report(
        f"vectorized audit: {n_deviations} deviation payoffs in "
        f"{vector_seconds * 1e3:.1f}ms (median of {REPEATS}, IQR "
        f"{timings['vectorized_s_iqr'] * 1e3:.2f}ms); scalar oracle "
        f"{scalar_seconds:.2f}s "
        f"-> {speedup:.0f}x (max |diff| {max_diff:.1e})\n"
        f"[written to {_BENCH_JSON.name}]"
    )


def test_bench_full_audit_all_schemes(benchmark, report):
    """The whole registered catalog through the default tournament audit."""
    from repro.schemes import audit_schemes
    from repro.schemes.tournament import TOURNAMENT_AUDIT

    reports = benchmark.pedantic(
        audit_schemes,
        args=(scheme_names(), TOURNAMENT_AUDIT),
        rounds=1,
        iterations=1,
    )
    lines = [
        f"  {name}: {'IC' if rep.certified else 'deviates'} "
        f"(margin {rep.ic_margin:+.3g})"
        for name, rep in reports.items()
    ]
    report("full catalog audit at the tournament operating point:\n" + "\n".join(lines))
