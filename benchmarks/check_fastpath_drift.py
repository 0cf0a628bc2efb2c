"""CI benchmark-drift guard for the fast simulation kernel.

Re-measures the paired Figure 3 subset from ``bench_fastpath`` (both
backends, identical seeds, on *this* machine — absolute wall-clock from
another box would be meaningless) and fails when

* the fast kernel no longer agrees with the DES record for record,
* the measured fast-vs-DES speedup regresses more than the recorded
  tolerance below the ``ci_guard.min_speedup`` floor committed in
  ``BENCH_des.json`` (default: fail below 8.0 * (1 - 0.25) = 6x), or
* the batched counter-mode VRF hot loop stops being bit-identical to
  ``crypto.vrf_evaluate`` or its speedup over the per-key hashing loop
  falls below the ``ci_guard.min_vrf_speedup`` floor (same tolerance), or
* the telemetry tax on the kernel — enabled-registry rounds vs
  null-registry rounds stepped in lockstep for at least one CPU second
  per side, median of ratios, best of three attempts — exceeds the ``ci_guard.max_telemetry_overhead``
  ceiling (default 3%; disabled mode does strictly less work, so this
  bounds the default configuration's overhead too).  Absent guard keys
  are skipped for records written before the guard existed.

Usage::

    PYTHONPATH=src python benchmarks/check_fastpath_drift.py [--ref BENCH_des.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_fastpath import (  # noqa: E402
    run_paired_subset,
    run_telemetry_overhead_microbench,
    run_vrf_microbench,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--ref",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_des.json",
        help="reference benchmark record (default: repo-root BENCH_des.json)",
    )
    args = parser.parse_args(argv)

    reference = json.loads(args.ref.read_text())
    guard = reference["ci_guard"]
    floor = guard["min_speedup"] * (1.0 - guard["tolerance"])

    des_records, des_s = run_paired_subset("des")
    fast_records, fast_s = run_paired_subset("fast")
    speedup = des_s / fast_s

    print(f"paired subset: des {des_s:.2f}s, fast {fast_s:.2f}s, {speedup:.1f}x")
    print(
        f"guard: min_speedup {guard['min_speedup']:g}, "
        f"tolerance {guard['tolerance']:.0%} -> floor {floor:.2f}x"
    )

    if des_records != fast_records:
        print("FAIL: fast kernel diverged from the DES on the paired subset")
        return 1
    print("agreement: exact")
    if speedup < floor:
        print(
            f"FAIL: fast-kernel speedup {speedup:.2f}x regressed below the "
            f"{floor:.2f}x drift floor"
        )
        return 1

    vrf_exact, vrf_speedup = run_vrf_microbench()
    vrf_floor = guard["min_vrf_speedup"] * (1.0 - guard["tolerance"])
    print(
        f"batched VRF: {'bit-identical' if vrf_exact else 'DIVERGED'}, "
        f"{vrf_speedup:.2f}x vs per-key loop (floor {vrf_floor:.2f}x)"
    )
    if not vrf_exact:
        print("FAIL: batched VRF diverged from crypto.vrf_evaluate")
        return 1
    if vrf_speedup < vrf_floor:
        print(
            f"FAIL: batched-VRF speedup {vrf_speedup:.2f}x regressed below "
            f"the {vrf_floor:.2f}x drift floor"
        )
        return 1

    max_overhead = guard.get("max_telemetry_overhead")
    if max_overhead is not None:
        # Same drift philosophy as the speedup floors: the recorded value
        # is the contract, the tolerance absorbs box-to-box noise.  A
        # single estimate still wanders a few percent on a shared runner,
        # so the guard takes the best of three attempts: a noise spike
        # passes on retry, a real regression fails all three.
        ceiling = max_overhead * (1.0 + guard["tolerance"])
        overhead = None
        for attempt in range(1, 4):
            rounds, disabled_s, enabled_s, overhead = (
                run_telemetry_overhead_microbench()
            )
            print(
                f"telemetry tax (attempt {attempt}, {rounds} rounds): "
                f"{disabled_s * 1000:.1f}ms off, "
                f"{enabled_s * 1000:.1f}ms on, {overhead:+.2%} "
                f"(ceiling {max_overhead:.0%} + tolerance -> {ceiling:.2%})"
            )
            if overhead <= ceiling:
                break
        if overhead > ceiling:
            print(
                f"FAIL: telemetry overhead {overhead:.2%} exceeds the "
                f"{ceiling:.2%} drift ceiling on every attempt"
            )
            return 1
    print("OK: no drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
