"""Fast-path simulation core: speedup and parity measurement harness.

Times representative closed-loop scenarios — PV / controlled-voltage /
constant-power supplies crossed with interrupt- and tick-driven governors —
with the fast engine (tabulated I-V surface; the default) against the exact
engine (per-call Lambert-W supply solves).  Both run the same simulator
loop, so the speedup and the metric drift measure the tabulation alone.  It
asserts that the summary metrics agree and writes the measurements to
``BENCH_sim.json`` so the performance trajectory is tracked.

Per engine and scenario it reports three numbers: ``cold_run_s`` (build plus
first run with the per-process I-V table cache cleared — what a fresh process
pays), ``reuse_run_s`` (build plus first run with the table already cached —
what campaign cells 2..n pay) and ``warm_run_s`` (best repeated run of one
built system).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_perf_sim.py            # full
    PYTHONPATH=src python benchmarks/bench_perf_sim.py --quick    # CI smoke

The exit code reflects *parity only* (continuous metrics within
``--max-drift``, brown-out counts exactly equal): raw timing never fails the
run, so CI stays robust on noisy runners while still recording the numbers.
"""

import argparse
import json
import platform as platform_mod
import sys
import time
from pathlib import Path

from _bench_utils import append_ledger, emit, print_header, provenance

from repro.sim.supplies import clear_iv_table_cache
from repro.sweep.build import build_system
from repro.sweep.spec import ScenarioConfig

#: Continuous summary metrics compared between the fast and exact engines.
PARITY_METRICS = ("total_instructions", "harvested_energy_j", "consumed_energy_j")


def scenarios(duration_s: float) -> list[tuple[str, ScenarioConfig]]:
    """The representative scenario matrix (supply kind x governor style)."""
    return [
        (
            # The default rig: PV array + the paper's interrupt-driven
            # governor; its speedup is the headline the ledger records.
            "pv-interrupt",
            ScenarioConfig(governor="power-neutral", supply="pv-array", duration_s=duration_s),
        ),
        (
            "pv-tick",
            ScenarioConfig(governor="ondemand", supply="pv-array", duration_s=duration_s),
        ),
        (
            "controlled-interrupt",
            ScenarioConfig(
                governor="power-neutral-fig11",
                supply="controlled-voltage",
                duration_s=duration_s,
            ),
        ),
        (
            "constant-power-tick",
            ScenarioConfig(
                governor="ondemand",
                supply={"kind": "constant-power", "power_w": 2.5},
                duration_s=duration_s,
            ),
        ),
    ]


def _metrics(result) -> dict:
    out = {name: float(getattr(result, name)) for name in PARITY_METRICS}
    out["brownout_count"] = int(result.brownout_count)
    return out


def _build_and_run(config: ScenarioConfig, fast: bool):
    """Wall time of build + first run, the result and the built system."""
    t0 = time.perf_counter()
    built = build_system(config, fast=fast)
    result = built.run()
    return time.perf_counter() - t0, result, built


def _time_engine(config: ScenarioConfig, fast: bool, repeats: int) -> dict:
    """Cold, reuse and warm timings of one engine, plus its summary metrics."""
    # Clear first: otherwise a scenario would reuse the table an earlier
    # scenario with the same PV inputs built, and its cold number would lie.
    clear_iv_table_cache()
    cold_run_s, result, _ = _build_and_run(config, fast)  # the parity-checked result
    reuse_run_s, _, built = _build_and_run(config, fast)
    timings = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        built.run()
        timings.append(time.perf_counter() - t0)
    return {
        "cold_run_s": cold_run_s,
        "reuse_run_s": reuse_run_s,
        "warm_run_s": min(timings),
        "warm_run_median_s": sorted(timings)[len(timings) // 2],
        "metrics": _metrics(result),
    }


def run_bench(duration_s: float, repeats: int, max_drift: float) -> dict:
    rows = []
    failures = []
    for name, config in scenarios(duration_s):
        fast = _time_engine(config, fast=True, repeats=repeats)
        exact = _time_engine(config, fast=False, repeats=repeats)
        speedup = exact["warm_run_s"] / max(fast["warm_run_s"], 1e-12)

        drift = 0.0
        for metric in PARITY_METRICS:
            a = fast["metrics"][metric]
            b = exact["metrics"][metric]
            drift = max(drift, abs(a - b) / max(abs(b), 1e-12))
        brownouts_equal = fast["metrics"]["brownout_count"] == exact["metrics"]["brownout_count"]
        if drift > max_drift:
            failures.append(f"{name}: metric drift {drift:.3%} exceeds {max_drift:.1%}")
        if not brownouts_equal:
            failures.append(
                f"{name}: brownout counts differ "
                f"(fast {fast['metrics']['brownout_count']} vs "
                f"exact {exact['metrics']['brownout_count']})"
            )

        rows.append(
            {
                "scenario": name,
                "duration_s": duration_s,
                "fast": fast,
                "exact": exact,
                "speedup": speedup,
                "max_metric_drift": drift,
                "brownouts_equal": brownouts_equal,
            }
        )
        emit(
            f"{name:22s}  fast {fast['warm_run_s'] * 1e3:8.1f} ms "
            f"(cold {fast['cold_run_s'] * 1e3:6.1f}, reuse {fast['reuse_run_s'] * 1e3:6.1f})   "
            f"exact {exact['warm_run_s'] * 1e3:8.1f} ms "
            f"(cold {exact['cold_run_s'] * 1e3:6.1f}, reuse {exact['reuse_run_s'] * 1e3:6.1f})   "
            f"speedup {speedup:5.2f}x   drift {drift:.2e}   "
            f"brownouts {fast['metrics']['brownout_count']}/"
            f"{exact['metrics']['brownout_count']}"
        )

    return {
        "bench": "bench_perf_sim",
        "duration_s": duration_s,
        "repeats": repeats,
        "max_drift": max_drift,
        "python": sys.version.split()[0],
        "machine": platform_mod.machine(),
        "provenance": provenance(),
        "scenarios": rows,
        "parity_failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="short durations / fewer repeats (CI smoke)"
    )
    parser.add_argument(
        "--duration", type=float, default=None, help="simulated seconds per scenario"
    )
    parser.add_argument("--repeats", type=int, default=None, help="timed repetitions per engine")
    parser.add_argument(
        "--max-drift",
        type=float,
        default=0.01,
        help="fail when any continuous fast-vs-exact metric drifts more than this fraction",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_sim.json"),
        help="where to write the measurement record",
    )
    args = parser.parse_args(argv)

    duration = args.duration if args.duration is not None else (10.0 if args.quick else 40.0)
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 4)

    print_header(
        "Fast-path simulation core: speedup and fast-vs-exact parity",
        "PR 4 performance tentpole (no direct paper figure)",
    )
    record = run_bench(duration, repeats, args.max_drift)

    args.out.write_text(json.dumps(record, indent=2) + "\n")
    emit(f"\nwrote {args.out}")

    pv = next(r for r in record["scenarios"] if r["scenario"] == "pv-interrupt")
    emit(f"pv-interrupt speedup: {pv['speedup']:.2f}x")

    ledger = append_ledger(
        args.out,
        "bench.perf_sim",
        campaign="bench_perf_sim",
        engine="fast+exact",
        scenarios=len(record["scenarios"]),
        executed=len(record["scenarios"]),
        phases={
            f"{row['scenario']}.{engine}_{kind}_run": row[engine][f"{kind}_run_s"]
            for row in record["scenarios"]
            for engine in ("fast", "exact")
            for kind in ("cold", "reuse", "warm")
        },
        meta={
            "pv_interrupt_speedup": round(pv["speedup"], 3),
            "duration_s": duration,
            "repeats": repeats,
        },
    )
    emit(f"appended run summary to {ledger}")

    if record["parity_failures"]:
        for failure in record["parity_failures"]:
            emit(f"PARITY FAILURE: {failure}")
        return 1
    emit("parity: all scenarios within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
