"""Sharded campaign execution and store merging: measurement harness.

Measures the two costs the distributed subsystem (``repro.sweep.dist``)
introduces and the win it buys:

* **fan-out** — one campaign run single-process (``SweepRunner``) vs the
  same campaign as N local shard worker processes (``DistRunner``), with the
  merged stores verified key-identical and record-equal before any number is
  reported;
* **merge throughput** — ``merge_stores`` over synthetic shard stores
  (compacted, so the indexed-open fast path is exercised), reported as
  records merged per second.

The distributed runs execute under ``repro.obs`` telemetry, and the
per-shard utilisation / queue-wait figures in the JSON are derived from the
trace the run itself emitted — the same numbers ``obs report`` prints.  A
second fan-out datapoint with multiple pool workers per shard tracks the
two-level (shards × workers) parallelism.

Writes ``BENCH_dist.json`` so the trajectory is tracked from PR 5 onward.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_dist_shard_merge.py           # full
    PYTHONPATH=src python benchmarks/bench_dist_shard_merge.py --quick   # CI smoke

The exit code reflects *correctness only* (merged-vs-single store equality):
raw timing never fails the run — process spawn overhead dominates tiny
grids, and CI runners are noisy — the numbers are for the log and the JSON.
"""

import argparse
import json
import os
import platform as platform_mod
import shutil
import sys
import tempfile
import time
from pathlib import Path

from _bench_utils import emit, print_header, provenance

from repro.obs import (
    RunLedger,
    Telemetry,
    build_report,
    ledger_path,
    load_events,
    summarize_run,
)
from repro.sweep import (
    DistRunner,
    ResultStore,
    ScenarioConfig,
    SweepRunner,
    SweepSpec,
    merge_stores,
    shard_index_of,
    strip_volatile,
)


def campaign(duration_s: float, seeds) -> SweepSpec:
    return SweepSpec.grid(
        governors=["power-neutral", "powersave", "ondemand"],
        weather=["full_sun", "cloud"],
        seeds=list(seeds),
        duration_s=duration_s,
    )


def records_without_timing(store: ResultStore) -> dict:
    return {r["scenario_id"]: strip_volatile(r) for r in store.records()}


def trace_derived(trace_dir: Path) -> dict:
    """Per-shard utilisation and queue-wait, read back from the run's trace.

    The trace is the measurement instrument here: shard busy seconds and
    queue-wait come from the scenario spans the workers themselves emitted,
    not from coordinator-side stopwatches.
    """
    doc = build_report(load_events(trace_dir))
    shards = {
        label: {
            "busy_s": entry["busy_s"],
            "wall_s": entry["wall_s"],
            "utilisation": entry["utilisation"],
        }
        for label, entry in doc["workers"].items()
        if label.startswith("shard-")
    }
    return {
        "per_shard": shards,
        "queue_wait_mean_s": doc["queue_wait"]["mean_s"],
        "queue_wait_max_s": doc["queue_wait"]["max_s"],
        "coverage": doc["coverage"],
    }


def bench_single(workdir: Path, spec: SweepSpec) -> "tuple[ResultStore, float]":
    single_store = ResultStore(workdir / "single.jsonl")
    started = time.perf_counter()
    single_report = SweepRunner(single_store, workers=1).run(spec)
    single_s = time.perf_counter() - started
    assert single_report.succeeded, "single-process campaign failed"
    return single_store, single_s


def bench_fan_out(
    workdir: Path,
    spec: SweepSpec,
    single_store: ResultStore,
    single_s: float,
    n_shards: int,
    workers_per_shard: int = 1,
    tag: str = "dist",
) -> dict:
    trace_dir = workdir / f"trace-{tag}"
    telemetry = Telemetry.create(trace_dir, worker="main")
    dist_store = ResultStore(workdir / f"{tag}.jsonl", telemetry=telemetry)
    started = time.perf_counter()
    dist_report = DistRunner(
        dist_store,
        n_shards=n_shards,
        workers_per_shard=workers_per_shard,
        telemetry=telemetry,
    ).run(spec)
    dist_s = time.perf_counter() - started
    telemetry.close()
    assert dist_report.succeeded, "distributed campaign failed"

    identical = records_without_timing(ResultStore(workdir / f"{tag}.jsonl")) == (
        records_without_timing(single_store)
    )
    return {
        "scenarios": len(spec),
        "n_shards": n_shards,
        "workers_per_shard": workers_per_shard,
        "single_s": round(single_s, 4),
        "dist_s": round(dist_s, 4),
        "speedup": round(single_s / dist_s, 3) if dist_s > 0 else None,
        "stores_identical": identical,
        "trace": trace_derived(trace_dir),
    }


def synthetic_record(i: int) -> dict:
    config = ScenarioConfig(governor="power-neutral", seed=i, duration_s=30.0)
    return {
        "scenario_id": config.scenario_id,
        "config": config.to_dict(),
        "status": "ok",
        "summary": {"survived": True, "instructions": 1e9 + i},
        "elapsed_s": 0.01,
    }


def bench_merge(workdir: Path, n_records: int, n_shards: int) -> dict:
    """Merge throughput over synthetic compacted shard stores."""
    shard_paths = [workdir / f"merge-shard-{i}.jsonl" for i in range(n_shards)]
    stores = [ResultStore(p) for p in shard_paths]
    for i in range(n_records):
        record = synthetic_record(i)
        stores[shard_index_of(record["scenario_id"], n_shards)].append(record)
    for store in stores:
        store.compact()  # exercise the indexed-open merge fast path

    dest = ResultStore(workdir / "merge-dest.jsonl")
    started = time.perf_counter()
    stats = merge_stores(dest, shard_paths)
    elapsed = time.perf_counter() - started
    assert stats["records"] == n_records, stats
    return {
        "records": n_records,
        "n_shards": n_shards,
        "merge_s": round(elapsed, 4),
        "records_per_s": round(n_records / elapsed) if elapsed > 0 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized campaign and merge")
    parser.add_argument("--shards", type=int, default=2, help="shard worker count")
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_dist.json"), help="JSON output path"
    )
    args = parser.parse_args(argv)

    duration_s = 4.0 if args.quick else 20.0
    seeds = (1,) if args.quick else (1, 2)
    merge_records = 500 if args.quick else 5000

    print_header(
        "Sharded campaign execution + store merge (repro.sweep.dist)",
        "ROADMAP: distributed / multi-host campaign execution",
    )
    workdir = Path(tempfile.mkdtemp(prefix="bench_dist_"))
    try:
        spec = campaign(duration_s, seeds)
        single_store, single_s = bench_single(workdir, spec)
        cores = os.cpu_count() or 1

        fan_out = bench_fan_out(
            workdir, spec, single_store, single_s, args.shards, tag="dist"
        )
        emit(
            f"fan-out: {fan_out['scenarios']} scenarios | single {fan_out['single_s']:.2f} s "
            f"| {args.shards} shards {fan_out['dist_s']:.2f} s "
            f"| speedup {fan_out['speedup']}x on {cores} core(s) "
            f"| stores identical: {fan_out['stores_identical']}"
        )
        trace = fan_out["trace"]
        shard_util = ", ".join(
            f"{label} {entry['utilisation']}" for label, entry in trace["per_shard"].items()
        )
        emit(
            f"trace: shard utilisation {shard_util} | queue-wait "
            f"mean {trace['queue_wait_mean_s']} s max {trace['queue_wait_max_s']} s"
        )
        if cores < args.shards:
            emit(
                f"note: only {cores} core(s) visible — shard workers time-share, "
                "so the speedup here measures overhead, not scaling"
            )

        # Multi-worker datapoint: each shard runs its own scenario pool, so
        # queue-wait and utilisation shift from the shard split to the pools.
        multi_workers = 2
        fan_out_multi = bench_fan_out(
            workdir, spec, single_store, single_s, args.shards, multi_workers, tag="multi"
        )
        emit(
            f"fan-out x{multi_workers} workers/shard: {fan_out_multi['dist_s']:.2f} s "
            f"| speedup {fan_out_multi['speedup']}x "
            f"| stores identical: {fan_out_multi['stores_identical']}"
        )

        merge = bench_merge(workdir, merge_records, args.shards)
        emit(
            f"merge: {merge['records']} records from {merge['n_shards']} shard stores "
            f"in {merge['merge_s']:.3f} s ({merge['records_per_s']} records/s)"
        )

        # The trace dirs die with the temp workdir, so distil the fan-out
        # run into a ledger entry while they still exist: benchmarks join
        # the same cross-run performance history as campaigns.
        run_summary = summarize_run(
            workdir / "trace-dist",
            kind="bench.dist",
            campaign="bench_dist_shard_merge",
            engine="fast",
            meta={
                "quick": bool(args.quick),
                "fan_out_speedup": fan_out["speedup"],
                "merge_records_per_s": merge["records_per_s"],
            },
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "bench": "dist_shard_merge",
        "python": platform_mod.python_version(),
        "machine": platform_mod.machine(),
        "cpus": os.cpu_count() or 1,
        "provenance": provenance(),
        "quick": bool(args.quick),
        "fan_out": fan_out,
        "fan_out_multi_worker": fan_out_multi,
        "merge": merge,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    emit(f"wrote {args.out}")
    ledger = ledger_path(args.out)
    RunLedger(ledger).append(run_summary)
    emit(f"appended run summary to {ledger}")
    if not (fan_out["stores_identical"] and fan_out_multi["stores_identical"]):
        emit("FAIL: merged shard stores differ from the single-process run")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
