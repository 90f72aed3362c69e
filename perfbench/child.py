"""Entry points the benchmark starts as its child program.

Usage (``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/child.py [--spans FILE] cli ARGS...        # repro.cli.main(ARGS)
    python3 perfbench/child.py [--spans FILE] lab GRID STORE [--spec-out FILE]
    python3 perfbench/child.py check-campaign --seed N --sample K STORE...
    python3 perfbench/child.py [--spans FILE] serve-check STORE SPEC REQUESTS RESPONSES

``--spans FILE`` is the traced run: before the entry point runs, timing
wrappers are installed around the public calls of each layer (see
:func:`install_tracing`) and the spans are written to ``FILE`` at exit.
Without it the entry point runs exactly as it would for a user.

``lab`` runs a constant-power grid through ``SweepRunner.run`` inline (the
command line has no power axis).  ``check-campaign`` and ``serve-check``
verify the program's outputs after the timed phase and print one JSON line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from spans import SpanRecorder

#: Metrics that a fast-engine record must reproduce within 1% on the exact engine.
DRIFT_FIELDS = ("instructions", "harvested_energy_j", "consumed_energy_j")
DRIFT_TOLERANCE = 0.01


def install_tracing(recorder: SpanRecorder) -> None:
    """Wrap each layer's public calls; names are the per-layer metric prefixes."""
    import repro.cli  # noqa: F401  -- imports every layer patched below
    import repro.sweep as sweep
    from repro.sim import result, simulator, supplies
    from repro.sweep import aggregate, build, runner, scenario, spec, sqlindex, store

    patch = recorder.patch
    patch(spec, "expand_unique", "spec.expand", also=(runner, sweep))
    patch(spec.SweepSpec, "scenarios", "spec.scenarios")
    patch(build, "build_system", "build.build_system", also=(scenario, sweep))
    patch(supplies.IVSurfaceTable, "__init__", "supplies.iv_table")
    patch(
        simulator.EnergyHarvestingSimulation,
        "run",
        "simulator.run",
        attrs=lambda args, kwargs, res: {"sim_s": float(args[0].config.duration_s)},
    )
    patch(result.SimulationResult, "to_dict", "result.to_dict")
    patch(
        scenario,
        "run_scenario",
        "scenario.run",
        also=(runner, sweep),
        request=lambda args, kwargs: args[0].scenario_id,
        attrs=lambda args, kwargs, record: {
            "record_bytes": len(json.dumps(record, sort_keys=True, separators=(",", ":"))),
            "status": record.get("status"),
        },
    )
    patch(store.ResultStore, "__init__", "store.open")
    patch(store.ResultStore, "append", "store.append")
    patch(store.ResultStore, "is_complete", "store.is_complete")
    patch(store.ResultStore, "get", "store.get")
    patch(store.ResultStore, "query", "store.query")
    patch(sqlindex.SqliteIndex, "query", "sqlindex.query")
    patch(aggregate, "axis_summary", "aggregate.axis_summary", also=(sweep,))
    patch(
        runner.SweepRunner,
        "run",
        "runner.run",
        attrs=lambda args, kwargs, report: {
            "total": report.total,
            "cached": report.cached,
            "executed": report.executed,
        },
    )


# ----------------------------------------------------------------------
def lab_spec(grid: dict):
    """The constant-power governor × capacitance × power grid of ``grid``."""
    from repro.sweep import Axis, SweepSpec

    return SweepSpec.grid(
        governors=grid["governors"],
        capacitances_f=grid["capacitances_f"],
        duration_s=grid["duration_s"],
        supply={"kind": "constant-power"},
        extra_axes=[Axis("supply.power_w", grid["power_w"])],
    )


def command_lab(args) -> int:
    from repro.sweep import ResultStore, SweepRunner

    grid = json.loads(Path(args.grid).read_text(encoding="utf-8"))
    spec = lab_spec(grid)
    if args.spec_out:
        Path(args.spec_out).write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    runner = SweepRunner(
        ResultStore(args.store), workers=1, series_samples=grid.get("series_samples", 0)
    )
    report = runner.run(spec)
    print(json.dumps(report.summary()))
    return 0 if report.succeeded else 1


def _drift(fast: dict, exact: dict) -> list[str]:
    problems = []
    for field in DRIFT_FIELDS:
        scale = max(abs(exact[field]), 1e-12)
        if abs(fast[field] - exact[field]) / scale > DRIFT_TOLERANCE:
            problems.append(f"{field}: fast {fast[field]!r} vs exact {exact[field]!r}")
    if fast["brownouts"] != exact["brownouts"]:
        problems.append(f"brownouts: fast {fast['brownouts']} vs exact {exact['brownouts']}")
    return problems


def command_check_campaign(args) -> int:
    """Statuses, repeat identity and exact-engine drift of campaign stores."""
    from repro.sweep import ScenarioConfig, build_system, scenario_summary
    from repro.sweep.store import ResultStore, strip_volatile

    stores = [{r["scenario_id"]: r for r in ResultStore(p).records()} for p in args.stores]
    first = stores[0]
    problems = []
    for path, records in zip(args.stores, stores):
        problems += [
            f"{path}: {sid} status {r.get('status')!r}"
            for sid, r in records.items()
            if r.get("status") != "ok"
        ]
    for path, records in zip(args.stores[1:], stores[1:]):
        if set(records) != set(first):
            problems.append(f"{path}: scenario set differs from {args.stores[0]}")
            continue
        problems += [
            f"{path}: {sid} differs from the first repeat"
            for sid in first
            if strip_volatile(records[sid]) != strip_volatile(first[sid])
        ]
    sample = random.Random(args.seed).sample(sorted(first), min(args.sample, len(first)))
    for sid in sample:
        built = build_system(ScenarioConfig.from_dict(first[sid]["config"]), fast=False)
        exact = scenario_summary(built.run(), built.workload)
        problems += [f"{sid} drift {p}" for p in _drift(first[sid]["summary"], exact)]
    checks = sum(len(r) for r in stores) + len(first) * (len(stores) - 1) + len(sample)
    print(json.dumps({"checks": checks, "drift_sampled": len(sample), "problems": problems}))
    return 0


# ----------------------------------------------------------------------
def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, default=str)


def command_serve_check(args) -> int:
    """Replay the request mix through the library calls the service makes.

    Times every request's library work (for ``serve.http_overhead_ms``) and
    compares each distinct served response with the library's answer on the
    same store.
    """
    from repro.serve.scheduler import parse_submission
    from repro.sweep import ResultStore, aggregate, campaign_overview, records_table

    snapshot = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    requests = json.loads(Path(args.requests).read_text(encoding="utf-8"))
    served = json.loads(Path(args.responses).read_text(encoding="utf-8"))
    _, _, campaign_id, scenario_ids = parse_submission(snapshot)
    ids = list(scenario_ids)
    store = ResultStore(args.store)

    def answer(kind: str, param):
        if kind == "status":
            return None
        if kind == "resubmit":
            return parse_submission(snapshot)[2]
        if kind == "aggregate":
            ok = store.query(status="ok", scenario_ids=ids)
            return {
                "records": len(ok),
                "overview": campaign_overview(ok),
                "rows": records_table(ok),
                "axes": {param: aggregate.axis_summary(ok, param)},
            }
        if kind == "records_filtered":
            records = store.query(scenario_ids=ids, governor=param)
        else:
            records = store.query(scenario_ids=ids, limit=param)
        return [{k: v for k, v in r.items() if k != "series"} for r in records]

    library_s = []
    for kind, param in requests:
        started = time.perf_counter()
        answer(kind, param)
        library_s.append(time.perf_counter() - started)

    problems = []
    for key, body in served.items():
        kind, param = json.loads(key)
        expected = answer(kind, param)
        if kind == "status":
            if body.get("state") != "done" or body.get("scenarios") != len(ids):
                problems.append(f"status: {body.get('state')} with {body.get('scenarios')} scenarios")
        elif kind == "resubmit":
            if body.get("id") != expected or not body.get("cached") or body.get("executed") != 0:
                problems.append(f"resubmit was not deduplicated: {body.get('id')}")
        elif kind == "aggregate":
            got = {k: body.get(k) for k in ("records", "overview", "rows", "axes")}
            if _canonical(got) != _canonical(expected):
                problems.append(f"aggregate axis={param} differs from the library")
        elif _canonical(body.get("records")) != _canonical(expected) or body.get("count") != len(
            expected
        ):
            problems.append(f"{kind} {param} differs from ResultStore.query")
    print(
        json.dumps(
            {
                "campaign": campaign_id,
                "checks": len(served),
                "library_s": library_s,
                "problems": problems,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("--spans", default=None, help="traced run: write spans here")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    lab = sub.add_parser("lab")
    lab.add_argument("grid")
    lab.add_argument("store")
    lab.add_argument("--spec-out", default=None)
    check = sub.add_parser("check-campaign")
    check.add_argument("--seed", type=int, required=True)
    check.add_argument("--sample", type=int, required=True)
    check.add_argument("stores", nargs="+")
    serve = sub.add_parser("serve-check")
    for name in ("store", "spec", "requests", "responses"):
        serve.add_argument(name)
    args = parser.parse_args(argv)

    if args.spans:
        install_tracing(SpanRecorder(args.spans))
    if args.mode == "cli":
        from repro.cli import main as cli_main

        return cli_main(args.argv)
    if args.mode == "lab":
        return command_lab(args)
    if args.mode == "check-campaign":
        return command_check_campaign(args)
    return command_serve_check(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
