"""Campaign-level benchmark of the power-neutral governor reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload pv-campaign --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen and what
every metric means):

* ``pv-campaign``  -- cold 4 governors x 3 weather x 2 capacitances PV grid,
  ``repro sweep`` in a child process against a fresh store;
* ``lab-campaign`` -- cold constant-power governor x capacitance x power grid
  with series recording, ``SweepRunner.run`` in a child interpreter;
* ``cli-resume``   -- sequential ``repro sweep`` invocations over a fully
  cached grid of a prepared store;
* ``serve-query``  -- one closed-loop client against a ``repro serve`` child
  over a prepared store.

The program runs only as a child process (``python -m repro`` or
``perfbench/child.py``, with ``src`` on ``PYTHONPATH``); this process never
imports it.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs
the same work once plainly and once under timing wrappers and prints the
per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans as span_tools

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
PY = sys.executable

#: No child may outlive this; the whole run stays inside 180 s.
CHILD_TIMEOUT_S = 150.0
#: A workload stops starting new rounds after this, whatever --seconds says.
MEASURE_CAP_S = 120.0
SETUP_REPEATS = 3
SERVE_SETUP_REPEATS = 3

PV_GRID = {
    "governors": "power-neutral,powersave,ondemand,conservative",
    "weather": "full_sun,partial_sun,cloud",
    "capacitance_mf": "15.4,47",
    "duration_s": 30,
}
LAB_GOVERNORS = ["power-neutral", "powersave", "ondemand", "conservative"]
LAB_CAPACITANCE_MF = [15.4, 47.0]
LAB_POWER_LEVELS = 8
LAB_DURATION_S = 20
LAB_SERIES_SAMPLES = 100
ALL_GOVERNORS = LAB_GOVERNORS + ["performance", "interactive", "single-core-dfs", "solartune"]
RESUME_CAPACITANCE_MF = [10.0, 15.4, 33.0, 47.0]
RESUME_POWER_LEVELS = 12
RESUME_DURATION_S = 4
RESUME_INVOCATIONS_PER_ROUND = 4
SERVE_CAPACITANCE_MF = [15.4, 47.0]
SERVE_POWER_LEVELS = 3
SERVE_DURATION_S = 4
SERVE_AXES = ["governor", "capacitor.capacitance_f", "supply.power_w"]
SERVE_KINDS = ("status", "records_filtered", "records_limit", "aggregate", "resubmit")
SERVE_ROUND_REQUESTS = 100
#: p99 needs at least 10 samples beyond it.
SERVE_MIN_REQUESTS = 1010
CAMPAIGN_MIN_ROUNDS = 3
#: Traced runs alternate this many plain and traced rounds.
TRACE_PAIRS = 2
DRIFT_SAMPLE = {"pv-campaign": 3, "lab-campaign": 3, "cli-resume": 2}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "scenarios_per_s": "1/s",
    "invocation_p50_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "spec.expand_s": "s",
    "build.build_system_s": "s",
    "build.calls": "count",
    "supplies.iv_table_s": "s",
    "supplies.iv_table_builds": "count",
    "supplies.iv_table_builds_per_scenario": "ratio",
    "simulator.run_self_s": "s",
    "simulator.sim_s_per_host_s": "s/s",
    "result.to_dict_s": "s",
    "scenario.record_bytes": "bytes",
    "store.append_s": "s",
    "store.appends": "count",
    "store.open_s": "s",
    "store.cache_check_s": "s",
    "runner.self_s": "s",
    "runner.cache_hit_ratio": "ratio",
    "runner.cached": "count",
    "runner.executed": "count",
    "runner.scenarios": "count",
    "store.query_s": "s",
    "sqlindex.query_s": "s",
    "aggregate.axis_summary_s": "s",
    **{f"serve.{kind}.p50_ms": "ms" for kind in SERVE_KINDS},
    "serve.http_overhead_ms": "ms",
    "trace.overhead_s": "s",
}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def describe(values, unit: str) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"p50 {percentile(values, 50):.6g} {unit}"
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - q / 100.0) >= 10:
            text += f", p{q:g} {percentile(values, q):.6g} {unit}"
            break
    return text + f" (n={n})"


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    out: str
    err: str


def wait_child(proc: subprocess.Popen, timeout_s: float) -> tuple[int, float]:
    """Reap ``proc`` (killing it after ``timeout_s``); exit code and peak RSS."""
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class Bench:
    """One run: seeded inputs, child processes, and the operation tally."""

    workload: str
    work: Path
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    _children: int = 0

    def __post_init__(self):
        self.rng = random.Random(f"{self.workload}:{self.seed}")
        self.env = child_env()

    # -- processes ------------------------------------------------------
    def run(self, argv: list[str]) -> Child:
        self._children += 1
        out_path = self.work / f"child-{self._children}.out"
        err_path = self.work / f"child-{self._children}.err"
        with out_path.open("w") as out, err_path.open("w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            rc, rss_mb = wait_child(proc, CHILD_TIMEOUT_S)
            wall_s = time.perf_counter() - started
        return Child(rc, wall_s, rss_mb, out_path.read_text(), err_path.read_text())

    @staticmethod
    def program(*args: str) -> list[str]:
        return [PY, "-m", "repro", *args]

    @staticmethod
    def launcher(*args: str, spans: "Path | None" = None) -> list[str]:
        traced = ["--spans", str(spans)] if spans is not None else []
        return [PY, str(CHILD), *traced, *args]

    def path(self, name: str) -> Path:
        return self.work / name

    def write_json(self, name: str, doc) -> Path:
        path = self.path(name)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    # -- accounting -----------------------------------------------------
    def expect(self, ok: bool, what: str) -> bool:
        """Count one operation or output check; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def ran(self, child: Child, what: str) -> bool:
        tail = child.err.strip().splitlines()[-1:] or [""]
        return self.expect(child.rc == 0, f"{what}: exit {child.rc} {tail[0]}")

    def check(self, argv: list[str], what: str) -> dict:
        """Run a checker child; its checks and problems join the tally."""
        child = self.run(argv)
        if not self.ran(child, what):
            return {}
        report = json.loads(child.out.strip().splitlines()[-1])
        self.attempted += report["checks"]
        self.failed += len(report["problems"])
        self.problems += [f"{what}: {p}" for p in report["problems"]]
        return report

    def metric(self, name: str, value: float, detail: str = "") -> None:
        unit = END_TO_END.get(name) or PER_LAYER[name]
        self.metrics[name] = (value, unit, detail)

    # -- shared measurements --------------------------------------------
    def import_walls(self, argv: list[str]) -> list[float]:
        walls = []
        for _ in range(SETUP_REPEATS):
            child = self.run(argv)
            if self.ran(child, "import"):
                walls.append(child.wall_s)
        return walls

    def measure_imports(self) -> None:
        """``setup_s`` (a fresh interpreter's ``import repro.cli``), or traced,
        ``cli.import_s`` (the same minus a bare interpreter)."""
        cli = self.import_walls([PY, "-c", "import repro.cli"])
        if not self.trace:
            self.metric("setup_s", statistics.median(cli), describe(cli, "s"))
            return
        bare = self.import_walls([PY, "-c", "pass"])
        value = statistics.median(cli) - statistics.median(bare)
        self.metric("cli.import_s", value, f"import {describe(cli, 's')}; bare {describe(bare, 's')}")


def read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def power_levels(rng: random.Random, n: int, lo: float = 1.0, hi: float = 5.0) -> list[float]:
    """``n`` seeded power levels, one in each of ``n`` equal bins of [lo, hi] W."""
    return [round(lo + (hi - lo) * (i + rng.random()) / n, 2) for i in range(n)]


def lab_grid(governors, capacitance_mf, levels, duration_s, series=0) -> dict:
    return {
        "governors": list(governors),
        # The command line converts mF the same way, so ids match exactly.
        "capacitances_f": [1e-3 * c for c in capacitance_mf],
        "power_w": levels,
        "duration_s": duration_s,
        "series_samples": series,
    }


def prepare_store(b: Bench, name: str, grid: dict, spec_out: "Path | None" = None) -> Path:
    """Fill a store untimed through the lab entry point."""
    store = b.path(name)
    extra = ["--spec-out", str(spec_out)] if spec_out is not None else []
    child = b.run(b.launcher("lab", str(b.write_json(name + ".grid.json", grid)), str(store), *extra))
    if not b.ran(child, f"prepare {name}"):
        raise SystemExit(f"perfbench: could not prepare {name}: {child.err.strip()[-500:]}")
    return store


# ----------------------------------------------------------------------
# Per-layer numbers from one traced program process
# ----------------------------------------------------------------------
PROCESS_LAYERS = [name for name in PER_LAYER if name.split(".")[0] not in ("serve", "trace", "cli")]


def process_layers(spans: list[dict]) -> dict[str, float]:
    """Busy time and counts of each layer in one traced process (+ its workers)."""
    own = span_tools.self_times(spans)
    busy = span_tools.busy_s
    count = lambda name: len(span_tools.named(spans, name))  # noqa: E731
    sims = span_tools.named(spans, "simulator.run")
    sim_self = sum(own[s["id"]] for s in sims)
    runs = span_tools.named(spans, "runner.run")
    total = sum(s["total"] for s in runs)
    cached = sum(s["cached"] for s in runs)
    executed = sum(s["executed"] for s in runs)
    records = [s["record_bytes"] for s in span_tools.named(spans, "scenario.run")]
    builds = count("supplies.iv_table")
    median = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    return {
        "spec.expand_s": busy(spans, "spec.expand", "spec.scenarios"),
        "build.build_system_s": busy(spans, "build.build_system"),
        "build.calls": count("build.build_system"),
        "supplies.iv_table_s": busy(spans, "supplies.iv_table"),
        "supplies.iv_table_builds": builds,
        "supplies.iv_table_builds_per_scenario": builds / executed if executed else 0.0,
        "simulator.run_self_s": sim_self,
        "simulator.sim_s_per_host_s": sum(s["sim_s"] for s in sims) / sim_self if sim_self else 0.0,
        "result.to_dict_s": busy(spans, "result.to_dict"),
        "scenario.record_bytes": median(records),
        "store.append_s": busy(spans, "store.append"),
        "store.appends": count("store.append"),
        "store.open_s": busy(spans, "store.open"),
        "store.cache_check_s": busy(spans, "store.is_complete", "store.get"),
        "runner.self_s": sum(own[s["id"]] for s in runs),
        "runner.cache_hit_ratio": cached / total if total else 0.0,
        "runner.cached": cached,
        "runner.executed": executed,
        "runner.scenarios": total,
        "store.query_s": median(span_tools.durations(spans, "store.query")),
        "sqlindex.query_s": median(span_tools.durations(spans, "sqlindex.query")),
        "aggregate.axis_summary_s": median(span_tools.durations(spans, "aggregate.axis_summary")),
    }


def set_layers(b: Bench, span_files: list[Path], detail: str) -> None:
    """Per-layer metrics: the median over the traced processes."""
    per_process = [process_layers(span_tools.load_spans(path)) for path in span_files]
    for name in PROCESS_LAYERS:
        b.metric(name, statistics.median(p[name] for p in per_process), detail)


# ----------------------------------------------------------------------
# Rounds: each workload's fixed unit of work, repeated for --seconds
# ----------------------------------------------------------------------
def measure(b: Bench, run_round, min_rounds: int = 1, min_samples: int = 0) -> tuple[list, list]:
    """Plain and traced rounds of ``run_round(index, traced) -> dict``.

    Untraced, rounds repeat while the next one is expected to end within
    ``--seconds``, and at least ``min_rounds`` times and until ``min_samples``
    samples are in.  Traced, plain and traced rounds alternate
    ``TRACE_PAIRS`` times and ``trace.overhead_s`` is the difference of
    their median walls.
    """
    if b.trace:
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            plain.append(run_round(len(plain) + len(traced), False))
            traced.append(run_round(len(plain) + len(traced), True))
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        b.metric("trace.overhead_s", traced_wall - plain_wall,
                 f"median traced round {traced_wall:.4f} s - plain {plain_wall:.4f} s (n={TRACE_PAIRS} each)")
        return plain, traced
    rounds: list = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed > MEASURE_CAP_S:
            break
        if (
            len(rounds) >= min_rounds
            and sum(r.get("samples", 1) for r in rounds) >= min_samples
            and elapsed + statistics.median(r["wall_s"] for r in rounds) > b.seconds
        ):
            break
        rounds.append(run_round(len(rounds), False))
    return rounds, []


def per_round(b: Bench, name: str, values: list, what: str = "") -> None:
    b.metric(name, statistics.median(values), describe(values, END_TO_END[name]) + what)


def latency_metrics(b: Bench, ms: list) -> None:
    b.metric("request_p50_ms", percentile(ms, 50), describe(ms, "ms"))
    b.metric("request_p99_ms", percentile(ms, 99), describe(ms, "ms"))


def check_stores(b: Bench, stores: list[Path]) -> None:
    """Statuses, repeat identity and a seeded exact-engine drift sample."""
    sample = str(DRIFT_SAMPLE[b.workload])
    b.check(b.launcher("check-campaign", "--seed", str(b.seed), "--sample", sample, *map(str, stores)),
            "check-campaign")


# ----------------------------------------------------------------------
# Campaign workloads (pv-campaign, lab-campaign)
# ----------------------------------------------------------------------
def campaign_workload(b: Bench, argv_for) -> None:
    """``argv_for(store, spans)`` is the child command for one cold campaign."""

    def run_round(index: int, traced: bool) -> dict:
        store = b.path(f"round-{index}.jsonl")
        spans = b.path(f"spans-{index}.jsonl") if traced else None
        child = b.run(argv_for(store, spans))
        b.ran(child, f"round {index}")
        records = read_jsonl(store)
        for record in records:
            b.expect(record.get("status") == "ok", f"round {index}: {record.get('scenario_id')} not ok")
        return {
            "wall_s": child.wall_s,
            "rss_mb": child.rss_mb,
            "store": store,
            "spans": [spans] if traced else [],
            "executed": len(records),
            "scenario_ms": [1000.0 * r.get("elapsed_s", 0.0) for r in records],
        }

    b.measure_imports()
    plain, traced = measure(b, run_round, min_rounds=CAMPAIGN_MIN_ROUNDS)
    rounds = plain + traced
    if b.trace:
        set_layers(b, [p for r in traced for p in r["spans"]], "median of traced cold campaigns")
    else:
        walls = [r["wall_s"] for r in rounds]
        scenario_ms = [x for r in rounds for x in r["scenario_ms"]]
        b.notes.append(f"{rounds[0]['executed']} scenarios per campaign; record elapsed_s {describe(scenario_ms, 'ms')}")
        per_round(b, "wall_s", walls, " per cold campaign")
        per_round(b, "scenarios_per_s", [r["executed"] / r["wall_s"] for r in rounds])
        per_round(b, "invocation_p50_s", walls, " (a campaign is one invocation)")
        per_round(b, "requests_per_s", [1.0 / w for w in walls], " (a request is one invocation)")
        latency_metrics(b, [1000.0 * w for w in walls])
        per_round(b, "peak_rss_mb", [r["rss_mb"] for r in rounds])
    check_stores(b, [r["store"] for r in rounds])


def pv_campaign(b: Bench) -> None:
    irradiance_seed = b.rng.randrange(1, 1_000_000)
    b.notes.append(f"grid {PV_GRID}, irradiance seed {irradiance_seed}")
    args = [
        "sweep",
        "--governors", PV_GRID["governors"],
        "--weather", PV_GRID["weather"],
        "--capacitance-mf", PV_GRID["capacitance_mf"],
        "--seeds", str(irradiance_seed),
        "--duration", str(PV_GRID["duration_s"]),
        "--workers", "1",
        "--quiet",
    ]

    def argv_for(store: Path, spans: "Path | None") -> list[str]:
        full = [*args, "--store", str(store)]
        return b.launcher("cli", *full, spans=spans) if spans else b.program(*full)

    campaign_workload(b, argv_for)


def lab_campaign(b: Bench) -> None:
    grid = lab_grid(
        LAB_GOVERNORS,
        LAB_CAPACITANCE_MF,
        power_levels(b.rng, LAB_POWER_LEVELS),
        LAB_DURATION_S,
        LAB_SERIES_SAMPLES,
    )
    b.notes.append(f"power levels {grid['power_w']} W")
    grid_path = b.write_json("lab-grid.json", grid)

    def argv_for(store: Path, spans: "Path | None") -> list[str]:
        return b.launcher("lab", str(grid_path), str(store), spans=spans)

    campaign_workload(b, argv_for)


# ----------------------------------------------------------------------
# cli-resume
# ----------------------------------------------------------------------
_SUMMARY_COUNTS = re.compile(r"^(executed|cached)\s*:\s*(\d+)\s*$", re.MULTILINE)


def cli_resume(b: Bench) -> None:
    levels = power_levels(b.rng, RESUME_POWER_LEVELS)
    grid = lab_grid(ALL_GOVERNORS, RESUME_CAPACITANCE_MF, levels, RESUME_DURATION_S)
    store = prepare_store(b, "resume.jsonl", grid)
    compact = b.run(b.program("store", "compact", "--store", str(store)))
    if not b.ran(compact, "prepare: store compact"):
        raise SystemExit(f"perfbench: store compact failed: {compact.err.strip()[-500:]}")
    size = store.stat().st_size
    cells = len(ALL_GOVERNORS) * len(RESUME_CAPACITANCE_MF)
    b.notes.append(f"store of {len(levels) * cells} records; each invocation asks {cells} cached cells")
    args = [
        "sweep",
        "--supply", "constant-power",
        "--governors", ",".join(ALL_GOVERNORS),
        "--capacitance-mf", ",".join(f"{c:g}" for c in RESUME_CAPACITANCE_MF),
        "--duration", str(RESUME_DURATION_S),
        "--workers", "1",
        "--store", str(store),
        "--quiet",
    ]

    def run_round(index: int, traced: bool) -> dict:
        children, spans = [], []
        started = time.perf_counter()
        for i in range(RESUME_INVOCATIONS_PER_ROUND):
            level = b.rng.choice(levels)
            full = [*args, "--supply-param", f"power_w={level!r}"]
            if traced:
                spans.append(b.path(f"spans-{index}-{i}.jsonl"))
                child = b.run(b.launcher("cli", *full, spans=spans[-1]))
            else:
                child = b.run(b.program(*full))
            children.append(child)
            if b.ran(child, f"sweep power_w={level}"):
                counts = dict(_SUMMARY_COUNTS.findall(child.out))
                b.expect(
                    counts == {"executed": "0", "cached": str(cells)},
                    f"sweep power_w={level}: expected 0 executed / {cells} cached, got {counts}",
                )
        return {"wall_s": time.perf_counter() - started, "children": children, "spans": spans}

    b.measure_imports()
    plain, traced = measure(b, run_round)
    if b.trace:
        set_layers(b, [p for r in traced for p in r["spans"]], "median of traced invocations")
    else:
        walls = [r["wall_s"] for r in plain]
        invocations = [c.wall_s for r in plain for c in r["children"]]
        n = RESUME_INVOCATIONS_PER_ROUND
        per_round(b, "wall_s", walls, f" per {n} invocations")
        per_round(b, "scenarios_per_s", [n * cells / w for w in walls], " (cached cells answered)")
        per_round(b, "invocation_p50_s", invocations)
        per_round(b, "requests_per_s", [n / w for w in walls], " (a request is one invocation)")
        latency_metrics(b, [1000.0 * x for x in invocations])
        per_round(b, "peak_rss_mb", [c.rss_mb for r in plain for c in r["children"]])
    b.expect(store.stat().st_size == size, "cached invocations changed the store")
    check_stores(b, [store])


# ----------------------------------------------------------------------
# serve-query
# ----------------------------------------------------------------------
def http_request(port: int, method: str, path: str, body: "bytes | None" = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return -1, b""
    finally:
        conn.close()


@dataclass
class Service:
    proc: subprocess.Popen
    port: int
    campaign: str
    setup_s: float


def start_service(b: Bench, store: Path, spec: bytes) -> Service:
    """Spawn ``repro serve``; ready once ``/readyz`` and the cached campaign are done."""
    started = time.perf_counter()
    deadline = started + 60.0
    with b.path("serve.err").open("a") as err:
        proc = subprocess.Popen(
            b.program("serve", "--store", str(store), "--port", "0", "--workers", "1"),
            cwd=b.work,
            env=b.env,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
    try:
        port = None
        while port is None:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
            line = proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("service exited or printed no banner")
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            port = int(match.group(1)) if match else None
        while http_request(port, "GET", "/readyz")[0] != 200:
            if time.perf_counter() > deadline:
                raise RuntimeError("service never became ready")
            time.sleep(0.005)
        status, body = http_request(port, "POST", "/campaigns", spec)
        if status not in (200, 201):
            raise RuntimeError(f"campaign submission returned {status}")
        campaign = json.loads(body)["id"]
        while True:
            status, body = http_request(port, "GET", f"/campaigns/{campaign}")
            state = json.loads(body).get("state") if status == 200 else None
            if state == "done":
                break
            if state == "failed" or time.perf_counter() > deadline:
                raise RuntimeError(f"cached campaign did not finish (state {state})")
            time.sleep(0.005)
    except BaseException:
        stop_service(b, proc)
        raise
    return Service(proc, port, campaign, time.perf_counter() - started)


def stop_service(b: Bench, proc: subprocess.Popen) -> float:
    """Graceful SIGINT shutdown; returns the service's peak RSS in MB."""
    proc.send_signal(signal.SIGINT)
    rc, rss_mb = wait_child(proc, 30.0)
    proc.stdout.close()
    b.expect(rc == 0, f"serve exited {rc}")
    return rss_mb


def request_path(kind: str, param, campaign: str) -> tuple[str, str]:
    base = f"/campaigns/{campaign}"
    return {
        "status": ("GET", base),
        "records_filtered": ("GET", f"{base}/records?governor={param}"),
        "records_limit": ("GET", f"{base}/records?limit={param}"),
        "aggregate": ("GET", f"{base}/aggregate?axis={param}"),
        "resubmit": ("POST", "/campaigns"),
    }[kind]


def request_mix(rng: random.Random, n: int) -> list[list]:
    """``n`` requests, each kind equally often, in seeded order with seeded parameters.

    Equal shares keep the latency percentiles from shifting with the seed
    merely because one seed drew more of a slow kind.
    """
    params = {
        "status": lambda: None,
        "records_filtered": lambda: rng.choice(ALL_GOVERNORS),
        "records_limit": lambda: rng.randint(5, 50),
        "aggregate": lambda: rng.choice(SERVE_AXES),
        "resubmit": lambda: None,
    }
    kinds = [SERVE_KINDS[i % len(SERVE_KINDS)] for i in range(n)]
    rng.shuffle(kinds)
    return [[kind, params[kind]()] for kind in kinds]


def serve_query(b: Bench) -> None:
    levels = power_levels(b.rng, SERVE_POWER_LEVELS)
    grid = lab_grid(ALL_GOVERNORS, SERVE_CAPACITANCE_MF, levels, SERVE_DURATION_S)
    spec_path = b.path("serve-spec.json")
    store = prepare_store(b, "serve.jsonl", grid, spec_out=spec_path)
    spec = spec_path.read_bytes()
    b.notes.append(f"store of {len(ALL_GOVERNORS) * len(SERVE_CAPACITANCE_MF) * len(levels)} records")
    # The first response to each distinct request, for the output check, and
    # its record count, which the static store repeats.
    served: dict = {}
    counts: dict = {}

    setups = []
    for _ in range(0 if b.trace else SERVE_SETUP_REPEATS - 1):
        svc = start_service(b, store, spec)
        setups.append(svc.setup_s)
        stop_service(b, svc.proc)
    svc = start_service(b, store, spec)
    setups.append(svc.setup_s)

    def run_round(index: int, traced: bool) -> dict:
        mix = request_mix(b.rng, SERVE_ROUND_REQUESTS)
        latencies = []
        started = time.perf_counter()
        for kind, param in mix:
            method, path = request_path(kind, param, svc.campaign)
            sent = time.perf_counter()
            status, body = http_request(svc.port, method, path, spec if kind == "resubmit" else None)
            latencies.append(1000.0 * (time.perf_counter() - sent))
            key = json.dumps([kind, param])
            if b.expect(status == 200, f"{method} {path}: HTTP {status}") and key not in served:
                doc = json.loads(body)
                if kind == "resubmit":
                    doc = {k: doc.get(k) for k in ("id", "cached", "executed")}
                served[key] = doc
                counts[key] = doc.get("count", 0) if kind.startswith("records") else 0
        wall = time.perf_counter() - started
        returned = sum(counts.get(json.dumps(m), 0) for m in mix)
        return {"wall_s": wall, "mix": mix, "latencies": latencies, "returned": returned, "samples": len(mix)}

    try:
        plain, traced = measure(b, run_round, min_samples=0 if b.trace else SERVE_MIN_REQUESTS)
    finally:
        rss = stop_service(b, svc.proc)
    replay = [m for r in traced for m in r["mix"]]
    spans_path = b.path("replay-spans.jsonl") if b.trace else None
    report = b.check(
        b.launcher(
            "serve-check", str(store), str(spec_path),
            str(b.write_json("mix.json", replay)), str(b.write_json("served.json", served)),
            spans=spans_path,
        ),
        "serve-check",
    )
    if b.trace:
        set_layers(b, [spans_path], f"library replay of {len(replay)} requests")
        client = [ms for r in traced for ms in r["latencies"]]
        for kind in SERVE_KINDS:
            own = [ms for (k, _), ms in zip(replay, client) if k == kind]
            b.metric(f"serve.{kind}.p50_ms", percentile(own, 50), describe(own, "ms"))
        overhead = [ms - 1000.0 * lib for ms, lib in zip(client, report.get("library_s", []))]
        if overhead:
            b.metric("serve.http_overhead_ms", percentile(overhead, 50), describe(overhead, "ms"))
        return
    walls = [r["wall_s"] for r in plain]
    latencies = [ms for r in plain for ms in r["latencies"]]
    b.metric("setup_s", statistics.median(setups), describe(setups, "s") + " spawn to ready + cached campaign")
    per_round(b, "wall_s", walls, f" per {SERVE_ROUND_REQUESTS} requests")
    per_round(b, "scenarios_per_s", [r["returned"] / r["wall_s"] for r in plain], " (records served)")
    b.metric("invocation_p50_s", percentile(latencies, 50) / 1000.0, "an invocation is one request")
    per_round(b, "requests_per_s", [r["samples"] / r["wall_s"] for r in plain])
    latency_metrics(b, latencies)
    b.metric("peak_rss_mb", rss, "the measured service")


WORKLOADS = {
    "pv-campaign": pv_campaign,
    "lab-campaign": lab_campaign,
    "cli-resume": cli_resume,
    "serve-query": serve_query,
}


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    b = Bench(args.workload, work, args.seed, args.seconds, bool(args.trace))
    try:
        WORKLOADS[args.workload](b)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    wanted = PER_LAYER if b.trace else END_TO_END
    for name, unit in wanted.items():
        b.metrics.setdefault(name, (0, unit, "not exercised by this workload"))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in b.notes:
        print(f"  {note}")
    for name in wanted:
        value, unit, detail = b.metrics[name]
        print(f"  {name:40s} {value:14.6g} {unit:6s} {detail}")
    error_rate = b.failed / b.attempted if b.attempted else 0.0
    print(f"  {'error_rate':40s} {error_rate:14.6g} {'ratio':6s} {b.failed} failed / {b.attempted} attempted")
    for problem in b.problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": b.failed == 0,
        "attempted": max(b.attempted, 1),
        "failed": b.failed,
        "metrics": {name: {"value": b.metrics[name][0], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
