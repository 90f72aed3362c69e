"""Sharded campaign execution: partition a campaign, run shards, merge stores.

A :class:`~repro.sweep.spec.SweepSpec` campaign is embarrassingly parallel —
every cell is an independent simulation keyed by its content hash — so the
natural way past one machine's process pool is to *shard* the campaign:

* :func:`shard_index_of` / :func:`partition_scenarios` — **deterministic,
  content-addressed sharding**.  A scenario belongs to shard
  ``int(scenario_id, 16) % n_shards``: membership depends only on the
  scenario's content hash, never on expansion order, axis spelling or which
  host does the partitioning, so N workers expanding the same spec agree on
  disjoint subsets whose union is the whole campaign;
* :class:`ShardPlan` — one worker's slice of a campaign, stamped into a JSON
  **shard manifest** (campaign hash, shard count/index, engine choice, spec
  snapshot).  Workers rebuild the spec from the snapshot and verify the
  recomputed campaign hash against the stamped one, so a drifted preset, a
  mis-copied spec file or a stale shard store is caught before any
  simulation runs;
* :class:`DistRunner` — the in-process fan-out fallback: launches all N
  shards as local worker processes, each writing its own shard store, then
  merges the shard stores into the coordinator's store via
  :meth:`~repro.sweep.store.ResultStore.merge`.  It satisfies the
  :class:`~repro.sweep.runner.CampaignRunner` protocol, so a
  :class:`~repro.sweep.adaptive.BoundarySearch` handed a ``DistRunner``
  transparently fans each round's probe batch out across the shards.

Multi-host execution is the same flow without the fork: run
``python -m repro shard --spec campaign.json --num-shards N --shard-index I
--store shard-I.jsonl`` on each host, collect the shard stores, and assemble
the final store with ``python -m repro store merge DEST shard-*.jsonl`` — the
merged store is what ``sweep --resume``, ``aggregate`` and ``boundary``
consume unchanged, and re-running any shard against it is pure cache hits.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .. import faults
from ..faults import RetryPolicy
from ..obs.telemetry import DISABLED, Telemetry
from .runner import ProgressCallback, SweepReport, SweepRunner, expand_unique
from .scenario import SHARD_INDEX_ENV
from .spec import ScenarioConfig, SweepSpec, campaign_hash_of
from .store import ResultStore

__all__ = [
    "MANIFEST_VERSION",
    "ShardPlan",
    "shard_index_of",
    "partition_scenarios",
    "DistRunner",
]

#: Shard manifest layout version.
MANIFEST_VERSION = 1

#: Engine names a manifest may carry (mapped to ``build_system(fast=...)``).
_ENGINES = ("fast", "exact")


def shard_index_of(scenario_id: str, n_shards: int) -> int:
    """The shard a scenario belongs to — a pure function of its content hash."""
    return int(scenario_id, 16) % int(n_shards)


def partition_scenarios(
    configs: Sequence[ScenarioConfig], n_shards: int, shard_index: int
) -> list[ScenarioConfig]:
    """This shard's subset of a config list, in the list's (partition) order."""
    return [c for c in configs if shard_index_of(c.scenario_id, n_shards) == shard_index]


@dataclass(frozen=True)
class ShardPlan:
    """One worker's slice of a campaign: which scenarios, under which contract.

    Attributes
    ----------
    spec:
        The full campaign (every worker holds the whole spec; the slice is
        computed, not enumerated, so manifests stay small at any grid size).
    n_shards / shard_index:
        The partition geometry; ``shard_index`` is 0-based.
    engine:
        ``"fast"`` or ``"exact"`` — the simulation engine every shard of the
        campaign must use.  Stamped into the manifest (a half-fast,
        half-exact campaign would be silently inconsistent) even though it
        is not part of any scenario's identity.
    """

    spec: SweepSpec
    n_shards: int
    shard_index: int
    engine: str = "fast"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_shards", int(self.n_shards))
        object.__setattr__(self, "shard_index", int(self.shard_index))
        if self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if not 0 <= self.shard_index < self.n_shards:
            raise ValueError(
                f"shard_index must be in [0, {self.n_shards}) (got {self.shard_index})"
            )
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES} (got {self.engine!r})")

    @classmethod
    def partition(
        cls,
        spec: Union[SweepSpec, ScenarioConfig],
        n_shards: int,
        shard_index: int,
        engine: str = "fast",
    ) -> "ShardPlan":
        """Split a campaign: the plan for shard ``shard_index`` of ``n_shards``.

        All N plans of one campaign are disjoint and their union is exactly
        the campaign's de-duplicated expansion, regardless of which process
        computes them (membership is content-addressed, see
        :func:`shard_index_of`).
        """
        if isinstance(spec, ScenarioConfig):
            spec = SweepSpec(base=spec)
        return cls(spec=spec, n_shards=n_shards, shard_index=shard_index, engine=engine)

    # ------------------------------------------------------------------
    # Expanding a 100k-cell campaign hashes 100k canonical-JSON configs, so
    # the plan expands once and every consumer (hash, configs, manifest,
    # banner lines) reads the cache.  cached_property writes straight into
    # __dict__, which a frozen dataclass permits.
    @functools.cached_property
    def _expanded(self) -> tuple[ScenarioConfig, ...]:
        return tuple(expand_unique(self.spec))

    @functools.cached_property
    def campaign_hash(self) -> str:
        """The campaign's content hash — shared by all shards of one campaign."""
        return campaign_hash_of(c.scenario_id for c in self._expanded)

    def configs(self) -> list[ScenarioConfig]:
        """The scenarios this shard executes, in partition order."""
        return partition_scenarios(self._expanded, self.n_shards, self.shard_index)

    def with_geometry(
        self, n_shards: int, shard_index: int, engine: Optional[str] = None
    ) -> "ShardPlan":
        """This campaign re-sliced: same spec, different shard geometry.

        Carries the cached expansion across (membership is content-addressed,
        so the expansion is geometry-independent) — re-slicing a verified
        manifest's plan for another worker costs no re-hashing.
        """
        plan = ShardPlan(
            spec=self.spec,
            n_shards=n_shards,
            shard_index=shard_index,
            engine=engine if engine is not None else self.engine,
        )
        if "_expanded" in self.__dict__:
            plan.__dict__["_expanded"] = self._expanded
            plan.__dict__["campaign_hash"] = self.campaign_hash
        return plan

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def manifest(self) -> dict:
        """The JSON shard manifest: identity, geometry, engine, spec snapshot."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "campaign_hash": self.campaign_hash,
            "n_shards": self.n_shards,
            "shard_index": self.shard_index,
            "engine": self.engine,
            "total_scenarios": len(self._expanded),
            "shard_scenarios": len(self.configs()),
            "spec": self.spec.to_dict(),
        }

    def write_manifest(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_manifest(cls, source: "str | Path | dict") -> "ShardPlan":
        """Load and *verify* a manifest.

        The spec snapshot is re-expanded and its campaign hash recomputed;
        a mismatch against the stamped hash means the snapshot was edited,
        the manifest was written by an incompatible config schema, or two
        different campaigns are being mixed — all of which must stop a
        worker before it burns CPU on the wrong campaign.
        """
        if isinstance(source, (str, Path)):
            try:
                data = json.loads(Path(source).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ValueError(f"unreadable shard manifest {source}: {exc}") from None
        else:
            data = dict(source)
        version = data.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"shard manifest version {version!r} is not supported "
                f"(this build writes v{MANIFEST_VERSION})"
            )
        try:
            spec = SweepSpec.from_dict(data["spec"])
            plan = cls(
                spec=spec,
                n_shards=data["n_shards"],
                shard_index=data["shard_index"],
                engine=data.get("engine", "fast"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid shard manifest: {exc}") from None
        stamped = data.get("campaign_hash")
        if stamped != plan.campaign_hash:
            raise ValueError(
                f"shard manifest campaign hash {stamped!r} does not match the "
                f"spec snapshot (expands to {plan.campaign_hash!r}); the manifest "
                "was edited or belongs to a different campaign"
            )
        return plan

    def describes_same_campaign(self, other: "ShardPlan") -> bool:
        """Whether another plan is a slice of the same partitioned campaign."""
        return (
            self.campaign_hash == other.campaign_hash
            and self.n_shards == other.n_shards
            and self.engine == other.engine
        )


# ----------------------------------------------------------------------
# In-process fan-out: all N shards as local worker processes
# ----------------------------------------------------------------------
def _shard_worker(payload: dict, outbox) -> None:
    """Top-level shard worker body (picklable; runs in a child process).

    Executes its config subset with a serial/pooled :class:`SweepRunner`
    against the shard's own store, streaming lightweight progress messages
    (series payloads stripped) and a final summary over ``outbox``, the
    write end of a pipe only this worker holds.  ``send`` is synchronous and
    nothing is shared between workers, so a worker that dies mid-campaign
    cannot leave a lock held that wedges the others (a ``multiprocessing``
    queue's feeder thread holds one cross-process lock per write).  When the
    coordinator hands it a trace directory, the worker builds its *own*
    per-process telemetry there (``trace-shard-I-<pid>.jsonl`` plus a metrics
    sidecar next to the shard store) — trace files merge on read, like shard
    stores do — and emits lifecycle events (``worker.start`` / time-gated
    ``worker.heartbeat`` / ``worker.done``) around the campaign spans its
    runner records.
    """
    shard_index = payload["shard_index"]
    worker_id = payload.get("worker_id", shard_index)
    trace_dir = payload.get("trace_dir")
    telemetry = (
        Telemetry.create(
            trace_dir, worker=f"shard-{shard_index}", campaign=payload.get("campaign")
        )
        if trace_dir
        else DISABLED
    )
    # Pool grandchildren inherit the environment (fork and spawn alike), so
    # every record computed under this worker carries its shard index.
    os.environ[SHARD_INDEX_ENV] = str(shard_index)
    try:
        configs = [ScenarioConfig.from_dict(d) for d in payload["configs"]]
        store = ResultStore(payload["store_path"], telemetry=telemetry)
        telemetry.tracer.event(
            "worker.start", shard=shard_index, worker_id=worker_id, scenarios=len(configs)
        )
        last_beat = time.monotonic()
        injector = faults.active()

        def forward(done: int, total: int, record: dict, cached: bool) -> None:
            nonlocal last_beat
            if injector is not None:
                # Firing *before* the progress message is the harshest
                # ordering: a crash here loses the just-completed cell's
                # message (though its record is already in the shard store),
                # so the coordinator must recover from the store diff alone.
                injector.fire(
                    "dist.worker_loop", telemetry=telemetry, shard=shard_index, done=done
                )
            lite = {k: v for k, v in record.items() if k != "series"}
            outbox.send(("progress", worker_id, done, total, lite, cached))
            now = time.monotonic()
            if now - last_beat >= 1.0:
                last_beat = now
                telemetry.tracer.event(
                    "worker.heartbeat", shard=shard_index, done=done, total=total
                )

        runner = SweepRunner(
            store,
            workers=payload["workers"],
            timeout_s=payload["timeout_s"],
            series_samples=payload["series_samples"],
            fast=payload["fast"],
            progress=forward,
            telemetry=telemetry,
            retry=RetryPolicy.from_dict(payload.get("retry")),
        )
        report = runner.run(configs)
        telemetry.tracer.event("worker.done", shard=shard_index, **report.summary())
        telemetry.write_metrics(store.path)
        outbox.send(("done", worker_id, report.summary()))
    except Exception as exc:  # noqa: BLE001 — a shard must report, not vanish
        telemetry.tracer.event(
            "worker.failed", shard=shard_index, error=f"{type(exc).__name__}: {exc}"
        )
        outbox.send(("failed", worker_id, f"{type(exc).__name__}: {exc}"))
    finally:
        telemetry.close()


class DistRunner:
    """Run campaigns as N sharded worker processes sharing only a final merge.

    The single-host counterpart of the multi-host shard/merge flow — and the
    integration harness proving it: each shard worker is a separate process
    with its *own* :class:`~repro.sweep.store.ResultStore` (no shared file,
    no locking), exactly like a remote host would be.  The coordinator
    collects each run's cells from the shard stores into its own store by
    per-config fetch + append (so repeated runs — e.g. boundary-search
    rounds — only ever copy the new round's records, never re-merge the
    shard stores' history); the wholesale union of full shard stores is
    :func:`~repro.sweep.store.merge_stores` / ``store merge``, the
    multi-host coordinator path.

    Satisfies :class:`~repro.sweep.runner.CampaignRunner`, so it drops in
    anywhere a :class:`SweepRunner` is consumed — in particular as the
    runner of a :class:`~repro.sweep.adaptive.BoundarySearch`, whose
    per-round probe batches then fan out across the shards.

    Parameters
    ----------
    store:
        The coordinator's merged store.  Cells already complete here are
        never dispatched (coordinator-level cache), and every run ends with
        the shard stores merged back into it.
    n_shards:
        Worker process count; each gets the content-addressed subset of the
        campaign that :func:`shard_index_of` assigns it.
    workers_per_shard:
        Process-pool width *inside* each shard worker (shard workers are
        spawned non-daemonic precisely so they may pool further).
    shard_dir:
        Where shard stores live (default: ``<store>.shards/``).  Persistent
        across runs, so an interrupted distributed campaign resumes with
        per-shard cache hits before the next merge.
    fast / timeout_s / series_samples / progress:
        As on :class:`SweepRunner`; progress is relayed live from the shard
        workers with coordinator-global ``done``/``total`` counts.
    telemetry:
        As on :class:`SweepRunner`.  The coordinator emits a ``dist.run``
        span partitioned into ``dist.phase`` spans (expand / cache-scan /
        execute / collect) plus ``worker.spawn`` / ``worker.exit`` events;
        when the bundle carries a trace directory, each shard worker builds
        its own per-process trace file there, so ``obs report <dir>`` sees
        the coordinator and every worker merged in timestamp order.
    retry:
        Per-worker :class:`~repro.faults.RetryPolicy` for transient scenario
        failures, forwarded to every shard worker's ``SweepRunner``.
    respawn_budget:
        Self-healing: when a shard worker dies mid-campaign, the coordinator
        diffs its store against its config subset and re-partitions the
        *unfinished remainder* across this many fresh recovery workers
        (spread over the surviving shards' slots).  ``0`` restores the old
        behaviour — synthetic error records, retried on manual resume.
    heartbeat_timeout_s:
        When set, a worker silent for this long (no relayed progress) is
        terminated and treated as dead, entering the same respawn path.
        Leave ``None`` (default) unless per-cell runtimes are bounded well
        below it — workers only message per completed cell.
    """

    def __init__(
        self,
        store: ResultStore,
        n_shards: int = 2,
        workers_per_shard: int = 1,
        timeout_s: Optional[float] = None,
        series_samples: int = 0,
        fast: bool = True,
        shard_dir: "str | Path | None" = None,
        progress: Optional[ProgressCallback] = None,
        telemetry: Optional[Telemetry] = None,
        retry: Optional[RetryPolicy] = None,
        respawn_budget: int = 2,
        heartbeat_timeout_s: Optional[float] = None,
    ):
        if int(n_shards) < 1:
            raise ValueError("n_shards must be at least 1")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        self.store = store
        self.n_shards = int(n_shards)
        self.workers_per_shard = max(1, int(workers_per_shard))
        self.timeout_s = timeout_s
        self.series_samples = int(series_samples)
        self.fast = bool(fast)
        self.shard_dir = Path(shard_dir) if shard_dir is not None else Path(
            str(store.path) + ".shards"
        )
        self.progress = progress
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self.retry = retry
        #: How many recovery workers a run may spawn for dead shards; beyond
        #: it, unfinished cells fall back to synthetic error records (the
        #: pre-existing manual-resume path).
        self.respawn_budget = max(0, int(respawn_budget))
        #: When set, a worker that has relayed no message for this long is
        #: presumed wedged: terminated and treated as dead (respawn path).
        #: Off by default — workers only message per completed cell, so a
        #: single long scenario would otherwise look like a stall.
        self.heartbeat_timeout_s = heartbeat_timeout_s

    def shard_store_path(self, shard_index: int) -> Path:
        return self.shard_dir / f"shard-{shard_index}.jsonl"

    # ------------------------------------------------------------------
    def run(self, campaign: Union[SweepSpec, Sequence[ScenarioConfig]]) -> SweepReport:
        """Partition, execute on worker processes, merge, report.

        The returned report is indistinguishable from a single
        :meth:`SweepRunner.run` over the same campaign against the same
        store: per-config records (merged back in), coordinator cache hits
        counted as ``cached``, worker-side failures as ``failed``; a shard
        worker that dies leaves synthetic ``error`` records for its
        unexecuted cells (persisted, and therefore retried on resume).
        """
        tracer, metrics = self.telemetry.tracer, self.telemetry.metrics
        started = time.perf_counter()
        configs = expand_unique(campaign)
        mark = time.perf_counter()
        tracer.span_event("dist.phase", mark - started, phase="expand")
        report = SweepReport(total=len(configs))

        done = 0
        pending: list[ScenarioConfig] = []
        for config in configs:
            if self.store.is_complete(config):
                lookup_t0 = time.perf_counter()
                record = self.store.get(config)
                report.cached += 1
                report.records.append(record)
                done += 1
                metrics.counter("campaign.cache_hits")
                tracer.span_event(
                    "scenario",
                    time.perf_counter() - lookup_t0,
                    scenario_id=config.scenario_id,
                    status=record.get("status"),
                    cached=True,
                )
                self._notify(done, report.total, record, cached=True)
            else:
                pending.append(config)
        prev, mark = mark, time.perf_counter()
        tracer.span_event("dist.phase", mark - prev, phase="cache-scan")

        if pending:
            worker_units, observed_cached = self._run_shards(
                pending, done, report.total
            )
            prev, mark = mark, time.perf_counter()
            tracer.span_event("dist.phase", mark - prev, phase="execute")
            # Collect exactly this run's cells from the shard stores into the
            # coordinator store — per-config fetch + append, like a
            # SweepRunner persisting its own completions, so repeated runs
            # (e.g. BoundarySearch rounds) never re-copy earlier rounds'
            # records out of the persistent shard stores.  A shard's cells
            # may live in its home store *or* a recovery worker's store (a
            # respawn after the home worker died), so each shard searches
            # its units' stores in spawn order.
            stores: dict[Path, ResultStore] = {}
            paths_by_shard: dict[int, list[Path]] = {}
            dead_paths: set[Path] = set()
            dead_units = 0
            for unit in worker_units:
                shard_paths = paths_by_shard.setdefault(unit["shard_index"], [])
                if unit["store_path"] not in shard_paths:
                    shard_paths.append(unit["store_path"])
                if "executed" in unit["summary"]:
                    report.executed += unit["summary"].get("executed", 0)
                    report.cached += unit["summary"].get("cached", 0)
                    unit_retried = unit["summary"].get("retried", 0)
                    report.retried += unit_retried
                    if unit_retried:
                        # Mirror into the coordinator registry only — the
                        # workers already emitted tracer counters, so adding
                        # ours would double-count in trace aggregation.
                        metrics.counter("retry.attempt", unit_retried)
                else:
                    dead_units += 1
                    dead_paths.add(unit["store_path"])
            injected_total = 0
            for config in pending:
                shard = shard_index_of(config.scenario_id, self.n_shards)
                record, from_dead = None, False
                for path in paths_by_shard.get(shard, []):
                    if path not in stores and path.exists():
                        stores[path] = ResultStore(path)
                    source = stores.get(path)
                    found = source.get(config) if source is not None else None
                    if found is not None:
                        record, from_dead = found, path in dead_paths
                        break
                if record is None:
                    # Every worker holding this cell died before reaching it
                    # (and the respawn budget ran out); leave a retryable
                    # post-mortem record, as SweepRunner does for in-process
                    # failures.  (Not counted as executed — no simulation ran.)
                    record = {
                        "scenario_id": config.scenario_id,
                        "config": config.to_dict(),
                        "status": "error",
                        "error": "shard worker exited before executing this scenario",
                    }
                elif from_dead:
                    # The worker produced this record but died before
                    # reporting its summary; account the work from the
                    # progress messages it did send (a relayed cached=True
                    # cell was a shard-store cache hit, not an execution).
                    if observed_cached.get(config.scenario_id):
                        report.cached += 1
                    else:
                        report.executed += 1
                self.store.append(record)
                report.records.append(record)
                injected_total += int(record.get("faults_injected") or 0)
                status = record.get("status")
                if status == "error":
                    report.failed += 1
                elif status == "timeout":
                    report.timed_out += 1
            if injected_total:
                # Registry-only mirror, like retry.attempt above.
                metrics.counter("faults.injected", injected_total)
            prev, mark = mark, time.perf_counter()
            tracer.span_event(
                "dist.phase",
                mark - prev,
                phase="collect",
                collected=len(pending),
                dead_workers=dead_units,
            )

        report.elapsed_s = mark - started
        tracer.span_event(
            "dist.run",
            mark - started,
            shards=self.n_shards,
            workers_per_shard=self.workers_per_shard,
            **report.summary(),
        )
        return report

    # ------------------------------------------------------------------
    def _notify(self, done: int, total: int, record: dict, cached: bool) -> None:
        if self.progress is not None:
            self.progress(done, total, record, cached)

    def _payload(
        self,
        shard_index: int,
        shard_configs: list[ScenarioConfig],
        worker_id: int = 0,
        store_path: "Path | None" = None,
    ) -> dict:
        trace_dir = self.telemetry.trace_dir
        return {
            "shard_index": shard_index,
            "worker_id": worker_id,
            "configs": [c.to_dict() for c in shard_configs],
            "store_path": str(
                store_path if store_path is not None else self.shard_store_path(shard_index)
            ),
            "workers": self.workers_per_shard,
            "timeout_s": self.timeout_s,
            "series_samples": self.series_samples,
            "fast": self.fast,
            "retry": self.retry.to_dict() if self.retry is not None else None,
            "trace_dir": str(trace_dir) if trace_dir is not None else None,
            "campaign": getattr(self.telemetry.tracer, "campaign", None),
        }

    def _run_shards(
        self, pending: list[ScenarioConfig], done: int, total: int
    ) -> tuple[list[dict], dict]:
        """Launch one process per non-empty shard; relay progress; supervise.

        Workers are tracked as **units** (a unique ``worker_id``, a shard
        index, a config subset, a private store) because a shard may be
        served by more than one process over a run's lifetime: when a unit
        dies mid-campaign — process exit, or heartbeat staleness when
        ``heartbeat_timeout_s`` is set — the coordinator diffs the unit's
        store against its config subset and, respawn budget permitting,
        re-partitions the unfinished remainder across as many fresh recovery
        units as there are surviving workers (each with its own store; a
        record already persisted, error records included, is never re-run).

        Returns ``(units, observed_cached)``: one dict per unit
        (``worker_id`` / ``shard_index`` / ``store_path`` / ``summary``,
        where a dead unit's summary is an ``{"error": ...}`` stub), and a
        ``scenario_id -> cached`` map rebuilt from the relayed progress
        messages — the accounting fallback for cells whose worker died
        between completing them and reporting its summary.
        """
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        tracer, metrics = self.telemetry.tracer, self.telemetry.metrics
        ctx = multiprocessing.get_context()
        units: dict[int, dict] = {}  # worker_id -> unit
        next_worker_id = 0
        respawns_left = self.respawn_budget
        observed_cached: dict[str, bool] = {}

        def spawn(
            shard_index: int,
            configs: list[ScenarioConfig],
            store_path: Path,
            recovery_for: "int | None" = None,
        ) -> None:
            nonlocal next_worker_id
            worker_id = next_worker_id
            next_worker_id += 1
            inbox, outbox = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_shard_worker,
                args=(self._payload(shard_index, configs, worker_id, store_path), outbox),
                daemon=False,  # shard workers may pool further
            )
            process.start()
            # The worker holds the only write end, so its exit reads as EOF.
            outbox.close()
            units[worker_id] = {
                "worker_id": worker_id,
                "shard_index": shard_index,
                "configs": configs,
                "store_path": store_path,
                "process": process,
                "inbox": inbox,
                "last_seen": time.monotonic(),
                "summary": None,
            }
            metrics.counter("dist.workers_spawned")
            tracer.counter("dist.workers_spawned")
            if recovery_for is not None:
                metrics.counter("dist.respawn")
                tracer.counter("dist.respawn", shard=shard_index)
                tracer.event(
                    "worker.respawn",
                    shard=shard_index,
                    worker_id=worker_id,
                    worker_pid=process.pid,
                    replaces_worker=recovery_for,
                    scenarios=len(configs),
                )
            else:
                tracer.event(
                    "worker.spawn",
                    shard=shard_index,
                    worker_id=worker_id,
                    worker_pid=process.pid,
                    scenarios=len(configs),
                )

        for shard_index in range(self.n_shards):
            shard_configs = partition_scenarios(pending, self.n_shards, shard_index)
            if shard_configs:
                spawn(shard_index, shard_configs, self.shard_store_path(shard_index))

        def handle(message) -> None:
            nonlocal done
            kind, worker_id = message[0], message[1]
            unit = units.get(worker_id)
            if unit is not None:
                unit["last_seen"] = time.monotonic()
            if kind == "progress":
                _, _, _, _, record, cached = message
                scenario_id = record.get("scenario_id")
                if scenario_id:
                    observed_cached[scenario_id] = bool(cached)
                done += 1
                self._notify(done, total, record, cached)
            elif unit is not None and kind == "done":
                unit["summary"] = message[2]
            elif unit is not None:  # "failed"
                unit["summary"] = {"error": message[2]}

        def drain(unit: dict) -> None:
            """Handle every message waiting in a unit's pipe; close it at EOF."""
            inbox = unit["inbox"]
            try:
                while not inbox.closed and inbox.poll():
                    handle(inbox.recv())
            except EOFError:
                inbox.close()

        def handle_death(unit: dict, cause: str) -> None:
            """Account a dead unit and re-partition its unfinished remainder."""
            nonlocal respawns_left
            process = unit["process"]
            process.join()
            unit["summary"] = {
                "error": f"shard worker {unit['shard_index']} "
                f"(worker {unit['worker_id']}) {cause}"
            }
            metrics.counter("dist.worker_deaths")
            tracer.counter("dist.worker_deaths", shard=unit["shard_index"])
            # Diff the unit's store against its manifest subset: anything
            # already recorded — including error records, which must wait
            # for an explicit resume, not loop here — is finished.
            store_path = unit["store_path"]
            store = ResultStore(store_path) if store_path.exists() else None
            remaining = [
                c
                for c in unit["configs"]
                if store is None or store.get(c) is None
            ]
            if not remaining or respawns_left <= 0:
                if remaining:
                    tracer.event(
                        "worker.abandoned",
                        shard=unit["shard_index"],
                        worker_id=unit["worker_id"],
                        unfinished=len(remaining),
                    )
                return
            # Elastic re-partition: as many recovery units as there are
            # surviving workers (at least one), each with a private store so
            # no two live processes ever append to the same file.
            survivors = sum(
                1
                for other in units.values()
                if other is not unit
                and other["summary"] is None
                and other["process"].is_alive()
            )
            groups = min(max(1, survivors), len(remaining), respawns_left)
            for offset in range(groups):
                slice_configs = remaining[offset::groups]
                respawns_left -= 1
                spawn(
                    unit["shard_index"],
                    slice_configs,
                    self.shard_dir
                    / f"shard-{unit['shard_index']}-r{next_worker_id}.jsonl",
                    recovery_for=unit["worker_id"],
                )

        try:
            while any(unit["summary"] is None for unit in units.values()):
                open_inboxes = {
                    unit["inbox"]: unit for unit in units.values() if not unit["inbox"].closed
                }
                ready = multiprocessing.connection.wait(list(open_inboxes), timeout=0.2)
                for inbox in ready:
                    drain(open_inboxes[inbox])
                if ready:
                    continue
                now = time.monotonic()
                for unit in list(units.values()):
                    if unit["summary"] is not None:
                        continue
                    process = unit["process"]
                    if process.is_alive():
                        if (
                            self.heartbeat_timeout_s is not None
                            and now - unit["last_seen"] > self.heartbeat_timeout_s
                        ):
                            process.terminate()
                            process.join()
                            handle_death(
                                unit,
                                f"was silent for more than "
                                f"{self.heartbeat_timeout_s:g} s and was terminated",
                            )
                        continue
                    process.join()
                    # Handle messages the dead worker sent before exiting.
                    drain(unit)
                    if unit["summary"] is None:
                        handle_death(unit, f"exited with code {process.exitcode}")
        finally:
            for unit in units.values():
                process = unit["process"]
                if process.is_alive():
                    process.terminate()
                process.join()
                unit["inbox"].close()
                tracer.event(
                    "worker.exit",
                    shard=unit["shard_index"],
                    worker_id=unit["worker_id"],
                    worker_pid=process.pid,
                    exitcode=process.exitcode,
                )
        return (
            [
                {
                    "worker_id": unit["worker_id"],
                    "shard_index": unit["shard_index"],
                    "store_path": unit["store_path"],
                    "summary": unit["summary"],
                }
                for unit in units.values()
            ],
            observed_cached,
        )
