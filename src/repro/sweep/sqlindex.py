"""Read-optimised SQLite index sidecar for :class:`~repro.sweep.store.ResultStore`.

The JSONL store is the source of truth — append-only, human-greppable,
mergeable — but answering *filtered* questions against it ("the ok records of
these 2 000 scenario ids", "how many timeouts per governor") means replaying
every line.  This module keeps a derived SQLite database next to the store
(``<store>.sqlite``) holding, per scenario id, the record's **byte offset and
length** in the JSONL plus its status, schema version and the searchable axis
columns (governor / supply / weather / seed / capacitance / duration /
workload / survived).  Queries run against the index and only the *matching*
lines are seek-loaded from the JSONL — a 100k-record store answers a
filtered query without parsing 100k lines.

It is the store's only index: :class:`~repro.sweep.store.ResultStore` opens
from its inventory too, whenever it is current, instead of parsing the JSONL.

The sidecar is purely derived state and maintains itself lazily:

* :meth:`SqliteIndex.ensure` compares the indexed byte count and mtime
  against the live JSONL.  An untouched file is served as-is; a file that
  *grew* (appends) has just its tail scanned; a file that shrank or was
  rewritten behind the index's back (``--fresh``, a file copied over it)
  triggers a full rebuild.  Before trusting a tail scan the last indexed line
  is re-read and verified, so a rewrite that happens to grow the file cannot
  smuggle stale offsets through.  An index written within two seconds of the
  file's last change also keeps a digest of the indexed bytes: a rewrite in
  the same file-timestamp tick keeps size and mtime, but not the digest.
* A compaction hands the rows of the file it wrote to
  :meth:`SqliteIndex.load_rows`, so it is indexed without being read again.
* Callers that seek-load records through the index verify each line's
  scenario id and fall back to :meth:`rebuild` on any mismatch — the JSONL
  always wins.

Deleting ``<store>.sqlite`` is always safe; the next query or compact
rebuilds it (only the compaction baseline is lost until the next compact).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Mapping, Optional, Sequence

try:  # pragma: no cover - sqlite3 ships with CPython; guarded for exotic builds
    import sqlite3
except ImportError:  # pragma: no cover
    sqlite3 = None  # type: ignore[assignment]

from .. import faults
from ..obs.telemetry import DISABLED, Telemetry

__all__ = [
    "SQLITE_AVAILABLE",
    "SIDECAR_ERRORS",
    "FILTER_COLUMNS",
    "SqliteIndex",
    "new_digest",
    "record_row",
    "sqlite_index_path",
]

#: Whether the interpreter can back stores with a SQLite sidecar at all.
SQLITE_AVAILABLE = sqlite3 is not None

#: What a sidecar operation may raise; callers catch these and fall back to
#: a linear scan of the JSONL (the sidecar is an accelerator, never a gate).
SIDECAR_ERRORS: tuple = (sqlite3.Error, OSError) if sqlite3 is not None else (OSError,)

#: Sidecar layout version (bumped on any schema change; mismatches rebuild).
_LAYOUT_VERSION = 2

#: A file changed less than this long before it was indexed can be rewritten
#: within the same file-timestamp tick, keeping its size and mtime ("racily
#: clean"); such an index also keeps a content digest until the window passes.
_RACY_NS = 2_000_000_000

#: The columns a store query may filter on (axis columns + record identity).
FILTER_COLUMNS: tuple[str, ...] = (
    "status",
    "schema_version",
    "governor",
    "supply",
    "weather",
    "seed",
    "capacitance_f",
    "duration_s",
    "workload",
    "survived",
)

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS records (
        scenario_id    TEXT PRIMARY KEY,
        byte_offset    INTEGER NOT NULL,
        byte_length    INTEGER NOT NULL,
        status         TEXT,
        schema_version INTEGER,
        governor       TEXT,
        supply         TEXT,
        weather        TEXT,
        seed           INTEGER,
        capacitance_f  REAL,
        duration_s     REAL,
        workload       TEXT,
        survived       INTEGER
    )
    """,
    "CREATE INDEX IF NOT EXISTS records_status ON records(status)",
    "CREATE INDEX IF NOT EXISTS records_governor ON records(governor)",
)

_COLUMNS = (
    "scenario_id", "byte_offset", "byte_length", "status", "schema_version", "governor",
    "supply", "weather", "seed", "capacitance_f", "duration_s", "workload", "survived",
)

#: An upsert rather than REPLACE: a superseded record keeps its row (and
#: rowid), so rowid order is first-occurrence order, as a linear scan loads.
_INSERT = (
    f"INSERT INTO records ({', '.join(_COLUMNS)}) VALUES ({', '.join('?' * len(_COLUMNS))}) "
    "ON CONFLICT(scenario_id) DO UPDATE SET "
    + ", ".join(f"{column} = excluded.{column}" for column in _COLUMNS[1:])
)

#: Scenario-id lists longer than this are chunked into several IN queries
#: (SQLite's default host-parameter limit is 999).
_IN_CHUNK = 500


def sqlite_index_path(store_path: "str | os.PathLike") -> Path:
    """Where the SQLite sidecar lives, relative to a result store."""
    return Path(str(store_path) + ".sqlite")


def new_digest():
    """The content hash the sidecar keeps of a racily clean store."""
    return hashlib.sha256()


def _digest(path: Path, nbytes: int) -> str:
    """:func:`new_digest` of a file's first ``nbytes`` bytes."""
    digest = new_digest()
    with path.open("rb") as fh:
        while nbytes > 0 and (chunk := fh.read(min(nbytes, 1 << 20))):
            digest.update(chunk)
            nbytes -= len(chunk)
    return digest.hexdigest()


def _component_kind(value) -> Optional[str]:
    """The ``kind`` of a component field — composed dict or v1 flat string."""
    if isinstance(value, dict):
        kind = value.get("kind")
        return str(kind) if kind is not None else None
    if isinstance(value, str):
        return value
    return None


def _number(kind, value):
    """``kind(value)``, or None for a missing or unreadable value."""
    try:
        return None if value is None else kind(value)
    except (TypeError, ValueError):
        return None


def _axis_columns(record: Mapping) -> dict:
    """Best-effort extraction of the searchable axis columns from a record.

    Tolerant of both schema v2 (composed components) and v1 (flat keys);
    anything unreadable is stored as NULL rather than rejected — the sidecar
    must index *every* record the JSONL holds, however old.  Records are
    parsed JSON, so a plain ``dict`` check (cheaper than an ABC one) suffices.
    """
    config = record.get("config")
    if not isinstance(config, dict):
        config = {}
    supply = config.get("supply")
    supply = supply if isinstance(supply, dict) else {}
    capacitor = config.get("capacitor")
    capacitor = capacitor if isinstance(capacitor, dict) else {}
    summary = record.get("summary")
    summary = summary if isinstance(summary, dict) else {}

    survived = summary.get("survived")
    return {
        "governor": _component_kind(config.get("governor")),
        "supply": _component_kind(config.get("supply")) or ("pv-array" if config else None),
        "weather": supply.get("weather", config.get("weather")),
        "seed": _number(int, supply.get("seed", config.get("seed"))),
        "capacitance_f": _number(
            float, capacitor.get("capacitance_f", config.get("capacitance_f"))
        ),
        "duration_s": _number(float, config.get("duration_s")),
        "workload": _component_kind(config.get("workload")),
        "survived": None if survived is None else int(bool(survived)),
    }


def record_row(scenario_id: str, offset: int, length: int, record: Mapping) -> tuple:
    """The ``records`` row of one JSONL line: where it sits, what it holds
    (:func:`_axis_columns` yields the axis columns in table order)."""
    return (
        str(scenario_id),
        offset,
        length,
        record.get("status"),
        int(record.get("schema_version", 1)),
        *_axis_columns(record).values(),
    )


class SqliteIndex:
    """The derived SQLite sidecar of one JSONL result store.

    Thread-safe (one lock around every public method, one shared connection
    with ``check_same_thread=False``) because the campaign service queries it
    from executor threads while its worker thread appends to the store.
    """

    def __init__(
        self,
        store_path: "str | os.PathLike",
        db_path: "str | os.PathLike | None" = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if sqlite3 is None:  # pragma: no cover
            raise RuntimeError("sqlite3 is not available in this interpreter")
        self.store_path = Path(store_path)
        self.db_path = Path(db_path) if db_path is not None else sqlite_index_path(store_path)
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self._lock = threading.RLock()
        self._conn: Optional["sqlite3.Connection"] = None

    # ------------------------------------------------------------------
    # Connection / schema
    # ------------------------------------------------------------------
    def _connect(self) -> "sqlite3.Connection":
        if self._conn is None:
            self.db_path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self._conn = self._open_with_schema()
            except sqlite3.DatabaseError:
                # Corrupt/foreign file at the sidecar path: replace it.
                self.db_path.unlink(missing_ok=True)
                self._conn = self._open_with_schema()
        return self._conn

    def _open_with_schema(self) -> "sqlite3.Connection":
        conn = sqlite3.connect(self.db_path, check_same_thread=False)
        try:
            # Only a new (or older-layout) sidecar writes the schema, in a
            # transaction left open for the caller's first commit (a new
            # sidecar then costs one sync, not two).  Every caller either
            # commits (an index with no meta is rebuilt) or closes.
            if conn.execute("PRAGMA user_version").fetchone()[0] != _LAYOUT_VERSION:
                conn.execute("BEGIN")
                for statement in _SCHEMA:
                    conn.execute(statement)
                conn.execute(f"PRAGMA user_version = {_LAYOUT_VERSION}")
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _meta(self, conn) -> dict:
        return {key: value for key, value in conn.execute("SELECT key, value FROM meta")}

    def _write_meta(
        self, conn, data_bytes: int, mtime_ns: int, digest: Optional[str] = None
    ) -> None:
        """Record what was indexed; ``digest`` (of those bytes) if the caller
        already has it, else it is computed only while the file is racy."""
        if time.time_ns() - mtime_ns >= _RACY_NS:
            digest = ""
        elif digest is None:
            digest = _digest(self.store_path, data_bytes)
        conn.executemany(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            [
                ("version", str(_LAYOUT_VERSION)),
                ("data_bytes", str(int(data_bytes))),
                ("mtime_ns", str(int(mtime_ns))),
                ("digest", digest),
            ],
        )

    @staticmethod
    def _clear(conn) -> None:
        """Forget every row and the compaction baseline (the file was rewritten)."""
        conn.execute("DELETE FROM records")
        conn.execute("DELETE FROM meta WHERE key = 'compacted_bytes'")

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    def ensure(self, rebuild: bool = True) -> str:
        """Bring the sidecar up to date with the JSONL; returns the action.

        One of ``"fresh"`` (already current), ``"tail"`` (appended records
        scanned incrementally), ``"rebuild"`` (file shrank / was rewritten /
        sidecar was missing or from another layout version) or ``"empty"``
        (no store file).  With ``rebuild=False`` a sidecar that needs a
        rebuild is left as it is and ``"stale"`` returned.
        """
        injector = faults.active()
        if injector is not None:
            # An "io"-typed rule here raises an OSError, which is in
            # SIDECAR_ERRORS: queries degrade to the linear scan fallback —
            # the self-healing path this site exists to exercise.
            injector.fire(
                "sqlindex.refresh", telemetry=self.telemetry, store=str(self.store_path)
            )
        with self._lock:
            conn = self._connect()
            if not self.store_path.exists():
                self._clear(conn)
                self._write_meta(conn, 0, 0)
                conn.commit()
                return "empty"
            stat = self.store_path.stat()
            size, mtime_ns = stat.st_size, stat.st_mtime_ns
            meta = self._meta(conn)
            try:
                version = int(meta.get("version", -1))
                indexed = int(meta.get("data_bytes", -1))
                indexed_mtime = int(meta.get("mtime_ns", -1))
            except ValueError:
                version, indexed, indexed_mtime = -1, -1, -1
            if (
                version != _LAYOUT_VERSION
                or not 0 <= indexed <= size
                # Same length, different mtime: rewritten in place.
                or (indexed == size and indexed_mtime != mtime_ns)
                # The file grew.  Only an append-only history keeps the
                # already-indexed offsets valid; the last indexed line must
                # have survived.
                or (indexed < size and not self._tail_anchor_valid(conn, indexed))
                # Racily clean: the indexed bytes must still be what they were.
                or (meta.get("digest") and _digest(self.store_path, indexed) != meta["digest"])
            ):
                return self._rebuild_locked(conn) if rebuild else "stale"
            if indexed == size:
                if meta.get("digest") and time.time_ns() - mtime_ns >= _RACY_NS:
                    # Out of the racy window: the stat identity suffices now.
                    self._write_meta(conn, size, mtime_ns)
                    conn.commit()
                return "fresh"
            timer = self.telemetry.metrics.timer("store.sqlite_tail_s")
            with timer:
                self._scan(conn, start=indexed)
            self.telemetry.metrics.counter("store.sqlite_tail")
            return "tail"

    def _tail_anchor_valid(self, conn, indexed: int) -> bool:
        """Does the last indexed record still sit where the sidecar says?"""
        row = conn.execute(
            "SELECT scenario_id, byte_offset, byte_length FROM records "
            "ORDER BY byte_offset DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return indexed == 0
        scenario_id, offset, length = row
        if offset + length > indexed:
            return False
        try:
            with self.store_path.open("rb") as fh:
                fh.seek(offset)
                line = fh.read(length)
            record = json.loads(line.decode("utf-8", errors="replace"))
        except (OSError, json.JSONDecodeError, ValueError):
            return False
        return isinstance(record, dict) and record.get("scenario_id") == scenario_id

    def rebuild(self) -> str:
        """Discard every row and re-scan the whole JSONL."""
        with self._lock:
            return self._rebuild_locked(self._connect())

    def _rebuild_locked(self, conn) -> str:
        timer = self.telemetry.metrics.timer("store.sqlite_build_s")
        with timer:
            self._clear(conn)
            self._scan(conn, start=0)
        self.telemetry.metrics.counter("store.sqlite_build")
        return "rebuild"

    def _scan(self, conn, start: int) -> None:
        """Index complete lines from byte ``start``; later lines supersede.

        Only newline-terminated lines are ingested — a torn trailing line
        (a writer mid-append) is left for the next scan, exactly like the
        trace reader's tail handling.  ``data_bytes`` records the end of the
        last *complete* line, so the torn tail is retried once it completes.
        """
        data_bytes = start
        rows: list[tuple] = []
        with self.store_path.open("rb") as fh:
            fh.seek(start)
            while True:
                line = fh.readline()
                if not line or not line.endswith(b"\n"):
                    break
                offset = data_bytes
                data_bytes += len(line)
                try:
                    record = json.loads(line.decode("utf-8", errors="replace"))
                except json.JSONDecodeError:
                    continue
                if not isinstance(record, dict):
                    continue
                scenario_id = record.get("scenario_id")
                if not scenario_id:
                    continue
                rows.append(record_row(scenario_id, offset, len(line), record))
        if rows:
            conn.executemany(_INSERT, rows)
        mtime_ns = self.store_path.stat().st_mtime_ns if self.store_path.exists() else 0
        self._write_meta(conn, data_bytes, mtime_ns)
        conn.commit()

    def load_rows(self, rows: Sequence[tuple], data_bytes: int, digest: str) -> None:
        """Index a freshly compacted store from the rows its writer built.

        ``rows`` are :func:`record_row` tuples for every line of the file
        the caller has just written and renamed into place, and ``digest``
        its :func:`new_digest`, so the file is not read again.
        ``data_bytes`` (its length) also becomes the compaction baseline
        :meth:`since_compact` reports.
        """
        with self._lock:
            conn = self._connect()
            self._clear(conn)
            conn.executemany(_INSERT, rows)
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('compacted_bytes', ?)",
                (str(int(data_bytes)),),
            )
            self._write_meta(conn, data_bytes, self.store_path.stat().st_mtime_ns, digest)
            conn.commit()

    # ------------------------------------------------------------------
    # Queries (index-only: callers seek-load matching lines themselves)
    # ------------------------------------------------------------------
    @staticmethod
    def _where(filters: Mapping) -> tuple[str, list]:
        clauses: list[str] = []
        params: list = []
        for column, value in filters.items():
            if column not in FILTER_COLUMNS:
                raise ValueError(
                    f"unknown store filter {column!r}; known: {', '.join(FILTER_COLUMNS)}"
                )
            if isinstance(value, (list, tuple, set, frozenset)):
                values = list(value)
                if not values:
                    clauses.append("0")
                    continue
                clauses.append(f"{column} IN ({', '.join('?' * len(values))})")
                params.extend(values)
            else:
                clauses.append(f"{column} = ?")
                params.append(value)
        return (" AND ".join(clauses) or "1"), params

    def query(
        self,
        filters: Optional[Mapping] = None,
        scenario_ids: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> list[tuple[str, int, int]]:
        """Matching ``(scenario_id, byte_offset, byte_length)`` rows.

        Rows come back in byte-offset order (sequential reads for the
        caller).  ``scenario_ids`` restricts to an explicit id set — an
        *empty* sequence matches nothing, ``None`` means unrestricted.
        """
        with self._lock:
            results = self._select("scenario_id, byte_offset, byte_length", filters, scenario_ids)
            rows = sorted((tuple(r) for result in results for r in result), key=lambda r: r[1])
            return rows[int(offset) : None if limit is None else int(offset) + int(limit)]

    def count(
        self, filters: Optional[Mapping] = None, scenario_ids: Optional[Sequence[str]] = None
    ) -> int:
        """Matching-record count, answered from the index alone."""
        with self._lock:
            results = self._select("COUNT(*)", filters, scenario_ids)
            return sum(int(result.fetchone()[0]) for result in results)

    def _select(self, what: str, filters: Optional[Mapping], scenario_ids) -> list:
        """``SELECT what`` over the matching records of a fresh index: one
        cursor, or one per id chunk when ``scenario_ids`` restricts them."""
        self.ensure()
        conn = self._connect()
        where, params = self._where(filters or {})
        sql = f"SELECT {what} FROM records WHERE {where}"
        if scenario_ids is None:
            return [conn.execute(sql, params)]
        ids = [str(s) for s in scenario_ids]
        return [
            conn.execute(
                f"{sql} AND scenario_id IN ({', '.join('?' * len(chunk))})", params + chunk
            )
            for chunk in (ids[i : i + _IN_CHUNK] for i in range(0, len(ids), _IN_CHUNK))
        ]

    def _grouped_counts(self, column: str) -> dict:
        with self._lock:
            self.ensure()
            conn = self._connect()
            return {
                key: int(n)
                for key, n in conn.execute(
                    f"SELECT {column}, COUNT(*) FROM records GROUP BY {column} ORDER BY {column}"
                )
            }

    def status_counts(self) -> dict:
        """Record count per status (``ok`` / ``error`` / ``timeout`` / ...)."""
        return self._grouped_counts("status")

    def version_counts(self) -> dict:
        """Record count per config schema version."""
        return self._grouped_counts("schema_version")

    def inventory(self) -> Optional[list[tuple[str, int, str, int]]]:
        """Every ``(scenario_id, byte_offset, status, schema_version)`` row in
        first-occurrence order — what :class:`~repro.sweep.store.ResultStore`
        opens from.  None when there is no sidecar yet or it would need a
        full rebuild: parsing the store is then cheaper than indexing it and
        reading the index back."""
        with self._lock:
            if not self.db_path.exists() or self.ensure(rebuild=False) == "stale":
                return None
            return self._connect().execute(
                "SELECT scenario_id, byte_offset, status, schema_version FROM records "
                "ORDER BY rowid"
            ).fetchall()

    def since_compact(self) -> Optional[tuple[int, int]]:
        """``(compacted_bytes, records appended since)`` for the store as the
        last compact left it; None when the sidecar was (re)built since."""
        with self._lock:
            self.ensure()
            conn = self._connect()
            value = self._meta(conn).get("compacted_bytes")
            if value is None:
                return None
            sql = "SELECT COUNT(*) FROM records WHERE byte_offset >= ?"
            return int(value), int(conn.execute(sql, (int(value),)).fetchone()[0])
