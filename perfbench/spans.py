"""In-memory spans for the traced run, and the per-layer numbers made from them.

A :class:`SpanRecorder` wraps public calls of the program (see
``child.install_tracing``) so that each call becomes one span: name, start,
end, the span that caused it and the request (scenario or query) it belongs
to.  Spans stay in memory and are written as JSON lines when the process
exits.  A pool worker forked from a traced process inherits the wrappers; it
is stopped with a signal, so it writes its spans to ``<path>.<pid>`` after
each call it received from its parent instead.

Nothing here imports the program: the benchmark process reads span files
with :func:`load_spans` and reduces them with the helpers below.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path


class SpanRecorder:
    """Collects spans from wrapped calls; writes them when the process exits."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()
        os.register_at_fork(after_in_child=self._forked)
        atexit.register(self.write)

    def _forked(self) -> None:
        # The child's copy of the parent's finished spans is not its own.
        self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None, request=None):
        """``fn`` timed as span ``name``.

        ``attrs(args, kwargs, result)`` adds fields to the span after the
        call; ``request(args, kwargs)`` names the request this call starts
        (children inherit their parent's request).
        """

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            parent_id, parent_request = stack[-1] if stack else (None, None)
            span_id = f"{os.getpid()}-{next(self._ids)}"
            request_id = request(args, kwargs) if request is not None else parent_request
            stack.append((span_id, request_id))
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "id": span_id,
                    "parent": parent_id,
                    "request": request_id,
                    "pid": os.getpid(),
                    "ok": ok,
                }
                if ok and attrs is not None:
                    span.update(attrs(args, kwargs, result))
                self._finish(span)
            return result

        return timed

    def patch(self, owner, attr: str, name: str, also=(), **kwargs) -> None:
        """Replace ``owner.attr`` (and the same object bound in ``also``)."""
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, **kwargs)
        setattr(owner, attr, wrapped)
        for other in also:
            if getattr(other, attr, None) is original:
                setattr(other, attr, wrapped)

    def _finish(self, span: dict) -> None:
        with self._lock:
            self.spans.append(span)
        parent = span["parent"]
        if os.getpid() != self._owner_pid and (
            parent is None or not parent.startswith(f"{os.getpid()}-")
        ):
            # Top-level call in a forked worker: the worker is terminated by
            # a signal, so its spans cannot wait for an exit handler.
            self._flush(Path(f"{self.path}.{os.getpid()}"))

    def _flush(self, path: Path) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if spans:
            with path.open("a", encoding="utf-8") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in spans)

    def write(self) -> None:
        if os.getpid() == self._owner_pid:
            self._flush(self.path)
        else:
            self._flush(Path(f"{self.path}.{os.getpid()}"))


# ----------------------------------------------------------------------
# Reading spans back (benchmark process; no program imports)
# ----------------------------------------------------------------------
def load_spans(path: "str | Path") -> list[dict]:
    """Every span the traced process and its forked workers wrote."""
    path = Path(path)
    spans: list[dict] = []
    for part in sorted(path.parent.glob(path.name + "*")):
        with part.open(encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def named(spans: list[dict], *names: str) -> list[dict]:
    return [s for s in spans if s["name"] in names]


def outermost(spans: list[dict], *names: str) -> list[dict]:
    """Spans of ``names`` not nested inside another span of ``names``."""
    picked = named(spans, *names)
    ids = {s["id"] for s in picked}
    by_id = {s["id"]: s for s in spans}
    out = []
    for span in picked:
        parent = span["parent"]
        while parent is not None and parent not in ids:
            parent = by_id[parent]["parent"] if parent in by_id else None
        if parent is None:
            out.append(span)
    return out


def busy_s(spans: list[dict], *names: str) -> float:
    """Inclusive time spent in calls of ``names``, nested calls counted once."""
    return sum(s["end"] - s["start"] for s in outermost(spans, *names))


def durations(spans: list[dict], *names: str) -> list[float]:
    return [s["end"] - s["start"] for s in named(spans, *names)]
