"""In-memory spans for the traced benchmark run.

A span records a name, start and end (``perf_counter_ns``), the span that
was open when it started (its parent), the run id and optional counts.
Spans stay in memory until :func:`write_spans` is called at the end of the
run.  Self time is a span's duration minus the durations of its children;
the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False

    def span(self, name, **counts):
        return _NULL


class Tracer:
    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": perf_counter_ns(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span around each call; ``count(args, result)``, if
        given, is stored as the span's ``n`` after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if count is not None:
                counts["n"] = count(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, module, names: dict):
        """Temporarily replace ``module.<attr>`` with a traced wrapper.

        ``names`` maps attribute -> (span name, count or None).  Attributes
        the module does not have are skipped, so a renamed function shows up
        as a missing span rather than a crash.
        """
        saved = {}
        for attr, (span_name, count) in names.items():
            if hasattr(module, attr):
                saved[attr] = getattr(module, attr)
                setattr(module, attr, self.wrap(span_name, saved[attr], count))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self time (ns), summed counts."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"calls": 0, "total_ns": 0, "self_ns": 0, "n": 0})
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child_ns[s["id"]]
            row["n"] += s["counts"].get("n", 0)
        return out


def write_spans(path, *tracers: Tracer) -> None:
    """All spans of ``tracers`` as JSON lines, written once the run is over."""
    with open(path, "w") as handle:
        for tracer in tracers:
            for s in tracer.spans:
                handle.write(json.dumps(s, sort_keys=True) + "\n")
