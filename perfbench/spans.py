"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files: :meth:`SpanRecorder.wrap`
replaces a public function or method of the program with a wrapper that
opens a span around each call, and :meth:`SpanRecorder.restore` puts the
original back.  No program code changes.  Spans stay in memory and are
written once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Optional

from stats import self_times


class SpanRecorder:
    """Nested spans on one thread: name, start, end, parent and a job id
    shared by the spans of one job."""

    def __init__(self):
        #: (span_id, name, start_s, end_s, parent_id, job_id)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.job_id: Optional[str] = None
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.job_id))

    @contextmanager
    def job(self, job_id: str, name: str = "job"):
        """A root span whose id tags every span opened inside it."""
        self.job_id = job_id
        try:
            with self.span(name) as sid:
                yield sid
        finally:
            self.job_id = None

    def record(self, name: str, start: float, end: float, job_id: str) -> None:
        """A root span timed by the caller (concurrent client jobs)."""
        self.spans.append((self._next_id, name, start, end, None, job_id))
        self._next_id += 1

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named *name* around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds."""
        selfs = self_times(self.spans)
        out: dict[str, dict] = {}
        for sid, name, start, end, _parent, _job in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += selfs[sid]
            entry["durations"].append(end - start)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")
