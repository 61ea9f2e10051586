"""Pure statistics the benchmark reports: percentiles under the ten-beyond
rule, quartiles, the cycle-overhead geomean and failure accounting.

Nothing here imports the program under test, so the rules can be unit
tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise a single outlier would decide it.
MIN_BEYOND = 10

#: Why a job counts as failed.  A failed job misses every latency limit.
RAISED = "raised"
DEADLINE = "deadline"
STATUS = "status"
REGION_FAULT = "region-fault"
FAILURE_KINDS = (RAISED, DEADLINE, STATUS, REGION_FAULT)


@dataclass
class JobOutcome:
    """One attempted job: its latency and, if it failed, why."""

    name: str
    latency_s: float
    failure: Optional[str] = None
    #: The failure is a documented defect of the program (see README.md,
    #: "Known defects"): still counted in ``fail_ratio``.
    known_defect: bool = False

    def __post_init__(self):
        if self.failure is not None and self.failure not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {self.failure!r}")

    @property
    def ok(self) -> bool:
        return self.failure is None


def beyond(n: int, pct: float) -> int:
    """Samples strictly beyond the nearest-rank *pct* percentile of *n*."""
    rank = math.ceil(pct / 100.0 * n)
    return n - rank


def percentile(samples: Sequence[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    if n == 0 or beyond(n, pct) < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]


def latencies(outcomes: Sequence[JobOutcome]) -> list[float]:
    """Job latencies with every failed job at +inf: a failure misses
    any latency limit."""
    return [o.latency_s if o.ok else math.inf for o in outcomes]


def fail_ratio(outcomes: Sequence[JobOutcome]) -> float:
    """Failed jobs (raised, deadline, non-ok status, region faults,
    known defects included) over jobs attempted."""
    if not outcomes:
        raise ValueError("no jobs attempted")
    return sum(1 for o in outcomes if not o.ok) / len(outcomes)


def submit_failure(event: dict) -> Optional[str]:
    """Failure kind of one ``repro serve`` submit, from its terminal
    event: an ``error`` event is a non-ok status, and a result whose
    ledger carries RegionFaults is a region fault.  A result whose ledger
    only rejects regions succeeded: rejections are verdicts."""
    if event.get("event") != "result":
        return STATUS
    if json.loads(event.get("report_json") or "{}").get("faults"):
        return REGION_FAULT
    return None


def failure_tally(outcomes: Sequence[JobOutcome]) -> dict[str, int]:
    tally = {kind: 0 for kind in FAILURE_KINDS}
    for o in outcomes:
        if not o.ok:
            tally[o.failure] += 1
    return tally


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cycle_overhead_pct(native: Sequence[int], rewritten: Sequence[int]) -> float:
    """Geomean of rewritten over native simulated cycles, minus 1, in %."""
    if len(native) != len(rewritten):
        raise ValueError("native and rewritten cycle lists differ in length")
    return 100.0 * (geomean([r / n for n, r in zip(native, rewritten)]) - 1.0)


def summary(samples: Sequence[float]) -> dict:
    """Median, quartiles and count of *samples* (quartiles as
    ``statistics.quantiles(n=4)`` gives them; None below two samples)."""
    data = list(samples)
    out = {"n": len(data), "median": statistics.median(data) if data else None,
           "q1": None, "q3": None}
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4)
        out.update(q1=q1, q3=q3)
    return out


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its
    interval that its direct children cover.

    *spans* are ``(span_id, name, start, end, parent_id, job_id)``
    tuples; children of one parent never overlap (the recorder is
    single-threaded), so covered time is the sum of child durations.
    """
    covered: dict[int, float] = {}
    for sid, _name, start, end, parent, _job in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0.0)
            for sid, _name, start, end, _parent, _job in spans}
