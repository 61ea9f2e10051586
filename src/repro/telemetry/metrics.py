"""Labeled metrics: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every series produced by a run.  A
series is a metric name plus a label set — ``patch.trampolines{kind=smile}``,
``sched.steals{core=3}``, ``cpu.instret{class=vector}`` — mirroring the
Prometheus data model the observability docs describe, but in-process
and dependency-free.

Each counted fact is counted once, in the object that owns it, and
every other view is derived from that store:

* the scheduler event loop keeps a *run-local* registry, derives
  ``ResilienceStats`` from it, and then merges it
  (:meth:`~MetricsRegistry.merge`) into the session's registry with
  identifying labels (``system=chimera``, ``engine=des``);
* the rewrite service keeps a run-local registry and writes each event
  to it and to the session in one call; ``ServiceStats`` reads it;
* the CHBP runtime counts its per-fault events in a plain dict (a
  labelled registry increment is several times dearer on that path)
  and mirrors them into the session; ``RuntimeStats`` reads it.

Both stats views subclass :class:`CounterView`: frozen, live, and
declaring each field once as a :class:`Count` naming where it lives,
so no ``stats`` field is written or copied into telemetry by hand.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

#: Values retained per histogram for percentile math.  count/sum/min/max
#: stay exact past the cap; percentiles then come from the retained
#: prefix sample (fine for the bounded populations we record).
HISTOGRAM_RETENTION = 4096

LabelKey = tuple[tuple[str, str], ...]


def label_key(labels: dict) -> LabelKey:
    """Canonical, order-insensitive key for a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def percentile(values: Iterable[float], p: float) -> float:
    """The *p*-th percentile of *values*, linearly interpolated.

    Matches numpy's default ("linear") method: rank ``(n-1) * p/100``
    interpolated between its floor and ceiling neighbors.
    """
    xs = sorted(values)
    if not xs:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {p}")
    rank = (len(xs) - 1) * (p / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(xs[lo])
    frac = rank - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


class Histogram:
    """Streaming value distribution with exact count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max", "_values", "_retention")

    def __init__(self, retention: int = HISTOGRAM_RETENTION):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._values: list[float] = []
        self._retention = retention

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._values) < self._retention:
            self._values.append(value)

    def percentile(self, p: float) -> float:
        return percentile(self._values, p)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def stats(self) -> dict:
        """Summary dict used by the export schema."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound
        room = self._retention - len(self._values)
        if room > 0:
            self._values.extend(other._values[:room])


class MetricsRegistry:
    """All metric series of one run (or one session)."""

    def __init__(self):
        self._counters: dict[tuple[str, LabelKey], int] = {}
        self._gauges: dict[tuple[str, LabelKey], float] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels) -> None:
        """Add *amount* to the counter series ``name{labels}``."""
        key = (name, label_key(labels))
        self._counters[key] = self._counters.get(key, 0) + amount

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge series ``name{labels}`` to *value* (last wins)."""
        self._gauges[(name, label_key(labels))] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record *value* into the histogram series ``name{labels}``."""
        key = (name, label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        hist.observe(value)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str, **labels) -> int:
        return self._counters.get((name, label_key(labels)), 0)

    def gauge_value(self, name: str, **labels) -> Optional[float]:
        return self._gauges.get((name, label_key(labels)))

    def histogram(self, name: str, **labels) -> Optional[Histogram]:
        return self._histograms.get((name, label_key(labels)))

    def total(self, name: str) -> int:
        """Sum of the counter *name* across every label set."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def series(self, name: str) -> list[tuple[dict, object]]:
        """Every series of *name* as (labels dict, value-or-histogram)."""
        out: list[tuple[dict, object]] = []
        for store in (self._counters, self._gauges, self._histograms):
            for (n, key), value in store.items():
                if n == name:
                    out.append((dict(key), value))
        return out

    def names(self) -> set[str]:
        names: set[str] = set()
        for store in (self._counters, self._gauges, self._histograms):
            names.update(n for n, _ in store)
        return names

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- composition -------------------------------------------------------

    def merge(self, other: "MetricsRegistry", **extra_labels) -> None:
        """Fold *other* into this registry, adding *extra_labels* to every
        incoming series (how a run-local ledger joins the session view)."""
        extra = dict(label_key(extra_labels))

        def rekey(labels: LabelKey) -> LabelKey:
            return tuple(sorted((dict(labels) | extra).items()))

        for (name, labels), value in other._counters.items():
            key = (name, rekey(labels))
            self._counters[key] = self._counters.get(key, 0) + value
        for (name, labels), value in other._gauges.items():
            self._gauges[(name, rekey(labels))] = value
        for (name, labels), hist in other._histograms.items():
            key = (name, rekey(labels))
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms[key] = Histogram()
            mine.merge(hist)

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict:
        """The documented ``metrics.json`` payload (schema v1)."""
        return {
            "schema": "repro.telemetry/metrics/v1",
            "counters": [
                {"name": n, "labels": dict(k), "value": v}
                for (n, k), v in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": n, "labels": dict(k), "value": v}
                for (n, k), v in sorted(self._gauges.items())
            ],
            "histograms": [
                {"name": n, "labels": dict(k), "stats": h.stats()}
                for (n, k), h in sorted(self._histograms.items())
            ],
        }


class Count:
    """One field of a :class:`CounterView`: the count stored under
    ``series{labels}``, read live from the view's store."""

    def __init__(self, series: str, **labels):
        self.series = series
        self.labels = labels

    def __get__(self, view, owner=None):
        if view is None:
            return self
        return view.read(self.series, self.labels)


class CounterView:
    """A read-only, live view of counters an owner keeps in one store.

    Subclasses are frozen dataclasses holding a reference to the store,
    declare each field as a :class:`Count` naming where it lives, and
    implement :meth:`read`.  The owner never writes a field; it counts
    into its store, and every reader sees the store's current value.
    """

    def read(self, series: str, labels: dict) -> int:
        raise NotImplementedError

    def counts(self) -> dict[str, int]:
        """Every :class:`Count` field, in declaration order."""
        return {name: getattr(self, name)
                for name, attr in vars(type(self)).items()
                if isinstance(attr, Count)}
