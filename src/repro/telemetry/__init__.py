"""Unified tracing, metrics, and profiling for the whole pipeline.

One :class:`Telemetry` object carries a :class:`~repro.telemetry.spans.SpanTracer`
(nested spans, wall + sim-cycle clocks, Chrome ``trace_event`` export)
and a :class:`~repro.telemetry.metrics.MetricsRegistry` (labeled
counters/gauges/histograms).  Activate it for a region of code with
:func:`use`; instrumented layers — the scanner, the CHBP patcher, both
schedulers, the simulated kernel, the runtime, the resilience machinery,
the chaos sweeper — consult :func:`current` and record into whatever is
active.

When nothing is active, :func:`current` returns :data:`NULL_TELEMETRY`,
whose ``enabled`` flag is False and whose sinks are no-ops.  Per-job
and per-region sites record into the sink directly; sites that run per
fault or per instruction, or compute their arguments, are gated on that
flag (and the per-instruction tally tracer is only *attached* when
enabled), so disabled telemetry costs nothing on the simulator's hot
path.

Typical use::

    from repro.telemetry import Telemetry, use

    telemetry = Telemetry()
    with use(telemetry):
        result = rewriter.rewrite(binary, RV64GC)   # spans + patch.* metrics
        kernel.run(process, core)                   # cpu.instret{class=...}, sim.faults{...}
    telemetry.write("out/")                         # trace.json + metrics.json
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional

from repro.telemetry.clock import SimCycleClock, WallClock
from repro.telemetry.metrics import Histogram, MetricsRegistry, percentile
from repro.telemetry.spans import Span, SpanTracer, spans_from_chrome

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "current",
    "use",
    "profiled",
    "MetricsRegistry",
    "Histogram",
    "percentile",
    "SpanTracer",
    "Span",
    "spans_from_chrome",
    "SimCycleClock",
    "WallClock",
]


class Telemetry:
    """An active tracing + metrics session."""

    enabled = True

    def __init__(self):
        self.tracer = SpanTracer()
        self.metrics = MetricsRegistry()

    def span(self, name: str, **args):
        """Context manager timing one phase (both clocks)."""
        return self.tracer.span(name, **args)

    def bind_cycles(self, source: Callable[[], int]):
        """Bind the sim-cycle clock to *source* for a region (e.g.
        ``lambda: cpu.cycles`` for the duration of a kernel run)."""
        return self.tracer.cycles.bind(source)

    def write(self, outdir) -> dict:
        """Dump ``trace.json`` + ``metrics.json`` into *outdir*; returns
        the written paths (see :mod:`repro.telemetry.export`)."""
        from repro.telemetry.export import write_telemetry

        return write_telemetry(self, outdir)


class _NullMetrics:
    """No-op sink with the full MetricsRegistry recording surface."""

    __slots__ = ()

    def inc(self, name, amount=1, **labels):
        pass

    def gauge(self, name, value, **labels):
        pass

    def observe(self, name, value, **labels):
        pass

    def merge(self, other, **extra_labels):
        pass

    def counter(self, name, **labels):
        return 0

    def total(self, name):
        return 0

    def series(self, name):
        return []


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _NullBinding:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_BINDING = _NullBinding()


class NullTelemetry:
    """The disabled sink: every operation is a no-op."""

    enabled = False
    metrics = _NullMetrics()

    def span(self, name: str, **args):
        return _NULL_SPAN

    def bind_cycles(self, source):
        return _NULL_BINDING

    def write(self, outdir) -> dict:
        raise RuntimeError("telemetry is disabled; nothing to write")


NULL_TELEMETRY = NullTelemetry()

_active: "Telemetry | NullTelemetry" = NULL_TELEMETRY


def current() -> "Telemetry | NullTelemetry":
    """The telemetry sink instrumented code should record into."""
    return _active


@contextmanager
def use(telemetry: Telemetry):
    """Activate *telemetry* for the duration of the block."""
    global _active
    previous = _active
    _active = telemetry
    try:
        yield telemetry
    finally:
        _active = previous


def profiled(name: Optional[str] = None):
    """Decorator timing every call of the function as a span.

    ``@profiled()`` uses the function's qualified name; ``@profiled("x")``
    overrides it.  When telemetry is disabled the wrapper is a single
    attribute check away from a direct call.
    """
    import functools

    def decorate(fn):
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            telemetry = _active
            if not telemetry.enabled:
                return fn(*args, **kwargs)
            with telemetry.span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
