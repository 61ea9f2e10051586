"""One counter store per owner: ``ServiceStats`` and ``RuntimeStats``
are read-only views, and the telemetry series are the same counts.

The service counts each event once into its own registry and mirrors
it into the active session; the runtime counts each event once by its
``runtime.events`` kind.  The views therefore agree with the exported
series by construction, whether telemetry is on or off.  The field to
series map lives only in the view classes: these tests build a second
view over the *session* store and compare the two.
"""

import asyncio
import dataclasses

import pytest

from repro.chaos.injector import TrampolineBitrotInjector
from repro.core import machine_runner
from repro.core.machine_runner import HeteroTask, MeasuredScheduler, _MeasuredCosts
from repro.core.runtime import ChimeraRuntime, RuntimeStats
from repro.core.scheduler import Pending
from repro.elf.loader import make_process
from repro.resilience import executor
from repro.resilience.failures import JOB_DEADLINE, JOB_REJECTED
from repro.service.client import submit_jobs
from repro.service.server import ServiceStats
from repro.telemetry import MetricsRegistry, Telemetry, use
from tests.integration.test_self_healing import run_with_bitrot
from tests.integration.test_serve_batch import (
    NO_RETRY,
    _gate_run_job,
    _serve,
    _spec,
    _until,
)


def test_views_reject_assignment():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ServiceStats(MetricsRegistry(), 0.0).rewrites = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        RuntimeStats({}).patch_rollbacks = 1


def _mixed_batch(tmp_path, gate):
    """A cold leader, a coalesced follower, a follower that dies on its
    deadline, a rejected submit and, once the run settles, a warm hit."""

    async def scenario(service, address):
        leader = asyncio.ensure_future(submit_jobs(
            address, [_spec("leader")], retry_policy=NO_RETRY))
        assert await _until(lambda: service._running == 1)
        follower = asyncio.ensure_future(submit_jobs(
            address, [_spec("follower")], retry_policy=NO_RETRY))
        assert await _until(lambda: service.stats.jobs_deduped_inflight == 1)
        late = await submit_jobs(
            address, [_spec("late", deadline_ms=60)], retry_policy=NO_RETRY)
        bad = await submit_jobs(
            address, [{"op": "submit", "id": "bad"}], retry_policy=NO_RETRY)
        gate.set()
        records = (await leader) + (await follower)
        assert await _until(lambda: not service._inflight)
        records += await submit_jobs(address, [_spec("warm")],
                                     retry_policy=NO_RETRY)
        return service.stats, records, late[0], bad[0]

    tmp_path.mkdir()
    stats, records, late, bad = _serve(tmp_path, scenario, job_threads=6)
    assert [r["cache"] for r in records] == ["cold", "coalesced", "warm"]
    assert late["fault"]["fault"] == JOB_DEADLINE
    assert bad["fault"]["fault"] == JOB_REJECTED
    return stats


def test_service_view_matches_session_series(tmp_path, monkeypatch):
    gate = _gate_run_job(monkeypatch)
    off = _mixed_batch(tmp_path / "off", gate).as_dict()
    gate.clear()
    telemetry = Telemetry()
    with use(telemetry):
        stats = _mixed_batch(tmp_path / "on", gate)
    on = stats.as_dict()
    for counts in (off, on):
        counts.pop("uptime_seconds")
    assert on == off
    assert (on["jobs_accepted"], on["jobs_rejected"], on["rewrites"],
            on["jobs_deduped_inflight"], on["jobs_deduped_cache"],
            on["deadline_exceeded"], on["queue_depth"]) == (4, 1, 1, 2, 1, 1, 0)
    session = ServiceStats(telemetry.metrics, stats.started_at)
    assert session.counts() == stats.counts()
    assert telemetry.metrics.gauge_value("service.queue_depth") == 0


def _healed_runtime():
    *_, runtime, _, _, _, result = run_with_bitrot()
    assert result.ok
    return runtime


def test_runtime_view_matches_session_events():
    off = _healed_runtime().stats.as_dict()
    telemetry = Telemetry()
    with use(telemetry):
        runtime = _healed_runtime()
    session = {labels["kind"]: value for labels, value
               in telemetry.metrics.series("runtime.events")}
    assert session == runtime.events
    assert RuntimeStats(session).as_dict() == runtime.stats.as_dict() == off
    assert off["patch_rollbacks"] >= 1


def test_measured_attempt_records_the_runtimes_rollbacks(monkeypatch):
    """A measured attempt whose runtime quarantines a patch records
    ``resilience.patch_rollbacks`` from that runtime's view."""
    runtimes = []

    class Recorded(ChimeraRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runtimes.append(self)

    def bitrotted(binary):
        process = make_process(binary)
        regions = binary.metadata["chimera"]["patched_regions"]
        smile = sorted(r for r in regions if r[2] in ("smile", "smile-dp"))
        TrampolineBitrotInjector(smile[:1]).corrupt(process)
        return process

    monkeypatch.setattr(machine_runner, "ChimeraRuntime", Recorded)
    monkeypatch.setattr(executor, "make_process", bitrotted)
    source = _MeasuredCosts(MeasuredScheduler(1, 1), "chimera", None)
    metrics = MetricsRegistry()
    source.attempt(0, False, Pending(HeteroTask(0, "ext", 6)), 0, metrics)
    [runtime] = runtimes
    assert runtime.stats.patch_rollbacks >= 1
    assert metrics.total("resilience.patch_rollbacks") == runtime.stats.patch_rollbacks
    assert metrics.total("resilience.patch_readmissions") == runtime.stats.patch_readmissions
