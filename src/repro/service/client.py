"""``python -m repro submit`` — the fleet campaign client.

Fans a batch of rewrite jobs (workload names or ``.self`` files, e.g. a
directory of binaries) at a running :mod:`repro.service.server` with
bounded concurrency, retries transient failures under a
:class:`~repro.resilience.policy.RetryPolicy`, writes each returned
ledger **verbatim** (the byte-identity contract: ``<id>.report.json``
diffs clean against a serial ``repro verify --report`` run), and ends
with a campaign manifest summarizing cache classes, failures, and
timing.

Retry scope: transport errors (server restarting, socket hiccup),
``job-crash``, and ``job-overloaded`` faults are retried with backoff
(an overloaded server's ``retry_after_ms`` hint stretches the backoff);
``job-rejected`` (the request is wrong), ``job-poisoned`` (the server
quarantined the key), and ``job-deadline-exceeded`` (the job's own time
budget is gone) are terminal — retrying them would just burn the budget.

A reconnect after a transport fault *resumes* rather than redoes: the
server dedups by release key, so the resubmitted job lands as a warm
cache hit or coalesces onto the still-running attempt — never a
duplicate rewrite.  A per-server :class:`~repro.resilience.policy.
CircuitBreaker` (closed→open→half-open, jittered probes) keeps a
campaign against a dead or flapping server failing fast instead of
stacking timeouts, and per-spec ``deadline_ms`` bounds each job's whole
retry ladder so the campaign degrades to partial results with a
faithful ``campaign.json`` instead of hanging.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.resilience.failures import (
    JOB_CRASH,
    JOB_DEADLINE,
    JOB_OVERLOADED,
    JOB_POISONED,
    JOB_REJECTED,
)
from repro.resilience.policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    CircuitBreaker,
    RetryPolicy,
)
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL,
    ProtocolError,
    read_message,
    write_message,
)
from repro.telemetry import current as telemetry_current

#: Campaign-level default: a couple of quick retries absorbs a server
#: restart without stretching a dead-server failure past ~a second.
CLIENT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_backoff=100, multiplier=3, max_backoff=2_000)

#: Client-side pseudo-fault kinds (never sent by the server).
TRANSPORT_FAULT = "transport"
CIRCUIT_OPEN_FAULT = "circuit-open"

#: Faults worth retrying under the campaign policy.
TRANSIENT_FAULTS = (TRANSPORT_FAULT, CIRCUIT_OPEN_FAULT, JOB_CRASH,
                    JOB_OVERLOADED)
#: Faults a retry can never fix — fail the record immediately.
TERMINAL_FAULTS = (JOB_REJECTED, JOB_POISONED, JOB_DEADLINE)

#: Breaker state as a telemetry gauge value.
_BREAKER_GAUGE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1}


def _gauge_breaker(breaker: CircuitBreaker) -> None:
    telemetry_current().metrics.gauge("service.breaker_state",
                                      _BREAKER_GAUGE.get(breaker.state, 2))


async def open_connection(address: str):
    """Dial ``unix:<path>`` / ``tcp:<host>:<port>`` (or a bare socket
    path); returns ``(reader, writer)`` past the server's hello."""
    if address.startswith("unix:"):
        reader, writer = await asyncio.open_unix_connection(
            address[len("unix:"):], limit=MAX_MESSAGE_BYTES)
    elif address.startswith("tcp:"):
        host, _, port = address[len("tcp:"):].rpartition(":")
        reader, writer = await asyncio.open_connection(
            host or "127.0.0.1", int(port), limit=MAX_MESSAGE_BYTES)
    else:
        reader, writer = await asyncio.open_unix_connection(
            address, limit=MAX_MESSAGE_BYTES)
    hello = await read_message(reader)
    if hello is None or hello.get("event") != "hello":
        writer.close()
        raise ProtocolError(f"no hello from server at {address}: {hello!r}")
    if hello.get("protocol") != PROTOCOL:
        writer.close()
        raise ProtocolError(
            f"protocol mismatch: server speaks {hello.get('protocol')!r}, "
            f"client speaks {PROTOCOL!r}")
    return reader, writer


async def _request(address: str, message: dict) -> dict:
    """One op, one terminal response (for stats/ping/shutdown)."""
    reader, writer = await open_connection(address)
    try:
        await write_message(writer, message)
        reply = await read_message(reader)
        if reply is None:
            raise ProtocolError("server closed before replying")
        return reply
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def server_stats(address: str) -> dict:
    return asyncio.run(_request(address, {"op": "stats"}))


def shutdown_server(address: str) -> dict:
    return asyncio.run(_request(address, {"op": "shutdown"}))


def wait_for_server(address: str, *, timeout: float = 30.0,
                    interval: float = 0.1, max_interval: float = 2.0,
                    rng: Optional[random.Random] = None) -> bool:
    """Poll ``ping`` until the server answers (CI startup latch).

    One event loop runs a single probe coroutine for the whole wait
    (not one fresh loop per probe), and the gap between probes grows
    exponentially from *interval* to *max_interval* with ±50% jitter —
    a fleet of waiting clients never hammers a starting server in
    lockstep.
    """
    rand = rng or random.Random()

    async def _probe_until_ready() -> bool:
        deadline = time.monotonic() + timeout
        attempt = 0
        while True:
            try:
                reply = await _request(address, {"op": "ping"})
                if reply.get("event") == "pong":
                    return True
            except (ConnectionError, OSError, ProtocolError):
                pass
            attempt += 1
            delay = min(max_interval, interval * (2 ** (attempt - 1)))
            delay *= 0.5 + rand.random()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            await asyncio.sleep(min(delay, remaining))

    return asyncio.run(_probe_until_ready())


@dataclass
class CampaignResult:
    """The fleet run's ledger of ledgers."""

    records: list = field(default_factory=list)
    seconds: float = 0.0
    manifest_path: Optional[str] = None

    @property
    def by_cache(self) -> dict:
        tally: dict[str, int] = {}
        for record in self.records:
            if record.get("status") == "ok":
                cls = record.get("cache", "unknown")
                tally[cls] = tally.get(cls, 0) + 1
        return tally

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.records if r.get("status") == "ok")

    @property
    def failed(self) -> int:
        return len(self.records) - self.succeeded

    @property
    def ok(self) -> bool:
        return self.records != [] and self.failed == 0 and all(
            r.get("verify_ok") for r in self.records)

    def as_dict(self) -> dict:
        return {
            "schema": f"{PROTOCOL}/campaign",
            "jobs": len(self.records),
            "succeeded": self.succeeded,
            "failed": self.failed,
            "ok": self.ok,
            "by_cache": self.by_cache,
            "seconds": round(self.seconds, 6),
            "records": self.records,
        }


async def _submit_one(reader, writer, spec: dict, *, out_dir: Optional[Path],
                      on_event) -> dict:
    """Drive one job on an open connection to its terminal event."""
    await write_message(writer, spec)
    record = {"id": spec["id"], "status": "pending",
              "workload": spec.get("workload"), "path": spec.get("path")}
    while True:
        event = await read_message(reader)
        if event is None:
            raise ProtocolError("server closed mid-job")
        if event.get("id") != spec["id"]:
            continue  # another job's frame on a shared connection
        kind = event.get("event")
        if on_event is not None:
            on_event(event)
        if kind == "accepted":
            record["key"] = event.get("key")
            record["shard"] = event.get("shard")
        elif kind == "progress":
            continue
        elif kind == "result":
            record.update(status="ok", cache=event.get("cache"),
                          verify_ok=event.get("ok"),
                          releasable=event.get("releasable"),
                          counts=event.get("counts"),
                          seconds=event.get("seconds"))
            if out_dir is not None and event.get("report_json"):
                ledger = out_dir / f"{spec['id']}.report.json"
                # Verbatim bytes — the point of the whole exercise.
                ledger.write_bytes(event["report_json"].encode("utf-8"))
                record["ledger"] = str(ledger)
            return record
        elif kind == "error":
            record.update(status="failed", fault=event.get("fault"))
            return record


async def submit_jobs(
    address: str,
    specs: Sequence[dict],
    *,
    concurrency: int = 4,
    out_dir: Optional[Union[str, Path]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    on_event: Optional[Callable[[dict], None]] = None,
    breaker: Optional[CircuitBreaker] = None,
) -> list[dict]:
    """Submit every spec with at most *concurrency* jobs in flight.

    Each worker holds its own connection (a dead one is redialed on
    retry; the resubmitted job re-attaches idempotently through the
    server's release-key dedup — a resume, never a duplicate rewrite).
    All workers share one per-server *breaker*: while it is open,
    attempts fail fast as ``circuit-open`` pseudo-faults until a
    jittered probe closes it again.  A spec carrying ``deadline_ms``
    bounds its whole retry ladder, not just the server-side run.
    Returns one record per spec, input order preserved.
    """
    policy = retry_policy or CLIENT_RETRY_POLICY
    breaker = breaker if breaker is not None else CircuitBreaker()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    queue: asyncio.Queue = asyncio.Queue()
    for index, spec in enumerate(specs):
        queue.put_nowait((index, spec))
    results: list = [None] * len(specs)
    telemetry = telemetry_current()

    async def worker() -> None:
        reader = writer = None
        try:
            while True:
                try:
                    index, spec = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                attempt = 0
                job_deadline = (
                    time.monotonic() + spec["deadline_ms"] / 1000.0
                    if spec.get("deadline_ms") else None)
                saw_transport_fault = False
                while True:
                    attempt += 1
                    if not breaker.allow():
                        record = {
                            "id": spec["id"], "status": "failed",
                            "fault": {
                                "fault": CIRCUIT_OPEN_FAULT,
                                "detail": (f"breaker open for {address}; "
                                           f"probe in "
                                           f"{breaker.retry_in():.2f}s")}}
                    else:
                        try:
                            if writer is None:
                                reader, writer_ = await open_connection(
                                    address)
                            else:
                                writer_ = writer
                            record = await _submit_one(
                                reader, writer_, spec, out_dir=out_path,
                                on_event=on_event)
                        except (ConnectionError, OSError,
                                ProtocolError) as exc:
                            writer = None
                            saw_transport_fault = True
                            breaker.record_failure()
                            _gauge_breaker(breaker)
                            record = {"id": spec["id"], "status": "failed",
                                      "fault": {"fault": TRANSPORT_FAULT,
                                                "detail": str(exc)}}
                        else:
                            writer = writer_
                            breaker.record_success()
                            _gauge_breaker(breaker)
                            if saw_transport_fault:
                                # The job reached a terminal event on a
                                # fresh connection after a transport
                                # fault: a resume, re-attached through
                                # the server's release-key dedup.
                                record["resumed"] = True
                                telemetry.metrics.inc(
                                    "service.client_resumes")
                    fault_info = record.get("fault") or {}
                    fault = fault_info.get("fault")
                    transient = (record["status"] == "failed"
                                 and fault in TRANSIENT_FAULTS)
                    backoff = policy.backoff_seconds(attempt)
                    if fault == CIRCUIT_OPEN_FAULT:
                        backoff = max(backoff, breaker.retry_in())
                    retry_after = fault_info.get("retry_after_ms")
                    if retry_after:
                        # An overloaded server's hint dominates the
                        # local schedule — it knows its own backlog.
                        backoff = max(backoff, retry_after / 1000.0)
                    past_deadline = (
                        job_deadline is not None
                        and time.monotonic() + backoff > job_deadline)
                    if (transient and not policy.exhausted(attempt + 1)
                            and not past_deadline):
                        record["retries"] = attempt
                        await asyncio.sleep(backoff)
                        continue
                    if transient and past_deadline:
                        record["deadline_exhausted"] = True
                    if attempt > 1:
                        record["retries"] = attempt - 1
                    results[index] = record
                    break
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    workers = [asyncio.ensure_future(worker())
               for _ in range(max(1, min(concurrency, len(specs) or 1)))]
    await asyncio.gather(*workers)
    return results


def build_specs(
    sources: Sequence[str],
    *,
    target: str = "rv64gc",
    variant: str = "ext",
    scale: int = 128,
    seed: Optional[int] = None,
    oracle_trials: int = 2,
    deadline_ms: Optional[int] = None,
) -> list[dict]:
    """Turn CLI sources into submit specs.

    A source that is a directory expands to every ``*.self`` inside it;
    one that is a ``.self`` file becomes a path job; anything else is a
    workload name.  Spec ids are deterministic (``<stem>`` with a
    ``-<n>`` suffix on collision) so rerunning a campaign overwrites the
    same ledgers.
    """
    expanded: list[tuple[str, str]] = []  # (kind, value)
    for source in sources:
        path = Path(source)
        if path.is_dir():
            files = sorted(path.glob("*.self"))
            if not files:
                raise ValueError(f"no .self binaries under {source}")
            expanded.extend(("path", str(f)) for f in files)
        elif path.suffix == ".self" or path.is_file():
            expanded.append(("path", str(path)))
        else:
            expanded.append(("workload", source))
    specs = []
    seen: dict[str, int] = {}
    for kind, value in expanded:
        stem = Path(value).stem if kind == "path" else value
        count = seen.get(stem, 0)
        seen[stem] = count + 1
        job_id = stem if count == 0 else f"{stem}-{count}"
        spec = {"op": "submit", "id": job_id, "target": target,
                "variant": variant, "scale": scale,
                "oracle_trials": oracle_trials}
        if seed is not None:
            spec["seed"] = seed
        if deadline_ms is not None:
            spec["deadline_ms"] = deadline_ms
        spec["workload" if kind == "workload" else "path"] = value
        specs.append(spec)
    return specs


def run_campaign(
    address: str,
    sources: Sequence[str],
    *,
    concurrency: int = 4,
    out_dir: Optional[Union[str, Path]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    on_event: Optional[Callable[[dict], None]] = None,
    repeat: int = 1,
    breaker: Optional[CircuitBreaker] = None,
    **spec_options,
) -> CampaignResult:
    """The whole fleet run, synchronously: build specs, fan them at the
    server, write ledgers, write ``campaign.json``.

    ``repeat`` duplicates the batch N times — the dedup smoke lever: a
    ``repeat=8`` campaign over one binary must produce exactly one cold
    run and seven coalesced/warm results.
    """
    specs = build_specs(sources, **spec_options)
    if repeat > 1:
        base = specs
        specs = []
        for round_index in range(repeat):
            for spec in base:
                copy = dict(spec)
                if round_index:
                    copy["id"] = f"{spec['id']}~{round_index}"
                specs.append(copy)
    started = time.perf_counter()
    records = asyncio.run(submit_jobs(
        address, specs, concurrency=concurrency, out_dir=out_dir,
        retry_policy=retry_policy, on_event=on_event, breaker=breaker))
    result = CampaignResult(records=records,
                            seconds=time.perf_counter() - started)
    if out_dir is not None:
        manifest = Path(out_dir) / "campaign.json"
        manifest.write_text(
            json.dumps(result.as_dict(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        result.manifest_path = str(manifest)
    return result
