"""The four workloads and the traced run's per-layer measurements.

Each workload function takes a :class:`Ctx` and returns a
:class:`RunOutput`.  Untraced, it sets up :data:`SETUP_REPEATS` times,
runs its closed loop for ``ctx.seconds`` (whole passes over its inputs)
and checks the program's outputs.  Traced, it runs one untraced and one
traced pass of the same jobs, then measures every layer: the layers the
workload exercises on its own inputs, the layers it bypasses on the
fixed probe inputs below.  README.md maps every metric to its layer.

The seed goes into the admission oracle and the serve-mixed traffic
generator only; the program's inputs (binaries, rewriter settings) are
fixed.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import repro.core.patcher as patcher_mod
import repro.core.pipeline as pipeline_mod
import repro.sim.cpu as cpu_mod
import repro.verify as verify_pkg
import repro.verify.oracle as oracle_mod
from repro.analysis.liveness import LivenessAnalysis
from repro.analysis.scan import RecursiveScanner
from repro.core.pipeline import CacheLayout, rewrite_and_verify
from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.elf.fileformat import load_binary_file, save_binary
from repro.elf.loader import make_process
from repro.isa.decoding import decode
from repro.isa.extensions import RV64GC, RV64GCV
from repro.resilience.failures import DeadlineExceededError
from repro.service.client import (_request, open_connection, server_stats,
                                  shutdown_server)
from repro.service.protocol import ProtocolError, read_message, write_message
from repro.sim.cost import DEFAULT_ARCH
from repro.sim.machine import Core, Kernel
from repro.verify.admission import AdmissionGate
from repro.verify.oracle import DifferentialOracle
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary

from spans import SpanRecorder
from stats import (DEADLINE, RAISED, REGION_FAULT, STATUS, JobOutcome,
                   cycle_overhead_pct, percentile, submit_failure)
import traffic

#: Fig. 13 synthetic-profile scale (code-size divisor) for every input.
SCALE = 128
ARCH = DEFAULT_ARCH.scaled(SCALE)
#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Profiles whose full-mode release cannot be loaded: ``.chimera.text``
#: spans ~4.2 MB from 0x410000 and overlaps ``[stack]`` at 0x7df000
#: (README.md, "Known defects").
UNLOADABLE = ("gimp", "cmake", "ctest", "cam4_r", "cam4_s", "pop2_s",
              "wrf_r", "wrf_s")
#: rewrite-cold: every profile whose full-mode release loads ...
REWRITE_COLD = tuple(name for name in PROFILES if name not in UNLOADABLE)
#: ... plus one that does not, as a counted failure under the deadline.
KNOWN_DEFECT = "cam4_r"
#: Per-job deadline: ~2x the slowest healthy job (blender_r and
#: cactuBSSN_r, 1.3-1.9 s on a 2-CPU host).  The known defect spends all
#: of it, about a quarter of each pass (README.md, "Known defects").
JOB_DEADLINE_S = 3.0

#: execute: empty-patched (SMILE) releases, run in this fixed order.
EXECUTE = ("gcc_r", "xalancbmk_r", "imagick_r", "omnetpp_r", "perlbench_r",
           "cactuBSSN_r", "cam4_r")
#: execute-trap: trap-fallback releases; cam4_s and pop2_s are vector-hot
#: (44k and 40k traps a run), the rest take 6k.
EXECUTE_TRAP = ("cam4_s", "pop2_s", "gcc_r", "omnetpp_s", "perlbench_s")
#: serve-mixed: the release keys the traffic generator draws from, most
#: popular first.
SERVE_KEYS = ("omnetpp_r", "omnetpp_s", "perlbench_r", "perlbench_s",
              "imagick_r", "xalancbmk_r")
SERVE_CONNECTIONS = 2
SERVE_JOBS = 2
SERVE_SHARDS = 4
#: With two CPUs or more, the server (and the verification pool it forks)
#: runs on the first and the client on the second.  Left to the scheduler,
#: runs where both landed on one CPU served ~70 submits/s against ~100.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {_CPUS[0]} if len(_CPUS) >= 2 else set(_CPUS)
CLIENT_CPUS = {_CPUS[1]} if len(_CPUS) >= 2 else set(_CPUS)
#: p99 needs ten samples beyond it.
MIN_SERVE_SUBMITS = 1000
#: The server must answer a ping within this many seconds of its start.
SERVER_START_TIMEOUT_S = 60.0
#: Ping period while waiting for the server: fixed, not the client's
#: jittered backoff, which would add its jitter to ``setup_s``.
SERVER_PING_PERIOD_S = 0.01

#: Probe inputs for layers a workload bypasses in its traced run.
PROBE = "gcc_r"
PROBE_SERVE_KEY = "omnetpp_s"
#: Traced serve windows, and warm submits of the service probe.
TRACED_SERVE_SUBMITS = 500
PROBE_WARM_SUBMITS = 40
#: ``verify.region_ms_p99`` needs ten samples beyond it.
MIN_REGION_SAMPLES = 1000


@dataclass
class Ctx:
    seed: int
    seconds: float
    traced: bool
    #: Scratch directory, relative to the checkout root (keeps the
    #: server's unix socket path short).
    tmp: Path
    #: Environment for subprocesses of the program (``repro serve``).
    env: dict
    #: Where the traced run writes its spans, one file per span recorder.
    spans_dir: Path

    def spans_path(self, group: str) -> Path:
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        return self.spans_dir / f"seed{self.seed}-{group}.jsonl"


@dataclass
class RunOutput:
    jobs: list
    wall_s: float
    setup_s: list
    #: Workload-level values: image_kb, peak_rss_mb, sim_minst_per_s, ...
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


# -- shared helpers ----------------------------------------------------------


def build(name: str):
    return SyntheticBinary(PROFILES[name], scale=SCALE).build()


def timed_setup(make: Callable[[], object],
                teardown: Optional[Callable[[object], None]] = None):
    """Run *make* :data:`SETUP_REPEATS` times; keep the last state."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None and teardown is not None:
            teardown(state)
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = make()
        times.append(time.perf_counter() - t0)
    return state, times


def closed_loop(items, seconds: float, do_job, *, passes: Optional[int] = None):
    """One job at a time over *items*, in whole passes, until *seconds*
    have elapsed (or exactly *passes* passes).  Returns the outcomes,
    the wall time and the wall time of each pass."""
    outcomes, pass_walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for item in items:
            outcomes.append(do_job(item))
        pass_walls.append(time.perf_counter() - t0)
        if passes is not None:
            if len(pass_walls) >= passes:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return outcomes, time.perf_counter() - start, pass_walls


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path, pattern: str) -> list[int]:
    return [p.stat().st_size for p in sorted(path.glob(pattern))]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- rewrite-cold ------------------------------------------------------------


def rewrite_job(binary, name: str, seed: int, cache_dir: Path):
    """One cold ``rewrite_and_verify`` with the defaults ``repro verify``
    uses (serial, 2 oracle trials), a fresh cache and the job deadline."""
    failure, pipe, detail = None, None, None
    t0 = time.perf_counter()
    try:
        pipe = rewrite_and_verify(
            binary, RV64GC, seed=seed, cache_dir=cache_dir,
            deadline=time.monotonic() + JOB_DEADLINE_S)
    except DeadlineExceededError as exc:
        failure, detail = DEADLINE, str(exc)
    except Exception as exc:  # noqa: BLE001 - a failed job, counted
        failure, detail = RAISED, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if pipe is not None and pipe.report.faults:
        failure, detail = REGION_FAULT, f"{len(pipe.report.faults)} region faults"
    outcome = JobOutcome(name, latency, failure,
                         known_defect=failure is not None and name == KNOWN_DEFECT)
    return outcome, pipe, detail


def run_rewrite_cold(ctx: Ctx) -> RunOutput:
    names = REWRITE_COLD + (KNOWN_DEFECT,)
    binaries, setup = timed_setup(lambda: {n: build(n) for n in names})
    check_name = REWRITE_COLD[ctx.seed % len(REWRITE_COLD)]
    counter = itertools.count()
    sizes, ledgers, problems, details = [], {}, [], {}

    def do_job(name):
        cache = ctx.tmp / f"cold-{next(counter)}"
        outcome, pipe, detail = rewrite_job(binaries[name], name, ctx.seed, cache)
        if detail:
            details[name] = detail
        if pipe is not None:
            sizes.extend(dir_bytes(cache, "*.self"))
            records = pipe.binary.metadata["chimera"]["patch_records"]
            if len(pipe.report.regions) != len(records):
                problems.append(f"{name}: ledger has {len(pipe.report.regions)} "
                                f"regions for {len(records)} patch records")
            if name == check_name:
                ledgers.setdefault(name, pipe.report.to_json())
        return outcome

    jobs, wall, pass_walls = closed_loop(
        names, ctx.seconds, do_job, passes=1 if ctx.traced else None)

    # Untimed check: the same seed gives a byte-identical ledger.
    again = rewrite_job(binaries[check_name], check_name, ctx.seed,
                        ctx.tmp / "cold-again")[1]
    if check_name not in ledgers or again is None:
        problems.append(f"{check_name}: no ledger to compare")
    elif again.report.to_json() != ledgers[check_name]:
        problems.append(f"{check_name}: ledger differs between two runs "
                        f"with seed {ctx.seed}")

    out = RunOutput(jobs, wall, setup, problems=problems)
    out.values["image_kb"] = _mean(sizes) / 1024.0 if sizes else None
    out.values["peak_rss_mb"] = self_peak_rss_mb()
    out.notes.update(
        ledger_checked=check_name, deadline_s=JOB_DEADLINE_S, failures=details,
        known_defect_wall_share=sum(j.latency_s for j in jobs if j.known_defect) / wall)
    if ctx.traced:
        traced = rewrite_layers({n: binaries[n] for n in names}, ctx.seed,
                                ctx.tmp / "traced", problems,
                                ctx.spans_path("rewrite"))
        out.layers.update(traced.pop("layers"))
        out.layers["trace.overhead_pct"] = 100.0 * (
            traced["wall"] / pass_walls[-1] - 1.0)
        probe = traced["probe"]
        add_other_layers(ctx, out, skip=("rewrite",), rewrite_probe=probe)
    return out


def rewrite_layers(named_binaries: dict, seed: int, tmp: Path,
                   problems: list, spans_path: Path) -> dict:
    """Traced pass of cold rewrites over *named_binaries*: spans around
    every layer call, warm hits on each published key, and the
    direct decode and region measurements."""
    tmp.mkdir(parents=True, exist_ok=True)
    rec = SpanRecorder()
    rec.wrap(RecursiveScanner, "scan", "analysis.scan")
    rec.wrap(patcher_mod, "build_cfg", "analysis.cfg")
    rec.wrap(LivenessAnalysis, "run", "analysis.liveness")
    rec.wrap(ChimeraRewriter, "rewrite", "patch.rewrite")
    rec.wrap(verify_pkg, "verify_binary", "verify.total")
    rec.wrap(AdmissionGate, "verify_region_once", "verify.region")
    rec.wrap(DifferentialOracle, "check_region", "verify.oracle")
    rec.wrap(oracle_mod, "make_process", "elf.make_process")
    rec.wrap(pipeline_mod, "save_binary", "elf.save")
    rec.wrap(pipeline_mod, "load_binary_file", "elf.load")
    # Per released job: (patch stats, patch records, ledger regions,
    # admitted).  Only the probe's pipeline result is kept whole, so the
    # traced pass holds no more memory than the untraced one.
    done, publish, warm, entry, wall, probe = [], [], [], [], 0.0, None
    try:
        for i, (name, binary) in enumerate(named_binaries.items()):
            cache = tmp / f"job-{i}"
            with rec.job(name, "pipeline.rewrite_and_verify"):
                outcome, pipe, _ = rewrite_job(binary, name, seed, cache)
            wall += outcome.latency_s
            if pipe is None:
                continue
            done.append((pipe.result.stats,
                         len(pipe.binary.metadata["chimera"]["patch_records"]),
                         len(pipe.report.regions), pipe.report.counts()["admitted"]))
            if probe is None or name == PROBE:
                probe = (name, binary, pipe)
            publish.append(outcome.latency_s - pipe.rewrite_seconds
                           - pipe.verify_seconds)
            entry.append(sum(dir_bytes(cache, "*.*")))
            t0 = time.perf_counter()
            hit = rewrite_and_verify(binary, RV64GC, seed=seed, cache_dir=cache)
            warm.append(time.perf_counter() - t0)
            if not hit.cache_hit:
                problems.append(f"{name}: published key missed the cache")
            del pipe, hit
    finally:
        rec.restore()
    rec.write(spans_path)
    if not done:
        raise RuntimeError("no rewrite job succeeded in the traced pass")
    jobs = len(named_binaries)
    by = rec.by_name()

    def per_job_ms(name, key="self_s"):
        return 1e3 * by.get(name, {}).get(key, 0.0) / jobs

    def per_call_ms(name):
        entry_ = by.get(name)
        return 1e3 * entry_["total_s"] / entry_["calls"] if entry_ else None

    region_s = list(by.get("verify.region", {}).get("durations", []))
    if len(region_s) < MIN_REGION_SAMPLES:
        region_s.extend(region_samples(probe, seed, MIN_REGION_SAMPLES - len(region_s)))
    roots = by["pipeline.rewrite_and_verify"]
    stats_ = [job[0] for job in done]
    regions = [job[2] for job in done]
    admitted = sum(job[3] for job in done)
    encodings = [(i.encoding.to_bytes(i.length, "little"), i.addr)
                 for binary in named_binaries.values()
                 for i in RecursiveScanner().scan(binary).instructions.values()]
    t0 = time.perf_counter()
    for data, addr in encodings:
        decode(data, 0, addr=addr)
    decode_s = time.perf_counter() - t0
    layers = {
        "analysis.scan_ms": per_job_ms("analysis.scan"),
        "analysis.cfg_ms": per_job_ms("analysis.cfg"),
        "analysis.liveness_ms": per_job_ms("analysis.liveness"),
        "analysis.instructions": len(encodings) / jobs,
        "analysis.distinct_encoding_ratio":
            len({data for data, _ in encodings}) / len(encodings),
        "isa.decode_ns": 1e9 * decode_s / len(encodings),
        "patch.rewrite_ms": per_job_ms("patch.rewrite", "total_s"),
        "patch.self_ms": per_job_ms("patch.rewrite"),
        "patch.regions": _mean(job[1] for job in done),
        "patch.trampolines": _mean(s.trampolines for s in stats_),
        "patch.trap_fallbacks": _mean(s.trap_fallbacks for s in stats_),
        "patch.padding_bytes": _mean(s.padding_bytes for s in stats_),
        "patch.target_block_bytes": _mean(s.target_block_bytes for s in stats_),
        "verify.total_ms": per_job_ms("verify.total", "total_s"),
        "verify.region_ms_p50": 1e3 * statistics.median(region_s),
        "verify.region_ms_p99": 1e3 * percentile(region_s, 99),
        "verify.oracle_ms": per_job_ms("verify.oracle", "total_s"),
        "verify.regions": _mean(regions),
        "verify.admitted_ratio": admitted / sum(regions),
        "pipeline.publish_ms": 1e3 * _mean(publish),
        "pipeline.warm_hit_ms": 1e3 * _mean(warm),
        "pipeline.entry_bytes": _mean(entry),
        "elf.save_ms": per_call_ms("elf.save"),
        "elf.load_ms": per_call_ms("elf.load"),
        "elf.make_process_ms": per_call_ms("elf.make_process"),
        "trace.unattributed_pct": 100.0 * roots["self_s"] / roots["total_s"],
        "trace.spans": len(rec.spans),
    }
    return {"layers": layers, "wall": wall, "probe": probe}


def region_samples(probe, seed: int, count: int) -> list[float]:
    """Time ``verify_region_once`` directly, cycling over the regions of
    the probe release, until *count* samples."""
    _, binary, pipe = probe
    gate = AdmissionGate(binary, pipe.binary, seed=seed,
                         liveness=pipe.result.liveness)
    samples = []
    while len(samples) < count:
        for idx in range(len(pipe.report.regions)):
            t0 = time.perf_counter()
            gate.verify_region_once(idx)
            samples.append(time.perf_counter() - t0)
    return samples[:count]


def procpool_layers(probe, seed: int, problems: list) -> dict:
    """``verify_binary`` on the process pool (2 workers) against serial,
    on the probe release; the two ledgers must be byte-identical."""
    _, binary, pipe = probe
    kwargs = dict(seed=seed, liveness=pipe.result.liveness)
    t0 = time.perf_counter()
    pooled = verify_pkg.verify_binary(binary, pipe.binary, jobs=2,
                                      executor="process", **kwargs)
    t1 = time.perf_counter()
    serial = verify_pkg.verify_binary(binary, pipe.binary, jobs=1,
                                      executor="serial", **kwargs)
    t2 = time.perf_counter()
    if pooled.to_json() != serial.to_json():
        problems.append("process-pool and serial ledgers differ")
    return {"procpool.verify_ms": 1e3 * (t1 - t0),
            "procpool.vs_serial_ratio": (t1 - t0) / (t2 - t1)}


# -- execute / execute-trap --------------------------------------------------


@dataclass
class ExecEntry:
    name: str
    binary: object
    rewriter: ChimeraRewriter
    release: object
    native: object


def exec_setup(names, *, use_smile: bool) -> list[ExecEntry]:
    entries = []
    for name in names:
        binary = build(name)
        rewriter = ChimeraRewriter(arch=ARCH, mode="empty", use_smile=use_smile)
        release = rewriter.rewrite(binary, RV64GC).binary
        native = Kernel(ARCH).run(make_process(binary), Core(0, RV64GCV, ARCH))
        entries.append(ExecEntry(name, binary, rewriter, release, native))
    return entries


def run_release(entry: ExecEntry, rec: Optional[SpanRecorder] = None, **kernel_kw):
    """One simulated run of *entry*'s release with ``ChimeraRuntime``
    installed.  Returns (kernel-run seconds, result, runtime)."""
    span = rec.span if rec is not None else (lambda _name: nullcontext())
    with span("elf.make_process"):
        process = make_process(entry.release)
    kernel = Kernel(ARCH, **kernel_kw)
    runtime = ChimeraRuntime(entry.release, rewriter=entry.rewriter,
                             original=entry.binary)
    runtime.install(kernel)
    t0 = time.perf_counter()
    with span("sim.run"):
        result = kernel.run(process, Core(0, RV64GCV, ARCH))
    return time.perf_counter() - t0, result, runtime


def _signature(result) -> tuple:
    return (result.exit_code, bytes(result.output), result.instret, result.cycles)


def run_execute_common(ctx: Ctx, names, *, use_smile: bool) -> RunOutput:
    entries, setup = timed_setup(lambda: exec_setup(names, use_smile=use_smile))
    by_name = {e.name: e for e in entries}
    problems, cycles = [], {}
    instret = 0

    def job(entry, rec=None):
        t0 = time.perf_counter()
        failure = None
        try:
            _, result, _ = run_release(entry, rec)
        except Exception as exc:  # noqa: BLE001 - a failed job, counted
            problems.append(f"{entry.name}: {type(exc).__name__}: {exc}")
            return JobOutcome(entry.name, time.perf_counter() - t0, RAISED), None
        latency = time.perf_counter() - t0
        if not result.ok:
            failure = STATUS
        # Untimed check: output and exit code equal the native run's.
        if (result.exit_code, bytes(result.output)) != (
                entry.native.exit_code, bytes(entry.native.output)):
            problems.append(f"{entry.name}: rewritten run differs from native")
        return JobOutcome(entry.name, latency, failure), result

    def do_job(name):
        nonlocal instret
        outcome, result = job(by_name[name])
        if result is not None:
            instret += result.instret
            cycles.setdefault(name, result.cycles)
            if cycles[name] != result.cycles:
                problems.append(f"{name}: simulated cycles changed between runs")
        return outcome

    jobs, wall, pass_walls = closed_loop(
        names, ctx.seconds, do_job, passes=1 if ctx.traced else None)
    out = RunOutput(jobs, wall, setup, problems=problems)
    out.values["sim_minst_per_s"] = instret / wall / 1e6
    if len(cycles) == len(entries):
        out.values["cycle_overhead_pct"] = cycle_overhead_pct(
            [e.native.cycles for e in entries], [cycles[e.name] for e in entries])
    sizes = []
    for entry in entries:
        path = ctx.tmp / f"{entry.name}.self"
        save_binary(entry.release, path)
        sizes.append(path.stat().st_size)
    out.values["image_kb"] = _mean(sizes) / 1024.0
    out.values["peak_rss_mb"] = self_peak_rss_mb()
    out.notes["trace_memo"] = ("warm: the set-up native runs compiled the "
                               "unpatched code's traces first")
    if ctx.traced:
        rec = SpanRecorder()
        traced_wall = 0.0
        for entry in entries:
            with rec.job(entry.name):
                outcome, _ = job(entry, rec)
            traced_wall += outcome.latency_s
        by = rec.by_name()
        out.layers["trace.overhead_pct"] = 100.0 * (traced_wall / pass_walls[-1] - 1.0)
        out.layers["trace.unattributed_pct"] = 100.0 * by["job"]["self_s"] / by["job"]["total_s"]
        out.layers["trace.spans"] = len(rec.spans)
        rec.write(ctx.spans_path("execute"))
        out.layers.update(sim_layers(entries, problems))
        out.layers["elf.make_process_ms"] = 1e3 * by["elf.make_process"]["total_s"] / \
            by["elf.make_process"]["calls"]
        if use_smile:
            add_other_layers(ctx, out, skip=("sim",))
        else:
            smile = exec_setup(names, use_smile=True)
            out.layers.update(trap_layers(entries, smile))
            add_other_layers(ctx, out, skip=("sim", "trap"))
    return out


def run_execute(ctx: Ctx) -> RunOutput:
    return run_execute_common(ctx, EXECUTE, use_smile=True)


def run_execute_trap(ctx: Ctx) -> RunOutput:
    return run_execute_common(ctx, EXECUTE_TRAP, use_smile=False)


def quiet_run(entry: ExecEntry, **kernel_kw):
    """:func:`run_release` after a full collection, so a collection the
    previous run left due does not land in this one's timing."""
    gc.collect()
    return run_release(entry, **kernel_kw)


def sim_layers(entries, problems: list) -> dict:
    """Per-tier cost and the cross-tier guard: step, block and trace runs
    of each release must agree on exit code, output, instret and cycles.
    The trace codegen memo is emptied first, so the first trace run of
    each release pays its codegen and the repeat does not."""
    cpu_mod._TRACE_CODE_MEMO.clear()
    tiers = {"step": [0.0, 0], "block": [0.0, 0], "trace": [0.0, 0]}
    codegen, trace_instret, superblock_instret, compiled, side_exits = [], 0, 0, [], []
    for entry in entries:
        step_s, step, _ = quiet_run(entry, block_cache=False, trace_cache=False)
        block_s, block, _ = quiet_run(entry, trace_cache=False)
        first_s, first, _ = quiet_run(entry)
        trace_s, trace, _ = min(quiet_run(entry), quiet_run(entry),
                                key=lambda run: run[0])
        signatures = {_signature(r) for r in (step, block, first, trace)}
        if len(signatures) != 1:
            problems.append(f"{entry.name}: step, block and trace tiers disagree")
        for tier, seconds, result in (("step", step_s, step), ("block", block_s, block),
                                      ("trace", trace_s, trace)):
            tiers[tier][0] += seconds
            tiers[tier][1] += result.instret
        codegen.append(first_s - trace_s)
        trace_instret += trace.counters.get("trace_instret", 0)
        superblock_instret += trace.counters.get("superblock_instret", 0)
        compiled.append(first.counters.get("traces_compiled", 0))
        side_exits.append(trace.counters.get("trace_side_exits", 0))
    total = tiers["trace"][1]
    return {
        "sim.step_ns_per_inst": 1e9 * tiers["step"][0] / tiers["step"][1],
        "sim.block_ns_per_inst": 1e9 * tiers["block"][0] / tiers["block"][1],
        "sim.trace_ns_per_inst": 1e9 * tiers["trace"][0] / tiers["trace"][1],
        "sim.trace_instret_share": trace_instret / total,
        "sim.superblock_instret_share": superblock_instret / total,
        "sim.traces_compiled": _mean(compiled),
        "sim.trace_side_exits": _mean(side_exits),
        "sim.codegen_ms": 1e3 * _mean(codegen),
    }


def trap_layers(trap_entries, smile_entries) -> dict:
    """Fault-path cost: each trap-fallback release against the SMILE
    release of the same profile (both timed warm)."""
    extra_s, traps, redirects = 0.0, [], []
    for trap_entry, smile_entry in zip(trap_entries, smile_entries):
        quiet_run(smile_entry)
        smile_s, _, _ = quiet_run(smile_entry)
        trap_s, result, runtime = quiet_run(trap_entry)
        extra_s += trap_s - smile_s
        traps.append(result.counters.get("traps", 0))
        redirects.append(runtime.stats.trap_redirects)
    return {"sim.traps": _mean(traps),
            "runtime.trap_redirects": _mean(redirects),
            "runtime.fault_us_per_trap": 1e6 * extra_s / max(1, sum(traps))}


# -- serve-mixed -------------------------------------------------------------


class Server:
    """A ``repro serve`` subprocess on a unix socket in the scratch dir."""

    def __init__(self, root: Path, env: dict):
        root.mkdir(parents=True, exist_ok=True)
        self.cache = root / "cache"
        self.address = f"unix:{root / 's.sock'}"
        self.log = open(root / "serve.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--cache", str(self.cache),
             "--socket", str(root / "s.sock"), "--jobs", str(SERVE_JOBS),
             "--cache-shards", str(SERVE_SHARDS)],
            env=env, stdout=self.log, stderr=subprocess.STDOUT)
        os.sched_setaffinity(self.proc.pid, SERVER_CPUS)

    def wait_ready(self) -> None:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                reply = asyncio.run(_request(self.address, {"op": "ping"}))
                if reply.get("event") == "pong":
                    return
            except (OSError, ProtocolError):
                pass
            time.sleep(SERVER_PING_PERIOD_S)
        raise RuntimeError("repro serve did not answer a ping")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                shutdown_server(self.address)
                self.proc.wait(timeout=30)
        except (OSError, ProtocolError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
            self.log.close()


def serve_setup(ctx: Ctx, names, root: Path) -> tuple:
    """Write the inputs as ``.self`` files under *root* and start a
    server with an empty cache there; returns (server, paths)."""
    root.mkdir(parents=True)
    paths = {}
    for name in names:
        paths[name] = str(root / f"{name}.self")
        save_binary(build(name), paths[name])
    server = Server(root, ctx.env)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, paths


async def _serve_window(address, picks, paths, seed, *, min_submits, seconds,
                        rec=None, ids=None):
    """Closed loop on :data:`SERVE_CONNECTIONS` connections until at least
    *min_submits* submits and *seconds* have passed.  Returns outcomes
    (with the terminal events) and the wall time."""
    ids = ids or itertools.count()
    answered, submitted = [], 0
    start = time.perf_counter()

    def more() -> bool:
        return submitted < min_submits or time.perf_counter() - start < seconds

    async def worker():
        nonlocal submitted
        reader, writer = await open_connection(address)
        try:
            while more():
                submitted += 1
                key = next(picks)
                job_id = f"j{next(ids)}"
                t0 = time.perf_counter()
                await write_message(writer, {"op": "submit", "id": job_id,
                                             "path": paths[key], "seed": seed})
                while True:
                    event = await read_message(reader)
                    if event is None:
                        raise ConnectionError("server closed mid-job")
                    if event.get("id") == job_id and event.get("event") in (
                            "result", "error"):
                        break
                t1 = time.perf_counter()
                if rec is not None:
                    rec.record("service.submit", t0, t1, job_id)
                answered.append((key, t1 - t0, event))
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(worker() for _ in range(SERVE_CONNECTIONS)))
    wall = time.perf_counter() - start
    # Classified after the window: parsing ledgers is the client's work,
    # not the server's.  One parse per distinct (event, ledger).
    kinds: dict[tuple, Optional[str]] = {}
    outcomes = []
    for key, latency, event in answered:
        kind = (event.get("event"), event.get("report_json"))
        if kind not in kinds:
            kinds[kind] = submit_failure(event)
        outcomes.append((JobOutcome(key, latency, kinds[kind]), event))
    return outcomes, wall


def serve_window(server, picks, paths, seed, **kw):
    return asyncio.run(_serve_window(server.address, picks, paths, seed, **kw))


def check_ledgers(results, paths, seed: int, check_key: str, problems: list) -> None:
    """Every result of one key carries the same ledger, and the checked
    key's ledger equals an in-process serial ``rewrite_and_verify``."""
    digests: dict[str, set] = {}
    ledger = {}
    for outcome, event in results:
        if event.get("event") == "result":
            data = event.get("report_json") or ""
            digests.setdefault(outcome.name, set()).add(
                hashlib.sha256(data.encode()).hexdigest())
            ledger.setdefault(outcome.name, data)
    for key, seen in digests.items():
        if len(seen) != 1:
            problems.append(f"serve: {len(seen)} different ledgers for {key}")
    if check_key not in ledger:
        problems.append(f"serve: no result for {check_key}")
        return
    local = rewrite_and_verify(load_binary_file(paths[check_key]), RV64GC, seed=seed)
    if local.report.to_json() != ledger[check_key]:
        problems.append(f"serve: ledger of {check_key} differs from local serial run")


def run_serve_mixed(ctx: Ctx) -> RunOutput:
    roots = (ctx.tmp / f"serve-{i}" for i in itertools.count())
    (server, paths), setup = timed_setup(
        lambda: serve_setup(ctx, SERVE_KEYS, next(roots)),
        teardown=lambda state: state[0].stop())
    problems = []
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CLIENT_CPUS)
    try:
        picks = traffic.submits(ctx.seed, SERVE_KEYS)
        ids = itertools.count()
        if ctx.traced:
            window = dict(min_submits=TRACED_SERVE_SUBMITS, seconds=0.0, ids=ids)
            results, wall = serve_window(server, picks, paths, ctx.seed, **window)
            rec = SpanRecorder()
            traced, traced_wall = serve_window(server, picks, paths, ctx.seed,
                                               rec=rec, **window)
            again, again_wall = serve_window(server, picks, paths, ctx.seed, **window)
            results = results + traced + again
        else:
            results, wall = serve_window(server, picks, paths, ctx.seed,
                                         min_submits=MIN_SERVE_SUBMITS,
                                         seconds=ctx.seconds, ids=ids)
        peak = server.peak_rss_mb()
        stats_event = server_stats(server.address)
        check_key = SERVE_KEYS[ctx.seed % len(SERVE_KEYS)]
        check_ledgers(results, paths, ctx.seed, check_key, problems)
        layers = {}
        if ctx.traced:
            layers = service_layers(results, stats_event, server, paths, ctx.seed)
            layers["trace.overhead_pct"] = 100.0 * (traced_wall / again_wall - 1.0)
            layers["trace.spans"] = len(rec.spans)
            rec.write(ctx.spans_path("serve"))
    finally:
        os.sched_setaffinity(0, all_cpus)
        server.stop()
    out = RunOutput([o for o, _ in results], wall, setup, problems=problems,
                    layers=layers)
    out.values["image_kb"] = _mean(dir_bytes(server.cache, "shard-*/*.self")) / 1024.0
    out.values["peak_rss_mb"] = peak
    out.notes["cache"] = {c: sum(1 for _, e in results if e.get("cache") == c)
                          for c in ("cold", "warm", "coalesced")}
    if ctx.traced:
        add_other_layers(ctx, out, skip=("service",))
    return out


def service_layers(results, stats_event, server, paths, seed) -> dict:
    """Client latency split by the result's ``cache`` field, the server's
    own counters, and the service overhead over an in-process warm hit
    of the same keys from the server's cache."""
    by_cache: dict[str, list] = {}
    for outcome, event in results:
        if event.get("event") == "result":
            by_cache.setdefault(event.get("cache"), []).append(outcome.latency_s)
    stats = stats_event["stats"]
    layout = CacheLayout.resolve(server.cache, SERVE_SHARDS)
    local = []
    for key in sorted({o.name for o, _ in results}):
        binary = load_binary_file(paths[key])
        t0 = time.perf_counter()
        hit = rewrite_and_verify(binary, RV64GC, seed=seed, cache_dir=layout)
        local.append(time.perf_counter() - t0)
        if not hit.cache_hit:
            raise RuntimeError(f"{key}: served key is not in the server's cache")
    warm_ms = 1e3 * statistics.median(by_cache["warm"])
    deduped = stats.get("jobs_deduped_cache", 0) + stats.get("jobs_deduped_inflight", 0)
    return {
        "service.warm_ms_p50": warm_ms,
        "service.cold_ms_p50": 1e3 * statistics.median(by_cache["cold"]),
        "service.overhead_ms": warm_ms - 1e3 * statistics.median(local),
        "service.dedup_ratio": deduped / max(1, stats.get("jobs_accepted", 0)),
        "service.rewrites": stats.get("rewrites", 0),
        "service.jobs_failed": stats.get("jobs_failed", 0),
        "service.jobs_shed": stats.get("jobs_shed", 0),
    }


def service_probe(ctx: Ctx) -> dict:
    """A short ``repro serve`` session on one key: the first submit is
    cold (the second may coalesce onto it), the rest are warm hits."""
    server, paths = serve_setup(ctx, (PROBE_SERVE_KEY,), ctx.tmp / "serve-probe")
    try:
        picks = itertools.repeat(PROBE_SERVE_KEY)
        results, _ = serve_window(server, picks, paths, ctx.seed,
                                  min_submits=1 + PROBE_WARM_SUBMITS, seconds=0.0)
        stats_event = server_stats(server.address)
        return service_layers(results, stats_event, server, paths, ctx.seed)
    finally:
        server.stop()


# -- probes for bypassed layers ----------------------------------------------


def add_other_layers(ctx: Ctx, out: RunOutput, *, skip=(), rewrite_probe=None) -> None:
    """Measure every layer group not in *skip* on the probe inputs."""
    if "rewrite" not in skip:
        traced = rewrite_layers({PROBE: build(PROBE)}, ctx.seed,
                                ctx.tmp / "probe-rewrite", out.problems,
                                ctx.spans_path("probe-rewrite"))
        rewrite_probe = traced["probe"]
        for key, value in traced["layers"].items():
            out.layers.setdefault(key, value)
    out.layers.update(procpool_layers(rewrite_probe, ctx.seed, out.problems))
    if "sim" not in skip:
        entries = exec_setup((PROBE,), use_smile=True)
        sim = sim_layers(entries, out.problems)
        for key, value in sim.items():
            out.layers.setdefault(key, value)
    if "trap" not in skip:
        trap = exec_setup((PROBE,), use_smile=False)
        smile = exec_setup((PROBE,), use_smile=True)
        out.layers.update(trap_layers(trap, smile))
    if "service" not in skip:
        out.layers.update(service_probe(ctx))


WORKLOADS = {
    "rewrite-cold": run_rewrite_cold,
    "execute": run_execute,
    "execute-trap": run_execute_trap,
    "serve-mixed": run_serve_mixed,
}
