"""The repo benchmark: one workload per run, or every workload in one command.

One run (the interface the ledger and every comparison rely on)::

    python3 perfbench/run.py --workload execute --seed 1 --seconds 10 --trace 0

prints a table of every metric with its unit and, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Each run also appends one provenance-stamped record to
``.perfbench/ledger.jsonl``.

Every workload, repeated, with a summary of medians and quartiles::

    python3 perfbench/run.py --all --repeats 3

Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(".perfbench") / "ledger.jsonl"
SCRATCH = Path(".perfbench") / "tmp"
SPANS = Path(".perfbench") / "spans"
WORKLOAD_NAMES = ("rewrite-cold", "execute", "execute-trap", "serve-mixed")

#: Every end-to-end metric, where it applies.  BENCHMARK.json gates the
#: ones that apply to every workload and hold steady; the rest are
#: printed and recorded in the ledger (README.md, "End-to-end metrics").
E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
             "job_p99_ms": "ms", "fail_ratio": "ratio", "image_kb": "KiB",
             "peak_rss_mb": "MiB", "sim_minst_per_s": "Minst/s",
             "cycle_overhead_pct": "%"}


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself the
    root of a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def provenance() -> dict:
    commit = git_commit()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(),
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def end_to_end(out) -> dict:
    """Every end-to-end value of one untraced run (None where it does
    not apply, or where too few samples lie beyond a percentile)."""
    from stats import fail_ratio, latencies, percentile

    jobs = out.jobs
    lat = latencies(jobs)
    succeeded = sum(1 for j in jobs if j.ok)
    p50 = statistics.median(lat)
    if math.isinf(p50):
        out.problems.append("half or more of the jobs failed; "
                            "job_p50_ms is infinite")
        p50 = statistics.median([j.latency_s for j in jobs])
    p99 = percentile(lat, 99)
    return {
        "setup_s": statistics.median(out.setup_s),
        "jobs_per_s": succeeded / out.wall_s,
        "job_p50_ms": 1e3 * p50,
        "job_p99_ms": None if p99 is None or math.isinf(p99) else 1e3 * p99,
        "fail_ratio": fail_ratio(jobs),
        **{name: out.values.get(name) for name in (
            "image_kb", "peak_rss_mb", "sim_minst_per_s", "cycle_overhead_pct")},
    }


def run_one(args) -> int:
    contract = load_contract()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        return 2
    from stats import failure_tally, summary

    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    ctx = workloads.Ctx(seed=args.seed, seconds=args.seconds,
                        traced=bool(args.trace), tmp=tmp, env=env,
                        spans_dir=SPANS / args.workload)
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    jobs = out.jobs
    values = dict(out.layers) if args.trace else end_to_end(out)
    extra = {} if args.trace else {
        n: {"value": v, "unit": E2E_UNITS[n]} for n, v in values.items()
        if n not in units and v is not None}
    missing = sorted(n for n in units if values.get(n) is None)
    if missing:
        out.problems.append(f"metrics not measured: {', '.join(missing)}")
    metrics = {n: {"value": values[n], "unit": units[n]}
               for n in units if values.get(n) is not None}
    known = sum(1 for j in jobs if not j.ok and j.known_defect)
    failed = sum(1 for j in jobs if not j.ok and not j.known_defect)
    result = {"correct": not out.problems, "attempted": len(jobs),
              "failed": failed, "metrics": metrics}

    print(f"== perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} ({len(jobs)} jobs, {known} known-defect "
          f"failures, {failed} other failures) ==")
    for name, metric in list(metrics.items()) + list(extra.items()):
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
    for problem in out.problems:
        print(f"  PROBLEM: {problem}")

    record = {
        "schema": "perfbench/v1", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(), **result,
        "known_defect_failures": known, "failure_kinds": failure_tally(jobs),
        "report": extra,
        "samples": {"job_latency_ms": summary([1e3 * j.latency_s for j in jobs]),
                    "setup_s": summary(out.setup_s)},
        "problems": out.problems, "notes": out.notes,
    }
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    with open(LEDGER, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def summarize(records: list[dict]) -> None:
    """Per workload and metric: runs, median and quartiles across runs."""
    from stats import summary

    groups: dict[tuple, list] = {}
    for rec in records:
        for section in ("metrics", "report"):
            for name, metric in rec.get(section, {}).items():
                groups.setdefault((rec["workload"], rec["trace"], name,
                                   metric["unit"]), []).append(metric["value"])
    if records:
        prov = records[-1]["provenance"]
        print(f"commit={prov['commit']} src_sha256={prov['src_sha256'][:12]} "
              f"cpus={prov['cpu_count']} python={prov['python']}")
    print(f"{'workload':13s} {'t':1s} {'metric':34s} {'runs':>4s} "
          f"{'median':>12s} {'q1':>12s} {'q3':>12s} unit")
    for (workload, trace, name, unit), values in sorted(groups.items()):
        s = summary(values)
        q1 = f"{s['q1']:12.4f}" if s["q1"] is not None else f"{'-':>12s}"
        q3 = f"{s['q3']:12.4f}" if s["q3"] is not None else f"{'-':>12s}"
        print(f"{workload:13s} {trace:1d} {name:34s} {s['n']:4d} "
              f"{s['median']:12.4f} {q1} {q3} {unit}")


def read_ledger(skip: int = 0) -> list[dict]:
    if not LEDGER.exists():
        return []
    with open(LEDGER, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh.readlines()[skip:]]


def run_all(args) -> int:
    """Every workload ``--repeats`` times untraced and once traced, each
    in its own process, then the summary of the new ledger records."""
    start = len(read_ledger())
    status = 0
    for workload in WORKLOAD_NAMES:
        runs = [(seed, 0) for seed in range(1, args.repeats + 1)] + [(1, 1)]
        for seed, trace in runs:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            last = (done.stdout.strip().splitlines() or [""])[-1]
            print(f"{workload} seed={seed} trace={trace}: exit {done.returncode} {last}",
                  flush=True)
            try:
                correct = json.loads(last).get("correct")
            except ValueError:
                correct = False
            if done.returncode != 0 or not correct:
                status = 1
                sys.stderr.write(done.stdout + done.stderr)
    summarize(read_ledger(start))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload --repeats times, then summarize")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--summarize", action="store_true",
                        help="summarize every record in the ledger")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    if args.summarize:
        summarize(read_ledger())
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload, --all or --summarize")
    started = time.perf_counter()
    status = run_one(args)
    print(f"perfbench: {args.workload} took {time.perf_counter() - started:.1f}s",
          file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
