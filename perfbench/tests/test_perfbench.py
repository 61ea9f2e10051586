"""Tests for the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import itertools
import math
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import traffic  # noqa: E402
from stats import (DEADLINE, RAISED, REGION_FAULT, STATUS, JobOutcome,  # noqa: E402
                   cycle_overhead_pct, fail_ratio, failure_tally, geomean,
                   latencies, percentile, self_times, submit_failure, summary)


# -- the percentile rule ------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert percentile(list(range(1000)), 99) == 989
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1100)), 99) == 1088


def test_median_and_p90_follow_the_same_rule():
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(99)), 90) is None
    assert percentile([], 50) is None


def test_failed_jobs_sit_beyond_every_latency_limit():
    jobs = [JobOutcome("a", 0.001 * i) for i in range(990)]
    jobs += [JobOutcome("b", 0.0, RAISED) for _ in range(10)]
    lat = latencies(jobs)
    assert sum(math.isinf(x) for x in lat) == 10
    assert percentile(lat, 99) == pytest.approx(0.989)
    # One more failure and the p99 job itself is a failure.
    jobs += [JobOutcome("c", 0.0, DEADLINE)]
    assert math.isinf(percentile(latencies(jobs), 99))


def test_quartiles_match_statistics_quantiles():
    data = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0]
    q1, _, q3 = statistics.quantiles(data, n=4)
    assert summary(data) == {"n": 6, "median": 3.5, "q1": q1, "q3": q3}
    assert summary([7.0]) == {"n": 1, "median": 7.0, "q1": None, "q3": None}


# -- cycle_overhead_pct -------------------------------------------------------


def test_geomean_of_cycle_ratios():
    assert geomean([1.0, 1.21]) == pytest.approx(1.1)
    assert cycle_overhead_pct([100, 200], [100, 242]) == pytest.approx(10.0)
    # A geomean, not a mean of ratios: +100% and -50% cancel.
    assert cycle_overhead_pct([100, 100], [200, 50]) == pytest.approx(0.0)


def test_geomean_rejects_bad_input():
    with pytest.raises(ValueError):
        cycle_overhead_pct([100], [100, 200])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


# -- fail_ratio ---------------------------------------------------------------


def test_fail_ratio_counts_every_failure_kind():
    jobs = [
        JobOutcome("ok", 0.1),
        JobOutcome("raised", 0.1, RAISED),
        JobOutcome("killed", 5.0, DEADLINE, known_defect=True),
        JobOutcome("faulted", 0.2, REGION_FAULT),
        JobOutcome("status", 0.1, STATUS),
        JobOutcome("ok2", 0.1),
    ]
    assert fail_ratio(jobs) == pytest.approx(4 / 6)
    assert failure_tally(jobs) == {RAISED: 1, DEADLINE: 1, REGION_FAULT: 1,
                                   STATUS: 1}
    with pytest.raises(ValueError):
        fail_ratio([])
    with pytest.raises(ValueError):
        JobOutcome("x", 0.0, "timeout")


@pytest.fixture
def workloads():
    pytest.importorskip("repro")
    import workloads as module
    return module


def test_rewrite_job_classifies_raised_deadline_and_region_faults(
        workloads, monkeypatch, tmp_path):
    binary = workloads.build("omnetpp_s")

    # Raised: the pipeline throws.
    def boom(*args, **kwargs):
        raise ValueError("cannot load")
    monkeypatch.setattr(workloads, "rewrite_and_verify", boom)
    outcome, pipe, detail = workloads.rewrite_job(binary, "x", 1, tmp_path / "a")
    assert (outcome.failure, pipe) == (RAISED, None)
    assert "ValueError" in detail

    # Region faults: the release completed but carries RegionFaults.
    faulted = SimpleNamespace(report=SimpleNamespace(faults=[object()]))
    monkeypatch.setattr(workloads, "rewrite_and_verify", lambda *a, **k: faulted)
    assert workloads.rewrite_job(binary, "x", 1, tmp_path / "b")[0].failure \
        == REGION_FAULT
    monkeypatch.undo()

    # Deadline-killed: a deadline already past when the job starts.
    monkeypatch.setattr(workloads, "JOB_DEADLINE_S", -1.0)
    outcome, _, _ = workloads.rewrite_job(binary, workloads.KNOWN_DEFECT, 1,
                                          tmp_path / "c")
    assert outcome.failure == DEADLINE and outcome.known_defect
    assert fail_ratio([outcome, JobOutcome("ok", 0.1)]) == 0.5


def test_serve_submits_count_errors_and_region_faults():
    pytest.importorskip("repro")
    from repro.resilience.failures import WORKER_CRASH, RegionFault
    from repro.verify.report import CheckResult, RegionVerdict, VerifyReport

    rejected = RegionVerdict(0x10, 0x20, "vector",
                             checks=[CheckResult("oracle", False, "mismatch")])
    clean = VerifyReport("b", "rv64gc", 1, regions=[rejected])
    faulted = VerifyReport("b", "rv64gc", 1, regions=[rejected], faults=[
        RegionFault(0x10, 0x20, "vector", WORKER_CRASH, attempt=1)])
    assert not clean.ok
    # A rejected region is a verdict: the submit succeeded.
    assert submit_failure({"event": "result", "report_json": clean.to_json()}) is None
    assert submit_failure({"event": "result", "report_json": faulted.to_json()}) \
        == REGION_FAULT
    assert submit_failure({"event": "error", "fault": "job-crash"}) == STATUS


# -- the serve-mixed traffic generator ----------------------------------------


KEYS = ("a", "b", "c", "d", "e", "f")


def _draw(seed, n=500):
    return list(itertools.islice(traffic.submits(seed, KEYS), n))


def test_traffic_is_deterministic_per_seed():
    assert _draw(1) == _draw(1)
    assert _draw(7) == _draw(7)
    assert _draw(1) != _draw(2)


def test_traffic_is_skewed_the_same_way_for_every_seed():
    for seed in (3, 4, 5):
        draws = _draw(seed, 2000)
        counts = [draws.count(k) for k in KEYS]
        assert set(draws) == set(KEYS)
        assert counts[0] == max(counts) and counts[-1] == min(counts)
        assert counts[0] > 3 * counts[-1]
        assert 0.25 < counts[0] / len(draws) < 0.45


def test_traffic_needs_keys():
    with pytest.raises(ValueError):
        next(traffic.submits(1, ()))


# -- span self time -----------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, "child", 1.0, 3.0, 2, "j"),
        (1, "grandchild", 4.0, 5.0, 3, "j"),
        (3, "child2", 3.5, 6.0, 2, "j"),
        (2, "root", 0.0, 10.0, None, "j"),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 2.0, 1: 1.0, 3: 1.5, 2: 5.5}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_recorder_nests_and_restores():
    from spans import SpanRecorder

    target = SimpleNamespace(work=lambda x: x * 2)
    rec = SpanRecorder()
    rec.wrap(target, "work", "layer.work")
    with rec.job("job-1"):
        assert target.work(21) == 42
    rec.restore()
    assert target.work(1) == 2
    names = [(s[1], s[4] is None, s[5]) for s in rec.spans]
    assert names == [("layer.work", False, "job-1"), ("job", True, "job-1")]
    by = rec.by_name()
    assert by["job"]["self_s"] + by["layer.work"]["self_s"] == \
        pytest.approx(by["job"]["total_s"])
