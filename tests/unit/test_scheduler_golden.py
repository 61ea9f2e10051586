"""Golden fingerprint of both scheduling engines.

Every figure the discrete-event scheduler (DES) and the measured
scheduler report is pinned, per run, against ``scheduler_golden.json``:
makespan, CPU time, steals, migrations, accelerated extension tasks,
per-core busy time (DES) or per-task cycles (measured), unrecoverable
tasks and their reasons, quarantined cores, the resilience ledger and
the counters each run merges into the active telemetry session.  A
change to the event loop that moves any of these shows up here.

To re-record the fixture after an intended change, run this file as a
script from the repository root::

    PYTHONPATH=src python tests/unit/test_scheduler_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.machine_runner import SYSTEMS as MEASURED_SYSTEMS
from repro.core.machine_runner import MeasuredScheduler, varied_taskset
from repro.core.scheduler import SystemModel, Task, WorkStealingScheduler, mixed_taskset
from repro.resilience.failures import DesFailure, DesFailurePlan
from repro.resilience.policy import RetryPolicy
from repro.resilience.scenarios import run_all
from repro.telemetry import Telemetry, use
from repro.workloads.hetero import SYSTEMS as HETERO_SYSTEMS
from repro.workloads.hetero import measure_hetero_costs
from repro.workloads.openblas import SYSTEMS as FIG14_SYSTEMS
from repro.workloads.openblas import TASKS_PER_RUN, _core_split, _model, measure_kernel

FIXTURE = Path(__file__).with_name("scheduler_golden.json")

#: Explicit taskset seeds (the defaults), so REPRO_FUZZ_SEED cannot move
#: a pinned figure.
MIXED_SEED = 7
VARIED_SEED = 11


def _simple_model() -> SystemModel:
    return SystemModel(
        "m",
        costs={("base", False): 100, ("base", True): 100,
               ("ext", True): 50, ("ext", False): 200},
        accelerated_placements=frozenset({("ext", True)}),
    )


def _fam_model() -> SystemModel:
    return SystemModel(
        "fam",
        costs={("base", False): 100, ("base", True): 100,
               ("ext", True): 50, ("ext", False): None},
        accelerated_placements=frozenset({("ext", True)}),
        migrate_on_unsupported=True,
        detect_cycles=10,
    )


def _merged_series(telemetry: Telemetry) -> dict:
    """The run-local ledger the scheduler merged into the session: every
    series carrying the ``engine`` label, keyed by name and labels."""
    doc = telemetry.metrics.as_dict()
    out = {}
    for kind, value_key in (("counters", "value"), ("histograms", "stats")):
        for entry in doc[kind]:
            if "engine" in entry["labels"]:
                key = entry["name"] + json.dumps(entry["labels"], sort_keys=True)
                out[key] = entry[value_key]
    return out


def _fingerprint(result, telemetry: Telemetry, engine: str) -> dict:
    fp = {
        "makespan": result.makespan,
        "cpu_time": result.cpu_time,
        "steals": result.steals,
        "migrations": result.migrations,
        "accelerated_ext_tasks": result.accelerated_ext_tasks,
        "unrecoverable": result.unrecoverable,
        "task_faults": sorted(str(f) for f in result.task_faults.values()),
        "quarantined_cores": list(result.quarantined_cores),
        "resilience": result.resilience.as_dict(),
        "telemetry": _merged_series(telemetry),
    }
    if engine == "des":
        fp["per_core_busy"] = list(result.per_core_busy)
    else:
        fp["per_task_cycles"] = {str(k): v for k, v in
                                 sorted(result.per_task_cycles.items())}
        fp["failures"] = result.failures
    return fp


def _assert_accounted(result, tasks) -> None:
    """Every task finished or ended in an UnrecoverableFault, once."""
    finished = set(result.per_task_cycles)
    assert result.completed == len(finished)
    assert finished.isdisjoint(result.task_faults)
    assert finished | set(result.task_faults) == {t.task_id for t in tasks}


def _des(n_base: int, n_ext: int, tasks: list[Task], model: SystemModel,
         **kwargs) -> dict:
    telemetry = Telemetry()
    with use(telemetry):
        result = WorkStealingScheduler(n_base, n_ext).run(tasks, model, **kwargs)
    _assert_accounted(result, tasks)
    return _fingerprint(result, telemetry, "des")


def _measured(tasks, system: str, **kwargs) -> dict:
    telemetry = Telemetry()
    with use(telemetry):
        result = MeasuredScheduler(2, 2).run(tasks, system, **kwargs)
    _assert_accounted(result, tasks)
    return _fingerprint(result, telemetry, "measured")


def _fig11_runs() -> dict:
    runs = {}
    for version in ("ext", "base"):
        for system in HETERO_SYSTEMS:
            for share in (0.2, 0.6, 1.0):
                runs[f"des/fig11-{version}/{system}/{share}"] = (
                    lambda v=version, s=system, x=share: _des(
                        4, 4, mixed_taskset(200, x, seed=MIXED_SEED),
                        measure_hetero_costs(v).model(s)))
    return runs


def _fig14_runs() -> dict:
    threads = 8
    base, ext = _core_split(threads, 4, 4)
    return {
        f"des/fig14-sgemm-t{threads}/{system}": (
            lambda s=system: _des(
                base, ext, mixed_taskset(TASKS_PER_RUN, 1.0, seed=MIXED_SEED),
                _model(s, measure_kernel("sgemm"), threads)))
        for system in FIG14_SYSTEMS
    }


#: The DesFailurePlan setups of test_scheduler_resilience.py.
_FAILURE_RUNS = {
    "des/failures/kill": lambda: _des(
        2, 2, mixed_taskset(40, 0.5, seed=MIXED_SEED), _simple_model(),
        failures=DesFailurePlan.kill_cores([3], seed=0)),
    "des/failures/flake": lambda: _des(
        2, 2, mixed_taskset(40, 0.5, seed=MIXED_SEED), _simple_model(),
        failures=DesFailurePlan([DesFailure(3, "flake", count=3)], seed=0),
        quarantine_after=2),
    "des/failures/all-ext-dead": lambda: _des(
        2, 2, [Task(i, "ext") for i in range(20)], _simple_model(),
        failures=DesFailurePlan.kill_cores([2, 3], seed=0)),
    "des/failures/fam-all-ext-dead": lambda: _des(
        2, 2, [Task(0, "base"), Task(1, "ext"), Task(2, "ext")], _fam_model(),
        failures=DesFailurePlan.kill_cores([2, 3], seed=0)),
    "des/failures/retry-budget": lambda: _des(
        1, 0, [Task(0, "base")], _simple_model(),
        failures=DesFailurePlan([DesFailure(0, "flake", count=10)], seed=0),
        retry_policy=RetryPolicy(max_attempts=2), quarantine_after=99),
    "des/failures/deadline": lambda: _des(
        1, 0, [Task(0, "base")], _simple_model(),
        failures=DesFailurePlan([DesFailure(0, "flake", count=10)], seed=0),
        retry_policy=RetryPolicy(max_attempts=100, deadline=5_000),
        quarantine_after=99),
    "des/edge/fam-zero-ext-cores": lambda: _des(
        2, 0, [Task(i, "ext") for i in range(5)] + [Task(9, "base")],
        _fam_model()),
    "des/edge/unrunnable-no-home": lambda: _des(
        2, 0, [Task(0, "ext"), Task(1, "base")],
        SystemModel("m", costs={("base", False): 100, ("base", True): 100,
                                ("ext", True): 50, ("ext", False): None})),
}


def _measured_runs() -> dict:
    runs = {
        f"measured/validation/{share}": (
            lambda x=share: _measured(
                varied_taskset(20, x, seed=VARIED_SEED), "chimera"))
        for share in (0.5, 1.0)
    }
    for system in MEASURED_SYSTEMS:
        runs[f"measured/varied12/{system}"] = (
            lambda s=system: _measured(
                varied_taskset(12, 0.5, seed=VARIED_SEED), s))
    return runs


def _scenarios() -> list:
    return [[r.name, r.passed, r.detail] for r in run_all(seed=0)]


RUNS = {
    **_fig11_runs(),
    **_fig14_runs(),
    **_FAILURE_RUNS,
    **_measured_runs(),
    "measured/resilience-scenarios": _scenarios,
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_run_matches_golden(golden, run_id):
    assert json.loads(json.dumps(RUNS[run_id]())) == golden[run_id]


if __name__ == "__main__":
    recorded = {run_id: RUNS[run_id]() for run_id in sorted(RUNS)}
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(recorded)} runs to {FIXTURE}\n")
