"""End-to-end resilience scenarios: ``python -m repro resilience <name>``.

Each scenario runs a real mixed taskset through the measured scheduler
(rewritten binaries in the full simulator) while the
:class:`~repro.resilience.failures.CoreFailureInjector` breaks things,
and asserts the forward-progress contract: every task either completes
(workloads self-verify, so ``failures == 0`` means correct results) or
ends in a structured UnrecoverableFault entry — no hangs, no Python
tracebacks, no silent divergence.  The verdicts reuse the chaos
harness's :class:`~repro.chaos.outcomes.ScenarioResult` so chaos and
resilience report through one vocabulary.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.chaos.outcomes import ScenarioResult
from repro.core.machine_runner import HeteroTask, MeasuredScheduler
from repro.core.scheduler import ScheduleResult
from repro.resilience.failures import (
    CORRUPT_CHECKPOINT,
    DROP_MIGRATION,
    KILL_CORE,
    CoreFailureInjector,
    FailureEvent,
)
from repro.resilience.seeds import replay_hint, resolve_seed

#: Instruction depth that lands a failure inside the matmul workload's
#: strip-mined vector loop (entry/setup retires well under this).
MID_VECTOR_DEPTH = 150


def small_taskset(n_base: int = 4, n_ext: int = 4) -> list[HeteroTask]:
    """A small deterministic base/ext mix (sizes chosen for test speed)."""
    tasks: list[HeteroTask] = []
    for i in range(n_base + n_ext):
        if i % 2 == 0 and sum(1 for t in tasks if t.kind == "ext") < n_ext:
            tasks.append(HeteroTask(i, "ext", 6))
        else:
            tasks.append(HeteroTask(i, "base", 400))
    return tasks


def _forward_progress(name: str, result: ScheduleResult,
                      n_tasks: int) -> Optional[ScenarioResult]:
    """The contract every scenario shares; None when it holds."""
    accounted = result.completed + result.unrecoverable
    if accounted != n_tasks:
        return ScenarioResult(
            name, False,
            f"{accounted}/{n_tasks} tasks accounted for — silent drop")
    if result.failures:
        return ScenarioResult(
            name, False,
            f"{result.failures} tasks finished with wrong results")
    return None


def scenario_ext_core_loss(seed: Optional[int] = None) -> ScenarioResult:
    """Kill an extension core mid-vector-task; work must migrate on."""
    name = "ext-core-loss"
    tasks = small_taskset()
    injector = CoreFailureInjector(
        [FailureEvent(KILL_CORE, core_id=2, task_kind="ext",
                      after_instructions=MID_VECTOR_DEPTH)], seed=seed)
    result = MeasuredScheduler(2, 2).run(tasks, "chimera", injector=injector)
    bad = _forward_progress(name, result, len(tasks))
    if bad is not None:
        return bad
    stats = result.resilience
    if stats.core_faults < 1:
        return ScenarioResult(name, False, "the kill never fired")
    if 2 not in result.quarantined_cores:
        return ScenarioResult(name, False, "dead core 2 was not quarantined")
    if result.unrecoverable:
        return ScenarioResult(
            name, False, f"{result.unrecoverable} tasks unrecoverable with "
                         "three live cores remaining")
    if stats.migrations < 1:
        return ScenarioResult(name, False, "orphaned task was not migrated")
    return ScenarioResult(
        name, True,
        f"core 2 died mid-vector-task; {stats.summary()}")


def scenario_flaky_core(seed: Optional[int] = None) -> ScenarioResult:
    """A core that flakes repeatedly gets quarantined after a threshold."""
    name = "flaky-core"
    tasks = small_taskset()
    injector = CoreFailureInjector.flake(
        2, count=2, after_instructions=MID_VECTOR_DEPTH, seed=seed)
    result = MeasuredScheduler(2, 2).run(tasks, "chimera", injector=injector,
                                         quarantine_after=2)
    bad = _forward_progress(name, result, len(tasks))
    if bad is not None:
        return bad
    stats = result.resilience
    if stats.core_faults != 2:
        return ScenarioResult(
            name, False, f"expected 2 flakes, saw {stats.core_faults}")
    if 2 not in result.quarantined_cores:
        return ScenarioResult(
            name, False, "flaky core 2 escaped quarantine after the threshold")
    if result.unrecoverable or stats.retries < 2:
        return ScenarioResult(
            name, False, f"retry ladder broken: {stats.summary()}")
    return ScenarioResult(
        name, True, f"core 2 flaked twice then quarantined; {stats.summary()}")


def scenario_lost_migration(seed: Optional[int] = None) -> ScenarioResult:
    """A checkpointed migration dropped in flight restarts from entry."""
    name = "lost-migration"
    tasks = small_taskset()
    injector = CoreFailureInjector(
        [FailureEvent(KILL_CORE, core_id=2, task_kind="ext",
                      after_instructions=MID_VECTOR_DEPTH),
         FailureEvent(DROP_MIGRATION)], seed=seed)
    result = MeasuredScheduler(2, 2).run(tasks, "chimera", injector=injector)
    bad = _forward_progress(name, result, len(tasks))
    if bad is not None:
        return bad
    stats = result.resilience
    if stats.migrations_lost < 1:
        return ScenarioResult(name, False, "the migration was never dropped")
    if stats.restarts < 1:
        return ScenarioResult(
            name, False, "lost migration did not restart from entry")
    if result.unrecoverable:
        return ScenarioResult(
            name, False, f"{result.unrecoverable} tasks unrecoverable after "
                         "a single lost migration")
    return ScenarioResult(
        name, True, f"migration dropped, task restarted; {stats.summary()}")


def scenario_corrupted_checkpoint(seed: Optional[int] = None) -> ScenarioResult:
    """A corrupted checkpoint is *detected* (checksum) and the task
    restarts from entry instead of silently diverging."""
    name = "corrupted-checkpoint"
    tasks = small_taskset()
    injector = CoreFailureInjector(
        [FailureEvent(KILL_CORE, core_id=2, task_kind="ext",
                      after_instructions=MID_VECTOR_DEPTH),
         FailureEvent(CORRUPT_CHECKPOINT)], seed=seed)
    result = MeasuredScheduler(2, 2).run(tasks, "chimera", injector=injector)
    bad = _forward_progress(name, result, len(tasks))
    if bad is not None:
        return bad
    stats = result.resilience
    if stats.checkpoint_failures < 1:
        return ScenarioResult(
            name, False, "corruption was never detected at restore")
    if stats.restarts < 1:
        return ScenarioResult(
            name, False, "corrupt checkpoint did not trigger a restart")
    if result.unrecoverable:
        return ScenarioResult(
            name, False, f"{result.unrecoverable} tasks unrecoverable after "
                         "one corrupt checkpoint")
    return ScenarioResult(
        name, True,
        f"checksum caught the corruption, task restarted; {stats.summary()}")


def scenario_all_ext_cores_dead(seed: Optional[int] = None) -> ScenarioResult:
    """Every extension core dies; base cores finish everything via the
    downgraded binary (accelerated share collapses to zero)."""
    name = "all-ext-cores-dead"
    tasks = small_taskset()
    injector = CoreFailureInjector(
        [FailureEvent(KILL_CORE, core_id=2, after_instructions=100),
         FailureEvent(KILL_CORE, core_id=3, after_instructions=100)],
        seed=seed)
    result = MeasuredScheduler(2, 2).run(tasks, "chimera", injector=injector)
    bad = _forward_progress(name, result, len(tasks))
    if bad is not None:
        return bad
    stats = result.resilience
    if result.quarantined_cores != (2, 3):
        return ScenarioResult(
            name, False,
            f"expected cores (2, 3) quarantined, got {result.quarantined_cores}")
    if result.unrecoverable:
        return ScenarioResult(
            name, False, f"{result.unrecoverable} tasks unrecoverable — base "
                         "cores should have absorbed everything")
    if result.accelerated_share != 0.0:
        return ScenarioResult(
            name, False,
            f"accelerated_share={result.accelerated_share:.2f} with zero "
            "live extension cores")
    return ScenarioResult(
        name, True,
        f"base cores absorbed all {len(tasks)} tasks downgraded; "
        f"{stats.summary()}")


SCENARIOS: dict[str, Callable[[Optional[int]], ScenarioResult]] = {
    "ext-core-loss": scenario_ext_core_loss,
    "flaky-core": scenario_flaky_core,
    "lost-migration": scenario_lost_migration,
    "corrupted-checkpoint": scenario_corrupted_checkpoint,
    "all-ext-cores-dead": scenario_all_ext_cores_dead,
}


def run_scenario(name: str, *, seed: Optional[int] = None) -> ScenarioResult:
    """Run one scenario; any non-structured escape is itself a failure."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown resilience scenario {name!r}; choose from "
            f"{sorted(SCENARIOS)} or 'all'") from None
    try:
        return fn(seed)
    except Exception as exc:  # noqa: BLE001 — tracebacks are the failure mode
        return ScenarioResult(
            name, False,
            f"python-crash: {type(exc).__name__}: {exc} "
            f"({replay_hint(resolve_seed(seed))})")


def run_all(seed: Optional[int] = None) -> list[ScenarioResult]:
    return [run_scenario(name, seed=seed) for name in SCENARIOS]
