"""Measured-execution heterogeneous scheduling.

The discrete-event engine in :mod:`repro.core.scheduler` replays *one*
measured cost per (system, task kind, core kind) cell.  This module is
the heavyweight cross-check: every task is a *real binary* (its own
size, its own rewritten variants) executed through the full simulator
stack — CHBP-rewritten images, Chimera runtime fault handling, FAM
migration with architectural context transfer.  It is only a cost
source: the work-stealing event loop, quarantine and retry ladder are
:func:`repro.core.scheduler.schedule`, the same loop the DES runs.
Benchmarks compare the two engines' makespans to validate the DES
abstraction (EXPERIMENTS.md deviation #6).

What the measured source adds to that loop: a core failure leaves a
checksummed checkpoint, so the orphaned task resumes on the same pool
flavor instead of restarting from entry; a dropped migration, a
foreign-flavor image or a corrupt checkpoint restarts it from entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.baselines.safer import SaferRewriter, SaferRuntime
from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.core.scheduler import (
    CHECKPOINT_CORRUPT,
    CORE_FAILURE,
    DONE,
    FAM_MIGRATE,
    Attempt,
    CostSource,
    Pending,
    ScheduleResult,
    mixed_taskset,
    schedule,
)
from repro.elf.binary import Binary
from repro.isa.extensions import RV64GC, RV64GCV
from repro.resilience.executor import run_task_on_core
from repro.resilience.failures import CoreFailureInjector
from repro.resilience.policy import RetryPolicy
from repro.resilience.seeds import resolve_seed
from repro.sim.cost import ArchParams, DEFAULT_ARCH
from repro.sim.faults import IllegalInstructionFault
from repro.sim.machine import Machine
from repro.telemetry import MetricsRegistry

#: Systems the measured runner implements.
SYSTEMS = ("fam", "melf", "chimera", "safer")


@dataclass(frozen=True)
class HeteroTask:
    """One §6.1-style task with its own size."""

    task_id: int
    kind: str   # "base" (fibonacci) | "ext" (matmul)
    size: int   # fib iterations / matrix dimension


def _build_task_binary(kind: str, size: int, variant: str) -> Binary:
    from repro.workloads.programs import FibonacciWorkload, MatMulWorkload

    if kind == "base":
        return FibonacciWorkload(iterations=size).build(variant)
    return MatMulWorkload(n=size).build(variant)


@lru_cache(maxsize=512)
def _prepared_binary(system: str, kind: str, size: int, on_ext: bool) -> tuple:
    """(binary, runtime factory descriptor) ready to run for one cell."""
    if system == "melf":
        variant = "ext" if (kind == "ext" and on_ext) else "base"
        return _build_task_binary(kind, size, variant), None
    if system == "fam":
        # FAM always runs the extension-compiled binary as-is.
        variant = "ext" if kind == "ext" else "base"
        return _build_task_binary(kind, size, variant), None
    rewriter = {"chimera": ChimeraRewriter, "safer": SaferRewriter}[system]
    source = _build_task_binary(kind, size, "ext" if kind == "ext" else "base")
    profile = RV64GCV if on_ext else RV64GC
    return rewriter().rewrite(source, profile).binary, system


class _MeasuredCosts(CostSource):
    """Costs measured by executing each attempt's real binary."""

    engine = "measured"
    checkpoints = True

    def __init__(self, runner: "MeasuredScheduler", system: str,
                 injector: Optional[CoreFailureInjector]):
        self.runner = runner
        self.system = system
        self.injector = injector
        self.cores = Machine.isax(runner.n_base, runner.n_ext, runner.params).cores

    def home_pool(self, task: HeteroTask) -> bool:
        return task.kind == "ext"

    def may_fall_back(self, pending: Pending, to_ext: bool) -> bool:
        # Only FAM-migrated tasks are pinned here, and FAM has no
        # downgraded image to fall back to.
        return not pending.pinned

    def attempt(self, worker: int, on_ext: bool, pending: Pending, start: int,
                metrics: MetricsRegistry) -> Attempt:
        task = pending.task
        injector = self.injector
        checkpoint = pending.checkpoint
        if checkpoint is not None:
            if injector is not None and injector.migration_dropped(task.task_id):
                # MigrationLostFault territory: the in-flight image is
                # gone; structured accounting, restart from entry.
                metrics.inc("resilience.migrations_lost")
                metrics.inc("resilience.restarts", reason="migration-lost")
                checkpoint = None
            elif checkpoint.pool_ext != on_ext:
                # Foreign-flavor image; restart from entry here.
                metrics.inc("resilience.restarts", reason="foreign-flavor")
                checkpoint = None

        fail_event = None
        if injector is not None:
            fail_event = injector.plan_execution(worker, task.task_id, task.kind)
        binary, runtime_kind = _prepared_binary(self.system, task.kind,
                                                task.size, on_ext)
        factory = None
        runtimes = []   # the one runtime the factory builds, if any
        if runtime_kind is not None:
            def factory(kernel):
                # self_heal: an unexpected fault in a patched region
                # quarantines that one patch (verified patching) instead
                # of killing the task with UnrecoverableFault.
                runtime = (ChimeraRuntime(binary, self_heal=True)
                           if runtime_kind == "chimera" else SaferRuntime(binary))
                runtime.install(kernel)
                runtimes.append(runtime)
                return runtime
        runner = self.runner
        execution = run_task_on_core(
            binary, factory, self.cores[worker],
            task_id=task.task_id, arch=runner.params,
            max_instructions=runner.max_instructions, max_steps=runner.max_steps,
            checkpoint=checkpoint, fail_event=fail_event, injector=injector,
        )

        if runtimes and runtime_kind == "chimera":
            heal = runtimes[0].stats
            if heal.patch_rollbacks:
                metrics.inc("resilience.patch_rollbacks", heal.patch_rollbacks)
            if heal.patch_readmissions:
                metrics.inc("resilience.patch_readmissions",
                            heal.patch_readmissions)
        if execution.checkpoint_corrupt:
            return Attempt(CHECKPOINT_CORRUPT)
        if execution.core_failure is not None:
            return Attempt(CORE_FAILURE, execution.cycles,
                           core_failure=execution.core_failure,
                           core_dead=execution.core_failure == "dead",
                           checkpoint=execution.checkpoint)
        if (self.system == "fam" and not on_ext
                and isinstance(execution.fault, IllegalInstructionFault)
                and execution.fault.kind == "unsupported-extension"):
            return Attempt(FAM_MIGRATE, execution.cycles)
        if execution.resumed and checkpoint is not None \
                and checkpoint.core_id != worker:
            metrics.inc("resilience.checkpointed_migrations")
        return Attempt(DONE, execution.cycles, ok=execution.ok,
                       accelerated=on_ext and execution.ok)


class MeasuredScheduler:
    """Work-stealing over real task executions (the DES's event loop)."""

    def __init__(self, n_base: int, n_ext: int, params: ArchParams = DEFAULT_ARCH,
                 *, max_instructions: int = 5_000_000,
                 max_steps: Optional[int] = None):
        self.n_base = n_base
        self.n_ext = n_ext
        self.params = params
        self.max_instructions = max_instructions
        #: Kernel-entry watchdog budget per execution (None = default).
        self.max_steps = max_steps

    def run(self, tasks: list[HeteroTask], system: str, *,
            injector: Optional[CoreFailureInjector] = None,
            retry_policy: Optional[RetryPolicy] = None,
            quarantine_after: int = 2) -> ScheduleResult:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}")
        return schedule(tasks, _MeasuredCosts(self, system, injector),
                        self.n_base, self.n_ext, self.params,
                        retry_policy=retry_policy,
                        quarantine_after=quarantine_after)


def varied_taskset(n_tasks: int, ext_share: float, *,
                   seed: Optional[int] = None) -> list[HeteroTask]:
    """A §6.1-style mix with per-task size variation.

    *seed* defaults to ``REPRO_FUZZ_SEED`` when set, else 11 (the
    historical default), for parity with the differential fuzz suite.
    """
    seed = resolve_seed(seed, default=11)
    rng = random.Random(seed)
    tasks = []
    for t in mixed_taskset(n_tasks, ext_share, seed=seed):
        if t.kind == "base":
            size = rng.randrange(2000, 6001, 500)
        else:
            size = rng.choice((8, 10, 12, 14))
        tasks.append(HeteroTask(t.task_id, t.kind, size))
    return tasks
