"""Run one task on one core, fault-tolerantly.

The bridge between the schedulers and the simulator: load (or restore) a
process, arm any scripted core failure as a :class:`Cpu.step_hook`, run
through the simulated kernel, and classify the outcome.  A core failure
interrupts execution at an instruction boundary and comes back as a
checkpoint the scheduler can migrate; a corrupt checkpoint is detected
here and reported for a restart from entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.elf.binary import Binary
from repro.elf.loader import make_process
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.failures import CoreFailureInjector, FailureEvent, KILL_CORE
from repro.sim.cost import ArchParams, DEFAULT_ARCH
from repro.sim.faults import CheckpointCorruptFault, CoreFault, SimFault
from repro.sim.machine import Core, Kernel, RunResult


@dataclass
class TaskExecution:
    """Outcome of one execution attempt of one task on one core."""

    cycles: int
    ok: bool
    fault: Optional[SimFault] = None
    exit_code: int = 0
    #: Set when the core failed mid-task: "dead" or "flaky".
    core_failure: Optional[str] = None
    #: Checkpoint taken at the failure boundary (may be corrupt —
    #: detected only at restore time, like the real thing).
    checkpoint: Optional[Checkpoint] = None
    #: The attempt started from a checkpoint that failed validation.
    checkpoint_corrupt: bool = False
    #: The attempt resumed successfully from a checkpoint.
    resumed: bool = False


def run_task_on_core(
    binary: Binary,
    runtime_factory: Optional[Callable[[Kernel], object]],
    core: Core,
    *,
    task_id: int,
    arch: ArchParams = DEFAULT_ARCH,
    max_instructions: int = 5_000_000,
    max_steps: Optional[int] = None,
    checkpoint: Optional[Checkpoint] = None,
    fail_event: Optional[FailureEvent] = None,
    injector: Optional[CoreFailureInjector] = None,
) -> TaskExecution:
    """Execute *binary* on *core*, optionally resuming from *checkpoint*.

    *runtime_factory* installs the system's runtime into the fresh kernel
    and returns it (or None).  *fail_event* arms a mid-task core failure;
    *injector* gets a chance to corrupt the resulting checkpoint.
    """
    kernel = Kernel(arch)
    runtime = runtime_factory(kernel) if runtime_factory is not None else None
    process = make_process(binary)
    cpu = kernel.make_cpu(process, core)

    resumed = False
    if checkpoint is not None:
        try:
            checkpoint.restore(cpu, process, runtime=runtime)
        except CheckpointCorruptFault as fault:
            return TaskExecution(cycles=0, ok=False, fault=fault,
                                 checkpoint_corrupt=True)
        resumed = True
    start_cycles = cpu.cycles

    if fail_event is not None:
        fail_at = cpu.instret + (fail_event.after_instructions or 1)
        mode = "dead" if fail_event.kind == KILL_CORE else "flaky"
        core_id = core.core_id

        def _fail_hook(c, _at=fail_at, _mode=mode, _core=core_id):
            if c.instret >= _at:
                raise CoreFault(_core, _mode)

        cpu.step_hook = _fail_hook

    result: RunResult = kernel.run(
        process, core, cpu=cpu, max_instructions=max_instructions,
        max_steps=max_steps,
    )
    cycles = cpu.cycles - start_cycles

    if isinstance(result.fault, CoreFault):
        cpu.step_hook = None
        if result.fault.mode == "dead":
            core.mark_dead()
        else:
            core.mark_flaky()
        ck = Checkpoint.take(
            cpu, process, task_id=task_id, core_id=core.core_id,
            pool_ext=core.is_extension_core, runtime=runtime,
        )
        if injector is not None:
            injector.filter_checkpoint(ck)
        return TaskExecution(
            cycles=cycles, ok=False, fault=result.fault,
            core_failure=result.fault.mode, checkpoint=ck, resumed=resumed,
        )
    return TaskExecution(
        cycles=cycles, ok=result.ok, fault=result.fault,
        exit_code=result.exit_code, resumed=resumed,
    )
