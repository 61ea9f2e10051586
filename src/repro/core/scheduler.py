"""Heterogeneous work-stealing scheduling (paper §6.1).

The evaluation's scheduling experiments run 1000 mixed tasks over two
worker pools (base cores / extension cores) with work stealing: a worker
takes from its own pool's queue first and steals from the other pool
only when its own pool has run dry.  Task *costs* are measured by
running the actual (rewritten) binaries in the CPU simulator; the
discrete-event engine here then replays the same 1000-task mixes per
system, which is exactly how the paper's numbers are shaped (per-task
compute is fixed by the binary; the systems differ in where tasks may
run and at what cost).

One event loop, :func:`schedule`, runs that policy for both engines.  A
:class:`CostSource` decides only what one attempt costs and where a task
belongs: :class:`ModelCosts` reads a :class:`SystemModel` table (the
DES behind Fig. 11/12/14), and the measured source in
:mod:`repro.core.machine_runner` executes real binaries in the
simulator.  The loop owns everything else — the pool queues and the
``(time, worker)`` heap, take/steal, backoff, wake and drain,
quarantine, the retry/deadline/degradation ladder, FAM fault-and-migrate
pinning, and the metrics ledger.

System behavior is abstracted by :class:`SystemModel`:

* ``cost(kind, on_ext)`` — cycles for one task of *kind* on a core type
  (``None`` = cannot run there, e.g. FAM's extension tasks on base
  cores);
* ``accelerated(kind, on_ext)`` — whether that placement counts as
  vector-accelerated (Fig. 12);
* ``migrate_on_unsupported`` — FAM's fault-and-migrate behavior: the
  task faults on the base core after ``detect_cycles`` and is re-queued
  to the extension pool, paying the migration cost.

Fault tolerance: a :class:`~repro.resilience.failures.DesFailurePlan`
(DES) or :class:`~repro.resilience.failures.CoreFailureInjector`
(measured) kills or flakes workers mid-task.  Failed workers are
quarantined (dead at once, flaky past a threshold), orphaned tasks are
re-queued with exponential backoff — resuming from a checkpoint when the
source left one — extension tasks fall back to base cores when the
extension pool is gone (where the source can run them there), and a
task with nowhere left to run ends in a structured
:class:`~repro.sim.faults.UnrecoverableFault` entry on the result —
never a silent drop, never a livelock.

This degradation ladder composes with verified patching's *per-patch*
rung below it (see DESIGN.md "Verified patching"): the measured source
executes Chimera tasks under ``ChimeraRuntime(self_heal=True)``, so an
unexpected fault inside one patched region quarantines just that patch
(rolled back to the trap-fallback encoding, surfaced as
``resilience.patch_rollbacks``) and the task keeps running — task-level
retry, core quarantine, and pool-level downgrade only engage when
healing cannot contain the damage.  The model table models core/task
failures only; per-patch healing is below its cost-model resolution.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.resilience.failures import DesFailurePlan
from repro.resilience.policy import DEFAULT_RETRY_POLICY, ResilienceStats, RetryPolicy
from repro.resilience.seeds import resolve_seed
from repro.sim.cost import ArchParams, DEFAULT_ARCH
from repro.sim.faults import UnrecoverableFault
from repro.telemetry import MetricsRegistry, current as telemetry_current


@dataclass(frozen=True)
class Task:
    """One schedulable unit of the §6.1 workload."""

    task_id: int
    kind: str  # "base" | "ext"


@dataclass
class SystemModel:
    """Per-system scheduling behavior (costs in cycles)."""

    name: str
    #: (task kind, on extension core) -> cycles, or None if it cannot run.
    costs: dict[tuple[str, bool], Optional[int]]
    #: placements that count as vector-accelerated.
    accelerated_placements: frozenset[tuple[str, bool]] = frozenset()
    #: FAM: unsupported-instruction fault triggers migration to ext pool.
    migrate_on_unsupported: bool = False
    #: cycles a base core burns before hitting the unsupported instruction.
    detect_cycles: int = 1000

    def cost(self, kind: str, on_ext: bool) -> Optional[int]:
        return self.costs[(kind, on_ext)]

    def accelerated(self, kind: str, on_ext: bool) -> bool:
        return (kind, on_ext) in self.accelerated_placements


@dataclass
class ScheduleResult:
    """Outcome of one scheduling run (either engine)."""

    system: str
    makespan: int          # end-to-end latency, cycles
    cpu_time: int          # accumulated busy cycles across all cores
    tasks_total: int
    ext_tasks: int
    accelerated_ext_tasks: int
    migrations: int
    steals: int
    per_core_busy: list[int]
    #: task_id -> cycles of the attempt that completed it.
    per_task_cycles: dict[int, int] = field(default_factory=dict)
    #: Completed tasks whose result failed self-verification.
    failures: int = 0
    #: Tasks that ended in a structured UnrecoverableFault.
    unrecoverable: int = 0
    #: task_id -> the UnrecoverableFault that ended it.
    task_faults: dict[int, UnrecoverableFault] = field(default_factory=dict)
    quarantined_cores: tuple[int, ...] = ()
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    @property
    def completed(self) -> int:
        return len(self.per_task_cycles)

    @property
    def accelerated_share(self) -> float:
        """Fraction of extension tasks that ran vector-accelerated (Fig. 12;
        0 when the degradation ladder pushed them all to base cores)."""
        if self.ext_tasks == 0:
            return 0.0
        return self.accelerated_ext_tasks / self.ext_tasks


@dataclass
class Pending:
    """A queued task plus its retry/checkpoint state."""

    task: Any              # Task or HeteroTask: task_id + kind
    #: May not be stolen across pools: FAM-migrated (no downgraded image)
    #: or pinned home because it cannot run on the other flavor.
    pinned: bool = False
    attempt: int = 1
    #: State to resume from; the image matches exactly one core flavor,
    #: so a checkpointed resume is not stolen either.
    checkpoint: Any = None
    not_before: int = 0    # earliest dispatch time (backoff)
    first_start: Optional[int] = None

    @property
    def stealable(self) -> bool:
        return not self.pinned and self.checkpoint is None


#: Outcomes of one attempt.
DONE = "done"
CORE_FAILURE = "core-failure"
FAM_MIGRATE = "fam-migrate"          # unsupported instruction on a base core
CANNOT_RUN = "cannot-run"            # no cost on this flavor: pin it home
CHECKPOINT_CORRUPT = "checkpoint-corrupt"


@dataclass
class Attempt:
    """What one attempt of one task on one worker came to."""

    outcome: str
    cycles: int = 0
    #: DONE: the task's result self-verified / ran vector-accelerated.
    ok: bool = True
    accelerated: bool = False
    #: CORE_FAILURE: the source's word for the failure (reason text),
    #: whether the core died (quarantined at once; else it flaked), and
    #: any checkpoint taken at it.
    core_failure: Optional[str] = None
    core_dead: bool = False
    checkpoint: Any = None


class CostSource:
    """What one engine charges for an attempt, and where a task belongs.

    :func:`schedule` owns the policy; a source answers only the
    questions on which the DES and measured execution differ.
    """

    #: ``engine`` label on the merged telemetry series.
    engine = ""
    #: Attempts can leave checkpoints, so a retry from entry is counted
    #: as a restart.
    checkpoints = False
    system = ""

    def home_pool(self, task) -> bool:
        """The pool (True = extension) a fresh attempt of *task* queues in."""
        raise NotImplementedError

    def may_fall_back(self, pending: Pending, to_ext: bool) -> bool:
        """May *pending* be requeued to the *to_ext* flavor when its own
        pool has no live core left?"""
        raise NotImplementedError

    def attempt(self, worker: int, on_ext: bool, pending: Pending, start: int,
                metrics: MetricsRegistry) -> Attempt:
        """Run (or model) one attempt of *pending* on *worker* at *start*."""
        raise NotImplementedError


class ModelCosts(CostSource):
    """Costs read from a :class:`SystemModel` table (the DES)."""

    engine = "des"

    def __init__(self, model: SystemModel, failures: Optional[DesFailurePlan]):
        self.model = model
        self.failures = failures
        self.system = model.name

    def home_pool(self, task) -> bool:
        # Extension tasks go to the extension pool when it can help;
        # everything else starts in the base pool.
        return task.kind == "ext" and self.model.cost("ext", True) is not None

    def may_fall_back(self, pending: Pending, to_ext: bool) -> bool:
        # A downgraded binary runs there, or FAM migrates it back.
        return (self.model.cost(pending.task.kind, to_ext) is not None
                or self.model.migrate_on_unsupported)

    def attempt(self, worker: int, on_ext: bool, pending: Pending, start: int,
                metrics: MetricsRegistry) -> Attempt:
        model = self.model
        kind = pending.task.kind
        cost = model.cost(kind, on_ext)
        if cost is None:
            if model.migrate_on_unsupported and not on_ext:
                return Attempt(FAM_MIGRATE, model.detect_cycles)
            return Attempt(CANNOT_RUN)
        # The worker may fail mid-task ("mid" = a fraction of the cost).
        struck = self.failures.check(worker, start) if self.failures else None
        if struck is not None:
            return Attempt(CORE_FAILURE, int(cost * self.failures.fail_fraction),
                           core_failure=struck, core_dead=struck == "kill")
        return Attempt(DONE, cost, accelerated=model.accelerated(kind, on_ext))


def schedule(tasks: list, source: CostSource, n_base: int, n_ext: int,
             params: ArchParams = DEFAULT_ARCH, *,
             retry_policy: Optional[RetryPolicy] = None,
             quarantine_after: int = 2) -> ScheduleResult:
    """Work-steal *tasks* to completion over ``n_base`` + ``n_ext``
    workers, charging each attempt what *source* says it costs."""
    policy = retry_policy or DEFAULT_RETRY_POLICY
    n = n_base + n_ext
    is_ext = [i >= n_base for i in range(n)]
    queues: dict[bool, deque[Pending]] = {False: deque(), True: deque()}
    for task in tasks:
        queues[source.home_pool(task)].append(Pending(task))

    free_at = [0] * n
    busy = [0] * n
    heap: list[tuple[int, int]] = [(0, i) for i in range(n)]
    heapq.heapify(heap)
    idle: set[int] = set()
    outstanding = len(tasks)
    per_task: dict[int, int] = {}
    makespan = 0
    #: Single source of truth for every event counter of this run;
    #: the result ledger and ResilienceStats are *derived* from it,
    #: so the two can no longer drift apart.
    m = MetricsRegistry()
    quarantined: set[int] = set()
    flake_counts = [0] * n
    task_faults: dict[int, UnrecoverableFault] = {}

    def pool_live(pool: bool) -> bool:
        return any(is_ext[i] == pool and i not in quarantined for i in range(n))

    def wake(pool: bool, when: int) -> None:
        """Wake the earliest-idle live worker — preferring *pool*,
        falling back to the other flavor (which can steal the work)."""
        live = [w for w in idle if w not in quarantined]
        if live:
            w = min(live, key=lambda w: (is_ext[w] != pool, free_at[w]))
            idle.discard(w)
            heapq.heappush(heap, (max(when, free_at[w]), w))

    def candidates(my_pool: bool):
        """(queue, index, pending, stolen) a *my_pool* worker may run:
        its own pool first, then stealable work of the other."""
        for stolen in (False, True):
            queue = queues[my_pool != stolen]
            for idx, pending in enumerate(queue):
                if not stolen or pending.stealable:
                    yield queue, idx, pending, stolen

    def take(my_pool: bool, now: int) -> Optional[tuple[Pending, bool]]:
        """Next runnable Pending for a *my_pool* worker at *now*."""
        for queue, idx, pending, stolen in candidates(my_pool):
            if pending.not_before <= now:
                del queue[idx]
                return pending, stolen
        return None

    def next_ready(my_pool: bool, now: int) -> Optional[int]:
        """Earliest not_before of work this worker could run later."""
        return min((p.not_before for _, _, p, _ in candidates(my_pool)
                    if p.not_before > now), default=None)

    def quarantine(w: int, now: int) -> None:
        if w in quarantined:
            return
        quarantined.add(w)
        m.inc("resilience.quarantines")
        pool = is_ext[w]
        if pool_live(pool):
            return
        # The pool just lost its last live core.  Checkpointed resumes
        # queued here must restart from entry on the other flavor;
        # stealable work gets stolen naturally; the rest has nowhere to
        # go and hits the drain accounting.
        for pending in list(queues[pool]):
            if pending.checkpoint is not None and pool_live(not pool) \
                    and source.may_fall_back(pending, not pool):
                m.inc("resilience.restarts", reason="pool-lost")
                queues[pool].remove(pending)
                pending.checkpoint = None
                queues[not pool].append(pending)
                wake(not pool, max(now, pending.not_before))

    def declare_unrecoverable(pending: Pending, reason: str) -> None:
        nonlocal outstanding
        m.inc("resilience.unrecoverable_tasks")
        task_faults[pending.task.task_id] = UnrecoverableFault(
            reason, attempts=pending.attempt)
        outstanding -= 1

    def requeue(pending: Pending, now: int, *, checkpoint, reason: str) -> None:
        """Schedule a retry after a failed attempt, or give up."""
        task = pending.task
        attempt = pending.attempt + 1
        if policy.exhausted(attempt):
            declare_unrecoverable(
                pending, f"task {task.task_id}: {reason}; retry budget "
                         f"exhausted after {pending.attempt} attempts")
            return
        if pending.first_start is not None and policy.past_deadline(
                pending.first_start, now):
            declare_unrecoverable(
                pending, f"task {task.task_id}: {reason}; past the "
                         f"{policy.deadline}-cycle deadline")
            return
        # Resume on the checkpoint's flavor; otherwise go home.
        pool = checkpoint.pool_ext if checkpoint is not None \
            else source.home_pool(task)
        pinned = pending.pinned
        if not pool_live(pool):
            # Degradation ladder: steer to the surviving flavor and
            # restart from entry (the binary differs per flavor).
            if not pool_live(not pool) or not source.may_fall_back(pending, not pool):
                declare_unrecoverable(
                    pending, f"task {task.task_id}: {reason}; no live "
                             "core can run it")
                return
            pool = not pool
            pinned = False
            checkpoint = None
        backoff = policy.backoff(attempt - 1)
        m.inc("resilience.retries")
        m.inc("resilience.backoff_cycles", backoff)
        m.inc("resilience.migrations")
        if checkpoint is None and source.checkpoints:
            m.inc("resilience.restarts", reason="no-checkpoint")
        queues[pool].append(Pending(
            task, pinned=pinned, attempt=attempt, checkpoint=checkpoint,
            not_before=now + backoff, first_start=pending.first_start))
        wake(pool, now + backoff)

    while heap:
        now, w = heapq.heappop(heap)
        if w in quarantined:
            continue
        my_pool = is_ext[w]
        m.observe("sched.queue_depth", len(queues[my_pool]),
                  pool="ext" if my_pool else "base")
        taken = take(my_pool, now)
        if taken is None:
            later = next_ready(my_pool, now)
            if later is not None:
                # Work exists but is backing off; come back for it.
                heapq.heappush(heap, (later, w))
            elif outstanding > 0:
                idle.add(w)
                free_at[w] = now
            continue
        pending, stolen = taken
        task = pending.task
        start = now
        if stolen:
            start += params.steal_cost
            m.inc("sched.steals", core=w)
        if pending.first_start is None:
            pending.first_start = start
        result = source.attempt(w, my_pool, pending, start, m)

        if result.outcome == CHECKPOINT_CORRUPT:
            # Detected at restore: the core did no work; retry from
            # entry after backoff.
            m.inc("resilience.checkpoint_failures")
            free_at[w] = now
            requeue(pending, now, checkpoint=None,
                    reason="checkpoint failed validation")
            heapq.heappush(heap, (now, w))
            continue

        if result.outcome == CANNOT_RUN:
            # Pin it to its own pool — unless that pool has no live
            # worker, in which case the task is unrunnable and must be
            # accounted, not parked forever.
            home = task.kind == "ext"
            idle.add(w)
            free_at[w] = now
            if not pool_live(home):
                declare_unrecoverable(
                    pending, f"task {task.task_id}: cannot run on this "
                             "core flavor and its own pool has no live "
                             "worker")
                continue
            pending.pinned = True
            queues[home].append(pending)
            wake(home, now)
            continue

        end = start + result.cycles
        if result.outcome == FAM_MIGRATE:
            # The worker is stalled until the migration completes but
            # only the detection burns CPU time (the rest is kernel /
            # cache latency).
            busy[w] += (start - now) + result.cycles
            end += params.migration_cost
        else:
            busy[w] += end - now
        free_at[w] = end
        makespan = max(makespan, end)

        if result.outcome == CORE_FAILURE:
            m.inc("resilience.core_faults", core=w)
            if result.core_dead:
                quarantine(w, end)
            else:
                flake_counts[w] += 1
                if flake_counts[w] >= quarantine_after:
                    quarantine(w, end)
                else:
                    heapq.heappush(heap, (end, w))
            requeue(pending, end, checkpoint=result.checkpoint,
                    reason=f"core {w} went {result.core_failure} mid-task")
            continue

        heapq.heappush(heap, (end, w))
        if result.outcome == FAM_MIGRATE:
            # Migrate to the extension pool and pin the task there so it
            # is not re-stolen.
            if not pool_live(True):
                # No live extension core and no downgraded binary:
                # structured failure, not a silent drop.
                declare_unrecoverable(
                    pending, f"task {task.task_id}: needs an extension "
                             "core but none is live")
                continue
            m.inc("sched.migrations", reason="fam-unsupported")
            queues[True].append(Pending(
                task, pinned=True, attempt=pending.attempt,
                first_start=pending.first_start))
            wake(True, end)
            continue

        if not result.ok:
            m.inc("sched.task_failures")
        per_task[task.task_id] = result.cycles
        outstanding -= 1
        if task.kind == "ext" and result.accelerated:
            m.inc("sched.accelerated_ext_tasks")

    # Drain: anything still queued has no live worker to run it.
    for pool in (False, True):
        while queues[pool]:
            pending = queues[pool].popleft()
            declare_unrecoverable(
                pending, f"task {pending.task.task_id}: stranded — no "
                         "live core can run it")

    stats = ResilienceStats.from_metrics(m)
    telemetry = telemetry_current()
    if telemetry.enabled:
        telemetry.metrics.merge(m, engine=source.engine, system=source.system)
    return ScheduleResult(
        system=source.system,
        makespan=makespan,
        cpu_time=sum(busy),
        tasks_total=len(tasks),
        ext_tasks=sum(1 for t in tasks if t.kind == "ext"),
        accelerated_ext_tasks=m.total("sched.accelerated_ext_tasks"),
        migrations=m.total("sched.migrations"),
        steals=m.total("sched.steals"),
        per_core_busy=busy,
        per_task_cycles=per_task,
        failures=m.total("sched.task_failures"),
        unrecoverable=stats.unrecoverable_tasks,
        task_faults=task_faults,
        quarantined_cores=tuple(sorted(quarantined)),
        resilience=stats,
    )


class WorkStealingScheduler:
    """Discrete-event work-stealing scheduler over two core pools."""

    def __init__(self, n_base: int, n_ext: int, params: ArchParams = DEFAULT_ARCH):
        self.n_base = n_base
        self.n_ext = n_ext
        self.params = params

    def run(self, tasks: list[Task], model: SystemModel, *,
            failures: Optional[DesFailurePlan] = None,
            retry_policy: Optional[RetryPolicy] = None,
            quarantine_after: int = 2) -> ScheduleResult:
        """Schedule *tasks* to completion under *model*."""
        return schedule(tasks, ModelCosts(model, failures), self.n_base,
                        self.n_ext, self.params, retry_policy=retry_policy,
                        quarantine_after=quarantine_after)


def mixed_taskset(n_tasks: int, ext_share: float, *,
                  seed: Optional[int] = None) -> list[Task]:
    """The §6.1 workload: *n_tasks* tasks, ``ext_share`` of them extension.

    Deterministic interleaving (round-robin by share) so runs are
    reproducible without RNG-order artifacts.  *seed* (default:
    ``REPRO_FUZZ_SEED``, else 7) only affects the rare rounding-drift
    repair — the common shares are seed-independent by construction.
    """
    if not 0.0 <= ext_share <= 1.0:
        raise ValueError("ext_share must be within [0, 1]")
    seed = resolve_seed(seed, default=7)
    n_ext = round(n_tasks * ext_share)
    # Spread extension tasks evenly through the arrival order.
    tasks: list[Task] = []
    acc = 0.0
    made_ext = 0
    for i in range(n_tasks):
        acc += ext_share
        if acc >= 1.0 - 1e-9 and made_ext < n_ext:
            tasks.append(Task(i, "ext"))
            made_ext += 1
            acc -= 1.0
        else:
            tasks.append(Task(i, "base"))
    # Fix rounding drift: promote seed-chosen base tasks to extension.
    if made_ext < n_ext:
        rng = random.Random(seed)
        base_positions = [i for i, t in enumerate(tasks) if t.kind == "base"]
        for i in rng.sample(base_positions, n_ext - made_ext):
            tasks[i] = Task(tasks[i].task_id, "ext")
    return tasks
