"""Work-stealing discrete-event scheduler tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import (
    ScheduleResult,
    SystemModel,
    Task,
    WorkStealingScheduler,
    mixed_taskset,
)
from repro.sim.cost import ArchParams

ARCH = ArchParams()


def simple_model(base_cost=100, ext_cost=50, ext_on_base=200, name="m") -> SystemModel:
    return SystemModel(
        name,
        costs={("base", False): base_cost, ("base", True): base_cost,
               ("ext", True): ext_cost, ("ext", False): ext_on_base},
        accelerated_placements=frozenset({("ext", True)}),
    )


def fam_model() -> SystemModel:
    return SystemModel(
        "fam",
        costs={("base", False): 100, ("base", True): 100,
               ("ext", True): 50, ("ext", False): None},
        accelerated_placements=frozenset({("ext", True)}),
        migrate_on_unsupported=True,
        detect_cycles=10,
    )


class TestTasksets:
    def test_share_counts(self):
        tasks = mixed_taskset(100, 0.3)
        assert sum(t.kind == "ext" for t in tasks) == 30
        assert len(tasks) == 100

    def test_extremes(self):
        assert all(t.kind == "base" for t in mixed_taskset(50, 0.0))
        assert all(t.kind == "ext" for t in mixed_taskset(50, 1.0))

    def test_interleaved_not_clustered(self):
        tasks = mixed_taskset(10, 0.5)
        kinds = [t.kind for t in tasks]
        assert kinds.count("ext") == 5
        # not all ext tasks at one end
        assert kinds[:5].count("ext") in (2, 3)

    def test_share_bounds(self):
        with pytest.raises(ValueError):
            mixed_taskset(10, 1.5)


class TestScheduling:
    def test_all_tasks_complete(self):
        sched = WorkStealingScheduler(2, 2, ARCH)
        result = sched.run(mixed_taskset(100, 0.5), simple_model())
        assert result.tasks_total == 100
        assert result.cpu_time > 0

    def test_single_core_serializes(self):
        sched = WorkStealingScheduler(1, 0, ARCH)
        result = sched.run([Task(i, "base") for i in range(10)], simple_model())
        assert result.makespan == 10 * 100

    def test_parallel_speedup(self):
        tasks = [Task(i, "base") for i in range(40)]
        t1 = WorkStealingScheduler(1, 0, ARCH).run(tasks, simple_model()).makespan
        t4 = WorkStealingScheduler(4, 0, ARCH).run(tasks, simple_model()).makespan
        assert t4 <= t1 / 3.5

    def test_stealing_uses_idle_pool(self):
        # Only ext tasks: base workers must steal to contribute.
        tasks = [Task(i, "ext") for i in range(40)]
        result = WorkStealingScheduler(2, 2, ARCH).run(tasks, simple_model())
        assert result.steals > 0
        busy_base = sum(result.per_core_busy[:2])
        assert busy_base > 0

    def test_accelerated_share_tracks_placement(self):
        tasks = [Task(i, "ext") for i in range(40)]
        result = WorkStealingScheduler(2, 2, ARCH).run(tasks, simple_model())
        assert 0.0 < result.accelerated_share < 1.0  # some stolen to base

    def test_fam_migrates_and_pins(self):
        tasks = [Task(i, "ext") for i in range(20)]
        result = WorkStealingScheduler(2, 2, ARCH).run(tasks, fam_model())
        assert result.migrations > 0
        # Every migration here is a base core stealing an extension
        # task, and a steal counts when it is taken, not when it ends.
        assert result.steals >= result.migrations
        assert result.accelerated_share == 1.0  # all end up on ext cores
        # Each migration is bounced back exactly once (pinning works).
        assert result.migrations <= len(tasks)

    def test_fam_never_runs_ext_on_base(self):
        tasks = mixed_taskset(60, 0.5)
        result = WorkStealingScheduler(2, 2, ARCH).run(tasks, fam_model())
        assert result.accelerated_share == 1.0

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=60),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_work_conservation_property(self, nb, ne, n, share):
        """CPU time >= total task compute; makespan >= cpu_time / cores."""
        sched = WorkStealingScheduler(nb, ne, ARCH)
        model = simple_model()
        tasks = mixed_taskset(n, share)
        result = sched.run(tasks, model)
        compute = sum(
            model.cost(t.kind, True) if t.kind == "ext" else model.cost(t.kind, False)
            for t in tasks
        )
        assert result.cpu_time >= min(compute, n)  # at least the cheap bound
        assert result.makespan * (nb + ne) >= result.cpu_time
        assert result.makespan <= result.cpu_time + 1  # no time travel

    def test_empty_taskset(self):
        result = WorkStealingScheduler(2, 2, ARCH).run([], simple_model())
        assert result.makespan == 0 and result.cpu_time == 0
