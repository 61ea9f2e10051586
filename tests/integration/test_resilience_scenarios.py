"""End-to-end resilience: named scenarios + the 1000-task fault run."""

import pytest

from repro.core.machine_runner import HeteroTask, MeasuredScheduler, varied_taskset
from repro.core.scheduler import ScheduleResult
from repro.resilience.failures import (
    FLAKE_CORE,
    KILL_CORE,
    CoreFailureInjector,
    FailureEvent,
)
from repro.resilience.scenarios import SCENARIOS, _forward_progress, run_all, run_scenario


class TestNamedScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_passes(self, name):
        result = run_scenario(name, seed=0)
        assert result.passed, f"{name}: {result.detail}"

    def test_run_all_covers_the_required_five(self):
        names = {r.name for r in run_all(seed=0)}
        assert names == {
            "ext-core-loss", "flaky-core", "lost-migration",
            "corrupted-checkpoint", "all-ext-cores-dead",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("meteor-strike")


class TestForwardProgressCheck:
    """The check every scenario shares must catch a task that neither
    finished nor ended in an UnrecoverableFault."""

    @staticmethod
    def _result(finished: list[int], unrecoverable: int = 0) -> ScheduleResult:
        return ScheduleResult(
            system="chimera", makespan=1, cpu_time=1, tasks_total=4,
            ext_tasks=0, accelerated_ext_tasks=0, migrations=0, steals=0,
            per_core_busy=[1], per_task_cycles={i: 1 for i in finished},
            unrecoverable=unrecoverable)

    def test_silent_drop_fails(self):
        verdict = _forward_progress("drop", self._result([0, 1, 2]), 4)
        assert verdict is not None and not verdict.passed
        assert "3/4 tasks accounted for" in verdict.detail

    def test_counted_failure_passes(self):
        result = self._result([0, 1, 2], unrecoverable=1)
        assert result.completed == 3
        assert _forward_progress("counted", result, 4) is None


def thousand_task_mix() -> list[HeteroTask]:
    """1000 tasks, half extension, sizes cycled over a few small values
    so the per-cell binary cache keeps the run fast."""
    tasks = []
    for i in range(1000):
        if i % 2 == 0:
            tasks.append(HeteroTask(i, "ext", (4, 6, 8)[i % 3]))
        else:
            tasks.append(HeteroTask(i, "base", (60, 100, 140)[i % 3]))
    return tasks


class TestThousandTaskFaultRun:
    def test_measured_scheduler_survives_injected_failures(self):
        tasks = thousand_task_mix()
        injector = CoreFailureInjector(
            [FailureEvent(KILL_CORE, core_id=2, task_kind="ext",
                          after_instructions=150),
             FailureEvent(FLAKE_CORE, core_id=0, after_instructions=80)],
            seed=0)
        result = MeasuredScheduler(2, 2).run(tasks, "chimera",
                                             injector=injector)
        stats = result.resilience
        # Every task is accounted for: completed or structurally failed.
        assert result.completed + result.unrecoverable == 1000
        assert result.unrecoverable == 0
        assert result.failures == 0  # workloads self-verify
        # The ladder actually engaged.
        assert stats.quarantines >= 1
        assert stats.checkpointed_migrations >= 1
        assert stats.core_faults == 2
        assert 2 in result.quarantined_cores
        # Three cores kept the system productive.
        assert result.makespan > 0
        assert result.ext_tasks == 500


class TestSeededVariedTaskset:
    def test_env_seed_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUZZ_SEED", "321")
        a = varied_taskset(30, 0.5)
        monkeypatch.delenv("REPRO_FUZZ_SEED")
        b = varied_taskset(30, 0.5, seed=321)
        assert a == b

    def test_default_seed_stable_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUZZ_SEED", raising=False)
        assert varied_taskset(20, 0.5) == varied_taskset(20, 0.5)

    @pytest.mark.parametrize("n_tasks,share", [(5, 0.3), (4, 0.2), (6, 0.1)])
    def test_explicit_seed_ignores_env(self, monkeypatch, n_tasks, share):
        """An explicit seed fixes the whole mix, including the kinds the
        rounding-drift repair of mixed_taskset picks."""
        monkeypatch.setenv("REPRO_FUZZ_SEED", "1")
        a = varied_taskset(n_tasks, share, seed=5)
        monkeypatch.setenv("REPRO_FUZZ_SEED", "2")
        b = varied_taskset(n_tasks, share, seed=5)
        assert a == b

    def test_explicit_seed_changes_sizes(self):
        a = varied_taskset(30, 0.5, seed=1)
        b = varied_taskset(30, 0.5, seed=2)
        assert a != b
        # Kinds are seed-independent; only sizes vary.
        assert [t.kind for t in a] == [t.kind for t in b]
