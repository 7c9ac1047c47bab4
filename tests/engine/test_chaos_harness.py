"""Contract tests for the chaos suites' fault harness (``tests/chaos.py``).

The chaos suites trust the harness to fire exactly where asked: a *once*
fault at a task's first execution in a worker and never again, an *every*
fault on each process-rung attempt and never on the sequential rung, and
the killing store right after its N-th cell write and not before.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from chaos import KINDS, ChaosPool, InjectedFault, KillingStore, _faulted, _Indexed
from repro.engine.resilience import ExecutionPolicy, RunReport


def _triple(value: int) -> int:
    return value * 3


def _pid_of(value: int) -> int:
    return os.getpid()


class TestChaosPool:
    def test_unknown_kind_and_double_booking_are_rejected(self):
        with pytest.raises(ValueError):
            ChaosPool(once={0: "explode"})
        with pytest.raises(ValueError):
            ChaosPool(once={0: "crash"}, every={0: "error"})

    def test_once_fault_fires_at_the_first_execution_only(self):
        report = RunReport()
        with ChaosPool(once={0: "error"}, max_workers=1) as pool:
            policy = ExecutionPolicy(retry_errors=True)
            assert pool.map(_triple, [1, 2], policy=policy, report=report) == [3, 6]
        assert report.task(0).outcomes == ["error", "ok"]
        assert report.task(1).outcomes == ["ok"]

    def test_once_fault_waits_for_the_first_execution_after_a_replay(self):
        # One worker: task 0 crashes it while task 1 is still queued, so
        # task 1's first submission is replayed without ever running.  Its
        # once fault fires at the replayed submission's execution instead.
        report = RunReport()
        policy = ExecutionPolicy(retry_errors=True)
        with ChaosPool(once={0: "crash", 1: "error"}, max_workers=1) as pool:
            assert pool.map(_triple, [1, 2], policy=policy, report=report) == [3, 6]
        assert report.task(0).outcomes == ["crash", "ok"]
        assert report.task(1).replays == 1
        assert report.task(1).outcomes == ["error", "ok"]

    def test_every_fault_fires_on_each_process_attempt(self):
        report = RunReport()
        policy = ExecutionPolicy(degrade_after=3, max_attempts=3)
        with ChaosPool(every={0: "crash"}, max_workers=1) as pool:
            assert pool.map(_triple, [1], policy=policy, report=report) == [3]
        assert report.task(0).outcomes == ["crash", "crash", "crash", "ok"]

    def test_every_fault_never_fires_on_the_sequential_rung(self):
        report = RunReport()
        policy = ExecutionPolicy(degrade_after=1)
        with ChaosPool(every={0: "exit137"}, max_workers=1) as pool:
            results = pool.map(_pid_of, [1], policy=policy, report=report)
        assert results == [os.getpid()]
        assert report.task(0).outcomes == ["crash", "ok"]
        assert report.task(0).final_backend == "sequential"

    def test_tasks_without_a_fault_run_untouched(self):
        report = RunReport()
        with ChaosPool(max_workers=2) as pool:
            results = pool.map(_pid_of, [1, 2], report=report)
        assert os.getpid() not in results
        assert report.faulted_tasks == []

    @pytest.mark.parametrize(
        "kind, outcome",
        [("crash", "crash"), ("exit137", "crash"), ("hang", "timeout"), ("error", "error")],
    )
    def test_each_kind_is_classified_once_and_the_task_recovers(self, kind, outcome):
        report = RunReport()
        policy = ExecutionPolicy(retry_errors=True, task_timeout=1.0)
        with ChaosPool(once={0: kind}, hang_seconds=30.0, max_workers=1) as pool:
            assert pool.map(_triple, [1], policy=policy, report=report) == [3]
        assert report.task(0).outcomes == [outcome, "ok"]

    def test_markers_are_removed_on_close(self):
        pool = ChaosPool(once={0: "error"}, max_workers=1)
        markers = Path(pool._markers)
        assert markers.is_dir()
        pool.close()
        assert not markers.exists()


class TestFaulted:
    """``_faulted`` in this process, for the kinds that do not end it."""

    def test_kinds_cover_every_fault_the_pool_accepts(self):
        assert set(KINDS) == {"crash", "exit137", "hang", "error"}

    def test_error_raises_injected_fault_naming_the_task(self):
        with pytest.raises(InjectedFault, match="task 4 raised"):
            _faulted(_Indexed(_triple), (4, 7), "error", None, 0.0)

    def test_every_fault_fires_on_each_call(self):
        for _ in range(2):
            with pytest.raises(InjectedFault):
                _faulted(_Indexed(_triple), (0, 7), "error", None, 0.0)

    def test_once_fault_fires_only_for_the_call_that_creates_the_marker(self, tmp_path):
        marker = str(tmp_path / "0")
        with pytest.raises(InjectedFault):
            _faulted(_Indexed(_triple), (0, 7), "error", marker, 0.0)
        assert os.path.exists(marker)
        assert _faulted(_Indexed(_triple), (0, 7), "error", marker, 0.0) == 21


#: Stores five cells through a KillingStore and says so after each write.
STORE_SCRIPT = textwrap.dedent(
    """
    import sys
    from chaos import KillingStore

    store = KillingStore(sys.argv[1], kill_after=int(sys.argv[2]))
    for number in range(5):
        store.store(f"{number:02x}", number)
        print(number, flush=True)
    """
)


@pytest.mark.parametrize("kill_after", [1, 3])
def test_killing_store_dies_right_after_its_nth_write(tmp_path, kill_after):
    tests_dir = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests_dir.parent / "src"), str(tests_dir)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", STORE_SCRIPT, str(tmp_path), str(kill_after)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == -9, result.stderr
    # Every write before the N-th returned; the N-th reached disk, then died.
    assert result.stdout.split() == [str(number) for number in range(kill_after - 1)]
    assert KillingStore(tmp_path, kill_after).keys() == [
        f"{number:02x}" for number in range(kill_after)
    ]
