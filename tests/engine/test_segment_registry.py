"""Tests for the crash-safe segment registry (`repro.columnar.registry`).

The registry is the piece of the fault-tolerance story that ``weakref``
finalizers cannot cover: a process killed by SIGKILL never runs cleanup, so
segment ownership is written *ahead* of creation to a per-pid sidecar file
and a startup reaper unlinks whatever dead processes left behind.

Every test points ``$REPRO_SHM_REGISTRY`` at a private tmp directory so
concurrent suites (and the developer's own live pools) are invisible to it.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import textwrap
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import pytest

from repro.columnar import shared
from repro.columnar.registry import (
    REGISTRY_ENV,
    clear_segment,
    new_segment_name,
    reap_orphaned_segments,
    register_segment,
    registry_dir,
)
from repro.datasets import generate_rt_dataset
from repro.engine.pool import WorkerPool

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def registry(monkeypatch, tmp_path):
    """An isolated sidecar directory for the duration of one test."""
    monkeypatch.setenv(REGISTRY_ENV, str(tmp_path))
    return tmp_path


def segment_exists(name: str) -> bool:
    """Probe for a segment without leaking a resource-tracker registration."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    # Attaching registered the name with this process's tracker (Python
    # <= 3.12); balance it so interpreter shutdown stays quiet.
    resource_tracker.unregister(segment._name, "shared_memory")
    return True


def dead_pid() -> int:
    """A pid guaranteed not to name a live process: a child that exited."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestSidecarRoundTrip:
    def test_register_appends_and_clear_removes(self, registry):
        first, second = new_segment_name(), new_segment_name()
        register_segment(first)
        register_segment(second)
        sidecar = registry / f"{os.getpid()}.segments"
        assert sidecar.read_text().splitlines() == [first, second]

        clear_segment(first)
        assert sidecar.read_text().splitlines() == [second]
        clear_segment(second)
        assert not sidecar.exists()  # empty sidecars are deleted outright

    def test_clear_without_sidecar_is_a_noop(self, registry):
        clear_segment("repro_never_registered")

    def test_names_embed_the_owning_pid(self, registry):
        assert new_segment_name().startswith(f"repro_{os.getpid()}_")

    def test_registry_dir_honours_the_env_override(self, registry):
        assert registry_dir() == registry


class TestReaper:
    def test_reaper_leaves_live_owners_alone(self, registry):
        # Our own sidecar plus one owned by a live child process.
        register_segment("repro_fake_own")
        child = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        )
        try:
            (registry / f"{child.pid}.segments").write_text("repro_fake_child\n")
            assert reap_orphaned_segments() == []
            assert (registry / f"{os.getpid()}.segments").exists()
            assert (registry / f"{child.pid}.segments").exists()
        finally:
            child.kill()
            child.wait()
        clear_segment("repro_fake_own")

    def test_reaper_unlinks_segments_of_a_dead_owner(self, registry):
        name = new_segment_name()
        # repro: allow[REP001] -- deliberately unguarded: this segment plays the orphan and the reaper unlinking it is the assertion
        segment = shared_memory.SharedMemory(name=name, create=True, size=64)
        segment.close()
        # The segment is real; now hand its ownership record to a dead pid.
        resource_tracker.unregister(segment._name, "shared_memory")
        sidecar = registry / f"{dead_pid()}.segments"
        sidecar.write_text(f"{name}\n")

        assert reap_orphaned_segments() == [name]
        assert not segment_exists(name)
        assert not sidecar.exists()

    def test_registered_but_never_created_reaps_to_nothing(self, registry):
        # The crash window between register and create: the sidecar entry
        # must be treated as already-cleaned, not an error.
        sidecar = registry / f"{dead_pid()}.segments"
        sidecar.write_text(f"{new_segment_name()}\n")
        assert reap_orphaned_segments() == []
        assert not sidecar.exists()

    def test_non_numeric_sidecars_are_ignored(self, registry):
        (registry / "garbage.segments").write_text("repro_fake\n")
        assert reap_orphaned_segments() == []
        assert (registry / "garbage.segments").exists()

    def test_worker_pool_reaps_at_startup(self, registry):
        name = new_segment_name()
        # repro: allow[REP001] -- deliberately unguarded: the WorkerPool's startup reaper unlinking this orphan is the assertion
        segment = shared_memory.SharedMemory(name=name, create=True, size=64)
        segment.close()
        resource_tracker.unregister(segment._name, "shared_memory")
        (registry / f"{dead_pid()}.segments").write_text(f"{name}\n")

        with WorkerPool(max_workers=1) as pool:
            assert name in pool.reaped_at_startup
        assert not segment_exists(name)


class TestExportFailure:
    def test_a_failed_payload_copy_unlinks_the_segment_and_clears_its_entry(
        self, registry, monkeypatch
    ):
        """The finalizer is attached before the payload copy, so a failing copy leaks nothing."""
        dataset = generate_rt_dataset(n_records=20, n_items=6, seed=1)
        names = []
        fresh_name = shared.new_segment_name

        def recording_name():
            names.append(fresh_name())
            return names[-1]

        def failing_copy(*args, **kwargs):
            sidecar = registry / f"{os.getpid()}.segments"
            assert sidecar.read_text().splitlines() == names
            raise RuntimeError("payload copy failed")

        monkeypatch.setattr(shared, "new_segment_name", recording_name)
        monkeypatch.setattr(shared.np, "copyto", failing_copy)
        with pytest.raises(RuntimeError, match="payload copy failed"):
            shared.SharedDatasetExport(dataset)
        gc.collect()

        assert len(names) == 1
        assert not segment_exists(names[0])
        assert list(registry.glob("*.segments")) == []


class TestSigkillEndToEnd:
    def test_segment_orphaned_by_sigkill_is_reaped(self, registry):
        """The scenario the registry exists for, end to end.

        A disposable child registers a segment, creates it, and dies by
        SIGKILL before any cleanup can run.  The child disables its own
        resource tracker first: pool workers inherit the parent's tracker
        pipe, so in the real crash scenario the tracker never reclaims the
        segment either — the no-op reproduces that faithfully in a child
        the test can safely kill.
        """
        script = textwrap.dedent(
            """
            import os, signal
            from multiprocessing import resource_tracker, shared_memory

            resource_tracker.register = lambda *args, **kwargs: None

            from repro.columnar.registry import new_segment_name, register_segment

            name = new_segment_name()
            register_segment(name)
            shared_memory.SharedMemory(name=name, create=True, size=128)
            print(name, flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        env[REGISTRY_ENV] = str(registry)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        name = proc.stdout.strip()
        assert name.startswith("repro_")

        # The orphan survived the kill...
        assert segment_exists(name)
        sidecars = list(registry.glob("*.segments"))
        assert len(sidecars) == 1

        # ...and the reaper reclaims it.
        assert reap_orphaned_segments() == [name]
        assert not segment_exists(name)
        assert list(registry.glob("*.segments")) == []
