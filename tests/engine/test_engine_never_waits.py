"""The engine neither sleeps nor spins.

A charged retry is resubmitted at once: the crashed or hung worker
generation is already torn down, so there is nothing to wait for.  Every
retry loop is bounded by the :class:`~repro.engine.resilience.ExecutionPolicy`
attempt budget.  So no module under ``src/repro/engine`` calls ``sleep``
(``time.sleep``, a bare imported ``sleep``, ``asyncio.sleep``) or loops on a
constant truthy ``while``.  The scan reads the engine's source; it runs
nothing.  Hangs in the chaos suites come from ``tests/chaos.py``, outside
this scope.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
ENGINE = REPO_ROOT / "src" / "repro" / "engine"


def waits(source: str, filename: str = "<source>") -> list[str]:
    """``file:line`` of every ``sleep`` call and constant-true ``while``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "sleep":
                found.append(f"{filename}:{node.lineno}: sleep call")
        elif (
            isinstance(node, ast.While)
            and isinstance(node.test, ast.Constant)
            and node.test.value
        ):
            found.append(f"{filename}:{node.lineno}: while-True loop")
    return found


def test_engine_neither_sleeps_nor_spins():
    modules = sorted(ENGINE.rglob("*.py"))
    assert len(modules) > 5, "the scan must see the engine's modules"
    found = [
        hazard
        for path in modules
        for hazard in waits(path.read_text(), path.relative_to(REPO_ROOT).as_posix())
    ]
    assert found == []


#: The retry shape the scan exists for, each way to wait or spin on its own,
#: and the bounded loops the scan must leave alone.
SHAPES = {
    "while-true-sleep-retry-around-submit": (
        """
        import time

        def retry(pool, task):
            while True:
                try:
                    return pool.submit(task).result()
                except OSError:
                    time.sleep(1.0)
        """,
        2,
    ),
    "bare-imported-sleep": (
        """
        from time import sleep

        def settle():
            sleep(0.1)
        """,
        1,
    ),
    "while-one": (
        """
        def spin(pending):
            while 1:
                if not pending:
                    return
        """,
        1,
    ),
    "asyncio-sleep": (
        """
        import asyncio

        async def settle():
            await asyncio.sleep(0)
        """,
        1,
    ),
    "sleep-inside-a-nested-def": (
        """
        import time

        def make_backoff():
            def backoff(attempt):
                time.sleep(0.1 * attempt)
            return backoff
        """,
        1,
    ),
    "while-true-without-a-submit": (
        """
        def consume(queue):
            while True:
                item = queue.get()
                if item is None:
                    return
        """,
        1,
    ),
    "attempt-bounded-for-loop": (
        """
        def attempt(pool, task, policy):
            for _ in range(policy.max_attempts):
                future = pool.submit(task)
                if future.exception() is None:
                    return future.result()
            raise RuntimeError("attempts exhausted")
        """,
        0,
    ),
    "while-pending-drain": (
        """
        def drain(pending):
            while pending:
                pending.pop().result()
        """,
        0,
    ),
    "bounded-loop-without-sleep": (
        """
        def drain(pending, policy):
            attempts = 0
            while pending and attempts < policy.max_attempts:
                attempts += 1
                pending.pop()
        """,
        0,
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_scan_flags_each_waiting_shape(shape):
    source, expected = SHAPES[shape]
    assert len(waits(textwrap.dedent(source))) == expected


def test_the_scan_names_file_and_line_of_each_hazard():
    source = textwrap.dedent(SHAPES["while-true-sleep-retry-around-submit"][0])
    assert waits(source, "src/repro/engine/retry.py") == [
        "src/repro/engine/retry.py:5: while-True loop",
        "src/repro/engine/retry.py:9: sleep call",
    ]
