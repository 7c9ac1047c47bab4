"""Property tests: the checkpoint store never trades durability for truth.

Two invariants drive the random exploration:

* **Prefix interruption is free** — delete any subset of a completed store's
  cells (modelling a run killed at an arbitrary point, since atomic renames
  make "interrupted" exactly "some cells missing") and a resume returns the
  same results as the uninterrupted run, serving precisely the surviving
  cells as hits.
* **Corruption is never served** — flip, truncate or overwrite arbitrary
  bytes of any cell file and the results still never change; damage only
  converts hits into warned recomputes.  There is no byte pattern that makes
  the store silently return wrong data.

A cheap deterministic worker stands in for the anonymization algorithms:
the properties under test are the store's, not the algorithms'.

The digest that keys the cells gets its own canonicalisation properties:
equality across construction orders of hash-randomised containers, and
inequality across type lookalikes.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Execution, run_many
from repro.engine.checkpoint import CheckpointStore, stable_digest, task_key
from repro.engine.resilience import RunReport

#: Deterministic, structured task results: exercising pickle round-trips of
#: the kinds of values real sweep reports carry.
def _evaluate(task: int) -> dict:
    return {
        "index": task,
        "utility": {"ul": task / 7.0, "are": float(task * task)},
        "labels": frozenset({f"i{task}", f"i{task + 1}"}),
        "rows": [[task, f"c{task % 3}"], [task + 1, "x"]],
    }


TASK_COUNT = 6


def run_all(store: CheckpointStore, report: RunReport | None = None) -> list:
    keys = [task_key("prop", n) for n in range(TASK_COUNT)]
    return run_many(
        list(range(TASK_COUNT)),
        _evaluate,
        Execution(checkpoint=store),
        checkpoint_keys=keys,
        report=report,
    )


class TestInterruptionResume:
    @given(
        surviving=st.sets(
            st.integers(0, TASK_COUNT - 1), max_size=TASK_COUNT
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_any_surviving_subset_resumes_identically(self, surviving):
        """An interrupted run IS a store with a subset of cells; resume must
        serve exactly those and recompute the rest, changing nothing."""
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            reference = run_all(store)

            keys = [task_key("prop", n) for n in range(TASK_COUNT)]
            for position, key in enumerate(keys):
                if position not in surviving:
                    os.unlink(store.cell_path(key))

            resumed_store = CheckpointStore(tmp)
            report = RunReport()
            assert run_all(resumed_store, report) == reference
            counts = report.checkpoint_counts()
            assert counts == {
                "hit": len(surviving),
                "miss": TASK_COUNT - len(surviving),
                "corrupt": 0,
            }
            assert report.warnings == []
            # The resume repaired the store: everything is a hit now.
            final = RunReport()
            assert run_all(CheckpointStore(tmp), final) == reference
            assert final.checkpoint_counts()["hit"] == TASK_COUNT


class TestCorruptionNeverServed:
    @given(
        victim=st.integers(0, TASK_COUNT - 1),
        damage=st.one_of(
            # Overwrite one byte at a relative position with a chosen value.
            st.tuples(
                st.just("overwrite"),
                st.floats(min_value=0.0, max_value=1.0),
                st.integers(0, 255),
            ),
            # Truncate to a relative fraction of the original size.
            st.tuples(
                st.just("truncate"),
                st.floats(min_value=0.0, max_value=1.0),
                st.just(0),
            ),
            # Append trailing garbage.
            st.tuples(st.just("append"), st.just(0.0), st.integers(0, 255)),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_byte_damage_only_forces_recompute(self, victim, damage):
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            reference = run_all(store)

            path = store.cell_path(task_key("prop", victim))
            blob = bytearray(path.read_bytes())
            kind, fraction, value = damage
            if kind == "overwrite":
                position = min(int(fraction * len(blob)), len(blob) - 1)
                changed = blob[position] != value
                blob[position] = value
                path.write_bytes(bytes(blob))
            elif kind == "truncate":
                keep = int(fraction * len(blob))
                changed = keep < len(blob)
                os.truncate(path, keep)
            else:
                changed = True
                path.write_bytes(bytes(blob) + bytes([value]))

            report = RunReport()
            assert run_all(CheckpointStore(tmp), report) == reference
            counts = report.checkpoint_counts()
            if changed:
                assert counts == {
                    "hit": TASK_COUNT - 1,
                    "miss": 0,
                    "corrupt": 1,
                }
                assert len(report.warnings) == 1
            else:  # the damage drew a no-op (same byte value)
                assert counts["hit"] == TASK_COUNT
                assert counts["corrupt"] == 0


# ---------------------------------------------------------------------------
# Digest canonicalisation

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.frozensets(st.text(max_size=4), max_size=4),
    ),
    max_leaves=12,
)


class TestStableDigest:
    @given(value=values)
    @settings(max_examples=80, deadline=None)
    def test_digest_is_deterministic(self, value):
        assert stable_digest(value) == stable_digest(value)

    @given(mapping=st.dictionaries(st.text(max_size=4), scalars, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_dict_insertion_order_is_canonical(self, mapping):
        items = list(mapping.items())
        assert stable_digest(dict(items)) == stable_digest(dict(reversed(items)))

    @given(elements=st.frozensets(st.text(max_size=6), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_set_construction_order_is_canonical(self, elements):
        forward = frozenset(sorted(elements))
        backward = frozenset(sorted(elements, reverse=True))
        assert stable_digest(forward) == stable_digest(backward)
        assert stable_digest(set(elements)) != stable_digest(tuple(sorted(elements)))

    @given(number=st.integers(-(10**6), 10**6))
    @settings(max_examples=40, deadline=None)
    def test_type_tags_separate_lookalikes(self, number):
        assert stable_digest(number) != stable_digest(float(number))
        assert stable_digest(number) != stable_digest(str(number))
