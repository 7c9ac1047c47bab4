"""Unit tests for the durable checkpoint store.

Layered like the module itself: the frame codec against every damage mode
it claims to detect, the atomic write helper, the store's hit/miss/corrupt
protocol and format-version rebuild, the stable digest's canonicalisation
guarantees, and finally the ``run_many`` integration (hits served, misses
computed-and-stored, corrupt cells recomputed with a structured warning).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import Attribute, Dataset, Schema
from repro.engine import Execution, run_many
from repro.engine.checkpoint import (
    FORMAT_VERSION,
    CheckpointStore,
    _encode,
    _tagged,
    atomic_write_bytes,
    configuration_keys,
    decode_frame,
    encode_frame,
    stable_digest,
    task_key,
)
from repro.engine.config import transaction_config
from repro.engine.experiment import ParameterSweep
from repro.engine.resilience import ExecutionPolicy, RunReport
from repro.engine.resources import ExperimentResources
from repro.exceptions import CheckpointError
from repro.hierarchy.builders import build_numeric_hierarchy
from repro.policies.privacy import PrivacyPolicy
from repro.policies.utility import UtilityPolicy
from repro.queries import Query, QueryWorkload, generate_query_workload


def make_dataset(rows=None, name="ckpt-test") -> Dataset:
    schema = Schema(
        [
            Attribute.numeric("Age"),
            Attribute.categorical("City"),
            Attribute.transaction("Items"),
        ]
    )
    rows = rows if rows is not None else [
        {"Age": 30 + n, "City": f"c{n % 3}", "Items": {f"i{n % 4}", f"i{(n * 3) % 4}"}}
        for n in range(12)
    ]
    return Dataset(schema, rows, name=name)


# ---------------------------------------------------------------------------
# Frame codec


class TestFrame:
    def test_roundtrip(self):
        payload = b"x" * 1000
        assert decode_frame(encode_frame(payload)) == payload

    def test_empty_payload_roundtrip(self):
        assert decode_frame(encode_frame(b"")) == b""

    def test_truncated_header(self):
        with pytest.raises(CheckpointError, match="truncated"):
            decode_frame(encode_frame(b"payload")[:7])

    def test_truncated_payload(self):
        blob = encode_frame(b"a complete payload")
        with pytest.raises(CheckpointError, match="length mismatch"):
            decode_frame(blob[:-5])

    def test_trailing_garbage(self):
        with pytest.raises(CheckpointError, match="length mismatch"):
            decode_frame(encode_frame(b"payload") + b"extra")

    def test_bad_magic(self):
        blob = bytearray(encode_frame(b"payload"))
        blob[0:4] = b"XXXX"
        with pytest.raises(CheckpointError, match="magic"):
            decode_frame(bytes(blob))

    def test_stale_format_version(self):
        header = struct.Struct("<4sIIQ")
        payload = b"payload"
        blob = header.pack(b"RPCK", FORMAT_VERSION + 1, 0, len(payload))
        with pytest.raises(CheckpointError, match="version"):
            decode_frame(blob + payload)

    def test_bit_rot_fails_checksum(self):
        blob = bytearray(encode_frame(b"some payload bytes"))
        blob[-3] ^= 0x01
        with pytest.raises(CheckpointError, match="checksum"):
            decode_frame(bytes(blob))


# ---------------------------------------------------------------------------
# Atomic writes


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "sub" / "file.bin"
        atomic_write_bytes(target, b"abc")
        assert target.read_bytes() == b"abc"

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "file.bin"
        atomic_write_bytes(target, b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "file.bin"
        atomic_write_bytes(target, b"data")
        assert [path.name for path in tmp_path.iterdir()] == ["file.bin"]


# ---------------------------------------------------------------------------
# The store


class TestCheckpointStore:
    def test_miss_then_hit(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        key = task_key("unit", 1)
        assert store.load(key).status == "miss"
        store.store(key, {"answer": 42})
        outcome = store.load(key)
        assert outcome.status == "hit"
        assert outcome.value == {"answer": 42}

    def test_malformed_key_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="malformed"):
            store.load("../../etc/passwd")
        with pytest.raises(CheckpointError, match="malformed"):
            store.store("", 1)

    def test_truncated_cell_is_corrupt_not_fatal(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = task_key("unit", 2)
        path = store.store(key, list(range(100)))
        os.truncate(path, 9)
        outcome = store.load(key)
        assert outcome.status == "corrupt"
        assert key in outcome.detail

    def test_bit_rot_is_corrupt_not_fatal(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = task_key("unit", 3)
        path = store.store(key, list(range(100)))
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.load(key).status == "corrupt"

    def test_unpicklable_payload_in_cell_is_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = task_key("unit", 4)
        path = store.store(key, "value")
        # A valid frame around garbage that is not a pickle.
        atomic_write_bytes(path, encode_frame(b"\x00not a pickle"))
        assert store.load(key).status == "corrupt"

    def test_unpicklable_value_raises_typed_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="not picklable"):
            store.store(task_key("unit", 5), lambda: None)

    def test_format_mismatch_rebuilds_store(self, tmp_path):
        directory = tmp_path / "ckpt"
        store = CheckpointStore(directory)
        key = task_key("unit", 6)
        store.store(key, "kept?")
        # Simulate a store written by an older layout.
        (directory / "FORMAT").write_bytes(b"RPCK\x63\x00\x00\x00\n")
        fresh = CheckpointStore(directory)
        assert fresh.load(key).status == "miss"
        assert fresh.keys() == []
        # The header has been rewritten to the current format.
        assert (directory / "FORMAT").read_bytes().startswith(b"RPCK")

    def test_format_2_stores_are_rebuilt_not_unpickled(self, tmp_path):
        # Format 3: datasets inside cells pickle as columns.  A store written
        # at format 2, whose cells hold row pickles, is dropped on open.
        assert FORMAT_VERSION == 3
        directory = tmp_path / "ckpt"
        key = task_key("unit", 7)
        payload = pickle.dumps("a format-2 cell")
        header = struct.Struct("<4sIIQ").pack(b"RPCK", 2, 0, len(payload))
        (directory / "cells").mkdir(parents=True)
        (directory / "FORMAT").write_bytes(b"RPCK" + struct.pack("<I", 2) + b"\n")
        (directory / "cells" / f"{key}.ckpt").write_bytes(header + payload)
        store = CheckpointStore(directory)
        assert store.load(key).status == "miss"
        assert store.keys() == []

    def test_dataset_cells_load_with_their_rows_pending(self, tmp_path):
        store = CheckpointStore(tmp_path)
        dataset = make_dataset()
        key = task_key("unit", 8)
        store.store(key, {"anonymized": dataset})
        loaded = store.load(key).value["anonymized"]
        assert "_records" not in vars(loaded)
        assert loaded.fingerprint() == dataset.fingerprint()
        assert loaded == dataset

    def test_keys_lists_cells(self, tmp_path):
        store = CheckpointStore(tmp_path)
        keys = sorted(task_key("unit", n) for n in range(3))
        for key in keys:
            store.store(key, key)
        assert store.keys() == keys

    def test_store_is_picklable(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = task_key("unit", 7)
        store.store(key, 123)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.load(key).value == 123
        assert clone.stores == 0  # the write counter does not travel


# ---------------------------------------------------------------------------
# Stable digests


class TestStableDigest:
    def test_type_tags_keep_lookalikes_apart(self):
        assert stable_digest(25) != stable_digest(25.0)
        assert stable_digest(25) != stable_digest("25")
        assert stable_digest(True) != stable_digest(1)
        assert stable_digest(False) != stable_digest(0)
        assert stable_digest(None) != stable_digest("")

    def test_signed_zero_floats_differ(self):
        assert stable_digest(0.0) != stable_digest(-0.0)

    def test_container_structure_matters(self):
        assert stable_digest([1, 2]) != stable_digest((1, 2))
        assert stable_digest([1, 2]) != stable_digest([2, 1])
        assert stable_digest({1, 2}) == stable_digest({2, 1})
        assert stable_digest(frozenset({"a", "b"})) == stable_digest(
            frozenset({"b", "a"})
        )

    def test_dict_order_is_canonical(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_numpy_values(self):
        assert stable_digest(np.int64(7)) == stable_digest(7)
        array = np.arange(6, dtype=np.int32).reshape(2, 3)
        assert stable_digest(array) == stable_digest(array.copy())
        assert stable_digest(array) != stable_digest(array.T)

    def test_policies_and_dataclasses(self):
        policy_a = PrivacyPolicy([frozenset({"i1", "i2"})], k=5)
        policy_b = PrivacyPolicy([frozenset({"i2", "i1"})], k=5)
        assert stable_digest(policy_a) == stable_digest(policy_b)
        assert stable_digest(policy_a) != stable_digest(
            PrivacyPolicy([frozenset({"i1", "i2"})], k=6)
        )
        utility = UtilityPolicy([frozenset({"i1"})])
        assert stable_digest(utility) == stable_digest(UtilityPolicy([frozenset({"i1"})]))

    def test_hierarchy_digest_tracks_structure(self):
        small = build_numeric_hierarchy(range(16), fanout=2, attribute="Age")
        assert stable_digest(small) == stable_digest(
            build_numeric_hierarchy(range(16), fanout=2, attribute="Age")
        )
        assert stable_digest(small) != stable_digest(
            build_numeric_hierarchy(range(32), fanout=2, attribute="Age")
        )

    def test_unknown_type_raises(self):
        with pytest.raises(CheckpointError, match="stable digest"):
            stable_digest(object())

    def test_hash_seed_independence(self):
        """The digest of hash-randomised containers must not change with
        PYTHONHASHSEED — otherwise every interpreter restart would orphan
        every cell."""
        script = (
            "from repro.engine.checkpoint import stable_digest\n"
            "value = {frozenset({'alpha', 'beta', 'gamma'}): [1, 2.5, {'x', 'y'}],\n"
            "         frozenset({'delta'}): (None, True, 'z')}\n"
            "print(stable_digest(value))\n"
        )
        digests = set()
        for seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(__file__).resolve().parents[2] / "src")]
                + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else [])
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1


# ---------------------------------------------------------------------------
# Key derivation


class TestKeys:
    def test_configuration_keys_one_per_cell(self):
        dataset = make_dataset()
        sweep = ParameterSweep("k", (2, 3, 4))
        configs = [
            transaction_config("coat", k=2, m=2),
            transaction_config("pcta", k=2, m=2),
        ]
        keys = configuration_keys(
            dataset, ExperimentResources(), False, configs, sweep
        )
        assert len(keys) == 6
        assert len(set(keys)) == 6

    def test_keys_change_with_inputs(self):
        dataset = make_dataset()
        sweep = ParameterSweep("k", (2,))
        config = transaction_config("coat", k=2, m=2)
        base = configuration_keys(
            dataset, ExperimentResources(), False, [config], sweep
        )
        # A different dataset, config, or flag changes the key.
        mutated = make_dataset()
        mutated.set_value(0, "Age", 99)
        assert configuration_keys(
            mutated, ExperimentResources(), False, [config], sweep
        ) != base
        assert configuration_keys(
            dataset, ExperimentResources(), True, [config], sweep
        ) != base
        assert configuration_keys(
            dataset, ExperimentResources(), False,
            [transaction_config("coat", k=2, m=3)], sweep,
        ) != base

    def test_batched_keys_equal_task_key_byte_for_byte(self):
        # The batch derivation encodes its shared parts once; every key must
        # still be the "sweep-point" task_key of the cell's full tuple.
        dataset = make_dataset()
        configs = [
            transaction_config("coat", k=2, m=2),
            transaction_config("apriori", k=3, m=1),
        ]
        resources = ExperimentResources.prepare(dataset, configs[1])
        sweep = ParameterSweep("k", (2, 3, 5))
        for verify, attacks in ((False, False), (True, True)):
            assert configuration_keys(
                dataset, resources, verify, configs, sweep, attacks
            ) == [
                task_key(
                    "sweep-point", dataset.fingerprint(), resources, verify,
                    "original", attacks, config, "k", value,
                )
                for config in configs
                for value in sweep.values
            ]

    def test_keys_of_existing_stores_stay_valid(self):
        # Digests derived before the ARE label semantics lost its switch:
        # the key head still folds in the literal "original", so cells
        # stored by earlier runs are still found.
        keys = configuration_keys(
            make_dataset(),
            ExperimentResources(),
            False,
            [transaction_config("coat", k=2, m=2)],
            ParameterSweep("k", (2, 3)),
        )
        assert keys == [
            "1fd6721fe1d21ebca8af44c036b9c3d064053103",
            "de2db9fad1526fb77b17df1712f4222635b3ce4b",
        ]

    def test_memoised_workload_encoding_equals_the_direct_one(self):
        dataset = make_dataset()
        workload = generate_query_workload(dataset, n_queries=5, seed=3)
        direct = b"".join(_tagged(b"QW", workload.name.encode())) + b"".join(
            _encode(workload.queries)
        )
        assert b"".join(_encode(workload)) == direct
        assert b"".join(_encode(workload)) == direct  # served from the memo

    def test_workload_changed_after_a_key_changes_the_next_key(self):
        dataset = make_dataset()
        config = transaction_config("coat", k=2, m=2)
        resources = ExperimentResources.prepare(dataset, config)
        sweep = ParameterSweep("k", (2,))
        workload = resources.workload
        keys = [configuration_keys(dataset, resources, False, [config], sweep)]
        workload.add(Query(items=["i0"]))
        keys.append(configuration_keys(dataset, resources, False, [config], sweep))
        workload.remove(len(workload) - 1)
        keys.append(configuration_keys(dataset, resources, False, [config], sweep))
        workload.name = "renamed"
        keys.append(configuration_keys(dataset, resources, False, [config], sweep))
        first, added, removed, renamed = (key for (key,) in keys)
        assert added != first
        assert removed == first  # the same queries and name again
        assert renamed not in (first, added)
        # Each key is still the one a fresh encoding of the workload derives.
        copy = QueryWorkload(workload.queries, name=workload.name)
        assert configuration_keys(
            dataset, dataclasses.replace(resources, workload=copy), False, [config], sweep
        ) == keys[-1]


# ---------------------------------------------------------------------------
# run_many integration


def _double(task: int) -> int:
    return task * 2


class TestRunManyIntegration:
    def test_miss_compute_store_then_hit(self, tmp_path):
        store = CheckpointStore(tmp_path)
        keys = [task_key("t", n) for n in range(4)]
        report = RunReport()
        first = run_many(
            [0, 1, 2, 3], _double, Execution(checkpoint=store), checkpoint_keys=keys,
            report=report,
        )
        assert first == [0, 2, 4, 6]
        assert report.checkpoint_counts() == {"hit": 0, "miss": 4, "corrupt": 0}
        assert len(report.tasks) == 4

        second_report = RunReport()
        second = run_many(
            [0, 1, 2, 3], _double, Execution(checkpoint=store), checkpoint_keys=keys,
            report=second_report,
        )
        assert second == first
        assert second_report.checkpoint_counts() == {"hit": 4, "miss": 0, "corrupt": 0}
        assert all(
            task.final_backend == "checkpoint" for task in second_report.tasks
        )
        assert second_report.warnings == []

    def test_partial_resume(self, tmp_path):
        store = CheckpointStore(tmp_path)
        keys = [task_key("t", n) for n in range(4)]
        run_many([0, 1], _double, Execution(checkpoint=store), checkpoint_keys=keys[:2])
        report = RunReport()
        results = run_many(
            [0, 1, 2, 3], _double, Execution(checkpoint=store), checkpoint_keys=keys,
            report=report,
        )
        assert results == [0, 2, 4, 6]
        assert report.checkpoint_counts() == {"hit": 2, "miss": 2, "corrupt": 0}
        # Reports cover every task exactly once, in order.
        assert [task.index for task in report.tasks] == [0, 1, 2, 3]

    def test_corrupt_cell_recomputed_and_warned(self, tmp_path):
        store = CheckpointStore(tmp_path)
        keys = [task_key("t", n) for n in range(3)]
        run_many([0, 1, 2], _double, Execution(checkpoint=store), checkpoint_keys=keys)
        os.truncate(store.cell_path(keys[1]), 5)
        report = RunReport()
        results = run_many(
            [0, 1, 2], _double, Execution(checkpoint=store), checkpoint_keys=keys,
            report=report,
        )
        assert results == [0, 2, 4]
        assert report.checkpoint_counts() == {"hit": 2, "miss": 0, "corrupt": 1}
        assert len(report.warnings) == 1
        assert keys[1] in report.warnings[0]
        assert report.task(1).checkpoint == "corrupt"
        # The recompute repaired the cell durably.
        assert store.load(keys[1]).status == "hit"

    def test_validator_rejected_hit_is_recomputed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = task_key("t", 0)
        store.store(key, -1)  # a stored value the validator rejects
        policy = ExecutionPolicy(validate_result=lambda value: value >= 0)
        report = RunReport()
        results = run_many(
            [5], _double, Execution(policy=policy, checkpoint=store),
            checkpoint_keys=[key], report=report,
        )
        assert results == [10]
        assert report.checkpoint_counts()["corrupt"] == 1
        assert any("validator" in warning for warning in report.warnings)
        assert store.load(key).value == 10

    def test_missing_keys_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="one checkpoint key per task"):
            run_many([1, 2], _double, Execution(checkpoint=store), checkpoint_keys=None)
        with pytest.raises(CheckpointError, match="2 task"):
            run_many(
                [1, 2], _double, Execution(checkpoint=store),
                checkpoint_keys=[task_key("t", 0)],
            )

    def test_duplicate_keys_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = task_key("t", 0)
        with pytest.raises(CheckpointError, match="unique"):
            run_many([1, 2], _double, Execution(checkpoint=store), checkpoint_keys=[key, key])

    def test_no_report_no_policy_still_resumes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        keys = [task_key("t", n) for n in range(2)]
        execution = Execution(checkpoint=store)
        assert run_many([3, 4], _double, execution, checkpoint_keys=keys) == [6, 8]
        assert run_many([3, 4], _double, execution, checkpoint_keys=keys) == [6, 8]
