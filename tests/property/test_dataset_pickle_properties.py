"""Property tests: a dataset pickles as its columns and unpickles lazily.

``pickle.loads(pickle.dumps(ds))`` must reproduce the dataset exactly —
records with the same cell *types* (``25`` vs ``25.0``, ``-0.0``, ``None``,
``""``), empty and non-ASCII itemsets, the mutation ``version`` and the
content fingerprint — while the rows stay unbuilt until something reads
them, even across a second pickle.  The seeded transaction columns must be
exactly what :meth:`TransactionColumn.from_dataset` builds from the rows,
and the usual mutators must work on an unpickled dataset and invalidate its
cache.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import TransactionColumn
from repro.datasets import Attribute, Dataset, Schema

ATTRIBUTES = {
    "Age": Attribute.numeric("Age"),
    "City": Attribute.categorical("City"),
    "Items": Attribute.transaction("Items"),
    "Tags": Attribute.transaction("Tags", quasi_identifier=False),
}

numeric_cells = st.one_of(
    st.sampled_from([None, "", 25, 25.0, -0.0, 0.0, 0, "[20-30]", "*"]),
    st.integers(-40, 40),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
categorical_cells = st.sampled_from(["alpha", "", "γ-umlaut", "25", None, "*"])
itemsets = st.sets(
    st.sampled_from(["i0", "i1", "i10", "i2", "ü", "日本", " "]), max_size=4
)
CELLS = {
    "Age": numeric_cells,
    "City": categorical_cells,
    "Items": itemsets,
    "Tags": itemsets,
}


@st.composite
def datasets(draw) -> Dataset:
    names = draw(st.lists(st.sampled_from(sorted(ATTRIBUTES)), unique=True, max_size=4))
    schema = Schema([ATTRIBUTES[name] for name in names])
    rows = draw(
        st.lists(st.fixed_dictionaries({name: CELLS[name] for name in names}), max_size=25)
    )
    dataset = Dataset(schema, rows, name=draw(st.sampled_from(["d", "données"])))
    if names and rows and draw(st.booleans()):
        # A mutation bumps the version the round trip must keep.
        dataset.set_value(0, names[0], rows[-1][names[0]])
    if not names:
        for _ in range(draw(st.integers(0, 3))):
            dataset.append({})
    return dataset


def _sorted_if_itemset(value):
    return sorted(value) if isinstance(value, frozenset) else value


def typed_rows(dataset: Dataset) -> list[list[tuple[str, str, str]]]:
    """Every cell as ``(attribute, type, repr)``: equality that tells 25 from 25.0."""
    return [
        [
            (name, type(value).__name__, repr(_sorted_if_itemset(value)))
            for name, value in record.items()
        ]
        for record in dataset
    ]


def rows_built(dataset: Dataset) -> bool:
    return "_records" in vars(dataset)


def round_trip(dataset: Dataset) -> Dataset:
    return pickle.loads(pickle.dumps(dataset, protocol=pickle.HIGHEST_PROTOCOL))


def assert_faithful(clone: Dataset, dataset: Dataset) -> None:
    assert clone.schema == dataset.schema
    assert clone.name == dataset.name
    assert clone.version == dataset.version
    assert clone.fingerprint() == dataset.fingerprint()
    assert clone == dataset
    assert typed_rows(clone) == typed_rows(dataset)


def assert_seeded_columns_match_rows(clone: Dataset) -> None:
    for name in clone.schema.transaction_names:
        seeded = clone.columnar(name)
        rebuilt = TransactionColumn.from_dataset(clone, name)
        assert seeded.vocabulary.items == rebuilt.vocabulary.items
        assert seeded.indptr.dtype == np.int64 and seeded.tokens.dtype == np.int32
        assert np.array_equal(seeded.indptr, rebuilt.indptr)
        assert np.array_equal(seeded.tokens, rebuilt.tokens)


class TestRoundTrip:
    @given(dataset=datasets())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_exact_and_lazy(self, dataset):
        clone = round_trip(dataset)
        assert not rows_built(clone)
        # The seeded columns and a second pickle never build the rows.
        transaction = clone.schema.transaction_names
        for name in transaction:
            clone.columnar(name)
        again = round_trip(clone)
        assert not rows_built(clone) and not rows_built(again)
        # Length and emptiness come from the columns; the first read of a
        # record builds the rows.
        assert len(clone) == len(dataset) and clone.is_empty == dataset.is_empty
        assert not rows_built(clone)
        list(clone)
        assert rows_built(clone)
        assert_faithful(clone, dataset)
        assert_seeded_columns_match_rows(again)
        assert_faithful(again, dataset)

    @given(dataset=datasets())
    @settings(max_examples=60, deadline=None)
    def test_length_emptiness_and_fingerprint_build_no_rows(self, dataset):
        clone = round_trip(dataset)
        assert len(clone) == len(dataset)
        assert clone.is_empty == dataset.is_empty
        assert clone.fingerprint() == dataset.fingerprint()
        assert repr(clone) == repr(dataset)
        assert not rows_built(clone)

    @given(dataset=datasets(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mutators_work_after_unpickling_and_invalidate_the_cache(self, dataset, data):
        clone = round_trip(dataset)
        names = clone.schema.names
        row = {name: data.draw(CELLS[name]) for name in names}
        clone.append(row)
        dataset.append(row)
        assert_faithful(clone, dataset)
        if names and len(clone):
            name = data.draw(st.sampled_from(names))
            value = data.draw(CELLS[name])
            clone = round_trip(dataset)
            before = clone.columnar(name)
            clone.set_value(0, name, value)
            dataset.set_value(0, name, value)
            assert clone.columnar(name) is not before
            assert_faithful(clone, dataset)
            assert_seeded_columns_match_rows(clone)


class TestEdges:
    def test_cell_types_survive_exactly(self):
        schema = Schema(
            [
                Attribute.numeric("Age"),
                Attribute.categorical("City"),
                Attribute.transaction("Items"),
            ]
        )
        rows = [
            {"Age": 25, "City": "", "Items": set()},
            {"Age": 25.0, "City": None, "Items": {"ü", "日本"}},
            {"Age": -0.0, "City": "25", "Items": {"a"}},
            {"Age": None, "City": "x", "Items": set()},
        ]
        dataset = Dataset(schema, rows)
        clone = round_trip(dataset)
        assert [type(record["Age"]) for record in clone] == [int, float, float, type(None)]
        assert repr(clone[2]["Age"]) == "-0.0"
        assert [record["City"] for record in clone] == ["", None, "25", "x"]
        assert_faithful(clone, dataset)

    def test_empty_dataset_and_zero_attribute_schema(self):
        empty = Dataset(Schema([Attribute.transaction("Items"), Attribute.numeric("Age")]))
        clone = round_trip(empty)
        assert_faithful(clone, empty)
        assert_seeded_columns_match_rows(clone)
        bare = Dataset(Schema([]), [{}, {}, {}])
        clone = round_trip(bare)
        assert not rows_built(clone)
        assert_faithful(clone, bare)
        assert len(clone) == 3

    def test_csr_travels_in_the_narrowest_unsigned_dtypes(self):
        schema = Schema([Attribute.transaction("Items")])
        small = Dataset(schema, [{"Items": {"a", "b"}}, {"Items": {"c"}}])
        items, indptr, tokens = small.__getstate__()["csr"]["Items"]
        assert items == ("a", "b", "c")
        assert indptr.dtype == np.uint8 and tokens.dtype == np.uint8
        wide = Dataset(
            schema,
            [{"Items": {f"i{n:03d}" for n in range(start, start + 200)}} for start in (0, 100, 200)],
        )
        _, indptr, tokens = wide.__getstate__()["csr"]["Items"]
        assert indptr.dtype == np.uint16 and tokens.dtype == np.uint16
        clone = round_trip(wide)
        assert_seeded_columns_match_rows(clone)
        assert_faithful(clone, wide)


class TestConcurrentFirstRead:
    def test_threads_reading_a_pending_dataset_share_one_record_list(self):
        schema = Schema([Attribute.numeric("Age"), Attribute.transaction("Items")])
        dataset = Dataset(
            schema,
            [{"Age": n % 50, "Items": {f"i{n % 7}", f"i{n % 11}"}} for n in range(2000)],
        )
        workers = 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                clone = round_trip(dataset)
                barrier = threading.Barrier(workers)
                seen: list = []
                errors: list = []

                def read() -> None:
                    barrier.wait(timeout=10)
                    try:
                        seen.append(clone.records)
                    except Exception as error:  # recorded, asserted below
                        errors.append(error)

                threads = [threading.Thread(target=read) for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert len(seen) == workers
                assert all(records is seen[0] for records in seen)
        finally:
            sys.setswitchinterval(previous)
        assert clone == dataset
