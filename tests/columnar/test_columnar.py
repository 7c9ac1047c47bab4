"""Unit tests for the columnar layer: vocabulary, CSR column, bitset kernels."""

import numpy as np
import pytest

from repro.columnar import (
    ItemVocabulary,
    TransactionColumn,
    bitset_from_indices,
    empty_bitset,
    popcount,
    popcount_rows,
    posting_matrix,
    union_rows,
    word_count,
)
from repro.columnar.bitset import popcount_segments
from repro.datasets import Attribute, Dataset, Schema
from repro.exceptions import SchemaError


def members_of(bits: np.ndarray) -> list[int]:
    """The ascending bit positions set in a packed bitset."""
    flat = np.unpackbits(
        np.ascontiguousarray(bits, dtype="<u8").view(np.uint8), bitorder="little"
    )
    return np.flatnonzero(flat).tolist()


def make_transactions(baskets) -> Dataset:
    schema = Schema([Attribute.transaction("Items")])
    return Dataset(schema, [{"Items": basket} for basket in baskets])


class TestBitsetKernels:
    def test_word_count_boundaries(self):
        assert word_count(0) == 0
        assert word_count(1) == 1
        assert word_count(64) == 1
        assert word_count(65) == 2
        assert word_count(4096) == 64
        assert word_count(4097) == 65

    @pytest.mark.parametrize("n_bits", [0, 1, 63, 64, 65, 128, 4095, 4096, 4200])
    def test_pack_unpack_roundtrip(self, n_bits):
        rng = np.random.default_rng(n_bits)
        members = sorted(
            rng.choice(n_bits, size=min(n_bits, 17), replace=False).tolist()
        ) if n_bits else []
        bits = bitset_from_indices(members, n_bits)
        assert members_of(bits) == members
        assert popcount(bits) == len(members)

    def test_boundary_bits_survive(self):
        # The first/last bit of a word are the classic off-by-one victims.
        members = [0, 63, 64, 127, 128, 4095, 4096]
        bits = bitset_from_indices(members, 4200)
        assert members_of(bits) == members

    def test_empty_bitset(self):
        assert popcount(empty_bitset(300)) == 0
        assert members_of(empty_bitset(300)) == []

    @pytest.mark.parametrize("widths", [[1], [1, 1, 1], [3, 1, 2], [2]])
    def test_popcount_segments_match_per_segment_counts(self, widths):
        rng = np.random.default_rng(sum(widths))
        matrix = rng.integers(0, 2**63, size=(sum(widths), 7), dtype=np.uint64)
        starts = np.cumsum([0] + widths)[:-1]
        expected = [
            [
                sum(bin(int(word)).count("1") for word in matrix[start : start + width, column])
                for column in range(matrix.shape[1])
            ]
            for start, width in zip(starts, widths)
        ]
        assert popcount_segments(matrix, starts).tolist() == expected

    def test_union_rows(self):
        matrix = posting_matrix([0, 0, 1, 2], [1, 5, 2, 5], 3, 70)
        assert members_of(union_rows(matrix, [0, 1])) == [1, 2, 5]
        assert members_of(union_rows(matrix, [2])) == [5]
        assert popcount(union_rows(matrix, [])) == 0
        # Single-row unions return a copy, never a view into the matrix.
        single = union_rows(matrix, [0])
        single |= np.uint64(0xFF)
        assert members_of(matrix[0]) == [1, 5]

    def test_popcount_rows_matches_per_row_popcount(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 2**64, size=(5, 7), dtype=np.uint64)
        expected = [popcount(matrix[row]) for row in range(5)]
        assert popcount_rows(matrix).tolist() == expected


class TestItemVocabulary:
    def test_sorted_tokenization(self):
        vocabulary = ItemVocabulary(["pear", "apple", "pear", "fig"])
        assert vocabulary.items == ("apple", "fig", "pear")
        assert vocabulary.token("fig") == 1
        assert vocabulary.item(2) == "pear"
        assert len(vocabulary) == 3
        assert "apple" in vocabulary and "kiwi" not in vocabulary

    def test_unknown_items(self):
        vocabulary = ItemVocabulary(["a", "b"])
        assert vocabulary.token("z") is None
        assert vocabulary.tokens_for(["a", "z", "b"]).tolist() == [0, 1]

    def test_universe_is_fresh_copy(self):
        vocabulary = ItemVocabulary(["a"])
        universe = vocabulary.universe()
        universe.add("b")
        assert vocabulary.universe() == {"a"}


class TestTransactionColumn:
    def test_csr_layout(self):
        dataset = make_transactions([["b", "a"], [], ["c"], ["a", "c"]])
        column = TransactionColumn.from_dataset(dataset)
        assert column.n_records == 4
        assert column.total_items == 5
        assert column.row_lengths().tolist() == [2, 0, 1, 2]
        items = column.vocabulary.items
        assert {items[t] for t in column.row_tokens(0)} == {"a", "b"}
        assert column.row_tokens(1).size == 0

    def test_bitset_postings_match_record_scan(self):
        dataset = make_transactions([["a", "b"], ["b"], ["a", "c"], ["c"], ["b"]])
        column = TransactionColumn.from_dataset(dataset)
        postings = column.bitset_postings()
        for token, item in enumerate(column.vocabulary.items):
            expected = [
                position
                for position, record in enumerate(dataset)
                if item in record["Items"]
            ]
            assert members_of(postings[token]) == expected

    def test_occurrence_join_pairs_every_source_occurrence(self):
        source = TransactionColumn.from_dataset(
            make_transactions([["a", "b"], ["c"], ["a"], []])
        )
        target = TransactionColumn.from_dataset(
            make_transactions([["x"], ["x", "y"], [], ["y"]])
        )
        flat, segment_starts, unpaired = target.occurrence_join(source)
        # Record 2's occurrence of "a" has no target labels; record 3 has no
        # source occurrences at all.
        assert unpaired == 1
        # Paired occurrences: ("a",0), ("b",0) with 1 label; ("c",1) with 2.
        assert segment_starts.tolist() == [0, 1, 2]
        width = len(source.vocabulary)
        decoded = [
            (
                target.vocabulary.item(int(code) // width),
                source.vocabulary.item(int(code) % width),
            )
            for code in flat
        ]
        # Occurrence and within-record label order follow frozenset iteration
        # order, so compare contents, not positions.
        assert sorted(decoded[:2]) == [("x", "a"), ("x", "b")]
        assert sorted(decoded[2:]) == [("x", "c"), ("y", "c")]
        # Cached per source column; a different source rebuilds.
        assert target.occurrence_join(source) is target.occurrence_join(source)

    def test_empty_dataset(self):
        dataset = make_transactions([])
        column = TransactionColumn.from_dataset(dataset)
        assert column.n_records == 0
        assert column.total_items == 0
        assert column.bitset_postings().shape == (0, 0)
        flat, segment_starts, unpaired = column.occurrence_join(column)
        assert flat.size == 0 and segment_starts.size == 0 and unpaired == 0


class TestDatasetIntegration:
    def test_columnar_is_cached_until_mutation(self):
        dataset = make_transactions([["a", "b"], ["b"]])
        first = dataset.columnar()
        assert dataset.columnar() is first
        dataset.set_value(0, "Items", ["c"])
        assert dataset.columnar() is not first
        assert dataset.item_universe() == {"b", "c"}

    def test_item_universe_reuses_vocabulary(self):
        dataset = make_transactions([["a", "b"], ["c"]])
        dataset.columnar()
        universe = dataset.item_universe()
        assert universe == {"a", "b", "c"}
        # The returned set is a fresh copy, not the vocabulary itself.
        universe.add("z")
        assert dataset.item_universe() == {"a", "b", "c"}

    def test_columnar_dispatches_on_attribute_kind(self):
        from repro.columnar import CategoricalColumn, NumericColumn

        schema = Schema(
            [
                Attribute.categorical("City"),
                Attribute.numeric("Age"),
                Attribute.transaction("Items"),
            ]
        )
        dataset = Dataset(
            schema, [{"City": "Athens", "Age": 30, "Items": ["a"]}]
        )
        assert isinstance(dataset.columnar("Items"), TransactionColumn)
        assert isinstance(dataset.columnar("City"), CategoricalColumn)
        assert isinstance(dataset.columnar("Age"), NumericColumn)
        with pytest.raises(SchemaError):
            dataset.columnar("Missing")

    def test_append_invalidates(self):
        dataset = make_transactions([["a"]])
        dataset.columnar()
        dataset.append({"Items": ["b"]})
        assert dataset.item_universe() == {"a", "b"}
        assert dataset.columnar().n_records == 2
