"""Property tests: a transaction algorithm's published column equals the row path.

``publish_items`` rewrites the input's CSR column through per-item images
(``TransactionColumn.remap``) and wraps it in a dataset whose records stay
pending.  The reference is the row path the algorithms used before
(``oracles.publish``): copy the dataset, rewrite every itemset, re-tokenize
with ``TransactionColumn.from_dataset``.  Both must agree on the vocabulary,
``indptr``, ``tokens``, the fingerprint and every cell — for suppressed items,
items that meet at one label, unmapped items, empty rows, everything
suppressed, labels that sort before the originals and one mapping per record
group (LRA), where a group's mapping may name labels no record of the group
publishes.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.publish import publish_by_rows
from repro.algorithms.base import publish_items
from repro.columnar import TransactionColumn
from repro.datasets import Attribute, Dataset, Schema

ITEMS = ["i0", "i1", "i10", "i2", "b", "ü"]
#: Generalized labels, some sorting before every original item.
LABELS = ["(i0,i1)", "*", "!", "0", "A", "i1", "zz", "(b,ü)"]
SCHEMA = Schema(
    [
        Attribute.numeric("Age"),
        Attribute.transaction("Items"),
        Attribute.transaction("Tags", quasi_identifier=False),
    ]
)

itemsets = st.sets(st.sampled_from(ITEMS), max_size=5)
images = st.one_of(st.none(), st.sampled_from(LABELS))
#: A mapping covers some items (the rest fall back to themselves) or is None.
mappings = st.one_of(
    st.none(), st.dictionaries(st.sampled_from(ITEMS), images, max_size=len(ITEMS))
)


@st.composite
def datasets(draw) -> Dataset:
    rows = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "Age": st.sampled_from([25, 25.0, None, "[20-30]"]),
                    "Items": itemsets,
                    "Tags": itemsets,
                }
            ),
            max_size=20,
        )
    )
    return Dataset(SCHEMA, rows, name="baskets")


@st.composite
def publications(draw):
    dataset = draw(datasets())
    n_groups = draw(st.integers(1, 3))
    tables = draw(st.lists(mappings, min_size=n_groups, max_size=n_groups))
    groups = None
    if n_groups > 1 or draw(st.booleans()):
        groups = draw(
            st.lists(st.integers(0, n_groups - 1), min_size=len(dataset), max_size=len(dataset))
        )
    return dataset, tables, groups


def assert_same_column(column: TransactionColumn, expected: TransactionColumn) -> None:
    assert column.vocabulary.items == expected.vocabulary.items
    assert column.indptr.dtype == np.int64 and column.tokens.dtype == np.int32
    assert np.array_equal(column.indptr, expected.indptr)
    assert np.array_equal(column.tokens, expected.tokens)


def assert_matches_row_path(dataset, tables, groups) -> None:
    input_pending = "_records" not in vars(dataset)
    published = publish_items(
        dataset,
        "Items",
        "demo",
        tables,
        None if groups is None else np.array(groups, dtype=np.int64),
    )
    assert "_records" not in vars(published)
    # Publishing reads only the input's columns and cells, never its rows.
    assert "_records" not in vars(dataset) or not input_pending
    expected = publish_by_rows(dataset, "Items", "demo", tables, groups)
    assert len(published) == len(expected) and published.is_empty == expected.is_empty
    assert_same_column(
        published.columnar("Items"), TransactionColumn.from_dataset(expected, "Items")
    )
    assert published.fingerprint() == expected.fingerprint()
    assert "_records" not in vars(published)
    assert published.name == expected.name
    assert published == expected
    assert published.columnar("Tags") is dataset.columnar("Tags")


class TestRemapEqualsRowPath:
    @given(publication=publications())
    @settings(max_examples=200, deadline=None)
    def test_published_column_equals_the_row_path(self, publication):
        assert_matches_row_path(*publication)

    @given(publication=publications())
    @settings(max_examples=60, deadline=None)
    def test_remap_of_an_unpickled_input(self, publication):
        dataset, tables, groups = publication
        assert_matches_row_path(pickle.loads(pickle.dumps(dataset)), tables, groups)


class TestEdges:
    def dataset(self, rows: list[set[str]]) -> Dataset:
        return Dataset(SCHEMA, [{"Age": 30, "Items": items, "Tags": set()} for items in rows])

    def test_two_items_meeting_at_one_label_count_once(self):
        dataset = self.dataset([{"i0", "i1", "i2"}, {"i1"}, set()])
        published = publish_items(dataset, "Items", "demo", [{"i0": "A", "i1": "A"}])
        column = published.columnar("Items")
        assert column.vocabulary.items == ("A", "i2")
        assert column.indptr.tolist() == [0, 2, 3, 3]
        assert column.tokens.tolist() == [0, 1, 0]
        assert_matches_row_path(dataset, [{"i0": "A", "i1": "A"}], None)

    def test_everything_suppressed(self):
        dataset = self.dataset([{"i0", "i1"}, {"b"}])
        for tables in ([None], [dict.fromkeys(ITEMS)]):
            column = publish_items(dataset, "Items", "demo", tables).columnar("Items")
            assert column.vocabulary.items == ()
            assert column.indptr.tolist() == [0, 0, 0] and len(column.tokens) == 0
            assert_matches_row_path(dataset, tables, None)

    def test_labels_of_other_groups_are_not_in_the_vocabulary(self):
        # Group 1's mapping names "Y" for i0, but no record of group 1 holds
        # i0: a vocabulary built from the tables would keep "Y", and shift
        # every later token.
        dataset = self.dataset([{"i0", "i2"}, {"i2"}, {"b"}])
        tables = [{"i0": "X", "i2": "Z"}, {"i0": "Y", "i2": "Z"}]
        published = publish_items(dataset, "Items", "demo", tables, np.array([0, 1, 1]))
        assert published.columnar("Items").vocabulary.items == ("X", "Z", "b")
        assert_matches_row_path(dataset, tables, [0, 1, 1])

    def test_empty_dataset(self):
        dataset = Dataset(SCHEMA, [])
        published = publish_items(dataset, "Items", "demo", [{"i0": "A"}])
        assert len(published) == 0 and published.is_empty
        assert_matches_row_path(dataset, [{"i0": "A"}], None)

    def test_relational_cells_keep_their_types(self):
        dataset = Dataset(
            SCHEMA,
            [{"Age": age, "Items": {"i0"}, "Tags": {"t"}} for age in (25, 25.0, None, "[20-30]")],
        )
        published = publish_items(dataset, "Items", "demo", [{"i0": "*"}])
        assert [type(record["Age"]) for record in published] == [int, float, type(None), str]
