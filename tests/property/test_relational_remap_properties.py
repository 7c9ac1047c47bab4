"""Relational outputs built from columns against the row path they replaced.

``CategoricalColumn.remap`` / ``from_images`` write a relational attribute
from codes and one image per code, and ``Dataset.with_columns`` wraps the
result without copying a row.  The row path copied the dataset and wrote
every cell with ``set_column`` (:func:`publish_cells_by_rows`).  The two must
agree on everything a reader sees: codes, values, string-identity codes,
the cells with their exact types, the fingerprint and a pickle round trip.
Cells mix ``25``/``25.0``/``-0.0``/``0``/``None``/``"25"``, and labels that
normalise to numbers (``"30"`` becomes ``30`` in a numeric column).

The publishers built on them are pinned here too, beyond the fingerprints
``test_relational_fastpath_properties.py`` compares: Cluster's labels per
cluster (with records outside every cluster, and clusters whose members
all lack an attribute), Top-Down's cut labels, the leftover costs, the
column-grouped ``group_by`` and the (k, k^m) check by class.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.privacy import group_by_rows, k_km_violations_by_subsets
from oracles.relational import (
    ScalarClusterAnonymizer,
    ScalarTopDown,
    bounds_cost_scalar,
    bounds_scalar,
)
from repro.algorithms import ClusterAnonymizer, TopDownSpecialization
from repro.algorithms.relational.cluster import _ClusterBounds
from repro.columnar import CategoricalColumn, NumericColumn
from repro.datasets import Attribute, Dataset, Schema, generate_rt_dataset
from repro.exceptions import DatasetError, HierarchyError
from repro.hierarchy import build_hierarchies_for_dataset
from repro.hierarchy.hierarchy import HierarchyBuilder
from repro.metrics import k_km_violations

SCHEMA = Schema(
    [
        Attribute.numeric("Age"),
        Attribute.categorical("City"),
        Attribute.numeric("Income", quasi_identifier=False),
    ]
)
NUMERIC_CELLS = [25, 25.0, -0.0, 0, 0.0, None, 30, 7.5, "[20-40]", "25"]
CATEGORICAL_CELLS = ["25", 25, 25.0, -0.0, None, "a", "b", "*"]
IMAGES = [
    "30", "30.0", " 30 ", "[20-40]", " [20-40] ", "*", None, 25, 25.0, -0.0, 0, "25", "7.5",
]
CATEGORICAL_IMAGES = ["30", "a", "(a,b)", "*", None, 25, 25.0, -0.0, "25"]


def publish_cells_by_rows(dataset: Dataset, attribute: str, cells: list) -> Dataset:
    """A copy of ``dataset`` whose ``attribute`` holds ``cells``: the row path."""
    published = dataset.copy(name=f"{dataset.name}[rows]")
    published.set_column(attribute, cells)
    return published


def typed(cells) -> list:
    """Cells compared by type and ``repr`` (``25`` vs ``25.0``, ``-0.0`` vs ``0.0``)."""
    return [(type(cell), repr(cell)) for cell in cells]


def assert_same_column(column, expected) -> None:
    assert type(column) is type(expected)
    assert typed(column.values) == typed(expected.values)
    assert np.array_equal(column.codes, expected.codes)
    assert column.codes.dtype == expected.codes.dtype
    codes, labels = column.string_codes()
    expected_codes, expected_labels = expected.string_codes()
    assert np.array_equal(codes, expected_codes)
    assert labels == expected_labels
    if isinstance(expected, NumericColumn):
        assert np.array_equal(column.numbers, expected.numbers, equal_nan=True)


def assert_same_output(published: Dataset, expected: Dataset, *attributes: str) -> None:
    """``published`` (built from columns) reads exactly as the row-built ``expected``."""
    assert "_records" not in vars(published)
    for attribute in attributes:
        assert_same_column(published.columnar(attribute), expected.columnar(attribute))
        assert typed(published.column(attribute)) == typed(expected.column(attribute))
    assert published.fingerprint() == expected.fingerprint()
    clone = pickle.loads(pickle.dumps(published))
    assert "_records" not in vars(clone)
    assert clone.fingerprint() == expected.fingerprint()
    for name in expected.schema.names:
        assert typed(clone.column(name)) == typed(expected.column(name))
    assert "_records" not in vars(published)
    assert [typed(record.values_for(expected.schema.names)) for record in published] == [
        typed(record.values_for(expected.schema.names)) for record in expected
    ]


@st.composite
def datasets(draw, min_size=0):
    size = draw(st.integers(min_size, 30))
    rows = [
        {
            "Age": draw(st.sampled_from(NUMERIC_CELLS)),
            "City": draw(st.sampled_from(CATEGORICAL_CELLS)),
            "Income": draw(st.sampled_from(NUMERIC_CELLS)),
        }
        for _ in range(size)
    ]
    return Dataset(SCHEMA, rows, name="people")


@st.composite
def remap_inputs(draw):
    dataset = draw(datasets())
    attribute = draw(st.sampled_from(["Age", "City"]))
    pool = IMAGES if attribute == "Age" else CATEGORICAL_IMAGES
    column = dataset.columnar(attribute)
    n_tables = draw(st.integers(1, 3))
    images = [
        draw(
            st.one_of(
                st.lists(st.sampled_from(pool), min_size=len(column.values),
                         max_size=len(column.values)),
                st.just([None] * len(column.values)),  # an all-missing group
                st.just(list(column.values)),  # values[code], codes merged
            )
        )
        for _ in range(n_tables)
    ]
    groups = None
    if n_tables > 1 or draw(st.booleans()):
        groups = np.array(
            draw(st.lists(st.integers(0, n_tables - 1), min_size=len(dataset),
                          max_size=len(dataset))),
            dtype=np.int64,
        )
    return dataset, attribute, images, groups


@given(inputs=remap_inputs())
@settings(max_examples=200, deadline=None)
def test_remap_equals_the_row_path(inputs):
    dataset, attribute, images, groups = inputs
    column = dataset.columnar(attribute)
    codes = column.codes.tolist()
    cells = [
        images[0 if groups is None else int(groups[record])][code]
        for record, code in enumerate(codes)
    ]
    expected = publish_cells_by_rows(dataset, attribute, cells)
    published = dataset.with_columns(
        {attribute: column.remap(images, groups)}, name=expected.name
    )
    assert_same_output(published, expected, attribute)


@given(dataset=datasets(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_from_images_equals_the_row_path(dataset, data):
    n_ids = data.draw(st.integers(1, 6))
    ids = np.array(
        data.draw(st.lists(st.integers(0, n_ids - 1), min_size=len(dataset),
                           max_size=len(dataset))),
        dtype=np.int64,
    )
    images = data.draw(st.lists(st.sampled_from(IMAGES), min_size=n_ids, max_size=n_ids))
    published = dataset.with_columns(
        {"Age": CategoricalColumn.from_images(dataset.schema["Age"], images, ids)}
    )
    expected = publish_cells_by_rows(dataset, "Age", [images[i] for i in ids.tolist()])
    assert_same_output(published, expected, "Age")


@given(dataset=datasets(min_size=1))
@settings(max_examples=50, deadline=None)
def test_untouched_attributes_keep_their_cells_and_columns(dataset):
    income = dataset.columnar("Income")
    city = dataset.columnar("City")
    published = dataset.with_columns(
        {"Age": dataset.columnar("Age").remap([["30"] * len(dataset.columnar("Age").values)])}
    )
    assert published.columnar("Income") is income
    assert published.columnar("City") is city
    assert typed(published.column("Income")) == typed(dataset.column("Income"))
    assert "_records" not in vars(published)
    again = published.with_columns({"City": city.remap([["a"] * len(city.values)])})
    assert again.columnar("Age") is published.columnar("Age")
    assert typed(again.column("Income")) == typed(dataset.column("Income"))
    assert "_records" not in vars(published) and "_records" not in vars(again)


def test_only_the_images_some_record_uses_are_normalised():
    dataset = Dataset(SCHEMA, [{"Age": 25}, {"Age": 30}])
    column = dataset.columnar("Age")
    published = column.remap([["[20-40]", "x"], ["x", "31"]], np.array([0, 1]))
    assert published.cells() == ["[20-40]", 31]
    with pytest.raises(DatasetError):
        column.remap([["[20-40]", "not a number"]])
    with pytest.raises(DatasetError):
        dataset.set_column("Age", ["[20-40]", "not a number"])


def test_a_merged_code_keeps_each_cells_type():
    dataset = Dataset(SCHEMA, [{"Age": 25}, {"Age": 25.0}, {"Age": -0.0}, {"Age": 0}])
    column = CategoricalColumn.from_images(
        dataset.schema["Age"], [25, 25.0, -0.0, 0], np.arange(4)
    )
    assert typed(column.values) == typed([25, -0.0])
    assert typed(column.cells()) == typed([25, 25.0, -0.0, 0])
    assert column.string_codes()[1] == ("25", "25.0", "-0.0", "0")


# -- the publishers ----------------------------------------------------------------
def city_hierarchy():
    builder = HierarchyBuilder("*")
    for parent, leaves in (("ab", ("a", "b")), ("cd", ("c", "d"))):
        builder.add(parent, "*")
        for leaf in leaves:
            builder.add(leaf, parent)
    return builder.build()


PUBLISH_SCHEMA = Schema(
    [Attribute.numeric("Age"), Attribute.categorical("City"), Attribute.categorical("Job")]
)


@st.composite
def cluster_inputs(draw):
    size = draw(st.integers(1, 24))
    rows = [
        {
            "Age": draw(st.sampled_from([25, 25.0, -0.0, 0, None, 31, 7.5])),
            "City": draw(st.sampled_from(["a", "b", "c", "d", None])),
            "Job": draw(st.sampled_from(["x", "y", None, "25"])),
        }
        for _ in range(size)
    ]
    dataset = Dataset(PUBLISH_SCHEMA, rows, name="people")
    records = draw(st.permutations(range(size)))
    covered = draw(st.integers(0, size))
    cuts = sorted(draw(st.lists(st.integers(0, covered), max_size=4)))
    bounds = [0, *cuts, covered]
    clusters = [list(records[start:end]) for start, end in zip(bounds, bounds[1:])]
    hierarchies = {"City": city_hierarchy()} if draw(st.booleans()) else {}
    return dataset, clusters, hierarchies


@given(inputs=cluster_inputs())
@settings(max_examples=150, deadline=None)
def test_cluster_publish_equals_the_row_path(inputs):
    dataset, clusters, hierarchies = inputs
    attributes = ["Age", "City", "Job"]
    published = ClusterAnonymizer(2, hierarchies).generalize_clusters(
        dataset, clusters, attributes
    )
    expected = ScalarClusterAnonymizer(2, hierarchies).generalize_clusters(
        dataset, clusters, attributes
    )
    assert published.name == expected.name
    assert_same_output(published, expected, *attributes)


def test_cluster_labels_need_known_values_under_a_hierarchy():
    dataset = Dataset(PUBLISH_SCHEMA, [{"City": "a"}, {"City": "elsewhere"}, {"City": "b"}])
    anonymizer = ClusterAnonymizer(2, {"City": city_hierarchy()})
    alone = anonymizer.generalize_clusters(dataset, [[0, 2], [1]], ["City"])
    assert alone.column("City") == ["ab", "elsewhere", "ab"]
    with pytest.raises(HierarchyError):
        anonymizer.generalize_clusters(dataset, [[0, 1, 2]], ["City"])


@given(inputs=cluster_inputs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_leftover_scores_are_the_scalar_bounds_costs(inputs, data):
    dataset, clusters, hierarchies = inputs
    clusters = [cluster for cluster in clusters if cluster]
    placed = {index for cluster in clusters for index in cluster}
    leftovers = [index for index in range(len(dataset)) if index not in placed]
    if not clusters or not leftovers:
        return
    leftovers = data.draw(st.permutations(leftovers))
    attributes = ["Age", "City", "Job"]
    anonymizer = ClusterAnonymizer(2, hierarchies)
    anonymizer._prepare(dataset, attributes)
    fast = _ClusterBounds(
        anonymizer, dataset, attributes, clusters + [[leftover] for leftover in leftovers]
    )
    slow = [bounds_scalar(anonymizer, dataset, attributes, cluster) for cluster in clusters]
    targets = np.arange(len(clusters))
    for slot, leftover in enumerate(leftovers, start=len(clusters)):
        widened = [
            bounds_scalar(anonymizer, dataset, attributes, [leftover], bound) for bound in slow
        ]
        expected = [bounds_cost_scalar(anonymizer, attributes, bound) for bound in widened]
        assert fast.scores(slot, targets).tolist() == expected
        best = int(np.argmin(expected))
        fast.fold(best, slot)
        slow[best] = widened[best]


@st.composite
def topdown_inputs(draw):
    ages = draw(st.lists(st.sampled_from([25, 25.0, 30, 7.5, -0.0]), min_size=2, max_size=20))
    cities = draw(st.lists(st.sampled_from("abcd"), min_size=len(ages), max_size=len(ages)))
    rows = [{"Age": age, "City": city, "Job": "x"} for age, city in zip(ages, cities)]
    return Dataset(PUBLISH_SCHEMA, rows, name="people"), draw(st.integers(2, len(ages)))


def age_hierarchy():
    builder = HierarchyBuilder("*")
    for parent, leaves in (("[0-8]", ("7.5", "-0.0")), ("[25-30]", ("25", "25.0", "30"))):
        builder.add(parent, "*")
        for leaf in leaves:
            builder.add(leaf, parent)
    return builder.build()


@given(inputs=topdown_inputs())
@settings(max_examples=80, deadline=None)
def test_topdown_publish_equals_the_row_path(inputs):
    dataset, k = inputs
    hierarchies = {"Age": age_hierarchy(), "City": city_hierarchy()}
    fast = TopDownSpecialization(k, hierarchies, ["Age", "City"]).anonymize(dataset)
    slow = ScalarTopDown(k, hierarchies, ["Age", "City"]).anonymize(dataset)
    assert_same_output(fast.dataset, slow.dataset, "Age", "City", "Job")


# -- grouping and the (k, k^m) check on columns -------------------------------------
@given(dataset=datasets(), names=st.sampled_from([[], ["Age"], ["City", "Age"], ["Income", "City"]]))
@settings(max_examples=100, deadline=None)
def test_group_by_on_columns_equals_the_row_walk(dataset, names):
    groups = dataset.group_by(names)
    expected = group_by_rows(dataset, names)
    assert list(groups.values()) == list(expected.values())
    assert [typed(key) for key in groups] == [typed(key) for key in expected]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("universe", [None, "given"])
def test_k_km_witnesses_equal_the_per_subset_check(seed, k, universe):
    dataset = generate_rt_dataset(n_records=60, n_items=12, seed=seed)
    hierarchies = build_hierarchies_for_dataset(dataset)
    attribute = dataset.single_transaction_attribute()
    attributes = [dataset.schema.relational_names[0]]
    items = None if universe is None else dataset.item_universe(attribute)
    expected = k_km_violations_by_subsets(
        dataset, k, 2, attributes, attribute, hierarchies.get(attribute), items
    )
    witnesses = k_km_violations(
        dataset, k, 2, attributes, attribute, hierarchies.get(attribute), items
    )
    assert witnesses == expected
    assert any(witness.kind == "transaction" for witness in expected)
    assert k_km_violations(
        dataset, k, 2, attributes, attribute, hierarchies.get(attribute), items,
        max_violations=3,
    ) == expected[:3]
