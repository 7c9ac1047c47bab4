"""Property-based tests for universe-aware query estimation.

Three invariants anchor the estimation semantics:

* on *original* (truthful) data the probabilistic estimate collapses to the
  exact count, with or without a domains snapshot,
* an estimate is a sum of per-record probabilities in ``[0, 1]``, so it can
  never exceed the dataset size,
* the columnar estimation kernel is a pure reshaping of the per-record path,
  so the two agree to float equality (``==``, not approximately) on arbitrary
  generalized outputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.queries import count_scan, estimate_scan
from repro.datasets import Attribute, Dataset, DatasetDomains, Schema
from repro.queries import Query, RangeCondition, ValueCondition

ITEMS = [f"i{n}" for n in range(8)]
CITIES = ["athens", "berlin", "chania", "delft"]

records = st.fixed_dictionaries(
    {
        "Age": st.one_of(st.none(), st.integers(min_value=18, max_value=80)),
        "City": st.one_of(st.none(), st.sampled_from(CITIES)),
        "Items": st.sets(st.sampled_from(ITEMS), max_size=4),
    }
)

datasets = st.lists(records, min_size=1, max_size=25)

#: item -> published label: intact, the root, a group, or suppressed.
item_mappings = st.dictionaries(
    st.sampled_from(ITEMS),
    st.one_of(
        st.none(),
        st.just("*"),
        st.sets(st.sampled_from(ITEMS), min_size=2, max_size=4).map(
            lambda items: "(" + ",".join(sorted(items)) + ")"
        ),
    ),
    max_size=len(ITEMS),
)

#: city -> published label: intact, the root, or a group label.
city_mappings = st.dictionaries(
    st.sampled_from(CITIES),
    st.one_of(
        st.just("*"),
        st.sets(st.sampled_from(CITIES), min_size=2, max_size=3).map(
            lambda values: "(" + ",".join(sorted(values)) + ")"
        ),
    ),
    max_size=len(CITIES),
)

queries = st.builds(
    lambda low, width, accepted, items: Query(
        conditions={
            "Age": RangeCondition(low, low + width),
            "City": ValueCondition(accepted),
        },
        items=items,
    ),
    st.integers(min_value=15, max_value=75),
    st.integers(min_value=0, max_value=30),
    st.sets(st.sampled_from(CITIES), min_size=1, max_size=2),
    st.sets(st.sampled_from(ITEMS), max_size=2),
)


def make_dataset(rows) -> Dataset:
    schema = Schema(
        [
            Attribute.numeric("Age"),
            Attribute.categorical("City"),
            Attribute.transaction("Items"),
        ]
    )
    return Dataset(schema, [dict(row, Items=sorted(row["Items"])) for row in rows])


def generalize(dataset: Dataset, item_mapping, city_mapping) -> Dataset:
    anonymized = dataset.copy()
    for index, record in enumerate(dataset):
        items = {item_mapping.get(item, item) for item in record["Items"]}
        anonymized.set_value(index, "Items", sorted(item for item in items if item))
        city = record["City"]
        if city is not None:
            anonymized.set_value(index, "City", city_mapping.get(city, city))
        age = record["Age"]
        if age is not None and age >= 50:
            anonymized.set_value(index, "Age", "[50-80]")
        elif age is not None and age <= 25:
            # The hierarchy-free numeric root: resolved leaf-uniformly
            # against the domain snapshot only when one is given.
            anonymized.set_value(index, "Age", "*")
    return anonymized


@settings(max_examples=60, deadline=None)
@given(rows=datasets, query=queries)
def test_estimate_equals_count_on_original_data(rows, query):
    dataset = make_dataset(rows)
    domains = DatasetDomains.capture(dataset)
    count = query.count(dataset)
    assert count_scan(query, dataset) == count
    for snapshot in (None, domains):
        estimate = query.estimate(dataset, domains=snapshot)
        assert estimate == pytest.approx(count)


@settings(max_examples=60, deadline=None)
@given(
    rows=datasets,
    query=queries,
    item_mapping=item_mappings,
    city_mapping=city_mappings,
)
def test_estimate_bounded_by_dataset_size(rows, query, item_mapping, city_mapping):
    dataset = make_dataset(rows)
    anonymized = generalize(dataset, item_mapping, city_mapping)
    domains = DatasetDomains.capture(dataset)
    for snapshot in (None, domains):
        estimate = query.estimate(anonymized, domains=snapshot)
        assert 0.0 <= estimate <= len(dataset) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    rows=datasets,
    query=queries,
    item_mapping=item_mappings,
    city_mapping=city_mappings,
)
def test_columnar_kernel_matches_per_record_path_exactly(
    rows, query, item_mapping, city_mapping
):
    dataset = make_dataset(rows)
    anonymized = generalize(dataset, item_mapping, city_mapping)
    domains = DatasetDomains.capture(dataset)
    assert query.count(anonymized) == count_scan(query, anonymized)
    for snapshot in (None, domains):
        kernel = query.estimate(anonymized, domains=snapshot)
        scalar = estimate_scan(query, anonymized, domains=snapshot)
        assert kernel == scalar  # bit-for-bit, not approximately
