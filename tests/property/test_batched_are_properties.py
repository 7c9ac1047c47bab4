"""Property tests: the batched workload estimator against the per-record scans.

:func:`repro.queries.average_relative_error` estimates a whole workload in
one pass over the anonymized output (shared condition tables, one item-match
matrix); ``tests/oracles/queries.py`` answers each query one record at a
time.  Every per-query actual and estimate, the ARE and the worst query must
be *equal* (``==``): the batched pass keeps the reference's multiplication
and addition order, and float arithmetic is not associative.

The generated workloads mix relational and item predicates, share conditions
across queries and repeat whole queries; the outputs have empty rows,
suppressed items, items no record publishes, and may be fully suppressed
(``*`` everywhere).  Numeric cells include ``25`` next to ``25.0`` and
``-0.0`` next to ``0``, which share dictionary codes but not string codes.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.queries import average_relative_error_scan, count_scan, estimate_scan
from repro.datasets import Attribute, Dataset, DatasetDomains, Schema
from repro.queries import (
    Query,
    RangeCondition,
    ValueCondition,
    average_relative_error,
    estimate_workload,
)

ITEMS = [f"i{n}" for n in range(9)]
#: Queried but never published: absent from every output vocabulary.
ABSENT = "i99"
CITIES = ["athens", "berlin", "chania", "delft"]
AGES = [25, 25.0, -0.0, 0, 18, 40, 61]

records = st.fixed_dictionaries(
    {
        "Age": st.one_of(st.none(), st.sampled_from(AGES), st.integers(0, 80)),
        "City": st.one_of(st.none(), st.sampled_from(CITIES)),
        "Items": st.sets(st.sampled_from(ITEMS), max_size=5),
    }
)

#: item -> published label: the root, a group, or suppressed (``None``).
item_mappings = st.dictionaries(
    st.sampled_from(ITEMS),
    st.one_of(
        st.none(),
        st.just("*"),
        st.sets(st.sampled_from(ITEMS), min_size=2, max_size=7).map(
            lambda items: "(" + ",".join(sorted(items)) + ")"
        ),
    ),
    max_size=len(ITEMS),
)

#: city -> published label: the root or a group label.
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

#: A small pool, so conditions recur across the queries of a workload.
CONDITIONS = [
    ("Age", RangeCondition(20, 45)),
    ("Age", RangeCondition(-0.0, 25.0)),
    ("Age", RangeCondition(33.5, 70)),
    ("Age", ValueCondition(["25"])),
    ("Age", ValueCondition(["25.0", "0"])),
    ("City", ValueCondition(["athens"])),
    ("City", ValueCondition(["berlin", "delft"])),
]

queries = (
    st.tuples(
        # The drawn order is the query's condition order.
        st.lists(st.sampled_from(CONDITIONS), max_size=2, unique_by=lambda pair: pair[0]),
        st.sets(st.sampled_from(ITEMS + [ABSENT]), max_size=4),
    )
    .filter(lambda drawn: drawn[0] or drawn[1])
    .map(lambda drawn: Query(dict(drawn[0]), drawn[1]))
)

workloads = st.tuples(
    st.lists(queries, min_size=1, max_size=8), st.integers(0, 3)
).map(lambda drawn: drawn[0] + drawn[0][: drawn[1]])  # some queries twice


def make_dataset(rows) -> Dataset:
    schema = Schema(
        [
            Attribute.numeric("Age"),
            Attribute.categorical("City"),
            Attribute.transaction("Items"),
        ]
    )
    return Dataset(schema, [dict(row, Items=sorted(row["Items"])) for row in rows])


def generalize(dataset: Dataset, item_mapping, city_mapping, suppress_all) -> Dataset:
    anonymized = dataset.copy()
    for index, record in enumerate(dataset):
        if suppress_all:
            anonymized.set_value(index, "Items", ["*"] if record["Items"] else [])
            anonymized.set_value(index, "City", "*")
            anonymized.set_value(index, "Age", "*")
            continue
        items = {item_mapping.get(item, item) for item in record["Items"]}
        anonymized.set_value(index, "Items", sorted(item for item in items if item))
        city = record["City"]
        if city is not None:
            anonymized.set_value(index, "City", city_mapping.get(city, city))
        age = record["Age"]
        if age is not None and age >= 50:
            anonymized.set_value(index, "Age", "[50-80]")
        elif age is not None and 30 <= age < 36:
            anonymized.set_value(index, "Age", "[30-38]")
        elif age is not None and age <= 18:
            # The hierarchy-free numeric root: resolved leaf-uniformly
            # against the domain snapshot only when one is given.
            anonymized.set_value(index, "Age", "*")
    return anonymized


#: An output where float order shows.  The first record matches the range
#: with probability 5/8 and stands for i0, i3 and i8 with the weights 1/3
#: (a 3-group), 1/7 (a 7-group) and 1/5 (a 5-group): that itemset product
#: rounds differently in reverse order, and so does multiplying the items
#: into the 5/8 one by one.  The second record spells out the universe.
ORDER_SENSITIVE = {
    "rows": [
        {"Age": 31, "City": "athens", "Items": {"i0", "i3", "i8"}},
        {"Age": None, "City": None, "Items": set(ITEMS)},
        {"Age": 0, "City": None, "Items": set()},
    ],
    "workload": [
        Query({"Age": RangeCondition(20, 35)}, ["i0", "i3", "i8"]),
        Query({"City": ValueCondition(["athens"]), "Age": RangeCondition(20, 35)}, ["i8"]),
    ],
    "item_mapping": {
        "i0": "(i0,i1,i2)",
        "i3": "(i2,i3,i4,i5,i6,i7,i8)",
        "i8": "(i0,i5,i6,i7,i8)",
    },
    "city_mapping": {},
    "suppress_all": False,
}


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(records, min_size=1, max_size=25),
    workload=workloads,
    item_mapping=item_mappings,
    city_mapping=city_mappings,
    suppress_all=st.booleans(),
)
@example(**ORDER_SENSITIVE)
def test_batched_are_equals_the_per_record_scan(
    rows, workload, item_mapping, city_mapping, suppress_all
):
    original = make_dataset(rows)
    anonymized = generalize(original, item_mapping, city_mapping, suppress_all)
    domains = DatasetDomains.capture(original)

    batched = average_relative_error(workload, original, anonymized, domains=domains)
    scan = average_relative_error_scan(workload, original, anonymized, domains=domains)
    assert [(e.actual, e.estimate) for e in batched.per_query] == [
        (e.actual, e.estimate) for e in scan.per_query
    ]
    assert batched.per_query == scan.per_query
    assert batched.are == scan.are
    assert batched.worst_query == scan.worst_query
    assert [e.actual for e in batched.per_query] == [
        float(count_scan(query, original)) for query in workload
    ]

    # Without a snapshot every label resolves against its hierarchy alone.
    assert estimate_workload(workload, anonymized) == [
        estimate_scan(query, anonymized) for query in workload
    ]
    # A one-query call of the batched estimator is the query's estimate.
    assert [query.estimate(anonymized, domains=domains) for query in workload] == [
        e.estimate for e in batched.per_query
    ]
