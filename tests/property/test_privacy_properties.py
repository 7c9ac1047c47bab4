"""Property-based tests for privacy guarantees and information-loss metrics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.privacy import candidate_support_scan, derived_universe_scan
from repro.algorithms.transaction._itemcut import ItemCut, greedy_km_anonymize
from repro.datasets import Attribute, Dataset, Schema
from repro.datasets.statistics import frequency_relative_error
from repro.hierarchy import build_item_hierarchy
from repro.metrics import (
    candidate_support,
    categorical_value_ncp,
    is_k_anonymous,
    is_km_anonymous,
    km_violations,
    numeric_value_ncp,
    utility_loss,
)

ITEMS = [f"i{n}" for n in range(12)]

itemsets = st.lists(
    st.sets(st.sampled_from(ITEMS), min_size=1, max_size=5),
    min_size=4,
    max_size=40,
)
small_k = st.integers(min_value=2, max_value=4)


def make_transaction_dataset(baskets) -> Dataset:
    schema = Schema([Attribute.transaction("Items")])
    return Dataset(schema, [{"Items": sorted(basket)} for basket in baskets])


class TestKmAnonymizationProperties:
    @given(baskets=itemsets, k=small_k)
    @settings(max_examples=30, deadline=None)
    def test_greedy_cut_output_is_km_anonymous_or_reports_failure(self, baskets, k):
        dataset = make_transaction_dataset(baskets)
        hierarchy = build_item_hierarchy(ITEMS, fanout=3)
        cut, statistics = greedy_km_anonymize(
            [record["Items"] for record in dataset], hierarchy, k=k, m=2
        )
        if statistics["unresolvable_violations"]:
            # Can only happen when there are fewer than k non-empty baskets.
            assert sum(1 for basket in baskets if basket) < k
            return
        generalized = dataset.copy()
        generalized.map_column("Items", lambda items: sorted(cut.generalize_itemset(items)))
        assert is_km_anonymous(
            generalized, k=k, m=2, hierarchy=hierarchy, universe=set(ITEMS)
        )

    @given(baskets=itemsets)
    @settings(max_examples=30, deadline=None)
    def test_item_cut_remains_a_partition(self, baskets):
        hierarchy = build_item_hierarchy(ITEMS, fanout=3)
        cut = ItemCut(hierarchy, ITEMS)
        # Promote a few arbitrary nodes and check the partition invariant.
        for item in ITEMS[::3]:
            cut.generalize_node(cut.image(item))
        leaf_sets = {}
        for item in ITEMS:
            image = cut.image(item)
            assert hierarchy.is_ancestor(image, item)
            leaf_sets.setdefault(image, set(hierarchy.leaves(image)))
        covered = [leaf for leaves in leaf_sets.values() for leaf in leaves]
        assert len(covered) == len(set(covered)), "cut nodes must not overlap"
        assert set(ITEMS) <= set(covered)


class TestMetricProperties:
    @given(baskets=itemsets, suppressed=st.sets(st.sampled_from(ITEMS), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_utility_loss_is_bounded_and_monotone_in_suppression(self, baskets, suppressed):
        dataset = make_transaction_dataset(baskets)
        partially = dataset.copy()
        partially.map_column(
            "Items", lambda items: [item for item in items if item not in suppressed]
        )
        fully = dataset.copy()
        fully.map_column("Items", lambda items: [])
        partial_loss = utility_loss(dataset, partially)
        full_loss = utility_loss(dataset, fully)
        assert 0.0 <= partial_loss <= full_loss <= 1.0

    @given(
        group_size=st.integers(min_value=1, max_value=30),
        domain=st.integers(min_value=2, max_value=50),
    )
    def test_categorical_ncp_is_bounded(self, group_size, domain):
        label = "(" + ",".join(f"v{i}" for i in range(group_size)) + ")" if group_size > 1 else "v0"
        value = categorical_value_ncp(label, None, domain_size=domain)
        assert 0.0 <= value <= max(1.0, (group_size - 1) / (domain - 1))

    @given(
        low=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        width=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    def test_numeric_ncp_is_bounded(self, low, width):
        label = f"[{low}-{low + width}]"
        value = numeric_value_ncp(label, None, -2e6, 2e6)
        assert 0.0 <= value <= 1.0

    @given(
        original=st.dictionaries(st.sampled_from(ITEMS), st.integers(1, 50), min_size=1),
        anonymized=st.dictionaries(st.sampled_from(ITEMS), st.integers(0, 50)),
    )
    def test_frequency_relative_error_is_non_negative(self, original, anonymized):
        errors = frequency_relative_error(original, anonymized)
        assert all(error >= 0 for error in errors.values())


class TestKAnonymityProperties:
    @given(
        ages=st.lists(st.integers(min_value=20, max_value=25), min_size=3, max_size=30),
        k=small_k,
    )
    @settings(max_examples=40, deadline=None)
    def test_fully_generalized_table_is_k_anonymous(self, ages, k):
        schema = Schema([Attribute.numeric("Age")])
        dataset = Dataset(schema, [{"Age": age} for age in ages])
        generalized = dataset.copy()
        generalized.map_column("Age", lambda _age: "[20-25]")
        assert is_k_anonymous(generalized, min(k, len(dataset)))


#: Published labels: leaves, inner nodes and the root of ``LABEL_HIERARCHY``,
#: item groups, and labels the hierarchy does not know.
LABEL_HIERARCHY = build_item_hierarchy(ITEMS, fanout=3)
LABELS = LABEL_HIERARCHY.labels + ["(i0,i5)", "(i3,i4,i11)", "unknown"]


class TestLabelResolutionMatchesPerRecordScan:
    """The k^m checks resolve each distinct label once; a per-record walk agrees."""

    @given(
        baskets=st.lists(st.sets(st.sampled_from(LABELS), max_size=4), max_size=30),
        items=st.lists(st.sampled_from(ITEMS + ["unknown", "absent"]), max_size=3),
        with_hierarchy=st.booleans(),
        restrict=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_candidate_support_matches_the_scan(self, baskets, items, with_hierarchy, restrict):
        dataset = make_transaction_dataset(baskets)
        hierarchy = LABEL_HIERARCHY if with_hierarchy else None
        universe = set(ITEMS[:6]) if restrict else None
        for probe in [items] + [[item] for item in ITEMS]:
            assert candidate_support(
                dataset, probe, hierarchy=hierarchy, universe=universe
            ) == candidate_support_scan(dataset, probe, "Items", hierarchy, universe)

    @given(
        baskets=st.lists(st.sets(st.sampled_from(LABELS), max_size=4), max_size=30),
        k=st.integers(2, 5),
        m=st.integers(1, 2),
        with_hierarchy=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_derived_universe_matches_the_scan(self, baskets, k, m, with_hierarchy):
        dataset = make_transaction_dataset(baskets)
        hierarchy = LABEL_HIERARCHY if with_hierarchy else None
        universe = derived_universe_scan(dataset, "Items", hierarchy)
        assert km_violations(dataset, k, m, hierarchy=hierarchy) == km_violations(
            dataset, k, m, hierarchy=hierarchy, universe=universe
        )
        # Past k = |records| every covered item is rare: the witnesses of
        # size 1 spell out the derived universe.
        everything = km_violations(dataset, len(dataset) + 1, 1, hierarchy=hierarchy)
        assert {violation.items for violation in everything} == {(item,) for item in universe}
