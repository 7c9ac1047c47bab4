"""Property-based equivalence tests for the interpretation-index rewrite.

The index subsystem (:mod:`repro.index`) only *memoizes* pure computations,
so every metric must match a brute-force re-derivation, and the COAT/PCTA
outputs must be byte-identical with and without posting-union caching.  The
brute-force references below mirror the pre-index metric implementations
(with the root-label universe fix applied) using only
:func:`repro.metrics.interpretation.label_leaves`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import Coat, Pcta
from repro.datasets import Attribute, Dataset, Schema
from repro.exceptions import AlgorithmError
from repro.index import InvertedIndex
from repro.metrics import (
    estimated_item_frequencies,
    itemset_utility_loss,
    label_leaves,
    suppression_ratio,
    utility_loss,
)
from repro.policies.privacy import PrivacyPolicy
from repro.policies.utility import UtilityPolicy

ITEMS = [f"i{n}" for n in range(10)]

itemsets = st.lists(
    st.sets(st.sampled_from(ITEMS), min_size=1, max_size=4),
    min_size=3,
    max_size=25,
)

#: item -> published label: intact, a group label, the root, or suppression.
mappings = st.dictionaries(
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


def make_dataset(baskets) -> Dataset:
    schema = Schema([Attribute.transaction("Items")])
    return Dataset(schema, [{"Items": sorted(basket)} for basket in baskets])


def apply_mapping(dataset: Dataset, mapping) -> Dataset:
    anonymized = dataset.copy()
    for index, record in enumerate(dataset):
        labels = [
            mapping.get(item, item)
            for item in record["Items"]
            if mapping.get(item, item) is not None
        ]
        anonymized.set_value(index, "Items", labels)
    return anonymized


# -- brute-force references (pre-index hot-path logic) --------------------------
def brute_force_utility_loss(original: Dataset, anonymized: Dataset) -> float:
    universe = original.item_universe("Items")
    universe_size = len(universe)
    total_items = sum(len(record["Items"]) for record in original)
    if total_items == 0:
        return 0.0
    loss = 0.0
    for original_record, anonymized_record in zip(original, anonymized):
        target_labels = anonymized_record["Items"]
        covered = set()
        for label in target_labels:
            covered |= label_leaves(str(label), None, universe=universe)
        covered &= universe
        for item in original_record["Items"]:
            if item not in covered:
                loss += 1.0
                continue
            best = 1.0
            for label in target_labels:
                leaves = label_leaves(str(label), None, universe=universe)
                if item in leaves:
                    if universe_size <= 1:
                        cost = 0.0
                    else:
                        cost = max(0, len(leaves) - 1) / (universe_size - 1)
                    best = min(best, cost)
            loss += best
    return loss / total_items


def brute_force_suppression_ratio(original: Dataset, anonymized: Dataset) -> float:
    universe = original.item_universe("Items")
    total = 0
    suppressed = 0
    for original_record, anonymized_record in zip(original, anonymized):
        covered = set()
        for label in anonymized_record["Items"]:
            covered |= label_leaves(str(label), None, universe=universe)
        covered &= universe
        for item in original_record["Items"]:
            total += 1
            if item not in covered:
                suppressed += 1
    return suppressed / total if total else 0.0


def brute_force_estimated_frequencies(anonymized: Dataset, universe) -> dict:
    estimates = {item: 0.0 for item in universe}
    for record in anonymized:
        for label in record["Items"]:
            leaves = label_leaves(str(label), None, universe=universe) & set(universe)
            if not leaves:
                continue
            weight = 1.0 / len(leaves)
            for item in leaves:
                estimates[item] += weight
    return estimates


class TestMetricEquivalence:
    @given(baskets=itemsets, mapping=mappings)
    @settings(max_examples=60, deadline=None)
    def test_utility_loss_matches_brute_force(self, baskets, mapping):
        original = make_dataset(baskets)
        anonymized = apply_mapping(original, mapping)
        assert utility_loss(original, anonymized) == pytest.approx(
            brute_force_utility_loss(original, anonymized)
        )

    @given(
        baskets=itemsets,
        mapping=mappings,
        suppressed=st.sets(st.integers(0, 24), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_itemset_utility_loss_matches_utility_loss(self, baskets, mapping, suppressed):
        original = make_dataset(baskets)
        anonymized = apply_mapping(original, mapping)
        for index in suppressed & set(range(len(original))):
            anonymized.set_value(index, "Items", [])
        loss = itemset_utility_loss(
            original.column("Items"), anonymized.column("Items")
        )
        assert loss == utility_loss(original, anonymized)
        assert loss == pytest.approx(brute_force_utility_loss(original, anonymized))

    @given(baskets=itemsets, mapping=mappings)
    @settings(max_examples=60, deadline=None)
    def test_suppression_ratio_matches_brute_force(self, baskets, mapping):
        original = make_dataset(baskets)
        anonymized = apply_mapping(original, mapping)
        assert suppression_ratio(original, anonymized) == pytest.approx(
            brute_force_suppression_ratio(original, anonymized)
        )

    @given(baskets=itemsets, mapping=mappings)
    @settings(max_examples=60, deadline=None)
    def test_estimated_frequencies_match_brute_force(self, baskets, mapping):
        original = make_dataset(baskets)
        anonymized = apply_mapping(original, mapping)
        universe = original.item_universe("Items")
        fast = estimated_item_frequencies(anonymized, universe)
        slow = brute_force_estimated_frequencies(anonymized, universe)
        assert set(fast) == set(slow)
        for item in fast:
            assert fast[item] == pytest.approx(slow[item])


# -- algorithm output equivalence (cached vs. uncached posting unions) ----------
class UncachedCoat(Coat):
    @staticmethod
    def _build_index(dataset, attribute):
        return InvertedIndex.from_dataset(dataset, attribute, cached=False)


class UncachedPcta(Pcta):
    @staticmethod
    def _build_index(dataset, attribute):
        return InvertedIndex.from_dataset(dataset, attribute, cached=False)


constraint_sets = st.lists(
    st.sets(st.sampled_from(ITEMS), min_size=1, max_size=2),
    min_size=1,
    max_size=5,
)

#: Disjoint utility groups: chunk the universe into consecutive pairs.
UTILITY_GROUPS = [ITEMS[n : n + 2] for n in range(0, len(ITEMS), 2)]


def run_or_error(anonymizer, dataset):
    """The anonymized rows, or the AlgorithmError message when the run fails.

    COAT can legitimately fail on adversarial inputs (generalizing for one
    constraint may re-violate an already-satisfied one); cached and uncached
    execution must then fail identically.
    """
    try:
        return anonymizer.anonymize(dataset).dataset.to_rows()
    except AlgorithmError as error:
        return str(error)


class TestAlgorithmEquivalence:
    @given(baskets=itemsets, constraints=constraint_sets, k=st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_coat_output_identical_without_union_cache(self, baskets, constraints, k):
        dataset = make_dataset(baskets)
        privacy = PrivacyPolicy(constraints, k=k)
        utility = UtilityPolicy(UTILITY_GROUPS)
        cached = run_or_error(Coat(privacy, utility), dataset)
        uncached = run_or_error(UncachedCoat(privacy, utility), dataset)
        assert cached == uncached

    @given(baskets=itemsets, constraints=constraint_sets, k=st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_pcta_output_identical_without_union_cache(self, baskets, constraints, k):
        dataset = make_dataset(baskets)
        privacy = PrivacyPolicy(constraints, k=k)
        cached = run_or_error(Pcta(privacy), dataset)
        uncached = run_or_error(UncachedPcta(privacy), dataset)
        assert cached == uncached
