"""Property tests: the bitset kernels are element-for-element equal to sets.

The bitset rewrite of :class:`repro.index.InvertedIndex` and the bitset-backed
k^m checker must be pure representation changes.  The references below are the
PR 1 ``frozenset`` implementations, re-stated verbatim; hypothesis drives
random schemas/datasets against them, and explicit cases cover the edges that
random data rarely hits (empty postings, unknown items, all-records groups,
>64 and >4096 records to cross word and block boundaries).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.transaction._itemcut import (
    ItemCut,
    KmAnonymityChecker,
    greedy_km_anonymize,
)
from repro.columnar.bitset import bitset_from_indices, rare_combinations
from repro.datasets import Attribute, Dataset, Schema, generate_market_basket
from repro.hierarchy import build_item_hierarchy
from repro.index import InvertedIndex
from repro.metrics import km_violations, label_leaves

ITEMS = [f"i{n}" for n in range(12)]

baskets = st.lists(
    st.sets(st.sampled_from(ITEMS), max_size=5),
    min_size=0,
    max_size=30,
)

groups = st.lists(
    st.sets(st.sampled_from(ITEMS + ["unknown-x", "unknown-y"]), max_size=4),
    min_size=0,
    max_size=4,
)


def make_dataset(itemsets) -> Dataset:
    schema = Schema([Attribute.transaction("Items")])
    return Dataset(schema, [{"Items": sorted(itemset)} for itemset in itemsets])


class FrozensetIndex:
    """The PR 1 pure-frozenset inverted index (reference implementation)."""

    def __init__(self, dataset: Dataset, attribute: str = "Items"):
        self._postings: dict[str, frozenset[int]] = {}
        raw: dict[str, set[int]] = {}
        for position, record in enumerate(dataset):
            for item in record[attribute]:
                raw.setdefault(item, set()).add(position)
        self._postings = {item: frozenset(records) for item, records in raw.items()}

    def postings(self, item):
        return self._postings.get(item, frozenset())

    def frequency(self, item):
        return len(self.postings(item))

    def union(self, items):
        combined: set[int] = set()
        for item in items:
            combined |= self.postings(item)
        return frozenset(combined)

    def joint_support(self, group_list):
        covering = None
        for group in group_list:
            records = self.union(group)
            covering = records if covering is None else covering & records
            if not covering:
                return 0
        return len(covering) if covering is not None else 0


class TestIndexEquivalence:
    @given(itemsets=baskets, group_list=groups)
    @settings(max_examples=80, deadline=None)
    def test_union_and_joint_support_match_frozensets(self, itemsets, group_list):
        dataset = make_dataset(itemsets)
        bitset = InvertedIndex.from_dataset(dataset)
        reference = FrozensetIndex(dataset)
        for group in group_list:
            assert bitset.union(group) == reference.union(group)
            assert bitset.union_size(group) == len(reference.union(group))
        assert bitset.joint_support(group_list) == reference.joint_support(group_list)

    @given(itemsets=baskets)
    @settings(max_examples=50, deadline=None)
    def test_postings_and_frequencies_match(self, itemsets):
        dataset = make_dataset(itemsets)
        bitset = InvertedIndex.from_dataset(dataset)
        reference = FrozensetIndex(dataset)
        for item in ITEMS + ["never-seen"]:
            assert bitset.postings(item) == reference.postings(item)
            assert bitset.frequency(item) == reference.frequency(item)

    @given(itemsets=baskets, first=groups, second=groups)
    @settings(max_examples=50, deadline=None)
    def test_merged_union_size_matches_set_union(self, itemsets, first, second):
        dataset = make_dataset(itemsets)
        bitset = InvertedIndex.from_dataset(dataset)
        reference = FrozensetIndex(dataset)
        for group_a in first:
            for group_b in second:
                expected = len(reference.union(group_a) | reference.union(group_b))
                assert bitset.merged_union_size(group_a, group_b) == expected


class TestIndexEdges:
    def test_empty_dataset(self):
        dataset = make_dataset([])
        index = InvertedIndex.from_dataset(dataset)
        assert index.universe == frozenset()
        assert index.union({"a"}) == frozenset()
        assert index.joint_support([{"a"}]) == 0
        assert index.joint_support([]) == 0

    def test_unknown_items_and_empty_groups(self):
        dataset = make_dataset([{"a"}, {"a", "b"}])
        index = InvertedIndex.from_dataset(dataset)
        assert index.postings("z") == frozenset()
        assert index.union({"z"}) == frozenset()
        assert index.union(set()) == frozenset()
        assert index.joint_support([{"a"}, set()]) == 0
        assert index.joint_support([{"a"}, {"z"}]) == 0

    def test_all_records_group(self):
        dataset = make_dataset([{"a"}, {"b"}, {"c"}])
        index = InvertedIndex.from_dataset(dataset)
        assert index.union({"a", "b", "c"}) == frozenset({0, 1, 2})
        assert index.union_size({"a", "b", "c"}) == 3
        assert index.joint_support([{"a", "b", "c"}]) == 3

    @pytest.mark.parametrize("n_records", [65, 130, 4100])
    def test_word_and_block_boundary_datasets(self, n_records):
        """Posting sets must survive packing across 64-bit word boundaries."""
        dataset = generate_market_basket(
            n_records=n_records, n_items=40, seed=n_records
        )
        bitset = InvertedIndex.from_dataset(dataset)
        reference = FrozensetIndex(dataset)
        assert bitset.universe == frozenset(reference._postings)
        for item in sorted(reference._postings)[:10]:
            assert bitset.postings(item) == reference.postings(item)
        probe = sorted(reference._postings)[:6]
        group_pairs = [set(pair) for pair in itertools.combinations(probe, 2)]
        for group in group_pairs:
            assert bitset.union(group) == reference.union(group)
        assert bitset.joint_support(group_pairs[:3]) == reference.joint_support(
            group_pairs[:3]
        )

    def test_constructor_accepts_indices_beyond_n_records(self):
        # The mapping constructor sizes its bitsets to the largest index even
        # when n_records understates it (the PR 1 behavior).
        index = InvertedIndex({"a": [0, 100], "b": [70]}, n_records=0)
        assert index.postings("a") == frozenset({0, 100})
        assert index.union({"a", "b"}) == frozenset({0, 70, 100})


# -- k^m checker equivalence ----------------------------------------------------
def brute_force_km_violations(dataset, k, m, universe=None):
    """The PR 1 per-record combination scan, restated."""
    if universe is None:
        derived = set()
        for record in dataset:
            for label in record["Items"]:
                derived.update(label_leaves(str(label), None))
        universe = derived
    universe_set = {str(item) for item in universe}
    ordered = sorted(universe_set)
    covered_sets = []
    for record in dataset:
        covered = set()
        for label in record["Items"]:
            covered.update(label_leaves(str(label), None, universe=universe_set))
        covered_sets.append(covered & universe_set)
    violations = []
    for size in range(1, m + 1):
        for combination in itertools.combinations(ordered, size):
            support = sum(
                1 for covered in covered_sets if covered.issuperset(combination)
            )
            if 0 < support < k:
                violations.append((combination, support))
    return violations


mappings = st.dictionaries(
    st.sampled_from(ITEMS),
    st.one_of(
        st.none(),
        st.just("*"),
        st.sets(st.sampled_from(ITEMS), min_size=2, max_size=4).map(
            lambda members: "(" + ",".join(sorted(members)) + ")"
        ),
    ),
    max_size=len(ITEMS),
)


class TestKmEquivalence:
    @given(
        itemsets=baskets,
        mapping=mappings,
        k=st.integers(2, 5),
        m=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_km_violations_match_brute_force(self, itemsets, mapping, k, m):
        dataset = make_dataset(itemsets)
        for position, record in enumerate(dataset):
            labels = [
                mapping.get(item, item)
                for item in record["Items"]
                if mapping.get(item, item) is not None
            ]
            dataset.set_value(position, "Items", labels)
        universe = set(ITEMS)
        fast = km_violations(dataset, k, m, universe=universe)
        slow = brute_force_km_violations(dataset, k, m, universe=universe)
        assert [(v.items, v.support) for v in fast] == slow

    @given(
        rows=st.lists(
            st.lists(st.integers(0, 1), min_size=70, max_size=70), min_size=0, max_size=9
        ),
        size=st.integers(1, 4),
        k=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_rare_combinations_match_brute_force(self, rows, size, k):
        """Word-boundary rows (70 bits), every size up to 4, lexicographic order."""
        matrix = np.stack(
            [bitset_from_indices(np.flatnonzero(row), 70) for row in rows]
        ) if rows else np.zeros((0, 2), dtype=np.uint64)
        members = [set(np.flatnonzero(row).tolist()) for row in rows]
        expected = []
        for combination in itertools.combinations(range(len(rows)), size):
            support = len(set.intersection(*(members[i] for i in combination)))
            if 0 < support < k:
                expected.append((combination, support))
        found = [
            (tuple(combination), support)
            for combinations, supports in rare_combinations(matrix, size, k)
            for combination, support in zip(combinations.tolist(), supports.tolist())
        ]
        assert found == expected

    def test_km_checker_handles_universe_beyond_old_limit(self):
        """Universes > 40 items (the old km_check_limit) verify quickly now."""
        dataset = generate_market_basket(n_records=400, n_items=64, seed=17)
        violations = km_violations(dataset, k=2, m=2)
        brute = brute_force_km_violations(dataset, k=2, m=2)
        assert [(v.items, v.support) for v in violations] == brute


# -- item-cut search equivalence -------------------------------------------------
def scalar_cut_violations(itemsets, cut, k, size):
    """The per-record combination count the bitset checker replaced, restated."""
    supports = {}
    for itemset in itemsets:
        generalized = sorted(cut.generalize_itemset(itemset))
        for combination in itertools.combinations(generalized, size):
            supports[combination] = supports.get(combination, 0) + 1
    return {c: s for c, s in supports.items() if 0 < s < k}


def scalar_greedy_km_anonymize(itemsets, hierarchy, k, m, apriori_order=True):
    """The greedy promotion loop over scalar violation counts, restated."""
    universe = {str(item) for itemset in itemsets for item in itemset}
    cut = ItemCut(hierarchy, universe)
    steps = 0
    rounds = [[size] for size in range(1, m + 1)] if apriori_order else [range(1, m + 1)]
    for sizes in rounds:
        while True:
            violations = {}
            for size in sizes:
                violations.update(scalar_cut_violations(itemsets, cut, k, size))
            if not violations or cut.is_fully_generalized():
                break
            scores = {}
            for combination in violations:
                for node in combination:
                    scores[node] = scores.get(node, 0) + 1
            promotable = {n: s for n, s in scores.items() if hierarchy.parent(n) is not None}
            if not promotable:
                break
            target = max(
                promotable,
                key=lambda node: (promotable[node], -cut.generalization_level(node), node),
            )
            cut.generalize_node(target)
            steps += 1
    return cut, steps


class TestItemCutEquivalence:
    @given(
        itemsets=st.lists(st.sets(st.sampled_from(ITEMS), max_size=5), min_size=1, max_size=40),
        k=st.integers(2, 6),
        m=st.integers(1, 3),
        apriori_order=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_greedy_search_matches_scalar_reference(self, itemsets, k, m, apriori_order):
        itemsets = [frozenset(itemset) for itemset in itemsets]
        if not any(itemsets):
            return
        hierarchy = build_item_hierarchy(ITEMS, fanout=3)
        cut, statistics = greedy_km_anonymize(
            itemsets, hierarchy, k, m, apriori_order=apriori_order
        )
        reference, steps = scalar_greedy_km_anonymize(
            itemsets, hierarchy, k, m, apriori_order=apriori_order
        )
        assert cut.mapping == reference.mapping
        assert statistics["generalization_steps"] == steps
        checker = KmAnonymityChecker(itemsets, k, m)
        for size in range(1, m + 1):
            assert checker.violations(cut, size) == scalar_cut_violations(
                itemsets, cut, k, size
            )
