"""Property tests: the bitset kernels are element-for-element equal to sets.

The bitset rewrite of :class:`repro.index.InvertedIndex` and the bitset-backed
k^m checker must be pure representation changes.  The references below are the
PR 1 ``frozenset`` implementations, re-stated verbatim; hypothesis drives
random schemas/datasets against them, and explicit cases cover the edges that
random data rarely hits (empty postings, unknown items, all-records groups,
>64 and >4096 records to cross word and block boundaries).
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.itemcut import (
    participation,
    scalar_cut_violations,
    scalar_greedy_km_anonymize,
)
from repro.algorithms import RTmerger
from repro.algorithms.transaction import apriori
from repro.algorithms.transaction._itemcut import (
    ItemCut,
    KmAnonymityChecker,
    _Promotions,
    greedy_km_anonymize,
)
from repro.columnar.bitset import bitset_from_indices, bitset_rows, rare_combinations
from repro.datasets import (
    Attribute,
    Dataset,
    Schema,
    generate_market_basket,
    generate_rt_dataset,
)
from repro.hierarchy import HierarchyBuilder, build_item_hierarchy
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

    @given(
        rows=st.lists(st.sets(st.integers(0, 199)), min_size=0, max_size=6),
        n_bits=st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitset_rows_match_packed_indices(self, rows, n_bits):
        rows = [{bit for bit in row if bit < n_bits} for row in rows]
        matrix = bitset_rows([sum(1 << bit for bit in row) for row in rows], n_bits)
        assert matrix.dtype == np.uint64
        assert matrix.shape == (len(rows), (n_bits + 63) // 64)
        for packed, row in zip(matrix, rows):
            assert np.array_equal(packed, bitset_from_indices(row, n_bits))

    def test_km_checker_handles_universe_beyond_old_limit(self):
        """Universes > 40 items (the old km_check_limit) verify quickly now."""
        dataset = generate_market_basket(n_records=400, n_items=64, seed=17)
        violations = km_violations(dataset, k=2, m=2)
        brute = brute_force_km_violations(dataset, k=2, m=2)
        assert [(v.items, v.support) for v in violations] == brute


# -- item-cut search equivalence -------------------------------------------------
WIDE_ITEMS = [f"w{n:02d}" for n in range(24)]


def random_cut(hierarchy, items, promotions, seed):
    """A cut after ``promotions`` random promotions, like VPA's starting cuts."""
    cut = ItemCut(hierarchy, items)
    rng = random.Random(seed)
    for _ in range(promotions):
        cut.generalize_node(rng.choice(sorted(cut.nodes)))
    return cut


def assert_search_matches_reference(itemsets, hierarchy, k, m, apriori_order, cut=None):
    cut_out, statistics = greedy_km_anonymize(
        itemsets, hierarchy, k, m,
        cut=None if cut is None else cut.copy(), apriori_order=apriori_order,
    )
    reference, expected = scalar_greedy_km_anonymize(
        itemsets, hierarchy, k, m,
        cut=None if cut is None else cut.copy(), apriori_order=apriori_order,
    )
    assert cut_out.mapping == reference.mapping
    assert statistics == expected


def assert_incremental_state_matches_rescoring(itemsets, hierarchy, k, m, apriori_order):
    """Drive the search a step at a time against a recount from the cut; return the steps.

    After every promotion the live node bitsets must equal the OR of their
    items' bitsets under the cut, and the kept participation counts must
    equal a full re-enumeration (the root is never counted).
    """
    checker = KmAnonymityChecker(itemsets, k, m)
    cut = ItemCut(hierarchy, checker.items)
    search = _Promotions(checker, cut)
    root = hierarchy.root.label
    steps = 0
    rounds = [[size] for size in range(1, m + 1)] if apriori_order else [range(1, m + 1)]
    for sizes in rounds:
        if cut.is_fully_generalized():
            break
        search.start_round(sizes)
        while True:
            assert search.live == checker.node_bitsets(cut.mapping)
            expected = participation(checker, cut, sizes)
            expected.pop(root, None)
            assert {node: n for node, n in search.counts.items() if n} == expected
            node = search.target()
            if node is None:
                break
            search.promote(node)
            steps += 1
            if cut.is_fully_generalized():
                break
    return steps


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
        assert_search_matches_reference(itemsets, hierarchy, k, m, apriori_order)
        cut, _ = greedy_km_anonymize(itemsets, hierarchy, k, m, apriori_order=apriori_order)
        checker = KmAnonymityChecker(itemsets, k, m)
        for size in range(1, m + 1):
            assert checker.violations(cut, size) == scalar_cut_violations(
                itemsets, cut, k, size
            )

    @given(
        itemsets=st.lists(
            st.sets(st.sampled_from(WIDE_ITEMS), min_size=1, max_size=6),
            min_size=65,
            max_size=200,
        ),
        k=st.integers(2, 8),
        m=st.integers(1, 3),
        apriori_order=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_multi_word_record_sets_match_scalar_reference(
        self, itemsets, k, m, apriori_order
    ):
        """65-200 records: the record bitsets span two to four 64-bit words."""
        hierarchy = build_item_hierarchy(WIDE_ITEMS, fanout=3)
        assert_search_matches_reference(itemsets, hierarchy, k, m, apriori_order)

    @given(
        itemsets=st.lists(st.sets(st.sampled_from(ITEMS), max_size=5), min_size=1, max_size=40),
        promotions=st.integers(0, 8),
        seed=st.integers(0, 10_000),
        k=st.integers(2, 6),
        m=st.integers(1, 3),
        apriori_order=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_supplied_starting_cut_matches_scalar_reference(
        self, itemsets, promotions, seed, k, m, apriori_order
    ):
        """VPA's path: the search resumes a cut over a universe wider than its itemsets."""
        hierarchy = build_item_hierarchy(ITEMS, fanout=3)
        cut = random_cut(hierarchy, ITEMS, promotions, seed)
        assert_search_matches_reference(itemsets, hierarchy, k, m, apriori_order, cut=cut)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("apriori_order", [True, False])
    def test_every_m_and_order_on_market_baskets(self, m, apriori_order):
        dataset = generate_market_basket(n_records=130, n_items=20, seed=30 + m)
        itemsets = [frozenset(record["Items"]) for record in dataset]
        hierarchy = build_item_hierarchy(dataset.item_universe("Items"), fanout=3)
        assert_search_matches_reference(itemsets, hierarchy, 4, m, apriori_order)

    @given(
        itemsets=st.lists(st.sets(st.sampled_from(ITEMS), max_size=5), min_size=1, max_size=70),
        k=st.integers(2, 6),
        m=st.integers(1, 3),
        apriori_order=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_state_matches_per_step_rescoring(self, itemsets, k, m, apriori_order):
        hierarchy = build_item_hierarchy(ITEMS, fanout=3)
        assert_incremental_state_matches_rescoring(itemsets, hierarchy, k, m, apriori_order)

    @pytest.mark.parametrize(
        "itemsets, k, steps, mapping",
        [
            # Promoting ``a`` lands on the live node ``(a,b)``, the item of that name.
            ([{"(a,b)"}, {"(a,b)"}, {"a"}, {"c"}, {"c"}, {"c"}], 3, 1,
             {"(a,b)": "(a,b)", "a": "(a,b)", "c": "c"}),
            # ... and promoting ``c`` then moves ``a`` to the root but leaves
            # the item ``(a,b)`` behind, splitting its cut node.
            ([{"(a,b)"}, {"(a,b)"}, {"a"}, {"c"}], 2, 2,
             {"(a,b)": "(a,b)", "a": "*", "c": "*"}),
        ],
    )
    def test_items_that_are_inner_nodes_match_scalar_reference(self, itemsets, k, steps, mapping):
        """Inner-node items break whole-group moves: the search recounts instead."""
        builder = HierarchyBuilder(attribute="Items")
        builder.add("(a,b)", "*").add("c", "*").add("a", "(a,b)").add("b", "(a,b)")
        hierarchy = builder.build()
        itemsets = [frozenset(itemset) for itemset in itemsets]
        assert assert_incremental_state_matches_rescoring(itemsets, hierarchy, k, 1, True) == steps
        cut, statistics = greedy_km_anonymize(itemsets, hierarchy, k, 1)
        assert statistics["generalization_steps"] == steps
        assert cut.mapping == mapping
        assert_search_matches_reference(itemsets, hierarchy, k, 1, True)

    def test_every_rtmerger_cluster_search_matches_scalar_reference(self, monkeypatch):
        rt = generate_rt_dataset(n_records=600, n_items=30, seed=41)
        item_hierarchy = build_item_hierarchy(rt.item_universe("Items"), fanout=3)
        searches = []

        def recording(itemsets, hierarchy, k, m, cut=None, apriori_order=True):
            itemsets = list(itemsets)
            result = greedy_km_anonymize(
                itemsets, hierarchy, k, m, cut=cut, apriori_order=apriori_order
            )
            searches.append((itemsets, hierarchy, k, m, apriori_order, result))
            return result

        monkeypatch.setattr(apriori, "greedy_km_anonymize", recording)
        result = RTmerger(k=5, m=2, delta=0.3, item_hierarchy=item_hierarchy).anonymize(rt)
        assert result.statistics["merges"] > 0
        assert len(searches) == (
            result.statistics["initial_clusters"] + result.statistics["merges"]
        )
        for itemsets, hierarchy, k, m, apriori_order, (cut, statistics) in searches:
            reference, expected = scalar_greedy_km_anonymize(
                itemsets, hierarchy, k, m, apriori_order=apriori_order
            )
            assert cut.mapping == reference.mapping
            assert statistics == expected
