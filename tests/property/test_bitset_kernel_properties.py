"""Property tests: the bitset kernels are element-for-element equal to sets.

The bitset-backed :class:`repro.index.InvertedIndex`, the rare-combination
enumerator and the k^m checker must be pure representation changes.  The
references below are ``frozenset`` and ``itertools.combinations`` scans;
hypothesis drives random schemas/datasets against them, and explicit cases
cover the edges that random data rarely hits (empty postings, unknown items,
all-records groups, >64 and >4096 records to cross word and block boundaries).
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles.index import FrozensetIndex
from oracles.itemcut import (
    forced_root_publication,
    participation,
    scalar_cut_violations,
    scalar_greedy_km_anonymize,
)
from repro.algorithms import AprioriAnonymizer, RTmerger
from repro.algorithms.rt import bounding
from repro.algorithms.transaction._itemcut import (
    ItemCut,
    KmAnonymityChecker,
    _Promotions,
    greedy_km_anonymize,
)
from repro.columnar.bitset import rare_combinations
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
from repro.metrics.transaction import itemset_utility_loss

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


class TestIndexEquivalence:
    @given(itemsets=baskets, group_list=groups)
    @settings(max_examples=80, deadline=None)
    def test_union_and_joint_support_match_frozensets(self, itemsets, group_list):
        dataset = make_dataset(itemsets)
        bitset = InvertedIndex.from_dataset(dataset)
        reference = FrozensetIndex(dataset)
        for group in group_list:
            assert bitset.union_size(group) == len(reference.union(group))
        assert bitset.joint_support(group_list) == reference.joint_support(group_list)

    @given(itemsets=baskets)
    @settings(max_examples=50, deadline=None)
    def test_postings_and_frequencies_match(self, itemsets):
        dataset = make_dataset(itemsets)
        bitset = InvertedIndex.from_dataset(dataset)
        reference = FrozensetIndex(dataset)
        for item in ITEMS + ["never-seen"]:
            assert (item in bitset) == bool(reference.postings(item))
            assert bitset.frequency(item) == reference.frequency(item)
        for first, second in itertools.combinations(ITEMS, 2):
            shared = reference.postings(first) & reference.postings(second)
            assert bitset.joint_support([{first}, {second}]) == len(shared)

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
        assert index.union_size({"a"}) == 0
        assert index.joint_support([{"a"}]) == 0
        assert index.joint_support([]) == 0

    def test_unknown_items_and_empty_groups(self):
        dataset = make_dataset([{"a"}, {"a", "b"}])
        index = InvertedIndex.from_dataset(dataset)
        assert index.frequency("z") == 0
        assert index.union_size({"z"}) == 0
        assert index.union_size(set()) == 0
        assert index.joint_support([{"a"}, set()]) == 0
        assert index.joint_support([{"a"}, {"z"}]) == 0

    def test_all_records_group(self):
        dataset = make_dataset([{"a"}, {"b"}, {"c"}])
        index = InvertedIndex.from_dataset(dataset)
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
            assert bitset.frequency(item) == reference.frequency(item)
        probe = sorted(reference._postings)[:6]
        group_pairs = [set(pair) for pair in itertools.combinations(probe, 2)]
        for group in group_pairs:
            assert bitset.union_size(group) == len(reference.union(group))
            assert bitset.joint_support([{item} for item in group]) == (
                reference.joint_support([{item} for item in group])
            )
        assert bitset.joint_support(group_pairs[:3]) == reference.joint_support(
            group_pairs[:3]
        )


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
        data=st.data(),
        width=st.sampled_from([70, 130]),
        size=st.integers(0, 4),
        k=st.integers(1, 70),
    )
    @settings(max_examples=80, deadline=None)
    def test_rare_combinations_match_itertools_brute_force(self, data, width, size, k):
        """Rows crossing word boundaries (70 and 130 bits), with and without a start.

        The enumerator must yield exactly the rare combinations, in
        lexicographic order, each with the AND of its rows and the start.
        """
        bitset = st.integers(0, (1 << width) - 1)
        rows = data.draw(st.lists(bitset, max_size=9), label="rows")
        start = data.draw(st.none() | bitset, label="start")
        members = [{bit for bit in range(width) if row >> bit & 1} for row in rows]
        base = [] if start is None else [{bit for bit in range(width) if start >> bit & 1}]
        expected = []
        for combination in itertools.combinations(range(len(rows)), size):
            sets = [members[i] for i in combination] + base
            together = set.intersection(*sets) if sets else set()
            if 0 < len(together) < k:
                expected.append((combination, sum(1 << bit for bit in together)))
        assert list(rare_combinations(rows, size, k, start)) == expected

    @given(
        itemsets=st.lists(st.sets(st.sampled_from(ITEMS), max_size=5), max_size=140),
        k=st.integers(2, 5),
        m=st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_km_witness_records_are_the_supporting_records(self, itemsets, k, m):
        """Up to 140 records: the witnesses' record sets span up to three words."""
        for violation in km_violations(make_dataset(itemsets), k, m):
            supporting = tuple(
                record
                for record, itemset in enumerate(itemsets)
                if itemset.issuperset(violation.items)
            )
            assert violation.records == supporting
            assert violation.support == len(supporting)

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


def scalar_publish(itemsets, hierarchy, k, m):
    """Apriori's published itemsets and their UL, through the scalar search."""
    cut, statistics = scalar_greedy_km_anonymize(itemsets, hierarchy, k, m)
    if statistics["unresolvable_violations"]:
        published = [frozenset()] * len(itemsets)
    else:
        published = [cut.generalize_itemset(items) for items in itemsets]
    return published, itemset_utility_loss(itemsets, published, hierarchy)


def inner_node_hierarchy():
    """``(a,b)`` is an item and the parent of the items ``a`` and ``b``."""
    builder = HierarchyBuilder(attribute="Items")
    builder.add("(a,b)", "*").add("c", "*").add("a", "(a,b)").add("b", "(a,b)")
    return builder.build()


INNER_NODE_CASES = [
    # Promoting ``a`` lands on the live node ``(a,b)``, the item of that name.
    ([{"(a,b)"}, {"(a,b)"}, {"a"}, {"c"}, {"c"}, {"c"}], 3, 1,
     {"(a,b)": "(a,b)", "a": "(a,b)", "c": "c"}),
    # ... and promoting ``c`` then moves ``a`` to the root but leaves
    # the item ``(a,b)`` behind, splitting its cut node.
    ([{"(a,b)"}, {"(a,b)"}, {"a"}, {"c"}], 2, 2,
     {"(a,b)": "(a,b)", "a": "*", "c": "*"}),
]


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

    @pytest.mark.parametrize("itemsets, k, steps, mapping", INNER_NODE_CASES)
    def test_items_that_are_inner_nodes_match_scalar_reference(self, itemsets, k, steps, mapping):
        """Inner-node items break whole-group moves: the search recounts instead."""
        hierarchy = inner_node_hierarchy()
        itemsets = [frozenset(itemset) for itemset in itemsets]
        assert assert_incremental_state_matches_rescoring(itemsets, hierarchy, k, 1, True) == steps
        cut, statistics = greedy_km_anonymize(itemsets, hierarchy, k, 1)
        assert statistics["generalization_steps"] == steps
        assert cut.mapping == mapping
        assert_search_matches_reference(itemsets, hierarchy, k, 1, True)

    def test_every_rtmerger_cluster_search_matches_scalar_reference(self, monkeypatch):
        """Every cluster's publish, decided in advance or searched, equals the scalar search's."""
        rt = generate_rt_dataset(n_records=600, n_items=30, seed=41)
        item_hierarchy = build_item_hierarchy(rt.item_universe("Items"), fanout=3)
        publishes, decided = [], []
        publication = bounding._RootChildBits.publication
        publish = bounding._ClusterPublisher.publish

        def recording_decision(self, slot, cluster):
            output = publication(self, slot, cluster)
            decided.append(output is not None)
            return output

        def recording_publish(self, slot, cluster):
            published, loss = publish(self, slot, cluster)
            original = [self.dataset[index][self.attribute] for index in cluster]
            publishes.append((original, published, loss))
            return published, loss

        monkeypatch.setattr(bounding._RootChildBits, "publication", recording_decision)
        monkeypatch.setattr(bounding._ClusterPublisher, "publish", recording_publish)
        result = RTmerger(k=5, m=2, delta=0.3, item_hierarchy=item_hierarchy).anonymize(rt)
        assert result.statistics["merges"] > 0
        assert len(publishes) == len(decided) == (
            result.statistics["initial_clusters"] + result.statistics["merges"]
        )
        assert any(decided) and not all(decided)
        for original, published, loss in publishes:
            assert (published, loss) == scalar_publish(original, item_hierarchy, 5, 2)


class TestForcedRootPublication:
    """The RT publisher's shortcut: a rare root-children combination decides the search."""

    @given(
        itemsets=st.lists(st.sets(st.sampled_from(ITEMS), max_size=5), min_size=1, max_size=40),
        fanout=st.integers(2, 4),
        k=st.integers(2, 6),
        m=st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_decided_clusters_publish_what_the_search_does(self, itemsets, fanout, k, m):
        itemsets = [frozenset(itemset) for itemset in itemsets]
        hierarchy = build_item_hierarchy(ITEMS, fanout=fanout)
        decided = forced_root_publication(itemsets, hierarchy, k, m)
        if decided is None:
            return
        _, statistics = scalar_greedy_km_anonymize(itemsets, hierarchy, k, m)
        assert statistics["fully_generalized"]
        searched, _ = AprioriAnonymizer(k, m, hierarchy=hierarchy).publish(itemsets, hierarchy)
        assert decided == searched
        assert (decided, 1.0) == scalar_publish(itemsets, hierarchy, k, m)

    def test_a_rare_pair_of_root_children_decides(self):
        hierarchy = build_item_hierarchy(ITEMS, fanout=2)
        left, right = (hierarchy.leaves(child.label)[0] for child in hierarchy.root.children)
        itemsets = [frozenset({left})] * 3 + [frozenset({right})] * 3 + [frozenset({left, right})]
        assert forced_root_publication(itemsets, hierarchy, 3, 1) is None
        decided = forced_root_publication(itemsets, hierarchy, 3, 2)
        assert decided == [frozenset({"*"})] * len(itemsets)
        assert (decided, 1.0) == scalar_publish(itemsets, hierarchy, 3, 2)

    @given(
        itemsets=st.lists(
            st.sets(st.sampled_from(["(a,b)", "a", "b", "c"]), max_size=3), min_size=1, max_size=12
        ),
        k=st.integers(2, 6),
        m=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_clusters_with_an_inner_node_item_are_never_decided(self, itemsets, k, m):
        itemsets = [frozenset(itemset) for itemset in itemsets]
        itemsets[0] |= {"(a,b)"}
        assert forced_root_publication(itemsets, inner_node_hierarchy(), k, m) is None

    @pytest.mark.parametrize("itemsets, k", [case[:2] for case in INNER_NODE_CASES])
    def test_the_inner_node_cases_are_never_decided(self, itemsets, k):
        itemsets = [frozenset(itemset) for itemset in itemsets]
        for m in (1, 2, 3):
            assert forced_root_publication(itemsets, inner_node_hierarchy(), k, m) is None

    @given(
        itemsets=st.lists(st.sets(st.sampled_from(ITEMS), max_size=5), min_size=1, max_size=10),
        fanout=st.integers(2, 4),
        k=st.integers(2, 6),
        m=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_fewer_than_k_nonempty_itemsets_are_suppressed(self, itemsets, fanout, k, m):
        itemsets = [frozenset(itemset) for itemset in itemsets]
        assume(0 < sum(1 for itemset in itemsets if itemset) < k)
        hierarchy = build_item_hierarchy(ITEMS, fanout=fanout)
        decided = forced_root_publication(itemsets, hierarchy, k, m)
        assert decided == [frozenset()] * len(itemsets)
        assert itemset_utility_loss(itemsets, decided, hierarchy) == 1.0
        assert (decided, 1.0) == scalar_publish(itemsets, hierarchy, k, m)

    def test_a_one_item_universe_is_decided_only_through_suppression(self):
        hierarchy = build_item_hierarchy(ITEMS, fanout=3)
        few, many = [frozenset({"i0"})] * 3, [frozenset({"i0"})] * 6
        assert forced_root_publication(few, hierarchy, 5, 2) == [frozenset()] * 3
        assert forced_root_publication(many, hierarchy, 5, 2) is None
        assert scalar_publish(many, hierarchy, 5, 2) == (many, 0.0)

    @given(
        itemsets=st.lists(
            st.sets(st.sampled_from(ITEMS), max_size=4), min_size=2, max_size=40
        ),
        odd_items=st.lists(st.integers(0, 200), max_size=3),
        sizes=st.lists(st.integers(1, 6), min_size=2, max_size=10),
        merges=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=8),
        fanout=st.integers(2, 4),
        k=st.integers(2, 6),
        m=st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_merged_slot_decisions_match_the_reference(
        self, itemsets, odd_items, sizes, merges, fanout, k, m
    ):
        """Every slot, before and after merges, decides as the reference does on its rows.

        Some records may hold an inner node, the root or an item outside the
        hierarchy, and empty itemsets make clusters with fewer than ``k``
        non-empty ones.
        """
        hierarchy = build_item_hierarchy(ITEMS, fanout=fanout)
        odd = [label for label in hierarchy.labels if not hierarchy.is_leaf(label)]
        odd.append("zz-outside")
        for pick in odd_items:
            itemsets[pick % len(itemsets)] = itemsets[pick % len(itemsets)] | {
                odd[pick % len(odd)]
            }
        dataset = make_dataset(itemsets)
        clusters, start = [], 0
        for size in sizes:
            if start < len(dataset):
                clusters.append(list(range(start, min(start + size, len(dataset)))))
                start += size
        if start < len(dataset):
            clusters.append(list(range(start, len(dataset))))
        bits = bounding._RootChildBits(dataset.columnar("Items"), hierarchy, clusters, k, m)

        def assert_decides_as_reference(slot):
            rows = [dataset[index]["Items"] for index in clusters[slot]]
            expected = forced_root_publication(rows, hierarchy, k, m)
            assert bits.publication(slot, clusters[slot]) == expected

        for slot in range(len(clusters)):
            assert_decides_as_reference(slot)
        live = list(range(len(clusters)))
        for first, second in merges:
            if len(live) < 2:
                break
            slot = live[first % len(live)]
            others = [candidate for candidate in live if candidate != slot]
            other = others[second % len(others)]
            live.remove(other)
            clusters[slot] = sorted(clusters[slot] + clusters[other])
            bits.merge(slot, other)
            assert_decides_as_reference(slot)

    def test_a_merged_slot_with_few_nonempty_itemsets_is_suppressed(self):
        hierarchy = build_item_hierarchy(ITEMS, fanout=2)
        left, right = (hierarchy.leaves(child.label)[0] for child in hierarchy.root.children)
        itemsets = [{left}, set(), set(), {right}, set(), set()]
        dataset = make_dataset(itemsets)
        clusters = [[0, 1, 2], [3, 4, 5]]
        bits = bounding._RootChildBits(dataset.columnar("Items"), hierarchy, clusters, 3, 2)
        bits.merge(0, 1)
        merged = [0, 1, 2, 3, 4, 5]
        rows = [dataset[index]["Items"] for index in merged]
        assert bits.publication(0, merged) == [frozenset()] * 6
        assert forced_root_publication(rows, hierarchy, 3, 2) == [frozenset()] * 6
