"""Tests for the shared item-cut machinery of the hierarchy-based algorithms."""

import signal

import pytest
from oracles.itemcut import scalar_greedy_km_anonymize

from repro.algorithms.transaction._itemcut import (
    ItemCut,
    KmAnonymityChecker,
    greedy_km_anonymize,
)
from repro.exceptions import AlgorithmError
from repro.hierarchy import HierarchyBuilder, build_item_hierarchy


@pytest.fixture
def hierarchy():
    return build_item_hierarchy([f"i{n}" for n in range(8)], fanout=2)


@pytest.fixture
def itemsets():
    return [
        frozenset({"i0", "i1"}),
        frozenset({"i0", "i2"}),
        frozenset({"i1", "i2"}),
        frozenset({"i3"}),
        frozenset({"i4", "i5"}),
        frozenset({"i6", "i7"}),
        frozenset({"i0", "i1", "i2"}),
        frozenset({"i2", "i3"}),
    ]


class TestItemCut:
    def test_initial_mapping_is_identity(self, hierarchy):
        cut = ItemCut(hierarchy, ["i0", "i1"])
        assert cut.image("i0") == "i0"
        assert cut.nodes == {"i0", "i1"}

    def test_group_like_node_labels_resolve_from_the_hierarchy(self):
        # Regression: a hierarchy node whose label *looks like* an item-group
        # label, e.g. "(a,b)", must be resolved via its actual subtree (here
        # covering c as well), not parsed from the label text.
        builder = HierarchyBuilder(attribute="Items")
        builder.add("(a,b)", "*")
        for leaf in ("a", "b", "c"):
            builder.add(leaf, "(a,b)")
        cut = ItemCut(builder.build(), ["a", "b", "c"])
        assert cut.generalize_node("a") == "(a,b)"
        assert cut.mapping == {"a": "(a,b)", "b": "(a,b)", "c": "(a,b)"}
        assert cut.nodes == {"(a,b)"}  # still a partition of the universe

    def test_unknown_items_rejected(self, hierarchy):
        with pytest.raises(AlgorithmError):
            ItemCut(hierarchy, ["not-an-item"])

    def test_generalize_node_promotes_whole_sibling_group(self, hierarchy, itemsets):
        cut = ItemCut(hierarchy, [f"i{n}" for n in range(8)])
        parent = cut.generalize_node("i0")
        assert parent == hierarchy.parent("i0")
        promoted = {item for item in cut.items if cut.image(item) == parent}
        assert promoted == set(hierarchy.leaves(parent))

    def test_generalize_itemset_deduplicates(self, hierarchy):
        cut = ItemCut(hierarchy, [f"i{n}" for n in range(8)])
        cut.generalize_node("i0")
        generalized = cut.generalize_itemset({"i0", "i1"})
        assert len(generalized) == 1

    def test_root_generalization_is_idempotent(self, hierarchy):
        cut = ItemCut(hierarchy, [f"i{n}" for n in range(8)])
        for item in list(cut.items):
            while cut.image(item) != hierarchy.root.label:
                cut.generalize_node(cut.image(item))
        assert cut.is_fully_generalized()
        assert cut.generalize_node(hierarchy.root.label) == hierarchy.root.label

    def test_copy_is_independent(self, hierarchy):
        cut = ItemCut(hierarchy, [f"i{n}" for n in range(8)])
        clone = cut.copy()
        cut.generalize_node("i0")
        assert clone.image("i0") == "i0"


class TestChecker:
    def test_single_item_violations(self, hierarchy, itemsets):
        cut = ItemCut(hierarchy, [f"i{n}" for n in range(8)])
        checker = KmAnonymityChecker(itemsets, k=3, m=1)
        violations = checker.violations(cut, 1)
        # i4..i7 appear only once; i3 appears twice.
        assert ("i4",) in violations
        assert ("i3",) in violations
        assert ("i0",) not in violations

    def test_pair_violations(self, hierarchy, itemsets):
        cut = ItemCut(hierarchy, [f"i{n}" for n in range(8)])
        checker = KmAnonymityChecker(itemsets, k=2, m=2)
        violations = checker.violations(cut, 2)
        assert ("i2", "i3") in violations

    def test_invalid_parameters(self, itemsets):
        with pytest.raises(AlgorithmError):
            KmAnonymityChecker(itemsets, k=1, m=1)
        with pytest.raises(AlgorithmError):
            KmAnonymityChecker(itemsets, k=2, m=0)


class TestGreedy:
    def test_result_is_km_anonymous(self, hierarchy, itemsets):
        cut, statistics = greedy_km_anonymize(itemsets, hierarchy, k=2, m=2)
        checker = KmAnonymityChecker(itemsets, k=2, m=2)
        assert checker.is_km_anonymous(cut)
        assert statistics["unresolvable_violations"] == 0
        assert statistics["generalization_steps"] > 0

    def test_already_anonymous_data_is_untouched(self, hierarchy):
        itemsets = [frozenset({"i0"}), frozenset({"i0"}), frozenset({"i0", "i1"}),
                    frozenset({"i0", "i1"})]
        cut, statistics = greedy_km_anonymize(itemsets, hierarchy, k=2, m=2)
        assert statistics["generalization_steps"] == 0
        assert cut.image("i0") == "i0"

    def test_unprotectable_data_is_reported(self, hierarchy):
        itemsets = [frozenset({"i0"})]  # a single non-empty transaction, k=2
        cut, statistics = greedy_km_anonymize(itemsets, hierarchy, k=2, m=1)
        assert statistics["unresolvable_violations"] > 0

    def test_cut_missing_transaction_items_is_a_typed_error(self):
        # Regression: a supplied cut that does not cover every item of the
        # itemsets raised a raw KeyError instead of naming the items.
        hierarchy = build_item_hierarchy(["a", "b", "c"], fanout=2)
        itemsets = [frozenset({"a", "c"}), frozenset({"b"})]
        with pytest.raises(AlgorithmError, match="'c'"):
            greedy_km_anonymize(
                itemsets, hierarchy, k=2, m=1, cut=ItemCut(hierarchy, ["a", "b"])
            )


class TestInnerNodeItem:
    """An item that is itself an inner hierarchy node never moves.

    Hierarchy ``* -> {(a,b) -> {a, b}, c}`` with the item ``(a,b)`` once and
    ``a`` and ``c`` three times each, k=3, m=1.  The first promotion of
    ``(a,b)`` moves ``a`` and ``c`` to ``*``; a second one would move
    nothing.  The search used to pick the same node forever; now it drops
    the node from the round and reports its violation as unresolvable.
    """

    @pytest.fixture
    def inner_item(self):
        builder = HierarchyBuilder(attribute="Items")
        builder.add("(a,b)", "*")
        for leaf, parent in (("a", "(a,b)"), ("b", "(a,b)"), ("c", "*")):
            builder.add(leaf, parent)
        itemsets = [frozenset({"(a,b)"})] + [frozenset({"a"})] * 3 + [frozenset({"c"})] * 3
        return builder.build(), itemsets

    @pytest.mark.parametrize("search", [greedy_km_anonymize, scalar_greedy_km_anonymize])
    @pytest.mark.parametrize("apriori_order", [True, False])
    def test_search_returns_with_the_violation_unresolved(
        self, inner_item, search, apriori_order
    ):
        def hang(signum, frame):
            raise TimeoutError("the item-cut search did not return within 1 s")

        hierarchy, itemsets = inner_item
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(1)
        try:
            cut, statistics = search(
                itemsets, hierarchy, k=3, m=1, apriori_order=apriori_order
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert cut.mapping == {"(a,b)": "(a,b)", "a": "*", "c": "*"}
        assert statistics == {
            "generalization_steps": 1,
            "final_nodes": 2,
            "fully_generalized": False,
            "unresolvable_violations": 1,
        }
