"""Tests for the interpretation-index subsystem (repro.index)."""

import pytest

from oracles.index import FrozensetIndex, UncachedIndex
from repro.datasets import Attribute, Dataset, Schema
from repro.hierarchy import build_item_hierarchy
from repro.index import InvertedIndex, LabelInterpreter, interpreter_for
from repro.metrics import SUPPRESSED


class TestLabelInterpreter:
    def test_item_group_resolution(self):
        interpreter = LabelInterpreter(universe={"a", "b", "c"})
        assert interpreter.leaves("(a,b)") == frozenset({"a", "b"})
        assert interpreter.size("(a,b)") == 2

    def test_root_resolves_to_universe_without_hierarchy(self):
        interpreter = LabelInterpreter(universe={"a", "b", "c"})
        assert interpreter.leaves("*") == frozenset({"a", "b", "c"})
        assert interpreter.cost("*") == pytest.approx(1.0)

    def test_root_resolves_to_hierarchy_leaves(self):
        hierarchy = build_item_hierarchy(["a", "b", "c", "d"], fanout=2)
        interpreter = LabelInterpreter(hierarchy)
        assert interpreter.leaves("*") == frozenset({"a", "b", "c", "d"})

    def test_suppression_marker_is_empty(self):
        interpreter = LabelInterpreter(universe={"a", "b"})
        assert interpreter.leaves(SUPPRESSED) == frozenset()
        assert interpreter.cost(SUPPRESSED) == 0.0

    def test_original_item_costs_nothing(self):
        interpreter = LabelInterpreter(universe={"a", "b", "c"})
        assert interpreter.cost("a") == 0.0

    def test_cost_scales_with_group_size(self):
        interpreter = LabelInterpreter(universe={"a", "b", "c", "d", "e"})
        assert interpreter.cost("(a,b)") == pytest.approx(0.25)
        assert interpreter.cost("(a,b,c,d,e)") == pytest.approx(1.0)

    def test_restricted_leaves_intersects_universe(self):
        interpreter = LabelInterpreter(universe={"a", "b"})
        assert interpreter.restricted_leaves("(a,z)") == frozenset({"a"})
        # Unrestricted resolution keeps the out-of-universe member.
        assert interpreter.leaves("(a,z)") == frozenset({"a", "z"})

    def test_span_memoizes_non_numeric_labels(self):
        interpreter = LabelInterpreter()
        assert interpreter.span("[10-20]") == (10.0, 20.0)
        assert interpreter.span("not-a-range") is None
        assert interpreter.span("not-a-range") is None  # cached miss stays a miss

    def test_covered_items_unions_restricted_leaves(self):
        interpreter = LabelInterpreter(universe={"a", "b", "c", "d"})
        covered = interpreter.covered_items(frozenset({"(a,b)", "c", SUPPRESSED}))
        assert covered == frozenset({"a", "b", "c"})

    def test_best_costs_picks_cheapest_covering_label(self):
        interpreter = LabelInterpreter(universe={"a", "b", "c", "d", "e"})
        best = interpreter.best_costs(frozenset({"(a,b)", "a"}))
        assert best["a"] == 0.0  # the intact label is cheaper than its group
        assert best["b"] == pytest.approx(0.25)
        assert "c" not in best

    def test_best_costs_clamped_to_one(self):
        # A hierarchy over more leaves than the dataset universe can produce
        # per-label costs above 1; utility loss never charges more than 1.
        hierarchy = build_item_hierarchy(["a", "b", "c", "d", "e", "f"], fanout=6)
        interpreter = LabelInterpreter(hierarchy, universe={"a", "b"})
        assert max(interpreter.best_costs(frozenset({"*"})).values()) == 1.0

    def test_frequency_weights_split_support_uniformly(self):
        interpreter = LabelInterpreter(universe={"a", "b", "c", "d"})
        weights = interpreter.frequency_weights(frozenset({"(a,b)", "a"}))
        assert weights["a"] == pytest.approx(0.5 + 1.0)
        assert weights["b"] == pytest.approx(0.5)

    def test_leaves_are_cached(self):
        interpreter = LabelInterpreter(universe={"a", "b"})
        assert interpreter.leaves("(a,b)") is interpreter.leaves("(a,b)")


class TestInterpreterFor:
    def test_shared_instance_per_pair(self):
        first = interpreter_for(None, {"a", "b"})
        second = interpreter_for(None, {"b", "a"})
        assert first is second

    def test_distinct_universes_get_distinct_instances(self):
        assert interpreter_for(None, {"a"}) is not interpreter_for(None, {"a", "b"})

    def test_hierarchies_are_cached_separately(self):
        hierarchy = build_item_hierarchy(["a", "b"], fanout=2)
        assert interpreter_for(hierarchy) is interpreter_for(hierarchy)
        assert interpreter_for(hierarchy) is not interpreter_for(None)

    def test_cached_interpreter_does_not_keep_hierarchy_alive(self):
        import gc
        import weakref

        hierarchy = build_item_hierarchy(["a", "b", "c"], fanout=2)
        interpreter = interpreter_for(hierarchy, {"a", "b", "c"})
        assert interpreter.leaves("*") == frozenset({"a", "b", "c"})
        ref = weakref.ref(hierarchy)
        del hierarchy
        gc.collect()
        assert ref() is None  # the cache entry must not pin the hierarchy
        # Already-cached lookups still serve; new hierarchy lookups fail loudly.
        assert interpreter.leaves("*") == frozenset({"a", "b", "c"})
        with pytest.raises(ReferenceError):
            interpreter.leaves("never-seen-label")


@pytest.fixture
def index(simple_transactions):
    return InvertedIndex.from_dataset(simple_transactions)


class TestInvertedIndex:
    def test_postings_and_frequency(self, index, simple_transactions):
        reference = FrozensetIndex(simple_transactions)
        for item in ("a", "b", "c", "d", "e", "unknown"):
            assert index.frequency(item) == reference.frequency(item)
            assert index.union_size({item}) == len(reference.postings(item))

    def test_universe(self, index):
        assert index.universe == frozenset({"a", "b", "c", "d", "e"})
        assert "a" in index
        assert len(index) == 5

    def test_union_size_matches_manual_union(self, index, simple_transactions):
        reference = FrozensetIndex(simple_transactions)
        manual = reference.postings("a") | reference.postings("d")
        assert index.union_size({"a", "d"}) == len(manual)
        assert index.merged_union_size({"a"}, {"d"}) == len(manual)

    def test_union_is_memoized(self, index):
        index.union_size(frozenset({"a", "d"}))
        index.union_size({"a", "d"})
        assert "cached_unions=1" in repr(index)

    def test_uncached_union_matches_cached(self, simple_transactions):
        cached = InvertedIndex.from_dataset(simple_transactions)
        uncached = UncachedIndex.from_dataset(simple_transactions)
        for group in ({"a"}, {"a", "b"}, {"c", "d", "e"}, set()):
            assert cached.union_size(group) == uncached.union_size(group)
            assert cached.joint_support([group, {"a"}]) == uncached.joint_support(
                [group, {"a"}]
            )
        assert "cached_unions=0" in repr(uncached)

    def test_joint_support_counts_intersection(self, index, simple_transactions):
        expected = sum(
            1
            for record in simple_transactions
            if record["Items"] & {"a"} and record["Items"] & {"b", "c"}
        )
        assert index.joint_support([{"a"}, {"b", "c"}]) == expected

    def test_joint_support_empty_group_is_zero(self, index):
        assert index.joint_support([{"a"}, set()]) == 0
        assert index.joint_support([]) == 0
