"""Unit tests for the shared adversary semantics (coverage + enumeration)."""

import pytest
from oracles.attacks import best_knowledge

from repro.attacks import AttributeCoverage, knowledge_combos
from repro.hierarchy import HierarchyBuilder
from repro.metrics import SUPPRESSED


class TestAttributeCoverage:
    def test_uninformative_labels_cover_everything(self):
        coverage = AttributeCoverage("Edu", numeric=False)
        for label in (SUPPRESSED, "*", None):
            assert coverage.covers(label, "BSc")

    def test_unknown_target_value_constrains_nothing(self):
        coverage = AttributeCoverage("Edu", numeric=False)
        assert coverage.covers("PhD", None)

    def test_exact_categorical_match(self):
        coverage = AttributeCoverage("Edu", numeric=False)
        assert coverage.covers("BSc", "BSc")
        assert not coverage.covers("PhD", "BSc")

    def test_item_group_label_covers_members_only(self):
        coverage = AttributeCoverage("Edu", numeric=False)
        assert coverage.covers("(BSc,MSc)", "BSc")
        assert coverage.covers("(BSc,MSc)", "MSc")
        assert not coverage.covers("(BSc,MSc)", "PhD")

    def test_hierarchy_node_covers_its_leaves(self):
        hierarchy = (
            HierarchyBuilder()
            .add("Degree", "*")
            .add("NoDegree", "*")
            .add("BSc", "Degree")
            .add("MSc", "Degree")
            .add("None", "NoDegree")
            .build()
        )
        coverage = AttributeCoverage("Edu", numeric=False, hierarchy=hierarchy)
        assert coverage.covers("Degree", "BSc")
        assert not coverage.covers("Degree", "None")

    def test_numeric_interval_bounds(self):
        coverage = AttributeCoverage("Age", numeric=True)
        assert coverage.covers("[20-30]", 25)
        assert coverage.covers("[20-30]", 20)
        assert coverage.covers("[20-30]", 30)
        assert not coverage.covers("[20-30]", 31)

    def test_numeric_exact_label_matches_float_and_int_spellings(self):
        coverage = AttributeCoverage("Age", numeric=True)
        assert coverage.covers("25", 25)
        assert coverage.covers("25", 25.0)
        assert not coverage.covers("25", 26)

    def test_decisions_are_memoized(self):
        coverage = AttributeCoverage("Age", numeric=True)
        assert coverage.covers("[20-30]", 25)
        assert ("[20-30]", 25) in coverage._memo
        assert coverage.covers("[20-30]", 25)


class TestKnowledgeCombos:
    def test_sizes_ascending_then_lexicographic(self):
        combos = list(knowledge_combos(["b", "a", "c"], m=2))
        assert combos == [
            ("a",),
            ("b",),
            ("c",),
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
        ]

    def test_duplicates_collapse_and_m_caps_at_basket_size(self):
        assert list(knowledge_combos(["a", "a"], m=3)) == [("a",)]

    def test_empty_basket_yields_nothing(self):
        assert list(knowledge_combos([], m=2)) == []


class TestBestKnowledge:
    def test_minimum_with_first_witness(self):
        supports = {("a",): 4, ("b",): 2, ("a", "b"): 2}
        best, witness, truncated = best_knowledge(
            ["a", "b"], 2, lambda combo: supports[combo]
        )
        assert (best, witness, truncated) == (2, ("b",), False)

    def test_zero_support_combos_are_skipped(self):
        supports = {("a",): 0, ("b",): 3}
        best, witness, _ = best_knowledge(["a", "b"], 1, lambda c: supports[c])
        assert (best, witness) == (3, ("b",))

    def test_all_zero_support_means_failed_attack(self):
        best, witness, _ = best_knowledge(["a"], 1, lambda c: 0)
        assert (best, witness) == (0, None)

    def test_initial_seed_survives_unless_beaten(self):
        best, witness, _ = best_knowledge(["a"], 1, lambda c: 5, initial=3)
        assert (best, witness) == (3, None)
        best, witness, _ = best_knowledge(["a"], 1, lambda c: 2, initial=3)
        assert (best, witness) == (2, ("a",))

    def test_cap_truncates_enumeration(self):
        probed = []

        def support_of(combo):
            probed.append(combo)
            return 4

        best, witness, truncated = best_knowledge(
            ["a", "b", "c"], 2, support_of, cap=2
        )
        assert truncated
        assert probed == [("a",), ("b",)]
        assert best == 4

    @pytest.mark.parametrize("initial", [0, -1])
    def test_non_positive_initial_is_no_seed(self, initial):
        best, witness, _ = best_knowledge([], 1, lambda c: 1, initial=initial)
        assert (best, witness) == (0, None)
