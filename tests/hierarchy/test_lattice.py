"""Tests for the full-domain generalization lattice."""

import pytest

from repro.datasets import toy_rt_dataset
from repro.exceptions import HierarchyError
from repro.hierarchy import GeneralizationLattice, build_hierarchies_for_dataset


@pytest.fixture
def lattice():
    dataset = toy_rt_dataset()
    hierarchies = build_hierarchies_for_dataset(dataset, fanout=3)
    return GeneralizationLattice(hierarchies, ["Age", "Education"])


class TestStructure:
    def test_bottom_top_and_size(self, lattice):
        assert lattice.bottom == (0, 0)
        assert lattice.top == lattice.max_levels
        expected_size = (lattice.max_levels[0] + 1) * (lattice.max_levels[1] + 1)
        assert lattice.size() == expected_size
        assert len(list(lattice.iter_nodes())) == expected_size

    def test_missing_hierarchy_rejected(self):
        with pytest.raises(HierarchyError):
            GeneralizationLattice({}, ["Age"])

    def test_iter_levels_is_bottom_up(self, lattice):
        levels = list(lattice.iter_levels())
        assert levels[0] == [lattice.bottom]
        assert levels[-1] == [lattice.top]
        heights = [sum(node) for level in levels for node in level]
        assert heights == sorted(heights)

    def test_successors_and_predecessors(self, lattice):
        successors = lattice.successors(lattice.bottom)
        assert all(sum(node) == 1 for node in successors)
        assert lattice.predecessors(lattice.bottom) == []
        assert lattice.successors(lattice.top) == []
        for node in successors:
            assert lattice.bottom in lattice.predecessors(node)

    def test_generalization_partial_order(self, lattice):
        assert lattice.is_generalization_of(lattice.top, lattice.bottom)
        assert not lattice.is_generalization_of(lattice.bottom, lattice.top)
        assert lattice.is_generalization_of(lattice.bottom, lattice.bottom)

    def test_validate_rejects_out_of_range(self, lattice):
        with pytest.raises(HierarchyError):
            lattice.validate((99, 0))


class TestApplication:
    def test_generalize_tuple_bottom_is_identity_labels(self, lattice):
        generalized = lattice.generalize_tuple((25, "Bachelors"), lattice.bottom)
        assert generalized == ("25", "Bachelors")

    def test_generalize_tuple_top_is_root_labels(self, lattice):
        generalized = lattice.generalize_tuple((25, "Bachelors"), lattice.top)
        assert all(
            label == lattice.hierarchies[attr].root.label
            for label, attr in zip(generalized, lattice.attributes)
        )

    def test_generalize_value_single_attribute(self, lattice):
        label = lattice.generalize_value("Age", 25, lattice.top)
        assert label == lattice.hierarchies["Age"].root.label

    def test_level_description(self, lattice):
        description = lattice.level_description(lattice.bottom)
        assert description == {"Age": 0, "Education": 0}
