"""Tests for the four relational anonymization algorithms.

Every algorithm must (a) produce a k-anonymous dataset over the relational
quasi-identifiers, (b) leave non-quasi-identifier and transaction attributes
untouched, and (c) report runtime and statistics.  Algorithm-specific
behaviour (lattice search, specialization, clustering) is tested separately.
"""

import pytest

from repro.algorithms import (
    ClusterAnonymizer,
    FullSubtreeBottomUp,
    Incognito,
    TopDownSpecialization,
)
from repro.datasets import Attribute, Dataset, Schema, generate_adult_like
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.hierarchy import build_hierarchies_for_dataset
from repro.metrics import global_certainty_penalty, is_k_anonymous

QI = ["Age", "Education", "Marital", "Gender"]


@pytest.fixture(scope="module")
def adult():
    return generate_adult_like(n_records=200, seed=17)


@pytest.fixture(scope="module")
def hierarchies(adult):
    return build_hierarchies_for_dataset(adult, fanout=3, attributes=QI)


def make_algorithm(name, k, hierarchies):
    if name == "incognito":
        return Incognito(k, hierarchies, attributes=QI)
    if name == "top-down":
        return TopDownSpecialization(k, hierarchies, attributes=QI)
    if name == "full-subtree":
        return FullSubtreeBottomUp(k, hierarchies, attributes=QI)
    if name == "cluster":
        return ClusterAnonymizer(k, hierarchies, attributes=QI)
    raise ValueError(name)


ALL_NAMES = ["incognito", "top-down", "full-subtree", "cluster"]


class TestCommonContract:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_output_is_k_anonymous(self, name, adult, hierarchies):
        algorithm = make_algorithm(name, 5, hierarchies)
        result = algorithm.anonymize(adult)
        assert len(result.dataset) == len(adult)
        assert is_k_anonymous(result.dataset, 5, attributes=QI)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_non_qi_attributes_untouched(self, name, adult, hierarchies):
        algorithm = make_algorithm(name, 5, hierarchies)
        result = algorithm.anonymize(adult)
        assert result.dataset.column("Disease") == adult.column("Disease")
        assert result.dataset.column("Workclass") == adult.column("Workclass")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_result_reports_runtime_and_statistics(self, name, adult, hierarchies):
        algorithm = make_algorithm(name, 5, hierarchies)
        result = algorithm.anonymize(adult)
        assert result.runtime_seconds > 0
        assert result.phase_seconds
        assert result.statistics
        assert result.algorithm == algorithm.name

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_larger_k_never_reduces_information_loss(self, name, adult, hierarchies):
        small = make_algorithm(name, 2, hierarchies).anonymize(adult)
        large = make_algorithm(name, 25, hierarchies).anonymize(adult)
        gcp_small = global_certainty_penalty(adult, small.dataset, QI, hierarchies)
        gcp_large = global_certainty_penalty(adult, large.dataset, QI, hierarchies)
        assert gcp_large >= gcp_small - 1e-9

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_k_larger_than_dataset_rejected(self, name, adult, hierarchies):
        algorithm = make_algorithm(name, len(adult) + 1, hierarchies)
        with pytest.raises(ConfigurationError):
            algorithm.anonymize(adult)

    @pytest.mark.parametrize("name", ["incognito", "top-down", "full-subtree"])
    def test_missing_hierarchy_rejected(self, name, adult, hierarchies):
        partial = {"Age": hierarchies["Age"]}
        if name == "incognito":
            algorithm = Incognito(3, partial, attributes=QI)
        elif name == "top-down":
            algorithm = TopDownSpecialization(3, partial, attributes=QI)
        else:
            algorithm = FullSubtreeBottomUp(3, partial, attributes=QI)
        with pytest.raises(ConfigurationError):
            algorithm.anonymize(adult)


class TestIncognito:
    def test_reports_lattice_statistics(self, adult, hierarchies):
        result = Incognito(5, hierarchies, attributes=QI).anonymize(adult)
        stats = result.statistics
        assert stats["nodes_checked"] <= stats["lattice_size"]
        assert stats["minimal_solutions"] >= 1
        assert set(stats["chosen_levels"]) == set(QI)

    def test_selects_the_gcp_optimal_minimal_node_beyond_the_proxy_top_ten(self):
        # Seeded so that 12 minimal nodes exist and the lowest-GCP one ranks
        # below the ten best by loss_proxy.
        attributes = ["Age", "Hours", "Workclass", "Education", "Marital"]
        dataset = generate_adult_like(n_records=200, seed=25, include_sensitive=False)
        hierarchies = build_hierarchies_for_dataset(dataset, fanout=3, attributes=attributes)

        class Recording(Incognito):
            def _select_best(self, dataset, index, candidates, attributes):
                self.index = index
                self.ranked = sorted(candidates, key=index.loss_proxy)
                self.chosen, gcp = super()._select_best(dataset, index, candidates, attributes)
                return self.chosen, gcp

        incognito = Recording(2, hierarchies, attributes)
        result = incognito.anonymize(dataset)
        scores = {
            node: global_certainty_penalty(
                dataset, incognito.index.apply(dataset, node), attributes, hierarchies
            )
            for node in incognito.ranked
        }
        assert len(scores) == result.statistics["minimal_solutions"] == 12
        assert incognito.chosen not in incognito.ranked[:10]
        assert result.statistics["gcp"] == scores[incognito.chosen] == min(scores.values())

    def test_full_domain_recoding_is_uniform_per_attribute(self, adult, hierarchies):
        result = Incognito(5, hierarchies, attributes=QI).anonymize(adult)
        # Full-domain recoding: all records with the same original value get
        # the same generalized value.
        original_to_published = {}
        for original, published in zip(adult, result.dataset):
            key = original["Education"]
            value = published["Education"]
            assert original_to_published.setdefault(key, value) == value

    def test_requires_quasi_identifiers(self, hierarchies):
        relational = generate_adult_like(n_records=20, seed=1)
        for name in ["Age", "Hours", "Workclass", "Education", "Marital", "Occupation", "Gender"]:
            relational.remove_attribute(name)
        with pytest.raises(AlgorithmError):
            Incognito(2, hierarchies).anonymize(relational)


class TestTopDown:
    def test_starts_anonymous_and_stays_anonymous(self, adult, hierarchies):
        result = TopDownSpecialization(10, hierarchies, attributes=QI).anonymize(adult)
        assert result.statistics["min_class_size"] >= 10

    def test_specializes_below_the_root(self, adult, hierarchies):
        result = TopDownSpecialization(5, hierarchies, attributes=QI).anonymize(adult)
        assert result.statistics["specializations"] > 0
        # At least one attribute should not be fully generalized.
        assert any(size > 1 for size in result.statistics["cut_sizes"].values())


class TestFullSubtree:
    def test_levels_are_within_hierarchy_heights(self, adult, hierarchies):
        result = FullSubtreeBottomUp(5, hierarchies, attributes=QI).anonymize(adult)
        for attribute, level in result.statistics["chosen_levels"].items():
            assert 0 <= level <= hierarchies[attribute].height

    def test_no_generalization_when_data_is_already_anonymous(self, hierarchies, adult):
        # Gender alone with k=2 is already satisfied by the raw data.
        algorithm = FullSubtreeBottomUp(2, hierarchies, attributes=["Gender"])
        result = algorithm.anonymize(adult)
        assert result.statistics["generalization_steps"] == 0
        assert result.dataset.column("Gender") == adult.column("Gender")


class TestCluster:
    def test_every_cluster_has_at_least_k_members(self, adult, hierarchies):
        algorithm = ClusterAnonymizer(7, hierarchies, attributes=QI)
        result = algorithm.anonymize(adult)
        assert result.statistics["min_cluster_size"] >= 7
        assert result.statistics["clusters"] == len(
            result.statistics["cluster_assignment"]
        )

    def test_cluster_assignment_partitions_the_records(self, adult, hierarchies):
        algorithm = ClusterAnonymizer(5, hierarchies, attributes=QI)
        result = algorithm.anonymize(adult)
        seen = sorted(
            index
            for cluster in result.statistics["cluster_assignment"]
            for index in cluster
        )
        assert seen == list(range(len(adult)))

    def test_local_recoding_beats_full_domain_on_utility(self, adult, hierarchies):
        cluster_result = ClusterAnonymizer(5, hierarchies, attributes=QI).anonymize(adult)
        incognito_result = Incognito(5, hierarchies, attributes=QI).anonymize(adult)
        gcp_cluster = global_certainty_penalty(
            adult, cluster_result.dataset, QI, hierarchies
        )
        gcp_incognito = global_certainty_penalty(
            adult, incognito_result.dataset, QI, hierarchies
        )
        assert gcp_cluster <= gcp_incognito + 1e-9

    def test_works_without_hierarchies(self, adult):
        result = ClusterAnonymizer(5, attributes=QI).anonymize(adult)
        assert is_k_anonymous(result.dataset, 5, attributes=QI)


class TestClusterWithAllMissingValues:
    """A cluster whose members all lack a quasi-identifier publishes it missing."""

    SCHEMA = Schema([Attribute.numeric("Age"), Attribute.categorical("Edu")])

    def dataset(self, rows):
        return Dataset(self.SCHEMA, [{"Age": age, "Edu": edu} for age, edu in rows])

    def test_numeric_attribute_missing_in_every_member(self):
        dataset = self.dataset([(None, "A"), (None, "A"), (30, "B"), (40, "B")])
        result = ClusterAnonymizer(2).anonymize(dataset)
        assert result.statistics["cluster_assignment"] == [[0, 1], [2, 3]]
        assert result.dataset.column("Age") == [None, None, "[30-40]", "[30-40]"]
        assert result.dataset.column("Edu") == ["A", "A", "B", "B"]

    def test_categorical_attribute_missing_in_every_member(self):
        dataset = self.dataset([(30, None), (30, None), (40, "B"), (50, "C")])
        result = ClusterAnonymizer(2).anonymize(dataset)
        assert result.statistics["cluster_assignment"] == [[0, 1], [2, 3]]
        assert result.dataset.column("Edu") == [None, None, "(B,C)", "(B,C)"]
        assert result.dataset.column("Age") == [30, 30, "[40-50]", "[40-50]"]

    def test_gcp_scores_the_missing_cells_as_the_input_does(self):
        # A missing Age costs what it costs in the input (the metric charges a
        # missing numeric cell fully); the other cluster spans the whole range.
        dataset = self.dataset([(None, "A"), (None, "A"), (30, "B"), (40, "B")])
        result = ClusterAnonymizer(2).anonymize(dataset)
        expected = self.dataset(
            [(None, "A"), (None, "A"), ("[30-40]", "B"), ("[30-40]", "B")]
        )
        assert repr(result.statistics["gcp"]) == repr(
            global_certainty_penalty(dataset, expected)
        )
        assert result.statistics["gcp"] == 0.5
