"""Tests for the RT bounding methods and algorithm combinations."""

import pytest

from repro.algorithms import (
    AprioriAnonymizer,
    ClusterAnonymizer,
    Coat,
    Incognito,
    Rmerger,
    RTmerger,
    Tmerger,
    algorithm_pairs,
    bounding_methods,
    combination_count,
    get_spec,
    iter_combinations,
    relational_algorithms,
    transaction_algorithms,
)
from repro.datasets import generate_rt_dataset
from repro.exceptions import ConfigurationError
from repro.hierarchy import build_hierarchies_for_dataset, build_item_hierarchy
from repro.metrics import is_k_km_anonymous
from repro.policies import generate_policies

K, M = 4, 2


@pytest.fixture(scope="module")
def rt():
    return generate_rt_dataset(n_records=120, n_items=18, seed=41)


@pytest.fixture(scope="module")
def hierarchies(rt):
    relational = [a.name for a in rt.schema.relational if a.quasi_identifier]
    return build_hierarchies_for_dataset(rt, fanout=3, attributes=relational)


@pytest.fixture(scope="module")
def item_hierarchy(rt):
    return build_item_hierarchy(rt.item_universe("Items"), fanout=3)


class TestRegistry:
    def test_nine_algorithms_and_three_boundings(self):
        assert len(relational_algorithms()) == 4
        assert len(transaction_algorithms()) == 5
        assert len(bounding_methods()) == 3

    def test_twenty_combinations(self):
        assert len(algorithm_pairs()) == 20
        assert combination_count() == 20
        assert combination_count(include_boundings=True) == 60
        assert len(iter_combinations("rtmerger")) == 20

    def test_combination_labels(self):
        combination = iter_combinations("tmerger")[0]
        assert combination.bounding == "tmerger"
        assert "+" in combination.label and "/" in combination.label

    def test_get_spec_known_and_unknown(self):
        assert get_spec("coat").uses_policies
        assert get_spec("incognito").kind == "relational"
        with pytest.raises(ConfigurationError):
            get_spec("does-not-exist")


class TestBoundingMethods:
    @pytest.mark.parametrize("bounding_class", [Rmerger, Tmerger, RTmerger])
    def test_output_is_k_km_anonymous(self, bounding_class, rt, hierarchies, item_hierarchy):
        algorithm = bounding_class(
            k=K, m=M, delta=0.6, hierarchies=hierarchies, item_hierarchy=item_hierarchy
        )
        result = algorithm.anonymize(rt)
        assert len(result.dataset) == len(rt)
        assert is_k_km_anonymous(
            result.dataset,
            k=K,
            m=M,
            hierarchy=item_hierarchy,
            universe=rt.item_universe("Items"),
        )

    @pytest.mark.parametrize("bounding_class", [Rmerger, Tmerger, RTmerger])
    def test_reports_both_utility_sides(self, bounding_class, rt, hierarchies, item_hierarchy):
        result = bounding_class(
            k=K, m=M, delta=0.6, hierarchies=hierarchies, item_hierarchy=item_hierarchy
        ).anonymize(rt)
        assert 0.0 <= result.statistics["relational_gcp"] <= 1.0
        assert 0.0 <= result.statistics["transaction_ul"] <= 1.0
        assert result.statistics["final_clusters"] <= result.statistics["initial_clusters"]

    def test_delta_zero_forces_more_merging_than_delta_one(self, rt, hierarchies, item_hierarchy):
        eager = Tmerger(
            k=K, m=M, delta=0.0, hierarchies=hierarchies, item_hierarchy=item_hierarchy
        ).anonymize(rt)
        lazy = Tmerger(
            k=K, m=M, delta=1.0, hierarchies=hierarchies, item_hierarchy=item_hierarchy
        ).anonymize(rt)
        assert eager.statistics["merges"] >= lazy.statistics["merges"]
        assert lazy.statistics["merges"] == 0

    def test_parameter_validation(self, hierarchies, item_hierarchy):
        with pytest.raises(ConfigurationError):
            Rmerger(k=3, m=2, delta=1.5)
        with pytest.raises(ConfigurationError):
            Rmerger(k=3, m=0)

    def test_with_incognito_clusters(self, rt, hierarchies, item_hierarchy):
        relational = Incognito(K, hierarchies)
        algorithm = RTmerger(
            k=K,
            m=M,
            delta=0.8,
            relational_algorithm=relational,
            hierarchies=hierarchies,
            item_hierarchy=item_hierarchy,
        )
        result = algorithm.anonymize(rt)
        assert is_k_km_anonymous(
            result.dataset, k=K, m=M, hierarchy=item_hierarchy,
            universe=rt.item_universe("Items"),
        )
        assert result.parameters["relational_algorithm"] == "incognito"

    def test_with_coat_transaction_algorithm(self, rt, hierarchies):
        privacy, utility = generate_policies(rt, k=K, attribute="Items", group_size=4)
        algorithm = Rmerger(
            k=K,
            m=M,
            delta=1.0,
            relational_algorithm=ClusterAnonymizer(K, hierarchies),
            transaction_algorithm=Coat(privacy, utility),
            hierarchies=hierarchies,
        )
        result = algorithm.anonymize(rt)
        assert len(result.dataset) == len(rt)
        # Relational side must still be k-anonymous.
        relational = [a.name for a in rt.schema.relational if a.quasi_identifier]
        groups = result.dataset.group_by(relational)
        assert min(len(indices) for indices in groups.values()) >= K

    def test_default_transaction_algorithm_is_apriori(self, rt, hierarchies, item_hierarchy):
        default = RTmerger(
            k=K, m=M, delta=0.7, hierarchies=hierarchies, item_hierarchy=item_hierarchy
        ).anonymize(rt)
        explicit = RTmerger(
            k=K,
            m=M,
            delta=0.7,
            hierarchies=hierarchies,
            item_hierarchy=item_hierarchy,
            transaction_algorithm=AprioriAnonymizer(K, M, hierarchy=item_hierarchy),
        ).anonymize(rt)
        assert default.dataset.to_rows() == explicit.dataset.to_rows()
        assert default.statistics["merges"] == explicit.statistics["merges"]
