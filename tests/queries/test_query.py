"""Tests for COUNT queries and their probabilistic estimation."""

import copy
import pickle

import pytest

from oracles.queries import count_scan, estimate_scan
from repro.datasets import Attribute, Dataset, DatasetDomains, Schema, toy_rt_dataset
from repro.engine import (
    ExperimentResources,
    MethodComparator,
    MethodEvaluator,
    transaction_config,
)
from repro.engine.checkpoint import configuration_keys
from repro.engine.experiment import ParameterSweep
from repro.exceptions import QueryError
from repro.frontend.session import Session
from repro.hierarchy import build_hierarchies_for_dataset
from repro.index import InvertedIndex
from repro.queries import (
    Query,
    RangeCondition,
    ValueCondition,
    average_relative_error,
    condition_from_dict,
    evaluate_query,
)


@pytest.fixture
def dataset():
    return toy_rt_dataset()


class TestConditions:
    def test_range_condition_exact_values(self):
        condition = RangeCondition(20, 30)
        assert condition.match_probability(25) == 1.0
        assert condition.match_probability(31) == 0.0
        assert condition.match_probability(None) == 0.0

    def test_range_condition_interval_overlap(self):
        condition = RangeCondition(20, 30)
        assert condition.match_probability("[20-40]") == pytest.approx(0.5)
        assert condition.match_probability("[40-60]") == 0.0
        assert condition.match_probability("[25-25]") == 1.0

    def test_range_condition_rejects_empty_range(self):
        with pytest.raises(QueryError):
            RangeCondition(5, 1)

    def test_value_condition_exact(self):
        condition = ValueCondition(["Bachelors"])
        assert condition.match_probability("Bachelors") == 1.0
        assert condition.match_probability("Masters") == 0.0

    def test_value_condition_generalized_label(self):
        condition = ValueCondition(["Bachelors"])
        # Explicit group covering 2 values, one of which matches.
        assert condition.match_probability("(Bachelors,Masters)") == pytest.approx(0.5)

    def test_value_condition_requires_values(self):
        with pytest.raises(QueryError):
            ValueCondition([])

    def test_condition_round_trip(self):
        range_condition = RangeCondition(1, 2)
        assert condition_from_dict(range_condition.to_dict()) == range_condition
        value_condition = ValueCondition(["a", "b"])
        assert condition_from_dict(value_condition.to_dict()) == value_condition
        with pytest.raises(QueryError):
            condition_from_dict({"type": "bogus"})


class TestQueryIsReadOnly:
    MUTATIONS = {
        "setitem": lambda conditions: conditions.__setitem__("Age", RangeCondition(0, 1)),
        "delitem": lambda conditions: conditions.__delitem__("Age"),
        "ior": lambda conditions: conditions.__ior__({"Age": RangeCondition(0, 1)}),
        "clear": lambda conditions: conditions.clear(),
        "pop": lambda conditions: conditions.pop("Age"),
        "popitem": lambda conditions: conditions.popitem(),
        "setdefault": lambda conditions: conditions.setdefault("Zip", RangeCondition(0, 1)),
        "update": lambda conditions: conditions.update(Zip=RangeCondition(0, 1)),
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_conditions_cannot_be_edited_in_place(self, mutation):
        query = Query({"Age": RangeCondition(20, 30)})
        with pytest.raises(QueryError, match="read-only"):
            self.MUTATIONS[mutation](query.conditions)
        assert query.conditions == {"Age": RangeCondition(20, 30)}

    def test_conditions_read_and_pickle_as_a_dict(self):
        query = Query({"Age": RangeCondition(20, 30)}, items=["a"])
        assert isinstance(query.conditions, dict)
        for restored in (pickle.loads(pickle.dumps(query)), copy.deepcopy(query)):
            assert restored == query
            with pytest.raises(QueryError, match="read-only"):
                restored.conditions["Age"] = RangeCondition(0, 1)


class TestQueryCount:
    def test_requires_some_predicate(self):
        with pytest.raises(QueryError):
            Query()

    def test_relational_count(self, dataset):
        query = Query(conditions={"Age": RangeCondition(20, 40)})
        assert query.count(dataset) == 4

    def test_item_count(self, dataset):
        query = Query(items=["bread", "milk"])
        assert query.count(dataset) == 2

    def test_combined_count(self, dataset):
        query = Query(
            conditions={"Education": ValueCondition(["HS-grad"])}, items=["wine"]
        )
        assert query.count(dataset) == 1

    def test_item_query_on_relational_dataset_raises(self, dataset):
        relational = dataset.project(["Age", "Education"])
        query = Query(items=["bread"])
        with pytest.raises(QueryError):
            query.count(relational)


class TestQueryEstimate:
    def test_estimate_equals_count_on_original_data(self, dataset):
        hierarchies = build_hierarchies_for_dataset(dataset, fanout=3)
        query = Query(
            conditions={"Age": RangeCondition(20, 40), "Education": ValueCondition(["Masters"])},
            items=["wine"],
        )
        assert query.estimate(dataset, hierarchies) == pytest.approx(query.count(dataset))

    def test_estimate_with_generalized_relational_values(self):
        schema = Schema([Attribute.categorical("Age"), Attribute.categorical("Education")])
        anonymized = Dataset(
            schema,
            [
                {"Age": "[20-29]", "Education": "Bachelors"},
                {"Age": "[30-39]", "Education": "Masters"},
            ],
        )
        query = Query(conditions={"Age": RangeCondition(20, 24.5)})
        # Uniformity: the record generalized to [20-29] matches with p=0.5.
        assert query.estimate(anonymized) == pytest.approx(0.5)

    def test_estimate_with_generalized_items(self):
        schema = Schema([Attribute.transaction("Items")])
        anonymized = Dataset(schema, [{"Items": ["(bread,milk)"]}, {"Items": ["beer"]}])
        query = Query(items=["bread"])
        assert query.estimate(anonymized) == pytest.approx(0.5)

    def test_estimate_zero_for_suppressed_items(self):
        schema = Schema([Attribute.transaction("Items")])
        anonymized = Dataset(schema, [{"Items": []}])
        query = Query(items=["bread"])
        assert query.estimate(anonymized) == 0.0

    def test_describe_mentions_all_predicates(self, dataset):
        query = Query(
            conditions={"Age": RangeCondition(20, 30), "Education": ValueCondition(["X"])},
            items=["beer"],
        )
        description = query.describe()
        assert "Age" in description
        assert "Education" in description
        assert "beer" in description

    def test_query_dict_round_trip(self, dataset):
        query = Query(
            conditions={"Age": RangeCondition(20, 30)},
            items=["beer"],
            transaction_attribute="Items",
        )
        rebuilt = Query.from_dict(query.to_dict())
        assert rebuilt.count(dataset) == query.count(dataset)
        assert rebuilt.items == query.items


class TestDomainsSnapshot:
    """With a domains snapshot hierarchy-free labels resolve to the domain;
    without one they resolve against their hierarchy alone."""

    def test_root_items_resolve_against_item_universe(self):
        schema = Schema([Attribute.transaction("Items")])
        original = Dataset(
            schema, [{"Items": ["a", "b"]}, {"Items": ["b", "c"]}, {"Items": ["c"]}]
        )
        rooted = Dataset(schema, [{"Items": ["*"]}] * 3)
        domains = DatasetDomains.capture(original)
        query = Query(items=["b"])
        # With the snapshot: leaf-uniform over the 3-item universe.
        assert query.estimate(rooted, domains=domains) == pytest.approx(1.0)
        # Without it the hierarchy-free root stands for nothing.
        assert query.estimate(rooted) == 0.0

    def test_root_numeric_label_resolves_against_domain(self):
        schema = Schema([Attribute.numeric("Age")])
        original = Dataset(schema, [{"Age": age} for age in (20, 30, 40, 60)])
        rooted = Dataset(schema, [{"Age": "*"}] * 4)
        domains = DatasetDomains.capture(original)
        query = Query(conditions={"Age": RangeCondition(10, 50)})
        assert query.estimate(rooted) == 0.0
        # 3 of the 4 original ages fall inside the range: 3/4 per record.
        assert query.estimate(rooted, domains=domains) == pytest.approx(3.0)
        assert estimate_scan(query, rooted, domains=domains) == query.estimate(
            rooted, domains=domains
        )

    def test_root_relational_label_resolves_against_domain(self):
        schema = Schema([Attribute.categorical("Edu")])
        original = Dataset(schema, [{"Edu": level} for level in ("BS", "MS", "PhD")])
        rooted = Dataset(schema, [{"Edu": "*"}] * 3)
        domains = DatasetDomains.capture(original)
        query = Query(conditions={"Edu": ValueCondition(["BS"])})
        assert query.estimate(rooted) == 0.0
        assert query.estimate(rooted, domains=domains) == pytest.approx(1.0)

    def test_group_labels_restricted_to_domain(self):
        schema = Schema([Attribute.transaction("Items")])
        original = Dataset(schema, [{"Items": ["a", "b"]}, {"Items": ["a"]}])
        # The group mentions an item the original data never contained.
        grouped = Dataset(schema, [{"Items": ["(a,b,z)"]}] * 2)
        domains = DatasetDomains.capture(original)
        query = Query(items=["a"])
        assert query.estimate(grouped) == pytest.approx(2 / 3)
        assert query.estimate(grouped, domains=domains) == pytest.approx(1.0)

    def test_evaluate_query_without_snapshot_resolves_against_hierarchy(self):
        schema = Schema([Attribute.transaction("Items")])
        original = Dataset(schema, [{"Items": ["a", "b"]}, {"Items": ["a"]}])
        rooted = Dataset(schema, [{"Items": ["*"]}] * 2)
        domains = DatasetDomains.capture(original)
        query = Query(items=["a"])
        assert evaluate_query(query, original, rooted).estimate == 0.0
        assert evaluate_query(
            query, original, rooted, domains=domains
        ).estimate == pytest.approx(1.0)


class TestColumnarKernel:
    """The vectorized count/estimate paths match the per-record reference."""

    def test_count_kernel_matches_scan(self, dataset):
        queries = [
            Query(conditions={"Age": RangeCondition(20, 40)}),
            Query(items=["bread", "milk"]),
            Query(
                conditions={"Education": ValueCondition(["HS-grad"])}, items=["wine"]
            ),
            Query(items=["no-such-item"]),
        ]
        for query in queries:
            assert query.count(dataset) == count_scan(query, dataset)

    def test_estimate_kernel_bit_for_bit(self, dataset):
        hierarchies = build_hierarchies_for_dataset(dataset, fanout=3)
        domains = DatasetDomains.capture(dataset)
        query = Query(
            conditions={
                "Age": RangeCondition(20, 40),
                "Education": ValueCondition(["Masters"]),
            },
            items=["wine"],
        )
        for snapshot in (None, domains):
            kernel = query.estimate(dataset, hierarchies, domains=snapshot)
            scalar = estimate_scan(query, dataset, hierarchies, domains=snapshot)
            assert kernel == scalar

    def test_kernel_multiplication_order_with_several_items(self):
        # The scalar path multiplies the whole itemset product into the
        # record probability once; folding the factors in one at a time
        # differs in the last ulp (float multiplication is not associative).
        schema = Schema(
            [Attribute.categorical("City"), Attribute.transaction("Items")]
        )
        original = Dataset(
            schema,
            [
                {"City": city, "Items": ["a", "b", "c", "d", "e"]}
                for city in ("x", "y", "z")
            ],
        )
        anonymized = Dataset(
            schema, [{"City": "*", "Items": ["(a,b,c,d,e)", "(a,c,e)"]}] * 3
        )
        domains = DatasetDomains.capture(original)
        query = Query(conditions={"City": ValueCondition(["x"])}, items=["a", "c"])
        kernel = query.estimate(anonymized, domains=domains)
        scalar = estimate_scan(query, anonymized, domains=domains)
        assert kernel == scalar  # bit-for-bit, not approximately

    def test_kernel_handles_empty_itemsets(self):
        schema = Schema([Attribute.transaction("Items")])
        anonymized = Dataset(schema, [{"Items": []}, {"Items": ["a"]}])
        query = Query(items=["a"])
        assert query.estimate(anonymized) == estimate_scan(query, anonymized)
        assert query.estimate(anonymized) == pytest.approx(1.0)

    def test_kernel_handles_empty_dataset(self):
        schema = Schema([Attribute.categorical("Edu")])
        empty = Dataset(schema, [])
        query = Query(conditions={"Edu": ValueCondition(["BS"])})
        assert query.count(empty) == 0
        assert query.estimate(empty) == 0.0


MALFORMED = {
    "value-condition-on-items": Query(conditions={"Items": ValueCondition(["bread"])}),
    "range-condition-on-items": Query(conditions={"Items": RangeCondition(1, 2)}),
    "items-of-a-relational-attribute": Query(
        items=["Bachelors"], transaction_attribute="Education"
    ),
}


class TestMalformedQueries:
    """A predicate on a set-valued attribute, or items asked of a
    single-valued one, is rejected rather than answered."""

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_count_rejects(self, dataset, shape):
        with pytest.raises(QueryError):
            MALFORMED[shape].count(dataset)

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_estimate_rejects(self, dataset, shape):
        with pytest.raises(QueryError):
            MALFORMED[shape].estimate(dataset)


CONFIG = transaction_config("apriori", k=2, m=1)
SWEEP = ParameterSweep("k", (2,))

#: (call, keyword) for each switch the query and indicator layer no longer
#: has: ``vectorized=`` (the kernels are the only path), ``universe_mode=``
#: (one label rule, set by whether a domains snapshot is given),
#: ``km_check_limit=`` (a module constant), ``attack_knowledge_cap=`` and
#: ``cached=`` (the union memo is always on).
REMOVED_KEYWORDS = {
    "count": (lambda q, d: q.count(d, vectorized=False), "vectorized"),
    "estimate": (lambda q, d: q.estimate(d, vectorized=False), "vectorized"),
    "evaluate_query": (
        lambda q, d: evaluate_query(q, d, d, vectorized=False),
        "vectorized",
    ),
    "average_relative_error": (
        lambda q, d: average_relative_error([q], d, d, vectorized=False),
        "vectorized",
    ),
    "estimate-universe_mode": (
        lambda q, d: q.estimate(d, universe_mode="seed"),
        "universe_mode",
    ),
    "evaluate_query-universe_mode": (
        lambda q, d: evaluate_query(q, d, d, universe_mode="seed"),
        "universe_mode",
    ),
    "average_relative_error-universe_mode": (
        lambda q, d: average_relative_error([q], d, d, universe_mode="seed"),
        "universe_mode",
    ),
    "evaluator-universe_mode": (
        lambda q, d: MethodEvaluator(d, universe_mode="seed"),
        "universe_mode",
    ),
    "comparator-universe_mode": (
        lambda q, d: MethodComparator(d, universe_mode="seed"),
        "universe_mode",
    ),
    "configuration_keys-universe_mode": (
        lambda q, d: configuration_keys(
            d, ExperimentResources(), False, [CONFIG], SWEEP, universe_mode="seed"
        ),
        "universe_mode",
    ),
    "session.evaluate-universe_mode": (
        lambda q, d: Session(d).evaluate(CONFIG, universe_mode="seed"),
        "universe_mode",
    ),
    "session.sweep-universe_mode": (
        lambda q, d: Session(d).sweep(CONFIG, "k", 2, 2, 1, universe_mode="seed"),
        "universe_mode",
    ),
    "session.compare-universe_mode": (
        lambda q, d: Session(d).compare([CONFIG], "k", 2, 2, 1, universe_mode="seed"),
        "universe_mode",
    ),
    "evaluator-km_check_limit": (
        lambda q, d: MethodEvaluator(d, km_check_limit=1),
        "km_check_limit",
    ),
    "evaluator-attack_knowledge_cap": (
        lambda q, d: MethodEvaluator(d, attack_knowledge_cap=1),
        "attack_knowledge_cap",
    ),
    "index-cached": (
        lambda q, d: InvertedIndex(d.columnar("Items"), cached=False),
        "cached",
    ),
    "index.from_dataset-cached": (
        lambda q, d: InvertedIndex.from_dataset(d, "Items", cached=False),
        "cached",
    ),
}


class TestNoVectorizedSwitch:
    """The kernel path is the only entry point, and the query and indicator
    layer has no other switch left: each removed keyword is rejected."""

    @pytest.mark.parametrize("case", list(REMOVED_KEYWORDS))
    def test_vectorized_keyword_is_rejected(self, dataset, case):
        call, keyword = REMOVED_KEYWORDS[case]
        with pytest.raises(TypeError, match=keyword):
            call(Query(items=["bread"]), dataset)
