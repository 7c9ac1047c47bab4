"""Tests for workload generation, persistence and ARE."""

import pytest

from oracles.queries import are_without_domains
from repro.datasets import (
    Attribute,
    Dataset,
    Schema,
    generate_rt_dataset,
    toy_rt_dataset,
)
from repro.exceptions import QueryError
from repro.queries import (
    Query,
    QueryWorkload,
    RangeCondition,
    average_relative_error,
    evaluate_query,
    generate_query_workload,
    relative_error,
)


@pytest.fixture
def rt():
    return generate_rt_dataset(n_records=120, n_items=20, seed=21)


class TestWorkload:
    def test_empty_workload_rejected(self):
        with pytest.raises(QueryError):
            QueryWorkload([])

    def test_add_remove(self):
        workload = QueryWorkload([Query(items=["a"])])
        workload.add(Query(items=["b"]))
        assert len(workload) == 2
        workload.remove(0)
        assert len(workload) == 1
        with pytest.raises(QueryError):
            workload.remove(10)

    def test_remove_refuses_to_drain_the_workload(self):
        workload = QueryWorkload([Query(items=["a"])])
        with pytest.raises(QueryError, match="last query"):
            workload.remove(0)
        assert len(workload) == 1  # the invariant survives the refusal
        # A bad index is still reported as such, not as a draining refusal.
        with pytest.raises(QueryError, match="no query at index"):
            workload.remove(10)

    def test_generation_redraws_unusable_records(self):
        # Most records yield no predicates (no QI values, empty basket);
        # bounded redrawing still fills the workload from the usable ones.
        schema = Schema(
            [Attribute.categorical("City"), Attribute.transaction("Items")]
        )
        rows = [{"City": None, "Items": []}] * 12 + [
            {"City": "athens", "Items": ["a", "b"]},
            {"City": "berlin", "Items": ["b", "c"]},
        ]
        sparse = Dataset(schema, rows)
        workload = generate_query_workload(sparse, n_queries=8, seed=2)
        assert len(workload) == 8

    def test_generation_raises_when_nothing_is_queryable(self):
        schema = Schema(
            [Attribute.categorical("City"), Attribute.transaction("Items")]
        )
        unusable = Dataset(schema, [{"City": None, "Items": []}] * 5)
        with pytest.raises(QueryError):
            generate_query_workload(unusable, n_queries=4, seed=0)

    def test_generation_grounded_in_data(self, rt):
        workload = generate_query_workload(rt, n_queries=25, seed=3)
        assert len(workload) > 0
        # Most queries should have at least one matching record in the data
        # they were generated from.
        nonzero = sum(1 for query in workload if query.count(rt) > 0)
        assert nonzero >= len(workload) * 0.9

    def test_generation_is_deterministic(self, rt):
        a = generate_query_workload(rt, n_queries=10, seed=5)
        b = generate_query_workload(rt, n_queries=10, seed=5)
        assert [q.to_dict() for q in a] == [q.to_dict() for q in b]

    def test_generation_parameter_validation(self, rt):
        with pytest.raises(QueryError):
            generate_query_workload(rt, n_queries=0)
        with pytest.raises(QueryError):
            generate_query_workload(rt, range_width=0)

    def test_save_load_round_trip(self, tmp_path, rt):
        workload = generate_query_workload(rt, n_queries=8, seed=1)
        path = workload.save(tmp_path / "workload.json")
        loaded = QueryWorkload.load(path)
        assert len(loaded) == len(workload)
        assert [q.to_dict() for q in loaded] == [q.to_dict() for q in workload]

    def test_load_missing_or_invalid(self, tmp_path):
        with pytest.raises(QueryError):
            QueryWorkload.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(QueryError):
            QueryWorkload.load(bad)

    def test_load_skips_a_utf8_byte_order_mark(self, tmp_path, rt):
        workload = generate_query_workload(rt, n_queries=5, seed=3)
        path = workload.save(tmp_path / "workload.json")
        path.write_bytes(path.read_text(encoding="utf-8").encode("utf-8-sig"))
        assert QueryWorkload.load(path).to_dict() == workload.to_dict()

    def test_load_non_utf8_file_raises_a_query_error_naming_the_file(
        self, tmp_path
    ):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"queries": [{"items": ["Zürich"]}]}'.encode("latin-1"))
        with pytest.raises(QueryError, match="latin1.json"):
            QueryWorkload.load(path)


class TestAre:
    def test_relative_error_floor(self):
        assert relative_error(0, 5, floor=1.0) == 5.0
        assert relative_error(10, 5) == 0.5
        with pytest.raises(QueryError):
            relative_error(1, 1, floor=0)

    def test_identical_datasets_have_zero_are(self):
        dataset = toy_rt_dataset()
        workload = QueryWorkload(
            [Query(conditions={"Age": RangeCondition(20, 50)}), Query(items=["bread"])]
        )
        result = average_relative_error(workload, dataset, dataset)
        assert result.are == pytest.approx(0.0)
        assert len(result.per_query) == 2

    def test_worst_query_and_summary(self):
        dataset = toy_rt_dataset()
        suppressed = dataset.copy()
        for index in range(len(suppressed)):
            suppressed.set_value(index, "Items", [])
        workload = QueryWorkload(
            [Query(items=["bread"]), Query(conditions={"Age": RangeCondition(20, 90)})]
        )
        result = average_relative_error(workload, dataset, suppressed)
        assert result.are > 0
        assert result.worst_query.query.items == frozenset({"bread"})
        summary = result.summary()
        assert summary["queries"] == 2
        assert summary["max_relative_error"] >= result.are

    def test_evaluate_query_fields(self):
        dataset = toy_rt_dataset()
        evaluation = evaluate_query(Query(items=["bread"]), dataset, dataset)
        assert evaluation.actual == 4
        assert evaluation.estimate == pytest.approx(4)
        assert evaluation.relative_error == pytest.approx(0.0)

    def test_missing_workload_raises_clear_error(self):
        dataset = toy_rt_dataset()
        with pytest.raises(QueryError, match="workload"):
            average_relative_error(None, dataset, dataset)

    def test_empty_workload_raises_clear_error(self):
        dataset = toy_rt_dataset()
        with pytest.raises(QueryError, match="empty"):
            average_relative_error([], dataset, dataset)

    def test_label_rules_agree_on_identical_datasets(self):
        dataset = toy_rt_dataset()
        workload = QueryWorkload(
            [Query(conditions={"Age": RangeCondition(20, 50)}), Query(items=["bread"])]
        )
        seed = are_without_domains(workload, dataset, dataset)
        original = average_relative_error(workload, dataset, dataset)
        assert seed.are == pytest.approx(0.0)
        assert original.are == pytest.approx(0.0)
