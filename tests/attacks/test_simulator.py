"""Unit tests for the re-identification attack simulator.

The hand-computed example: four individuals published in two truthful
equivalence classes of two.  Every matching set is checked against what the
adversary could derive with pencil and paper.
"""

import pytest
from oracles import attacks as oracle

from repro import attacks as kernel
from repro.attacks import (
    AttackResult,
    MAX_WITNESSES,
    finalize_sizes,
    item_attack,
    knowledge_combos,
    qi_attack,
    rt_attack,
    simulate_attacks,
)
from repro.attacks import simulator
from repro.datasets import Attribute, Dataset, Schema
from repro.exceptions import DatasetError
from repro.metrics import SUPPRESSED


def make_rt(rows) -> Dataset:
    schema = Schema(
        [
            Attribute.numeric("Age"),
            Attribute.categorical("Edu"),
            Attribute.transaction("Items"),
        ]
    )
    return Dataset(schema, rows)


@pytest.fixture
def original() -> Dataset:
    return make_rt(
        [
            {"Age": 25, "Edu": "BSc", "Items": ["a", "b"]},
            {"Age": 28, "Edu": "BSc", "Items": ["a"]},
            {"Age": 52, "Edu": "PhD", "Items": ["b", "c"]},
            {"Age": 58, "Edu": "PhD", "Items": ["c"]},
        ]
    )


@pytest.fixture
def anonymized() -> Dataset:
    """A truthful 2-anonymous generalization of ``original``."""
    return make_rt(
        [
            {"Age": "[25-28]", "Edu": "BSc", "Items": ["(a,b)"]},
            {"Age": "[25-28]", "Edu": "BSc", "Items": ["(a,b)"]},
            {"Age": "[52-58]", "Edu": "PhD", "Items": ["(b,c)"]},
            {"Age": "[52-58]", "Edu": "PhD", "Items": ["(b,c)"]},
        ]
    )


@pytest.mark.parametrize(
    "attacks", [pytest.param(kernel, id="kernel"), pytest.param(oracle, id="oracle")]
)
class TestHandComputedMatchingSets:
    def test_qi_attack(self, original, anonymized, attacks):
        result = attacks.qi_attack(original, anonymized)
        assert result.match_sizes == (2, 2, 2, 2)
        assert result.empirical_k == 2
        assert result.max_risk == 0.5
        assert result.mean_risk == 0.5
        assert result.worst_records == (0, 1, 2, 3)
        assert result.worst_knowledge is None

    def test_item_attack_m1(self, original, anonymized, attacks):
        # Candidates: a -> {0,1}, b -> all four, c -> {2,3}.
        result = attacks.item_attack(original, anonymized, m=1)
        assert result.match_sizes == (2, 2, 2, 2)
        assert result.empirical_k == 2
        # Record 0's best single item is "a" (2 candidates vs 4 for "b").
        assert result.worst_knowledge == ("a",)

    def test_item_attack_m2_cannot_beat_class_size(
        self, original, anonymized, attacks
    ):
        result = attacks.item_attack(original, anonymized, m=2)
        assert result.empirical_k == 2

    def test_rt_attack_items_add_nothing_here(self, original, anonymized, attacks):
        result = attacks.rt_attack(original, anonymized, m=2)
        assert result.match_sizes == (2, 2, 2, 2)
        assert result.empirical_k == 2
        # The QI matching set already equals every intersection, so the
        # seeded minimum is never strictly beaten: no witness.
        assert result.worst_knowledge is None

    def test_identity_output_is_fully_exposed(self, original, attacks):
        result = attacks.qi_attack(original, original)
        assert result.match_sizes == (1, 1, 1, 1)
        assert result.empirical_k == 1
        assert result.max_risk == 1.0

    def test_suppressed_cells_match_everyone(self, original, attacks):
        blanked = make_rt(
            [
                {"Age": SUPPRESSED, "Edu": SUPPRESSED, "Items": []}
                for _ in range(len(original))
            ]
        )
        result = attacks.qi_attack(original, blanked)
        assert result.match_sizes == (4, 4, 4, 4)

    def test_wiped_items_mean_failed_item_attack(self, original, attacks):
        blanked = make_rt(
            [
                {"Age": SUPPRESSED, "Edu": SUPPRESSED, "Items": []}
                for _ in range(len(original))
            ]
        )
        result = attacks.item_attack(original, blanked, m=2)
        assert result.match_sizes == (0, 0, 0, 0)
        assert result.empirical_k is None
        assert result.matched == 0
        assert result.max_risk == 0.0
        assert result.worst_records == ()


def same_qi(baskets) -> Dataset:
    """One QI class holding every record, with the given item baskets."""
    return make_rt(
        [{"Age": 30, "Edu": "BSc", "Items": items} for items in baskets]
    )


@pytest.mark.parametrize(
    "attacks", [pytest.param(kernel, id="kernel"), pytest.param(oracle, id="oracle")]
)
class TestKnowledgeBoundaries:
    """Edges of the per-target reduction: seeds, caps, ties, empty sets."""

    def test_every_basket_empty(self, original, anonymized, attacks):
        empty = original.copy()
        empty.map_column("Items", lambda items: [])
        item = attacks.item_attack(empty, anonymized, m=2)
        assert item.match_sizes == (0, 0, 0, 0)
        assert item.empirical_k is None
        assert not item.truncated
        rt = attacks.rt_attack(empty, anonymized, m=2, knowledge_cap=1)
        assert rt.match_sizes == (2, 2, 2, 2)
        assert rt.worst_knowledge is None
        assert not rt.truncated

    @pytest.mark.parametrize(
        ("cap", "item_sizes", "rt_sizes", "rt_witness", "truncated"),
        [
            (None, (3, 1, 3), (3, 1, 3), ("c",), False),
            (3, (3, 1, 3), (3, 1, 3), ("c",), False),
            (2, (3, 3, 3), (3, 3, 3), None, True),
            (0, (0, 0, 0), (3, 3, 3), None, True),
        ],
    )
    def test_cap_keeps_the_first_combinations(
        self, attacks, cap, item_sizes, rt_sizes, rt_witness, truncated
    ):
        # The largest basket has exactly three m=1 combinations, and only the
        # last of them, "c", singles its target out.
        dataset = same_qi([["a", "b"], ["a", "b", "c"], ["a", "b"]])
        item = attacks.item_attack(dataset, dataset, m=1, knowledge_cap=cap)
        assert item.match_sizes == item_sizes
        assert item.truncated is truncated
        rt = attacks.rt_attack(dataset, dataset, m=1, knowledge_cap=cap)
        assert rt.match_sizes == rt_sizes
        assert rt.worst_knowledge == rt_witness
        assert rt.truncated is truncated

    @pytest.mark.parametrize("m", [1, 2])
    def test_tie_goes_to_the_first_combination(self, attacks, m):
        # "a", "b" and ("a", "b") all match records {0, 1}.
        dataset = same_qi([["a", "b"], ["a", "b"], ["d"], ["d"], ["d"]])
        for result in (
            attacks.item_attack(dataset, dataset, m),
            attacks.rt_attack(dataset, dataset, m),
        ):
            assert result.match_sizes == (2, 2, 3, 3, 3)
            assert result.worst_records == (0, 1)
            assert result.worst_knowledge == ("a",)

    def test_empty_qi_matching_set_fails_the_rt_attack(self, attacks):
        original = make_rt(
            [
                {"Age": 25, "Edu": "BSc", "Items": ["a"]},
                {"Age": 52, "Edu": "PhD", "Items": ["a"]},
            ]
        )
        # Not truthful: nothing published covers record 0's age.
        published = make_rt(
            [{"Age": "[52-58]", "Edu": "PhD", "Items": ["a"]} for _ in range(2)]
        )
        assert attacks.qi_attack(original, published).match_sizes == (0, 2)
        assert attacks.item_attack(original, published, m=1).match_sizes == (2, 2)
        rt = attacks.rt_attack(original, published, m=1)
        assert rt.match_sizes == (0, 2)
        # Item "a" matches exactly record 1's QI matching set: equal to the
        # seed, so it does not count as the adversary's knowledge.
        assert rt.worst_records == (1,)
        assert rt.worst_knowledge is None


class TestKnowledgePlan:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("cap", [None, 0, 2, 5])
    def test_combination_order_is_knowledge_combos(self, m, cap):
        widest = ["b", "a10", "a2", "c"]
        baskets = [widest, ["c", "zz"], [], ["a2", "b"], list(reversed(widest))]
        # "zz" lies outside the adversary's item universe.
        items = sorted(widest)
        plan = simulator._knowledge_plan(same_qi(baskets), "Items", items, m, cap)
        for index, basket in enumerate(baskets):
            known = list(knowledge_combos([i for i in basket if i in items], m))
            start, stop = plan.offsets[plan.basket_of[index] : plan.basket_of[index] + 2]
            enumerated = [
                tuple(items[token] for token in plan.combos[combo])
                for combo in plan.combo_ids[start:stop]
            ]
            assert enumerated == (known if cap is None else known[:cap])
        widest_count = len(list(knowledge_combos(widest, m)))
        assert plan.truncated is (cap is not None and cap < widest_count)
        assert len(set(plan.combos)) == len(plan.combos)


class TestSimulateAttacks:
    def test_simulate_attacks_runs_all_three(self, original, anonymized):
        results = simulate_attacks(original, anonymized, m=2)
        assert sorted(results) == ["item", "qi", "rt"]
        assert all(value.empirical_k == 2 for value in results.values())


class TestValidation:
    def test_misaligned_datasets_rejected(self, original, anonymized):
        with pytest.raises(DatasetError, match="record-aligned"):
            qi_attack(original, anonymized.subset([0, 1]))

    def test_qi_attack_needs_quasi_identifiers(self):
        schema = Schema([Attribute.transaction("Items")])
        transactions = Dataset(schema, [{"Items": ["a"]}, {"Items": ["b"]}])
        with pytest.raises(DatasetError, match="quasi-identifier"):
            qi_attack(transactions, transactions)

    @pytest.mark.parametrize("m", [0, -1])
    def test_item_and_rt_attacks_reject_non_positive_m(
        self, original, anonymized, m
    ):
        with pytest.raises(DatasetError, match="m must be"):
            item_attack(original, anonymized, m=m)
        with pytest.raises(DatasetError, match="m must be"):
            rt_attack(original, anonymized, m=m)

    def test_knowledge_cap_flags_truncation(self, original, anonymized):
        capped = item_attack(original, anonymized, m=2, knowledge_cap=1)
        assert capped.truncated
        exhaustive = item_attack(original, anonymized, m=2)
        assert not exhaustive.truncated


class TestAttackResult:
    def test_risk_and_summary(self):
        result = finalize_sizes("qi", [3, 0, 1])
        assert result.risk(0) == pytest.approx(1 / 3)
        assert result.risk(1) == 0.0
        assert result.risk(2) == 1.0
        summary = result.summary()
        assert summary["attack"] == "qi"
        assert summary["records"] == 3
        assert summary["matched"] == 2
        assert summary["empirical_k"] == 1
        assert summary["max_risk"] == 1.0
        assert summary["worst_records"] == [2]
        assert summary["worst_knowledge"] is None
        assert summary["truncated"] is False

    def test_finalize_caps_witness_list(self):
        result = finalize_sizes("qi", [1] * (MAX_WITNESSES + 5))
        assert len(result.worst_records) == MAX_WITNESSES
        assert result.worst_records == tuple(range(MAX_WITNESSES))

    def test_finalize_empty(self):
        result = finalize_sizes("qi", [])
        assert result == AttackResult(
            attack="qi",
            n_records=0,
            match_sizes=(),
            empirical_k=None,
            mean_risk=0.0,
            max_risk=0.0,
            worst_records=(),
        )

    def test_results_are_picklable(self, original, anonymized):
        import pickle

        result = rt_attack(original, anonymized, m=2)
        assert pickle.loads(pickle.dumps(result)) == result
