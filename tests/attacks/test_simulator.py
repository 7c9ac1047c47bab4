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
    qi_attack,
    rt_attack,
    simulate_attacks,
)
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
