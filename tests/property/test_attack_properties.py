"""Property-based tests: attack kernels bit-identical to the scalar oracle.

The bitset kernels of :mod:`repro.attacks.simulator` and the Python-set
oracle of ``tests/oracles/attacks.py`` must produce *equal*
:class:`~repro.attacks.AttackResult` dataclasses — per-record matching-set
sizes, empirical k, risks, witnesses, truncation flag — on arbitrary small
instances, including non-truthful "anonymized" outputs a buggy algorithm
could emit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import attacks as oracle

from repro.attacks import item_attack, qi_attack, rt_attack, simulator
from repro.datasets import Attribute, Dataset, Schema
from repro.metrics import SUPPRESSED, equivalence_classes

AGES = [20, 25, 30, 35]
EDUS = ["BSc", "MSc", "PhD"]
ITEMS = ["a", "b", "c", "d", "e", "f"]

AGE_LABELS = ["[20-30]", "[25-35]", "[0-100]", "20", "35", "*", SUPPRESSED]
EDU_LABELS = ["(BSc,MSc)", "(MSc,PhD)", "(BSc,MSc,PhD)", "BSc", "*", SUPPRESSED]
ITEM_LABELS = [None, "(a,b,c)", "(d,e,f)", "(a,b,c,d,e,f)"]


def make_rt(rows) -> Dataset:
    schema = Schema(
        [
            Attribute.numeric("Age"),
            Attribute.categorical("Edu"),
            Attribute.transaction("Items"),
        ]
    )
    return Dataset(schema, rows)


@st.composite
def attack_instances(draw):
    """An (original, arbitrary published output) pair of aligned datasets."""
    originals = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "Age": st.sampled_from(AGES),
                    "Edu": st.sampled_from(EDUS),
                    "Items": st.sets(st.sampled_from(ITEMS), max_size=4),
                }
            ),
            min_size=1,
            max_size=10,
        )
    )
    item_mapping = draw(
        st.dictionaries(
            st.sampled_from(ITEMS),
            st.sampled_from(ITEM_LABELS),
            max_size=len(ITEMS),
        )
    )
    published = []
    for record in originals:
        labels = {
            label
            for label in (
                item_mapping.get(item, item) for item in record["Items"]
            )
            if label is not None
        }
        published.append(
            {
                "Age": draw(
                    st.one_of(
                        st.just(str(record["Age"])), st.sampled_from(AGE_LABELS)
                    )
                ),
                "Edu": draw(
                    st.one_of(
                        st.just(record["Edu"]), st.sampled_from(EDU_LABELS)
                    )
                ),
                "Items": sorted(labels),
            }
        )
    original = make_rt(
        [{**record, "Items": sorted(record["Items"])} for record in originals]
    )
    return original, make_rt(published)


class TestKernelOracleEquivalence:
    @given(instance=attack_instances())
    @settings(max_examples=60, deadline=None)
    def test_qi_attack(self, instance):
        original, published = instance
        assert qi_attack(original, published) == oracle.qi_attack(original, published)

    @given(
        instance=attack_instances(),
        m=st.integers(1, 3),
        cap=st.one_of(st.none(), st.integers(1, 4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_item_attack(self, instance, m, cap):
        original, published = instance
        assert item_attack(
            original, published, m, knowledge_cap=cap
        ) == oracle.item_attack(original, published, m, knowledge_cap=cap)

    @given(
        instance=attack_instances(),
        m=st.integers(1, 3),
        cap=st.one_of(st.none(), st.integers(1, 4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_rt_attack(self, instance, m, cap):
        original, published = instance
        assert rt_attack(
            original, published, m, knowledge_cap=cap
        ) == oracle.rt_attack(original, published, m, knowledge_cap=cap)


class TestKernelOracleEquivalenceAcrossChunks:
    """:class:`TestKernelOracleEquivalence` with record blocks of 3 and pair
    gathers of 2.

    The generated instances hold at most 10 records, so at the real block
    and gather sizes they never cross a chunk boundary.
    """

    @pytest.fixture(autouse=True, scope="class")
    def tiny_chunks(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "CHUNK_RECORDS", 3)
            patch.setattr(simulator, "PAIR_CHUNK", 2)
            yield

    @given(instance=attack_instances())
    @settings(max_examples=60, deadline=None)
    def test_qi_attack(self, instance):
        original, published = instance
        assert qi_attack(original, published) == oracle.qi_attack(original, published)

    @given(
        instance=attack_instances(),
        m=st.integers(1, 3),
        cap=st.one_of(st.none(), st.integers(1, 4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_item_attack(self, instance, m, cap):
        original, published = instance
        assert item_attack(
            original, published, m, knowledge_cap=cap
        ) == oracle.item_attack(original, published, m, knowledge_cap=cap)

    @given(
        instance=attack_instances(),
        m=st.integers(1, 3),
        cap=st.one_of(st.none(), st.integers(1, 4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_rt_attack(self, instance, m, cap):
        original, published = instance
        assert rt_attack(
            original, published, m, knowledge_cap=cap
        ) == oracle.rt_attack(original, published, m, knowledge_cap=cap)


class TestAttackSemantics:
    @given(instance=attack_instances())
    @settings(max_examples=40, deadline=None)
    def test_identity_publication_matches_equivalence_classes(self, instance):
        """Publishing the original verbatim: matching set == QI class."""
        original, _ = instance
        result = qi_attack(original, original)
        classes = equivalence_classes(original, ["Age", "Edu"])
        for indices in classes.values():
            for index in indices:
                assert result.match_sizes[index] == len(indices)

    @given(instance=attack_instances(), m=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_rt_attack_never_exceeds_qi_attack(self, instance, m):
        """Extra item knowledge can only shrink nonempty matching sets."""
        original, published = instance
        qi = qi_attack(original, published)
        rt = rt_attack(original, published, m)
        for qi_size, rt_size in zip(qi.match_sizes, rt.match_sizes):
            assert rt_size <= qi_size
