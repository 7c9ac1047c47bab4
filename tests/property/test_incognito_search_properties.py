"""Incognito's top-down lattice search against the definition of a minimal node.

``Incognito`` tags a node non-anonymous without a check when one of its
direct generalizations is not k-anonymous, and checks only the rest.  The
minimal k-anonymous nodes it finds, and their order, must be those of
:func:`minimal_nodes_by_definition`, which applies and checks every node.
``ScalarIncognito`` inherits the search, so the fast-vs-oracle tests in
``test_relational_fastpath_properties.py`` do not cover it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.relational import (
    anonymous_nodes_by_definition,
    minimal_nodes_by_definition,
)
from repro.algorithms import Incognito
from repro.algorithms.relational import incognito as incognito_module
from repro.algorithms.relational._fulldomain import FullDomainIndex
from repro.datasets import Attribute, Dataset, Schema, generate_adult_like
from repro.exceptions import AlgorithmError
from repro.hierarchy import build_hierarchies_for_dataset
from repro.hierarchy.hierarchy import HierarchyBuilder
from repro.hierarchy.lattice import GeneralizationLattice

LEAVES = [f"v{n}" for n in range(4)]


@st.composite
def ragged_hierarchies(draw, attribute):
    """A hierarchy over ``LEAVES`` whose leaves sit at depths 1 to 3.

    Each leaf draws the branch it follows at every internal depth; an
    internal node's label is its path from the root, so shared prefixes
    share a node.
    """
    builder = HierarchyBuilder("*", attribute)
    for leaf in LEAVES:
        branches = draw(st.lists(st.integers(0, 1), max_size=2))
        path = [
            f"{attribute}/" + "/".join(map(str, branches[: depth + 1]))
            for depth in range(len(branches))
        ]
        builder.add_path([*path, leaf])
    return builder.build()


@st.composite
def search_inputs(draw):
    names = [f"A{n}" for n in range(draw(st.integers(2, 3)))]
    schema = Schema([Attribute.categorical(name) for name in names])
    # Distinct rows, so that the bottom node is rarely anonymous and classes
    # form only as attributes generalize; a few of them repeated.
    row = st.tuples(*[st.sampled_from(LEAVES)] * len(names))
    distinct = draw(st.lists(row, min_size=4, max_size=16, unique=True))
    rows = distinct + draw(st.lists(st.sampled_from(distinct), max_size=4))
    dataset = Dataset(schema, [dict(zip(names, values)) for values in rows])
    hierarchies = {name: draw(ragged_hierarchies(name)) for name in names}
    k = draw(st.integers(2, 4))
    return dataset, hierarchies, k


def search(dataset, hierarchies, k):
    lattice = GeneralizationLattice(hierarchies, list(hierarchies))
    index = FullDomainIndex(dataset, lattice)
    return lattice, Incognito(k, hierarchies)._minimal_nodes(lattice, index)


def checks_by_definition(lattice, anonymous):
    """The checks of the search: the bottom, then every node it cannot tag.

    A node other than the bottom is tagged non-anonymous without a check
    when one of its direct generalizations is not k-anonymous.
    """
    if anonymous[lattice.bottom]:
        return 1
    return 1 + sum(
        node != lattice.bottom
        and all(anonymous[parent] for parent in lattice.successors(node))
        for node in lattice.iter_nodes()
    )


@given(inputs=search_inputs())
@settings(max_examples=150, deadline=None)
def test_minimal_nodes_their_order_and_the_checks_match_the_definition(inputs):
    dataset, hierarchies, k = inputs
    lattice, (minimal, checked) = search(dataset, hierarchies, k)
    assert minimal == minimal_nodes_by_definition(dataset, lattice, k)
    anonymous = anonymous_nodes_by_definition(dataset, lattice, k)
    assert checked == checks_by_definition(lattice, anonymous)


@given(inputs=search_inputs())
@settings(max_examples=30, deadline=None)
def test_anonymous_bottom_node_is_the_only_minimal_node_after_one_check(inputs):
    dataset, hierarchies, k = inputs
    # Every row k times: the original classes already hold k records.
    rows = [{name: record[name] for name in hierarchies} for record in dataset]
    doubled = Dataset(dataset.schema, [row for row in rows for _ in range(k)])
    lattice, (minimal, checked) = search(doubled, hierarchies, k)
    assert minimal == [lattice.bottom] == minimal_nodes_by_definition(doubled, lattice, k)
    assert checked == 1
    result = Incognito(k, hierarchies).anonymize(doubled)
    assert result.statistics["nodes_checked"] == 1
    assert set(result.statistics["chosen_levels"].values()) == {0}


@given(inputs=search_inputs())
@settings(max_examples=30, deadline=None)
def test_no_anonymous_node_raises_the_typed_error(inputs):
    dataset, hierarchies, _ = inputs
    k = len(dataset) + 1
    lattice, (minimal, _) = search(dataset, hierarchies, k)
    assert minimal == [] == minimal_nodes_by_definition(dataset, lattice, k)
    # ``validate_k`` rejects a k above the dataset size before any search,
    # the only k at which no node is anonymous: the top is one class.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incognito_module, "validate_k", lambda *args: None)
        with pytest.raises(AlgorithmError, match="no full-domain generalization"):
            Incognito(k, hierarchies).anonymize(dataset)


def test_tie_goes_to_the_minimal_node_first_in_level_order():
    # (0, 1) at height 1 and (2, 0) at height 2 are the minimal nodes: each
    # generalizes one attribute to its root, so both score GCP 0.5 and
    # loss_proxy 0.5.  The one a bottom-up walk meets first wins.
    a = HierarchyBuilder("*", "A")
    for leaf, group in (("a", "g1"), ("b", "g1"), ("c", "g2"), ("d", "g2")):
        a.add_path([group, leaf])
    b = HierarchyBuilder("*", "B")
    for leaf in ("x", "y"):
        b.add_path([leaf])
    hierarchies = {"A": a.build(), "B": b.build()}
    schema = Schema([Attribute.categorical("A"), Attribute.categorical("B")])
    # (1, 0) leaves ("g1", "y") with one record; (0, 1) and (2, 0) do not.
    rows = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "x")]
    rows += [("c", "y"), ("c", "y"), ("d", "y"), ("d", "y")]
    dataset = Dataset(schema, [{"A": va, "B": vb} for va, vb in rows])

    lattice, (minimal, _) = search(dataset, hierarchies, 2)
    assert minimal == [(0, 1), (2, 0)] == minimal_nodes_by_definition(dataset, lattice, 2)
    index = FullDomainIndex(dataset, lattice)
    assert index.loss_proxy((0, 1)) == index.loss_proxy((2, 0))
    result = Incognito(2, hierarchies).anonymize(dataset)
    assert result.statistics["chosen_levels"] == {"A": 0, "B": 1}
    assert result.statistics["gcp"] == 0.5
    # The tie is real: listed the other way round, the other node wins.
    assert Incognito(2, hierarchies)._select_best(
        dataset, index, [(2, 0), (0, 1)], ["A", "B"]
    ) == ((2, 0), 0.5)


def test_statistics_on_the_comparison_workload():
    # compare-relational, seed 1, k = 5.  A bottom-up search checked 1,129
    # of the 1,152 nodes; every other statistic is unchanged by the search.
    dataset = generate_adult_like(n_records=1500, seed=1)
    result = Incognito(5, build_hierarchies_for_dataset(dataset)).anonymize(dataset)
    statistics = dict(result.statistics)
    assert statistics.pop("nodes_checked") == 78
    assert {key: repr(value) for key, value in statistics.items()} == {
        "lattice_size": "1152",
        "minimal_solutions": "21",
        "chosen_levels": repr(
            {
                "Age": 3,
                "Hours": 3,
                "Workclass": 1,
                "Education": 0,
                "Marital": 0,
                "Occupation": 2,
                "Gender": 0,
            }
        ),
        "gcp": "0.5714285714285713",
        "equivalence_classes": "56",
    }
