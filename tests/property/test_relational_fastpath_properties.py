"""The relational algorithms' code-array paths against their scalar references.

Incognito scores its minimal lattice nodes from per-level codes and
builds only the winner, Top-Down counts classes on mixed-radix keys, Cluster
places leftovers against cached bounds and publishes one column write per
attribute, and the k-anonymity checks count classes on the code matrix.
Each is pinned to the per-record reference in ``tests/oracles/relational.py``:
the same ``Dataset.fingerprint()`` and the same statistics, down to the
``repr`` of every GCP float.  Cluster's incremental greedy growth is also
pinned to the whole-frontier reference growth at the benchmark workloads'
sizes, where the per-record growth is too slow.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.relational import (
    ScalarClusterAnonymizer,
    ScalarIncognito,
    ScalarTopDown,
    apply_by_cells,
    grow_clusters_frontier,
    k_violations_group_by,
    min_class_size_group_by,
)
from repro.algorithms import (
    ClusterAnonymizer,
    FullSubtreeBottomUp,
    Incognito,
    TopDownSpecialization,
)
from repro.algorithms.base import relational_quasi_identifiers
from repro.algorithms.relational._fulldomain import FullDomainIndex
from repro.datasets import (
    Attribute,
    Dataset,
    Schema,
    generate_adult_like,
    generate_rt_dataset,
)
from repro.hierarchy import build_hierarchies_for_dataset
from repro.hierarchy.hierarchy import HierarchyBuilder
from repro.hierarchy.lattice import GeneralizationLattice
from repro.metrics import k_violations, min_class_size
from repro.metrics.relational import global_certainty_penalty

SIZES = [63, 64, 65, 1500]
KS = [2, 5, 25, 45]


class _FrontierGrowthCluster(ScalarClusterAnonymizer):
    """Whole-frontier growth (pinned by ``TestClusterKernels``), scalar the rest.

    The scalar growth is quadratic in Python; at 1500 records it would
    dominate the suite without exercising anything the small sizes miss.
    """

    def _grow_clusters(self, dataset, attributes):
        return grow_clusters_frontier(self, dataset, attributes)


@pytest.fixture(scope="module", params=SIZES, ids=lambda n: f"n{n}")
def adult(request):
    dataset = generate_adult_like(n_records=request.param, seed=request.param)
    return dataset, build_hierarchies_for_dataset(dataset)


def assert_same_statistics(fast, slow, keys):
    for key in keys:
        assert repr(fast.statistics[key]) == repr(slow.statistics[key]), key


def assert_checks_agree(dataset: Dataset, attributes, k: int) -> None:
    smallest = min_class_size(dataset, attributes)
    assert smallest == min_class_size_group_by(dataset, attributes)
    assert smallest >= k
    assert k_violations(dataset, k, attributes) == []
    assert k_violations(dataset, smallest + 1, attributes) == k_violations_group_by(
        dataset, smallest + 1, attributes
    )


def run_incognito(dataset, hierarchies, k, attributes=None):
    fast = Incognito(k, hierarchies, attributes).anonymize(dataset)
    oracle = ScalarIncognito(k, hierarchies, attributes)
    slow = oracle.anonymize(dataset)
    assert fast.dataset.fingerprint() == oracle.selected.fingerprint()
    assert fast.dataset.name == slow.dataset.name
    assert_same_statistics(
        fast, slow, ["chosen_levels", "gcp", "equivalence_classes", "minimal_solutions"]
    )
    return fast


def run_topdown(dataset, hierarchies, k, attributes=None):
    fast = TopDownSpecialization(k, hierarchies, attributes).anonymize(dataset)
    slow = ScalarTopDown(k, hierarchies, attributes).anonymize(dataset)
    assert fast.dataset.fingerprint() == slow.dataset.fingerprint()
    assert_same_statistics(
        fast, slow, ["specializations", "cut_sizes", "gcp", "min_class_size"]
    )
    return fast


def run_cluster(dataset, hierarchies, k, attributes=None, oracle=ScalarClusterAnonymizer):
    fast = ClusterAnonymizer(k, hierarchies, attributes).anonymize(dataset)
    slow = oracle(k, hierarchies, attributes).anonymize(dataset)
    assert fast.dataset.fingerprint() == slow.dataset.fingerprint()
    assert_same_statistics(
        fast, slow, ["cluster_assignment", "gcp", "clusters", "min_cluster_size"]
    )
    return fast


def run_fullsubtree(dataset, hierarchies, k, attributes=None):
    attributes = attributes or relational_quasi_identifiers(dataset)
    fast = FullSubtreeBottomUp(k, hierarchies, attributes).anonymize(dataset)
    lattice = GeneralizationLattice(hierarchies, attributes)
    levels = fast.statistics["chosen_levels"]
    expected = apply_by_cells(dataset, lattice, tuple(levels[a] for a in attributes))
    assert fast.dataset.fingerprint() == expected.fingerprint()
    gcp = global_certainty_penalty(dataset, expected, attributes, hierarchies)
    assert repr(fast.statistics["gcp"]) == repr(gcp)
    assert fast.statistics["min_class_size"] == min_class_size_group_by(
        expected, attributes
    )
    return fast


@pytest.mark.parametrize("k", KS, ids=lambda k: f"k{k}")
class TestAdultLike:
    def test_incognito(self, adult, k):
        dataset, hierarchies = adult
        result = run_incognito(dataset, hierarchies, k)
        assert_checks_agree(result.dataset, relational_quasi_identifiers(dataset), k)

    def test_topdown(self, adult, k):
        dataset, hierarchies = adult
        result = run_topdown(dataset, hierarchies, k)
        assert_checks_agree(result.dataset, relational_quasi_identifiers(dataset), k)

    def test_cluster(self, adult, k):
        dataset, hierarchies = adult
        oracle = _FrontierGrowthCluster if len(dataset) > 500 else ScalarClusterAnonymizer
        result = run_cluster(dataset, hierarchies, k, oracle=oracle)
        assert_checks_agree(result.dataset, relational_quasi_identifiers(dataset), k)

    def test_fullsubtree(self, adult, k):
        dataset, hierarchies = adult
        result = run_fullsubtree(dataset, hierarchies, k)
        assert_checks_agree(result.dataset, relational_quasi_identifiers(dataset), k)


# -- incremental growth against the whole-frontier reference --------------------
@pytest.mark.parametrize("seed", [1, 104729])
@pytest.mark.parametrize("k", [5, 25, 45], ids=lambda k: f"k{k}")
def test_cluster_growth_matches_frontier_on_adult_workload(seed, k):
    dataset = generate_adult_like(n_records=1500, seed=seed)
    run_cluster(
        dataset, build_hierarchies_for_dataset(dataset), k, oracle=_FrontierGrowthCluster
    )


def test_cluster_growth_matches_frontier_on_rt_workload():
    dataset = generate_rt_dataset(n_records=2500, n_items=40, seed=1)
    run_cluster(
        dataset, build_hierarchies_for_dataset(dataset), 10, oracle=_FrontierGrowthCluster
    )


TIED_SCHEMA = Schema(
    [Attribute.numeric("N1"), Attribute.numeric("N2")]
    + [Attribute.categorical(name) for name in ("C1", "C2", "C3")]
)
numeric_cells = st.one_of(st.none(), st.integers(0, 6), st.sampled_from([0.5, -0.0]))
categorical_cells = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d"]))


@st.composite
def tied_datasets(draw):
    """Records drawn from a few distinct rows, so most growth steps tie."""
    row = st.tuples(numeric_cells, numeric_cells, *[categorical_cells] * 3)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=40))
    names = [attribute.name for attribute in TIED_SCHEMA]
    dataset = Dataset(TIED_SCHEMA, [dict(zip(names, values)) for values in picks])
    return dataset, draw(st.integers(2, min(5, len(picks))))


@given(inputs=tied_datasets())
@settings(max_examples=60, deadline=None)
def test_cluster_growth_matches_references_on_ties_and_missing_cells(inputs):
    dataset, k = inputs
    clusters = ClusterAnonymizer(k).build_clusters(dataset)
    assert clusters == _FrontierGrowthCluster(k).build_clusters(dataset)
    assert clusters == ScalarClusterAnonymizer(k).build_clusters(dataset)


# -- hierarchies whose labels look numeric ---------------------------------------
CITIES = [f"c{n}" for n in range(6)]

#: Internal-node label styles; every one parses as a number, so storing it in
#: the numeric ``Age`` column turns it into an ``int`` or ``float``.
LABEL_STYLES = {
    "int": lambda level, position: str(1000 * level + position),
    "float": lambda level, position: f"{1000 * level + position}.5",
    "exponent": lambda level, position: f"{level}{position}e3",
    "padded": lambda level, position: f" {1000 * level + position}.0 ",
}


def numeric_label_hierarchy(leaves, fanout, style, intervals=False):
    """A two-level hierarchy over ``leaves`` with numeric-looking inner labels.

    With ``intervals`` every inner node also carries the range of its
    (numeric) leaves, so the label scores a non-zero NCP while it stays a
    string — and exactly 0 once the dataset stores it as a number.
    """
    builder = HierarchyBuilder("*")
    label = LABEL_STYLES[style]
    groups = [leaves[i : i + fanout] for i in range(0, len(leaves), fanout)]
    parents = [label(1, position) for position in range(len(groups))]
    for grand, start in enumerate(range(0, len(parents), fanout)):
        grandparent = label(2, grand)
        builder.add(grandparent, "*")
        members = [
            leaf for group in groups[start : start + fanout] for leaf in group
        ]
        if intervals:
            builder.set_interval(grandparent, float(members[0]), float(members[-1]))
        for parent in parents[start : start + fanout]:
            builder.add(parent, grandparent)
    for parent, group in zip(parents, groups):
        if intervals:
            builder.set_interval(parent, float(group[0]), float(group[-1]))
        for leaf in group:
            builder.add(leaf, parent)
    return builder.build()


@st.composite
def numeric_label_inputs(draw):
    ages = draw(st.lists(st.integers(0, 40), min_size=6, max_size=40))
    cities = draw(
        st.lists(st.sampled_from(CITIES), min_size=len(ages), max_size=len(ages))
    )
    fanout = draw(st.integers(2, 4))
    style = draw(st.sampled_from(sorted(LABEL_STYLES)))
    k = draw(st.integers(2, min(6, len(ages))))
    return ages, cities, fanout, style, k


@given(inputs=numeric_label_inputs())
@settings(max_examples=40, deadline=None)
def test_numeric_looking_labels(inputs):
    ages, cities, fanout, style, k = inputs
    schema = Schema([Attribute.numeric("Age"), Attribute.categorical("City")])
    dataset = Dataset(
        schema, [{"Age": age, "City": city} for age, city in zip(ages, cities)]
    )
    hierarchies = {
        "Age": numeric_label_hierarchy(
            [str(age) for age in sorted(set(ages))], fanout, style, intervals=True
        ),
        "City": numeric_label_hierarchy(CITIES, fanout, style),
    }
    attributes = ["Age", "City"]
    for run in (run_incognito, run_topdown, run_cluster, run_fullsubtree):
        result = run(dataset, hierarchies, k, attributes)
        assert_checks_agree(result.dataset, attributes, k)


# -- targeted pins ---------------------------------------------------------------
def grouped_hierarchy(leaves, size):
    """One level of groups of ``size`` consecutive leaves under the root."""
    builder = HierarchyBuilder("*")
    for start in range(0, len(leaves), size):
        parent = f"g{size}-{start}"
        builder.add(parent, "*")
        for leaf in leaves[start : start + size]:
            builder.add(leaf, parent)
    return builder.build()


def test_incognito_gcp_adds_attributes_in_schema_order():
    # Per-cell NCPs 0.1, 0.2 and 0.3: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1,
    # so the score is only exact when summed in the GCP's attribute order.
    values = [f"v{n}" for n in range(11)]
    attributes = ["A", "B", "C"]
    schema = Schema([Attribute.categorical(name) for name in attributes])
    dataset = Dataset(schema, [dict.fromkeys(attributes, value) for value in values])
    hierarchies = {
        name: grouped_hierarchy(values, size)
        for name, size in zip(attributes, (2, 3, 4))
    }
    incognito = Incognito(2, hierarchies)
    index = FullDomainIndex(dataset, GeneralizationLattice(hierarchies, attributes))
    node, gcp = incognito._select_best(dataset, index, [(1, 1, 1)], attributes)
    expected = global_certainty_penalty(
        dataset, index.apply(dataset, node), attributes, hierarchies
    )
    assert repr(gcp) == repr(expected)


def test_leftover_ties_join_the_first_cheapest_cluster():
    schema = Schema([Attribute.numeric("Age"), Attribute.categorical("City")])
    dataset = Dataset(schema, [{"Age": 30, "City": "c0"}] * 5)
    clusters = ClusterAnonymizer(2).build_clusters(dataset)
    assert clusters == [[0, 1, 4], [2, 3]]
    assert clusters == ScalarClusterAnonymizer(2).build_clusters(dataset)
