"""Property-based equivalence tests for the relational columnar kernels.

The PR 3 kernels only *re-shape* pure computations: GCP/NCP gathers a
per-label lookup table instead of walking cells, the greedy clustering and
the RT merge loop score candidates through array summaries instead of
per-record dictionary walks.  Every kernel must therefore match its scalar
reference element-for-element:

* ``RelationalLossContext.dataset_ncp_values`` vs the per-record
  ``average_cell_ncp`` loop (``tests/oracles/relational.py``),
* ``equivalence_class_sizes`` vs ``Dataset.group_by``,
* ``_ClusterKernel.costs`` vs ``ClusterBounds.cost_with`` and, bit for bit,
  the whole-frontier ``FrontierClusterKernel.costs`` (``tests/oracles``),
* ``_MergeState`` scores vs ``merge_score`` (``tests/oracles/rt.py``),
* the full Rmerger / Tmerger / RTmerger outputs with and without the
  scalar references swapped in.

The generated datasets deliberately include missing cells (``None``),
all-``None`` columns, single-value domains, generalized interval/group/root
labels and hierarchy-scored categorical attributes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AprioriAnonymizer,
    ClusterAnonymizer,
    Rmerger,
    RTmerger,
    Tmerger,
)
from repro.algorithms.base import Anonymizer, relational_quasi_identifiers
from oracles.relational import (
    ClusterBounds,
    FrontierClusterKernel,
    ScalarClusterAnonymizer,
    average_cell_ncp,
)
from oracles.rt import ScalarMergeState, list_merge_loop, merge_score, row_publisher
from repro.algorithms.relational.cluster import _ClusterKernel, _LcaTable
from repro.algorithms.rt import bounding
from repro.algorithms.rt.bounding import _MergeState
from repro.columnar.relational import class_sizes, mixed_radix_keys
from repro.datasets import Attribute, Dataset, Schema, generate_rt_dataset
from repro.exceptions import DatasetError, HierarchyError
from repro.hierarchy import build_categorical_hierarchy, build_item_hierarchy
from repro.hierarchy.builders import format_interval
from repro.metrics import (
    RelationalLossContext,
    average_class_size,
    discernibility_metric,
    equivalence_class_sizes,
    global_certainty_penalty,
    ncp_per_attribute,
)

EDUCATION = ["A", "B", "C", "D", "E"]
ITEMS = [f"i{n}" for n in range(6)]

#: One record: (Age, Education, generalization choices, basket).
records = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 50)),
        st.one_of(st.none(), st.sampled_from(EDUCATION)),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.sets(st.sampled_from(ITEMS), max_size=3),
    ),
    min_size=4,
    max_size=24,
)


def make_rt(rows) -> Dataset:
    schema = Schema(
        [
            Attribute.numeric("Age"),
            Attribute.categorical("Education"),
            Attribute.transaction("Items"),
        ]
    )
    return Dataset(
        schema,
        [
            {"Age": age, "Education": education, "Items": sorted(basket)}
            for age, education, _, basket in rows
        ],
    )


def generalize(dataset: Dataset, rows, hierarchies=None) -> Dataset:
    """Apply each record's generalization choice: keep / label / root / suppress."""
    anonymized = dataset.copy()
    for index, (age, education, (age_choice, education_choice), _) in enumerate(rows):
        if age_choice == 1 and age is not None:
            anonymized.set_value(index, "Age", format_interval(age, age + 5))
        elif age_choice == 2:
            anonymized.set_value(index, "Age", "*")
        elif age_choice == 3:
            anonymized.set_value(index, "Age", "†")
        if education_choice == 1 and education is not None:
            if hierarchies and "Education" in hierarchies:
                anonymized.set_value(
                    index,
                    "Education",
                    hierarchies["Education"].generalize(education, steps=1),
                )
            else:
                anonymized.set_value(index, "Education", "(A,B,C)")
        elif education_choice == 2:
            anonymized.set_value(index, "Education", "*")
        elif education_choice == 3:
            anonymized.set_value(index, "Education", "†")
    return anonymized


def context_for(dataset: Dataset, hierarchies=None) -> RelationalLossContext | None:
    """A loss context over Age/Education, or ``None`` when a domain is empty."""
    try:
        return RelationalLossContext(
            dataset, ["Age", "Education"], hierarchies=hierarchies
        )
    except DatasetError:
        return None  # an all-None column has no domain to score against


class TestGcpKernels:
    @given(rows=records)
    @settings(max_examples=80, deadline=None)
    def test_dataset_ncp_matches_record_loop(self, rows):
        original = make_rt(rows)
        anonymized = generalize(original, rows)
        context = context_for(original)
        if context is None:
            return
        vectorized = context.dataset_ncp_values(anonymized)
        scalar = [average_cell_ncp(context, record) for record in anonymized]
        assert vectorized.tolist() == pytest.approx(scalar)
        assert global_certainty_penalty(
            original, anonymized, ["Age", "Education"]
        ) == pytest.approx(sum(scalar) / len(scalar))

    @given(rows=records)
    @settings(max_examples=40, deadline=None)
    def test_dataset_ncp_matches_with_hierarchy(self, rows):
        original = make_rt(rows)
        educations = [r[1] for r in rows if r[1] is not None]
        if not educations:
            return
        hierarchies = {
            "Education": build_categorical_hierarchy(educations, fanout=2)
        }
        anonymized = generalize(original, rows, hierarchies)
        context = context_for(original, hierarchies)
        if context is None:
            return
        vectorized = context.dataset_ncp_values(anonymized)
        scalar = [average_cell_ncp(context, record) for record in anonymized]
        assert vectorized.tolist() == pytest.approx(scalar)

    @given(rows=records)
    @settings(max_examples=40, deadline=None)
    def test_ncp_per_attribute_matches_cell_loop(self, rows):
        original = make_rt(rows)
        anonymized = generalize(original, rows)
        if context_for(original) is None:
            return
        fast = ncp_per_attribute(original, anonymized, ["Age", "Education"])
        reference = RelationalLossContext(original, ["Age", "Education"])
        for attribute, value in fast.items():
            scalar = sum(
                reference.cell_ncp(attribute, record[attribute])
                for record in anonymized
            ) / len(anonymized)
            assert value == pytest.approx(scalar)

    def test_all_none_column_still_raises(self):
        dataset = make_rt([(None, "A", (0, 0), set()), (None, "B", (0, 0), set())])
        with pytest.raises(DatasetError):
            RelationalLossContext(dataset, ["Age"])

    def test_single_value_domain_scores_zero(self):
        rows = [(30, "A", (0, 0), set()), (30, "A", (0, 0), set())]
        dataset = make_rt(rows)
        context = RelationalLossContext(dataset, ["Age", "Education"])
        assert context.dataset_ncp_values(dataset).tolist() == [0.0, 0.0]


class TestGroupingKernels:
    @given(rows=records)
    @settings(max_examples=60, deadline=None)
    def test_class_sizes_match_group_by(self, rows):
        dataset = make_rt(rows)
        anonymized = generalize(dataset, rows)
        for attributes in (["Age"], ["Age", "Education"], []):
            sizes = sorted(equivalence_class_sizes(anonymized, attributes).tolist())
            groups = anonymized.group_by(attributes)
            assert sizes == sorted(len(indices) for indices in groups.values())
        assert discernibility_metric(anonymized, ["Age", "Education"]) == sum(
            len(g) ** 2 for g in anonymized.group_by(["Age", "Education"]).values()
        )
        groups = anonymized.group_by(["Age", "Education"])
        assert average_class_size(anonymized, 2, ["Age", "Education"]) == (
            pytest.approx((len(anonymized) / len(groups)) / 2)
        )

    def test_wide_key_products_keep_classes_apart(self):
        # 256**9 wraps int64 to 0 for the first column; renumbering the keys
        # before that product keeps the two classes apart.
        first = np.array([0, 1, 0, 1])
        rest = np.zeros(4, dtype=np.int64)
        keys = mixed_radix_keys([(first, 256)] + [(rest, 256)] * 8, 4)
        assert sorted(class_sizes(keys).tolist()) == [2, 2]

    def test_grouping_still_accepts_transaction_attributes(self):
        dataset = make_rt(
            [(1, "A", (0, 0), {"i0"}), (2, "B", (0, 0), {"i0"}), (3, "A", (0, 0), set())]
        )
        item_groups = dataset.group_by(["Items"])
        assert sorted(equivalence_class_sizes(dataset, ["Items"]).tolist()) == sorted(
            len(g) for g in item_groups.values()
        )
        assert discernibility_metric(dataset, ["Items"]) == sum(
            len(g) ** 2 for g in item_groups.values()
        )


class TestClusterKernels:
    @given(rows=records)
    @settings(max_examples=60, deadline=None)
    def test_kernel_costs_match_scalar_bounds(self, rows):
        dataset = make_rt(rows)
        algorithm = ClusterAnonymizer(2, attributes=["Age", "Education"])
        algorithm._prepare(dataset, ["Age", "Education"])
        bounds = ClusterBounds(algorithm, dataset, ["Age", "Education"], 0)
        frontier = FrontierClusterKernel(algorithm, dataset, ["Age", "Education"])
        frontier.reset(0)
        candidates = np.arange(len(dataset), dtype=np.int64)
        kernel = _ClusterKernel(algorithm, dataset, ["Age", "Education"])
        kernel.reset(0, candidates)
        members = list(range(1, len(dataset), 3))
        for member in members:
            bounds.add(member)
            frontier.add(member)
            kernel.take(member)
        scalar = [bounds.cost_with(int(index)) for index in candidates]
        assert frontier.costs(candidates).tolist() == pytest.approx(scalar, abs=1e-12)
        alive = np.ones(len(dataset), dtype=bool)
        alive[members] = False
        costs = kernel.costs()
        assert costs[alive].tolist() == pytest.approx(
            [cost for cost, keep in zip(scalar, alive) if keep], abs=1e-12
        )
        assert np.isinf(costs[~alive]).all()

    @given(rows=records, seed=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_incremental_costs_are_the_frontier_costs_bit_for_bit(self, rows, seed):
        # Every greedy step's costs over the untaken candidates, the way the
        # incremental columns and the whole-frontier pass compute them.
        dataset = make_rt(rows)
        seed %= len(dataset)
        attributes = ["Age", "Education"]
        algorithm = ClusterAnonymizer(2, attributes=attributes)
        algorithm._prepare(dataset, attributes)
        candidates = np.delete(np.arange(len(dataset), dtype=np.int64), seed)
        kernel = _ClusterKernel(algorithm, dataset, attributes)
        kernel.reset(seed, candidates)
        frontier = FrontierClusterKernel(algorithm, dataset, attributes)
        frontier.reset(seed)
        alive = np.ones(candidates.size, dtype=bool)
        for _ in range(candidates.size):
            costs = kernel.costs()
            expected = frontier.costs(candidates[alive])
            assert costs[alive].tobytes() == expected.tobytes()
            assert np.isinf(costs[~alive]).all()
            position = int(np.argmin(costs))
            assert candidates[position] == candidates[alive][np.argmin(expected)]
            kernel.take(position)
            frontier.add(int(candidates[position]))
            alive[position] = False

    @given(rows=records, k=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_build_clusters_equivalent(self, rows, k):
        dataset = make_rt(rows)
        if len(dataset) < k:
            return
        fast = ClusterAnonymizer(k, attributes=["Age", "Education"])
        slow = ScalarClusterAnonymizer(k, attributes=["Age", "Education"])
        assert fast.build_clusters(dataset) == slow.build_clusters(dataset)

    def test_kernel_matches_scalar_on_dict_equal_mixed_cells(self):
        # 25 and 25.0 are one dictionary key but two str() identities; the
        # generalized label forces the column onto the categorical score path,
        # where the scalar model distinguishes them.  The kernel must too.
        schema = Schema([Attribute.numeric("Age")])
        dataset = Dataset(
            schema, [{"Age": value} for value in (25, 25.0, "[20-40]", 25, None)]
        )
        algorithm = ClusterAnonymizer(2, attributes=["Age"])
        algorithm._prepare(dataset, ["Age"])
        kernel = _ClusterKernel(algorithm, dataset, ["Age"])
        bounds = ClusterBounds(algorithm, dataset, ["Age"], 0)
        candidates = np.arange(len(dataset), dtype=np.int64)
        kernel.reset(0, candidates)
        scalar = [bounds.cost_with(int(index)) for index in candidates]
        assert kernel.costs().tolist() == pytest.approx(scalar)

    def test_none_numeric_seed_does_not_anchor_bounds_at_zero(self):
        # Regression: a cluster seeded on a missing Age used to get bounds
        # (0.0, 0.0), so a candidate with Age=40 looked 40 units wide.
        rows = [
            (None, "A", (0, 0), set()),
            (40, "A", (0, 0), set()),
            (0, "A", (0, 0), set()),
            (41, "A", (0, 0), set()),
        ]
        dataset = make_rt(rows)
        algorithm = ClusterAnonymizer(2, attributes=["Age"])
        algorithm._prepare(dataset, ["Age"])
        bounds = ClusterBounds(algorithm, dataset, ["Age"], 0)
        # Any first numeric value forms a zero-width range, whatever its size.
        assert bounds.cost_with(1) == 0.0
        assert bounds.cost_with(2) == 0.0
        bounds.add(1)
        assert bounds.cost_with(3) == pytest.approx(1.0 / 41.0)


#: A hierarchy over a random value set, and reps drawn from its labels
#: (leaves, inner nodes, the root), ``None`` and labels outside it.
hierarchy_values = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=1, max_size=20, unique=True
)


def scalar_merged_rep(hierarchy, rep, other):
    """The merged cluster's LCA node from the two clusters' LCA nodes."""
    if rep is None:
        return other
    if other is None or other == rep:
        return rep
    return hierarchy.lowest_common_ancestor([rep, other])


class TestLcaTable:
    """The pairwise LCA table against ``Hierarchy.lowest_common_ancestor``."""

    @given(values=hierarchy_values, fanout=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_every_node_pair_matches_hierarchy(self, values, fanout):
        hierarchy = build_categorical_hierarchy(values, fanout=fanout)
        table = _LcaTable(hierarchy)
        ids = {label: table.id_of(label) for label in hierarchy.labels}
        for label, node in ids.items():
            lca, leaves = table.row(node)
            # Column 0 is no value: the LCA is the node itself.
            assert (lca[0], leaves[0]) == (node, hierarchy.leaf_count(label))
            assert table.merged(node, -1) == table.merged(-1, node) == node
            for other, partner in ids.items():
                expected = hierarchy.lowest_common_ancestor([label, other])
                assert table.label_of(lca[1 + partner]) == expected
                assert leaves[1 + partner] == hierarchy.leaf_count(expected)
                assert table.merged(node, partner) == lca[1 + partner]
            assert table.merged(node, node) == node
            for ancestor in hierarchy.ancestors(label):
                assert table.merged(node, ids[ancestor]) == ids[ancestor]
                assert table.merged(ids[ancestor], node) == ids[ancestor]
        lca, _ = table.row(-1)
        assert lca.tolist() == [-1] + list(ids.values())
        assert table.merged(-1, -1) == -1

    @given(
        values=hierarchy_values,
        fanout=st.integers(2, 4),
        picks=st.lists(st.integers(-3, 60), min_size=2, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_outside_values_raise_where_the_hierarchy_does(self, values, fanout, picks):
        hierarchy = build_categorical_hierarchy(values, fanout=fanout)
        choices = [None, "zz-outside", "yy-outside"] + hierarchy.labels
        labels = [choices[pick % len(choices)] for pick in picks]
        table = _LcaTable(hierarchy)
        ids = [-1 if label is None else table.id_of(label) for label in labels]
        for label, rep in zip(labels, ids):
            for other, partner in zip(labels, ids):
                try:
                    expected = scalar_merged_rep(hierarchy, label, other)
                except HierarchyError:
                    with pytest.raises(HierarchyError):
                        table.merged(rep, partner)
                    continue
                merged = table.merged(rep, partner)
                assert (None if merged < 0 else table.label_of(merged)) == expected

    def test_equal_and_root_reps(self):
        hierarchy = build_categorical_hierarchy(EDUCATION, fanout=2)
        table = _LcaTable(hierarchy)
        root, leaf = table.id_of("*"), table.id_of("A")
        assert [table.merged(root, other) for other in (root, leaf, -1)] == [root] * 3
        assert [table.merged(leaf, other) for other in (root, leaf, -1)] == [root, leaf, leaf]


#: Cluster sizes used to partition the generated records into merge clusters.
partitions = st.lists(st.integers(1, 4), min_size=2, max_size=6)


def partition(dataset: Dataset, sizes) -> list[list[int]] | None:
    clusters: list[list[int]] = []
    start = 0
    for size in sizes:
        if start >= len(dataset):
            break
        clusters.append(list(range(start, min(start + size, len(dataset)))))
        start += size
    if start < len(dataset):
        clusters.append(list(range(start, len(dataset))))
    return clusters if len(clusters) >= 2 else None


def assert_scores_match(state, strategy, helper, dataset, attributes, clusters, worst):
    """Every partner's kernel score equals the scalar re-scan of both clusters."""
    partners = [p for p in range(len(clusters)) if p != worst]
    for part, kernel in (("r", state.relational_scores), ("t", state.transaction_scores)):
        if part not in strategy:
            continue
        scores = kernel(worst)
        assert len(scores) == len(clusters)
        assert [scores[p] for p in partners] == [
            merge_score(
                part, helper, dataset, attributes, "Items", clusters[worst], clusters[p]
            )
            for p in partners
        ]


class TestMergeKernels:
    @given(rows=records, sizes=partitions, use_hierarchy=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_merge_scores_match_scalar(self, rows, sizes, use_hierarchy):
        dataset = make_rt(rows)
        clusters = partition(dataset, sizes)
        if clusters is None:
            return
        hierarchies = {}
        if use_hierarchy:
            educations = [r[1] for r in rows if r[1] is not None]
            if educations:
                hierarchies["Education"] = build_categorical_hierarchy(
                    educations, fanout=2
                )
        attributes = ["Age", "Education"]
        helper = ClusterAnonymizer(2, hierarchies, attributes=attributes)
        helper._prepare(dataset, attributes)
        for merger in (Rmerger, Tmerger, RTmerger):
            strategy = merger.merge_strategy
            state = _MergeState(strategy, helper, dataset, attributes, "Items", clusters)
            worst = len(clusters) - 1
            assert_scores_match(state, strategy, helper, dataset, attributes, clusters, worst)
            partner = state.best_partner(worst)
            assert partner == min(
                (p for p in range(len(clusters)) if p != worst),
                key=lambda p: merge_score(
                    strategy, helper, dataset, attributes, "Items", clusters[worst], clusters[p]
                ),
            )
            # Exercise the in-place update: merge, then re-score every cluster.
            merged = sorted(clusters[worst] + clusters[partner])
            keep = [p for p in range(len(clusters)) if p not in (worst, partner)]
            new_clusters = [clusters[p] for p in keep] + [merged]
            state.merge(worst, partner)
            if len(new_clusters) < 2:
                continue
            fresh = _MergeState(strategy, helper, dataset, attributes, "Items", new_clusters)
            for position in range(len(new_clusters)):
                assert_scores_match(
                    state, strategy, helper, dataset, attributes, new_clusters, position
                )
                assert state.best_partner(position) == fresh.best_partner(position)

    @given(rows=records, sizes=partitions, known=st.sets(st.sampled_from(EDUCATION), min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_outside_values_raise_where_the_scalar_scores_do(self, rows, sizes, known):
        """A value outside the hierarchy raises only where a score climbs from it."""
        dataset = make_rt(rows)
        clusters = partition(dataset, sizes)
        if clusters is None:
            return
        attributes = ["Age", "Education"]
        hierarchies = {"Education": build_categorical_hierarchy(sorted(known), fanout=2)}
        helper = ClusterAnonymizer(2, hierarchies, attributes=attributes)
        helper._prepare(dataset, attributes)
        try:
            state = _MergeState("r", helper, dataset, attributes, "Items", clusters)
        except HierarchyError:
            values = [{dataset[i]["Education"] for i in cluster} - {None} for cluster in clusters]
            assert any(len(distinct) > 1 and not distinct <= known for distinct in values)
            return
        for worst in range(len(clusters)):
            partners = [p for p in range(len(clusters)) if p != worst]
            try:
                expected = [
                    merge_score(
                        "r", helper, dataset, attributes, "Items", clusters[worst], clusters[p]
                    )
                    for p in partners
                ]
            except HierarchyError:
                with pytest.raises(HierarchyError):
                    state.relational_scores(worst)
                continue
            scores = state.relational_scores(worst)
            assert [scores[p] for p in partners] == expected

    @pytest.mark.parametrize("merger", [Rmerger, Tmerger, RTmerger])
    def test_bounding_output_equivalence_end_to_end(self, merger, monkeypatch):
        rt = generate_rt_dataset(n_records=90, n_items=15, seed=23)
        item_hierarchy = build_item_hierarchy(rt.item_universe("Items"), fanout=3)
        fast = merger(k=3, m=2, delta=0.3, item_hierarchy=item_hierarchy)
        slow = merger(k=3, m=2, delta=0.3, item_hierarchy=item_hierarchy)
        slow.relational_algorithm = ScalarClusterAnonymizer(3)
        fast_result = fast.anonymize(rt)
        monkeypatch.setattr(bounding, "_MergeState", ScalarMergeState)
        slow_result = slow.anonymize(rt)
        assert fast_result.dataset.to_rows() == slow_result.dataset.to_rows()
        assert (
            fast_result.statistics["cluster_assignment"]
            == slow_result.statistics["cluster_assignment"]
        )
        assert fast_result.statistics["merges"] == slow_result.statistics["merges"]

    @pytest.mark.parametrize("delta", [0.3, 1.0])
    @pytest.mark.parametrize("merger", [Rmerger, Tmerger, RTmerger])
    def test_itemset_route_matches_subset_route(self, merger, delta):
        rt = generate_rt_dataset(n_records=90, n_items=15, seed=23)
        # Three records in four lose their items: empty itemsets, and clusters
        # with fewer than k non-empty transactions (unresolvable, suppressed).
        for index in range(len(rt)):
            if index % 4:
                rt.set_value(index, "Items", [])
        item_hierarchy = build_item_hierarchy(rt.item_universe("Items"), fanout=3)
        itemsets = merger(k=3, m=2, delta=delta, item_hierarchy=item_hierarchy)
        subsets = merger(
            k=3,
            m=2,
            delta=delta,
            item_hierarchy=item_hierarchy,
            transaction_algorithm=SubsetRouteApriori(3, 2, hierarchy=item_hierarchy),
        )
        fast, slow = itemsets.anonymize(rt), subsets.anonymize(rt)
        assert fast.dataset.to_rows() == slow.dataset.to_rows()
        for key in ("cluster_assignment", "merges", "max_cluster_ul", "transaction_ul"):
            assert fast.statistics[key] == slow.statistics[key]
        if delta == 1.0:
            suppressed = [
                cluster
                for cluster in fast.statistics["cluster_assignment"]
                if any(rt[i]["Items"] for i in cluster)
                and not any(fast.dataset[i]["Items"] for i in cluster)
            ]
            assert suppressed


def assert_slot_loop_matches_list_loop(algorithm, dataset, clusters, helper, monkeypatch):
    """The slot loop merges what the list-based loop merges, in the same order.

    Both start from the same initial clusters: the slot loop through
    ``anonymize``, recording each (worst, partner) pair it scores; the list
    loop from ``tests/oracles/rt.py`` with a fresh ``_MergeState`` and the
    row-reading publish.
    """
    attributes = relational_quasi_identifiers(dataset)
    attribute = dataset.single_transaction_attribute()
    picks = []
    best_partner = _MergeState.best_partner

    def recording(self, worst):
        partner = best_partner(self, worst)
        picks.append((worst, partner))
        return partner

    with monkeypatch.context() as patch:
        patch.setattr(
            type(algorithm),
            "_initial_clusters",
            lambda self, data, names: ([list(cluster) for cluster in clusters], helper),
        )
        patch.setattr(_MergeState, "best_partner", recording)
        result = algorithm.anonymize(dataset)
    state = _MergeState(algorithm.merge_strategy, helper, dataset, attributes, attribute, clusters)
    apriori = AprioriAnonymizer(algorithm.k, algorithm.m, hierarchy=algorithm.item_hierarchy)
    publish = row_publisher(apriori, algorithm.item_hierarchy, dataset, attribute)
    expected, final, outputs = list_merge_loop(
        state, publish, clusters, algorithm.delta, len(clusters)
    )
    assert picks == expected
    assert result.statistics["merges"] == len(expected)
    assert result.statistics["cluster_assignment"] == final
    assert result.statistics["max_cluster_ul"] == max(loss for _, loss in outputs)
    return picks


class TestMergeLoop:
    """The slot-based merge loop against the list-based loop it replaced."""

    @pytest.mark.parametrize("seed", [1, 104729])
    @pytest.mark.parametrize("merger", [Rmerger, Tmerger, RTmerger])
    def test_generated_datasets(self, merger, seed, monkeypatch):
        rt = generate_rt_dataset(n_records=400, n_items=30, seed=seed)
        item_hierarchy = build_item_hierarchy(rt.item_universe("Items"), fanout=3)
        algorithm = merger(k=5, m=2, delta=0.3, item_hierarchy=item_hierarchy)
        attributes = relational_quasi_identifiers(rt)
        clusters, helper = algorithm._initial_clusters(rt, attributes)
        picks = assert_slot_loop_matches_list_loop(algorithm, rt, clusters, helper, monkeypatch)
        assert len(picks) > 10

    @pytest.mark.parametrize("merger", [Rmerger, Tmerger, RTmerger])
    def test_ties_break_at_the_first_position(self, merger, monkeypatch):
        """Losses tie at the maximum and partners tie in score.

        Cluster 0 publishes its items unchanged (UL 0) and differs in every
        attribute; clusters 1-4 are identical, and each forces the root (UL
        1).  The worst cluster is the first of the tied ones, and its partner
        the first of the tied partners.
        """
        item_hierarchy = build_item_hierarchy(ITEMS, fanout=2)
        left, right = (item_hierarchy.leaves(child.label)[0] for child in item_hierarchy.root.children)
        schema = Schema(
            [
                Attribute.numeric("Age"),
                Attribute.categorical("Education"),
                Attribute.transaction("Items"),
            ]
        )
        rows = [{"Age": 80, "Education": "E", "Items": [left]}] * 3
        rows += [
            {"Age": 30, "Education": "A", "Items": items}
            for _ in range(4)
            for items in ([left], [right], [left, right])
        ]
        dataset = Dataset(schema, rows)
        clusters = [list(range(start, start + 3)) for start in range(0, 15, 3)]
        attributes = ["Age", "Education"]
        helper = ClusterAnonymizer(3, attributes=attributes)
        helper._prepare(dataset, attributes)
        algorithm = merger(k=3, m=2, delta=0.5, item_hierarchy=item_hierarchy)
        picks = assert_slot_loop_matches_list_loop(
            algorithm, dataset, clusters, helper, monkeypatch
        )
        assert picks == [(1, 2)] * 3


class SubsetRouteApriori(Anonymizer):
    """Apriori behind a plain ``Anonymizer``: bounding runs it on a ``subset``."""

    name = "apriori"
    data_kind = "transaction"

    def __init__(self, *args, **kwargs):
        self.apriori = AprioriAnonymizer(*args, **kwargs)

    def anonymize(self, dataset):
        return self.apriori.anonymize(dataset)
