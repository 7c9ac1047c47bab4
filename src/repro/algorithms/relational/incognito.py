"""Incognito: efficient full-domain k-anonymity (LeFevre, DeWitt, Ramakrishnan, SIGMOD 2005).

Incognito finds every *minimal* k-anonymous vector of the lattice of
full-domain generalization level vectors: a k-anonymous vector none of whose
direct specializations is k-anonymous.  The search rests on the
*generalization property*: a level-(l+1) label is a function of the level-l
label, so every vector that generalizes a k-anonymous vector is k-anonymous
too.  Read the other way round, a vector with one non-anonymous direct
generalization is not k-anonymous, and :meth:`Incognito._minimal_nodes`
walks the lattice top-down, checking only the vectors that this does not
decide (predictive tagging, as in the OLA and Flash searches).  Every
minimal vector is scored by Global Certainty Penalty, and the lowest-GCP one
is applied to the dataset.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    PhaseTimer,
    relational_quasi_identifiers,
    require_hierarchies,
    validate_k,
)
from repro.algorithms.relational._fulldomain import FullDomainIndex
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.lattice import GeneralizationLattice, LevelVector
from repro.metrics.relational import RelationalLossContext


class Incognito(Anonymizer):
    """Full-domain k-anonymity via a top-down lattice search."""

    name = "incognito"
    data_kind = "relational"

    def __init__(
        self,
        k: int,
        hierarchies: Mapping[str, Hierarchy],
        attributes: Sequence[str] | None = None,
    ):
        self.k = int(k)
        self.hierarchies = dict(hierarchies)
        self.attributes = list(attributes) if attributes is not None else None

    def parameters(self) -> dict:
        return {"k": self.k, "attributes": self.attributes}

    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attributes = self.attributes or relational_quasi_identifiers(dataset)
        if not attributes:
            raise AlgorithmError("Incognito: the dataset has no relational quasi-identifiers")
        require_hierarchies(attributes, self.hierarchies, "Incognito")
        validate_k(self.k, len(dataset), "Incognito")

        timer = PhaseTimer()
        lattice = GeneralizationLattice(self.hierarchies, attributes)

        with timer.phase("index"):
            index = FullDomainIndex(dataset, lattice)

        with timer.phase("lattice search"):
            minimal_nodes, checked = self._minimal_nodes(lattice, index)
        if not minimal_nodes:
            raise AlgorithmError(
                f"Incognito: no full-domain generalization satisfies {self.k}-anonymity"
            )

        with timer.phase("selection"):
            best_node, best_gcp = self._select_best(
                dataset, index, minimal_nodes, attributes
            )
            result_dataset = index.apply(dataset, best_node)

        result_dataset.name = f"{dataset.name}[incognito]"
        return AnonymizationResult(
            dataset=result_dataset,
            algorithm=self.name,
            parameters=self.parameters(),
            runtime_seconds=timer.total,
            phase_seconds=timer.phases,
            statistics={
                "lattice_size": lattice.size(),
                "nodes_checked": checked,
                "minimal_solutions": len(minimal_nodes),
                "chosen_levels": lattice.level_description(best_node),
                "gcp": best_gcp,
                "equivalence_classes": index.number_of_classes(best_node),
            },
        )

    def _minimal_nodes(
        self, lattice: GeneralizationLattice, index: FullDomainIndex
    ) -> tuple[list[LevelVector], int]:
        """The minimal k-anonymous nodes in ``iter_levels()`` order, and the checks run.

        The bottom node is checked first: when it is k-anonymous it is the
        only minimal node.  Otherwise the levels are walked from the top
        down; a node with a non-anonymous direct generalization is tagged
        non-anonymous without a check, every other node is checked.  A node
        is minimal when it is anonymous and none of its direct
        specializations is.  Listing them level by level from the bottom is
        the order a bottom-up search finds them in, which
        :meth:`_select_best` breaks its last ties by.

        The k-anonymous border of the comparison workload lies near the top
        of its 1,152-node lattice, where this checks 36-82 nodes and a
        bottom-up search checked over 1,120.  When the border is low it
        checks more: 65-69 of 72 nodes against 11-19 on 20k adult-like
        records with only the five categorical quasi-identifiers at k = 2
        and 5, which costs 5-8 ms.
        """
        if index.is_k_anonymous(lattice.bottom, self.k):
            return [lattice.bottom], 1
        checked = 1
        top = lattice.top
        levels = list(lattice.iter_levels())
        anonymous: dict[LevelVector, bool] = {lattice.bottom: False}
        for level_nodes in reversed(levels):
            for node in level_nodes:
                if node in anonymous:
                    continue
                # Direct generalizations, built inline so that ``all`` stops
                # at the first non-anonymous one.
                if all(
                    anonymous[node[:position] + (level + 1,) + node[position + 1 :]]
                    for position, level in enumerate(node)
                    if level < top[position]
                ):
                    checked += 1
                    anonymous[node] = index.is_k_anonymous(node, self.k)
                else:
                    anonymous[node] = False
        minimal = [
            node
            for level_nodes in levels
            for node in level_nodes
            if anonymous[node]
            and not any(anonymous[child] for child in lattice.predecessors(node))
        ]
        return minimal, checked

    def _select_best(
        self,
        dataset: Dataset,
        index: FullDomainIndex,
        candidates: list[LevelVector],
        attributes: Sequence[str],
    ) -> tuple[LevelVector, float]:
        """Pick the lowest-GCP minimal node.

        Every minimal node is scored; ties keep the node with the lower
        :meth:`FullDomainIndex.loss_proxy`, then the one found first.  Scores
        add the per-(attribute, level) NCP arrays in attribute order: the
        exact GCP of the applied node.
        """
        ranked = sorted(candidates, key=index.loss_proxy)
        if len(dataset) == 0:
            return ranked[0], 0.0
        context = RelationalLossContext(dataset, attributes, self.hierarchies)
        levels = dict.fromkeys(key for node in ranked for key in zip(attributes, node))
        ncp = {key: index.level_ncp(dataset, context, *key) for key in levels}

        def gcp(node: LevelVector) -> float:
            totals = sum(ncp[key] for key in zip(attributes, node))
            return float((totals / len(attributes)).sum()) / len(dataset)

        scores = [gcp(node) for node in ranked]
        best = min(range(len(ranked)), key=scores.__getitem__)
        return ranked[best], scores[best]
