"""Incognito: efficient full-domain k-anonymity (LeFevre, DeWitt, Ramakrishnan, SIGMOD 2005).

Incognito searches the lattice of full-domain generalization level vectors
bottom-up (breadth-first), checking k-anonymity of each candidate and using
the *generalization property* to prune: once a level vector is k-anonymous,
every vector that generalizes it is k-anonymous as well and need not be
checked.  Every minimal k-anonymous vector found is scored by Global
Certainty Penalty, and the lowest-GCP one is applied to the dataset.
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
    """Full-domain k-anonymity via bottom-up lattice search."""

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

        checked = 0
        minimal_nodes: list[LevelVector] = []
        known_anonymous: set[LevelVector] = set()
        with timer.phase("lattice search"):
            for level_nodes in lattice.iter_levels():
                for node in level_nodes:
                    if node in known_anonymous:
                        continue
                    checked += 1
                    if index.is_k_anonymous(node, self.k):
                        minimal_nodes.append(node)
                        # Generalization property: every ancestor is anonymous too.
                        for ancestor in lattice.ancestors(node):
                            known_anonymous.add(ancestor)
                        known_anonymous.add(node)
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
