"""PCTA: Privacy-Constrained Clustering-based Transaction Anonymization
(Gkoulalas-Divanis & Loukides, Transactions on Data Privacy 2012).

Like COAT, PCTA protects a set of privacy constraints (itemsets an adversary
may know) with threshold ``k``, but instead of being limited by a utility
policy it *clusters items*: starting from singleton clusters, it repeatedly
merges the pair of clusters that best helps the currently hardest constraint
while costing the least utility, until every constraint is supported by at
least ``k`` transactions or by none.  Each final cluster is published as a
single generalized item.
"""

from __future__ import annotations

from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    PhaseTimer,
    publish_items,
)
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.index import InvertedIndex
from repro.metrics.transaction import utility_loss
from repro.policies.privacy import PrivacyConstraint, PrivacyPolicy
from repro.policies.utility import generalized_label


class Pcta(Anonymizer):
    """Clustering-based satisfaction of privacy constraints."""

    name = "pcta"
    data_kind = "transaction"

    def __init__(
        self,
        privacy_policy: PrivacyPolicy,
        attribute: str | None = None,
        merge_candidates: int = 20,
    ):
        if privacy_policy is None:
            raise ConfigurationError("PCTA needs a privacy policy")
        self.privacy_policy = privacy_policy
        self.attribute = attribute
        #: How many merge partners are scored per step (a performance knob;
        #: the most frequent co-occurring clusters are considered first).
        self.merge_candidates = int(merge_candidates)

    def parameters(self) -> dict:
        return {
            "k": self.privacy_policy.k,
            "privacy_constraints": len(self.privacy_policy),
            "attribute": self.attribute,
            "merge_candidates": self.merge_candidates,
        }

    # -- support bookkeeping ----------------------------------------------------
    def _constraint_support(
        self,
        constraint: PrivacyConstraint,
        cluster_of: dict[str, int],
        clusters: dict[int, frozenset[str]],
        index: InvertedIndex,
        suppressed: set[str],
    ) -> int:
        """Records that could contain every item of ``constraint``.

        Each constraint item is represented by its current cluster; the
        per-cluster posting unions are memoized by the index, so rescoring the
        constraint set each merge round costs set intersections only.
        """
        member_clusters = []
        for item in constraint.items:
            if item in suppressed:
                return 0
            cluster = clusters.get(cluster_of.get(item, -1), frozenset({item}))
            member_clusters.append(cluster - suppressed)
        return index.joint_support(member_clusters)

    # -- main ----------------------------------------------------------------------
    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attribute = self.attribute or dataset.single_transaction_attribute()
        timer = PhaseTimer()
        k = self.privacy_policy.k

        with timer.phase("initialisation"):
            index = self._build_index(dataset, attribute)
            universe = sorted(index.universe)
            clusters: dict[int, frozenset[str]] = {
                position: frozenset({item}) for position, item in enumerate(universe)
            }
            cluster_of: dict[str, int] = {item: position for position, item in enumerate(universe)}
            suppressed: set[str] = set()

        merges = 0
        suppressed_items = 0
        with timer.phase("constraint satisfaction"):
            while True:
                violated = [
                    (self._constraint_support(c, cluster_of, clusters, index, suppressed), c)
                    for c in self.privacy_policy
                ]
                violated = [(support, c) for support, c in violated if 0 < support < k]
                if not violated:
                    break
                violated.sort(key=lambda entry: entry[0])
                support, constraint = violated[0]

                # Merge the cluster of the constraint's rarest item with the
                # candidate cluster that maximises support gain per added item.
                rarest = min(
                    (item for item in constraint.items if item not in suppressed),
                    key=index.frequency,
                )
                source_id = cluster_of[rarest]
                source = clusters[source_id]
                candidates = sorted(
                    (identifier for identifier in clusters if identifier != source_id),
                    key=lambda identifier: -index.union_size(clusters[identifier]),
                )[: self.merge_candidates]

                best_choice = None
                best_score = None
                # Size-only queries: merge scoring stays in the bitset domain,
                # no record-set materialization.
                source_key = source - suppressed
                source_support = index.union_size(source_key)
                for identifier in candidates:
                    merged_support = index.merged_union_size(
                        clusters[identifier] - suppressed, source_key
                    )
                    gain = merged_support - source_support
                    if gain <= 0:
                        continue
                    cost = len(clusters[identifier]) + len(source)
                    score = gain / cost
                    if best_score is None or score > best_score:
                        best_score = score
                        best_choice = identifier
                if best_choice is None:
                    # No merge increases the support: suppress the rarest item.
                    suppressed.add(rarest)
                    suppressed_items += 1
                    continue

                merged = clusters[source_id] | clusters[best_choice]
                clusters[source_id] = merged
                for item in clusters[best_choice]:
                    cluster_of[item] = source_id
                del clusters[best_choice]
                merges += 1

        with timer.phase("apply"):
            mapping: dict[str, str | None] = {}
            for item in universe:
                if item in suppressed:
                    mapping[item] = None
                    continue
                cluster = clusters[cluster_of[item]] - suppressed
                if len(cluster) > 1:
                    mapping[item] = generalized_label(cluster)
            anonymized = publish_items(dataset, attribute, self.name, [mapping])

        with timer.phase("verification"):
            residual = [
                constraint
                for constraint in self.privacy_policy
                if 0
                < self._constraint_support(
                    constraint, cluster_of, clusters, index, suppressed
                )
                < k
            ]
            if residual:
                raise AlgorithmError(
                    f"PCTA failed to satisfy {len(residual)} privacy constraints"
                )

        final_clusters = {
            identifier: cluster - suppressed
            for identifier, cluster in clusters.items()
            if len(cluster - suppressed) > 1
        }
        statistics = {
            "merges": merges,
            "generalized_clusters": len(final_clusters),
            "largest_cluster": max((len(c) for c in final_clusters.values()), default=1),
            "suppressed_items": suppressed_items,
            "utility_loss": utility_loss(dataset, anonymized, attribute=attribute),
        }
        return AnonymizationResult(
            dataset=anonymized,
            algorithm=self.name,
            parameters=self.parameters(),
            runtime_seconds=timer.total,
            phase_seconds=timer.phases,
            statistics=statistics,
        )
