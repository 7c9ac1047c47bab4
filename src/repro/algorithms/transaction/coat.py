"""COAT: COnstraint-based Anonymization of Transactions (Loukides, Gkoulalas-Divanis, Malin, KAIS 2011).

COAT dispenses with generalization hierarchies.  The data publisher provides

* a **privacy policy** — itemsets an adversary may know, each of which must
  match at least ``k`` transactions or none, and
* a **utility policy** — disjoint groups of items that are semantically
  interchangeable; an item may only be generalized to the generalized item
  representing its own group.

The algorithm processes privacy constraints in order of increasing support.
For a violated constraint it repeatedly applies the cheapest allowed
operation — generalizing one of the constraint's items to its utility group,
or, when no generalization is allowed or helpful any more, suppressing the
item — until the constraint's support reaches ``k`` or drops to zero.
Generalization and suppression are global (the item is rewritten in every
transaction), so the final output is described by a single item mapping.
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
from repro.policies.utility import UtilityPolicy


class Coat(Anonymizer):
    """Constraint-based anonymization guided by privacy and utility policies."""

    name = "coat"
    data_kind = "transaction"

    def __init__(
        self,
        privacy_policy: PrivacyPolicy,
        utility_policy: UtilityPolicy,
        attribute: str | None = None,
    ):
        if privacy_policy is None or utility_policy is None:
            raise ConfigurationError("COAT needs both a privacy and a utility policy")
        self.privacy_policy = privacy_policy
        self.utility_policy = utility_policy
        self.attribute = attribute

    def parameters(self) -> dict:
        return {
            "k": self.privacy_policy.k,
            "privacy_constraints": len(self.privacy_policy),
            "utility_constraints": len(self.utility_policy),
            "attribute": self.attribute,
        }

    # -- support bookkeeping ---------------------------------------------------
    def _group_of(self, groups: dict[str, frozenset[str]], item: str) -> frozenset[str]:
        return groups.get(item, frozenset({item}))

    def _constraint_support(
        self,
        constraint: PrivacyConstraint,
        groups: dict[str, frozenset[str]],
        suppressed: set[str],
        index: InvertedIndex,
    ) -> int:
        """Records that could contain every item of ``constraint``.

        Each constraint item is represented by its current utility group; the
        per-group posting unions are memoized by the index, so re-checking the
        same constraint across iterations costs set intersections only.
        """
        member_groups = []
        for item in constraint.items:
            if item in suppressed:
                return 0
            member_groups.append(self._group_of(groups, item) - suppressed)
        return index.joint_support(member_groups)

    # -- main --------------------------------------------------------------------
    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attribute = self.attribute or dataset.single_transaction_attribute()
        timer = PhaseTimer()
        k = self.privacy_policy.k

        with timer.phase("initialisation"):
            index = self._build_index(dataset, attribute)
            universe = set(index.universe)
            #: item -> the item group it currently publishes (singleton = intact)
            groups: dict[str, frozenset[str]] = {}
            suppressed: set[str] = set()

        generalized_items = 0
        suppressed_items = 0
        with timer.phase("constraint satisfaction"):
            ordered = sorted(
                self.privacy_policy.constraints,
                key=lambda c: self._constraint_support(c, groups, suppressed, index),
            )
            for constraint in ordered:
                while True:
                    support = self._constraint_support(
                        constraint, groups, suppressed, index
                    )
                    if support == 0 or support >= k:
                        break
                    # Prefer the cheapest generalization: the not-yet-generalized
                    # item whose utility group adds the most new records.
                    best_item = None
                    best_gain = 0
                    for item in constraint.items:
                        if item in suppressed or item in groups:
                            continue
                        utility_constraint = self.utility_policy.constraint_for(item)
                        if utility_constraint is None or len(utility_constraint) <= 1:
                            continue
                        # Size-only query: stays in the bitset domain, no
                        # record-set materialization.
                        widened = index.union_size(utility_constraint.items - suppressed)
                        gain = widened - index.frequency(item)
                        if best_item is None or gain > best_gain:
                            best_item = item
                            best_gain = gain
                    if best_item is not None and best_gain > 0:
                        members = self.utility_policy.constraint_for(best_item).items
                        for member in members:
                            if member in universe and member not in suppressed:
                                groups[member] = members
                        generalized_items += 1
                        continue
                    # No useful generalization left: suppress the rarest item of
                    # the constraint, which drops the constraint's support to 0.
                    rarest = min(
                        (item for item in constraint.items if item not in suppressed),
                        key=index.frequency,
                        default=None,
                    )
                    if rarest is None:
                        break
                    suppressed.add(rarest)
                    groups.pop(rarest, None)
                    suppressed_items += 1

        with timer.phase("apply"):
            mapping: dict[str, str | None] = {}
            for item in universe:
                if item in suppressed:
                    mapping[item] = None
                elif item in groups:
                    visible = groups[item] - suppressed
                    mapping[item] = self.utility_policy.label_for(visible)
                # Unmapped items are kept intact by publish_items.
            anonymized = publish_items(dataset, attribute, self.name, [mapping])

        with timer.phase("verification"):
            residual = [
                constraint
                for constraint in self.privacy_policy
                if 0
                < self._constraint_support(constraint, groups, suppressed, index)
                < k
            ]
            if residual:
                raise AlgorithmError(
                    f"COAT failed to satisfy {len(residual)} privacy constraints"
                )

        statistics = {
            "generalized_groups": generalized_items,
            "suppressed_items": suppressed_items,
            "intact_items": len(universe - suppressed - set(groups)),
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
