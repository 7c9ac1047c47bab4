"""Shared machinery for hierarchy-based k^m-anonymization of transactions.

The three hierarchy-based transaction algorithms (Apriori, LRA, VPA —
Terrovitis, Mamoulis, Kalnis, VLDB J. 2011) all transform data by maintaining
a *cut* of the item generalization hierarchy: a mapping from every original
item to one of its ancestors such that the mapped nodes partition the item
universe (full-subtree generalization).  Because the cut is a partition, the
support of any combination of original items equals the support of the
combination of their images, which makes the k^m-anonymity check cheap: it is
enough to count the supports of the node combinations that actually occur in
the generalized transactions.

The counting runs on record bitsets.  The transactions are tokenized once
into per-item posting bitsets; for each cut, the rows of the items a node
covers are OR-ed into that node's row (the records whose generalized
transaction holds the node), and the support of a node combination is the
popcount of the AND of its rows.  Violations are enumerated by
:func:`repro.columnar.bitset.rare_combinations`, the kernel the k^m verifier
(:func:`repro.metrics.privacy_checks.km_violations`) runs on as well.

:class:`ItemCut` implements the cut and its generalization step;
:class:`KmAnonymityChecker` enumerates violating combinations.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Sequence

import numpy as np

from repro.columnar.bitset import posting_matrix, rare_combinations
from repro.exceptions import AlgorithmError
from repro.hierarchy.hierarchy import Hierarchy


class ItemCut:
    """A full-subtree generalization cut over an item hierarchy.

    The cut carries a ``version`` counter that increments on every mutation;
    consumers (the k^m-anonymity checker) key their per-cut caches on it.
    Subtree leaf sets are memoized per node label (resolved from the
    hierarchy itself — cut nodes are always hierarchy nodes, never item-group
    labels), so repeated promotions never re-walk a subtree.
    """

    def __init__(self, hierarchy: Hierarchy, items: Iterable[str]):
        self.hierarchy = hierarchy
        self.items = sorted({str(item) for item in items})
        missing = [item for item in self.items if item not in hierarchy]
        if missing:
            raise AlgorithmError(
                f"items {missing[:5]} are not covered by the item hierarchy"
            )
        #: original item -> current cut node label
        self.mapping: dict[str, str] = {item: item for item in self.items}
        #: incremented on every mutation; cache key for derived structures
        self.version = 0
        #: node label -> its subtree's leaf set (shared across copies)
        self._node_leaves: dict[str, frozenset[str]] = {}

    # -- queries -------------------------------------------------------------
    @property
    def nodes(self) -> set[str]:
        """The distinct cut nodes currently in use."""
        return set(self.mapping.values())

    def image(self, item: str) -> str:
        return self.mapping[str(item)]

    def generalize_itemset(self, itemset: Iterable[str]) -> frozenset[str]:
        """Map an original itemset to its generalized representation."""
        return frozenset(self.mapping[str(item)] for item in itemset)

    def is_fully_generalized(self) -> bool:
        return self.nodes == {self.hierarchy.root.label}

    def generalization_level(self, node: str) -> int:
        return self.hierarchy.level(node)

    # -- transformation -------------------------------------------------------
    def generalize_node(self, node: str) -> str:
        """Replace ``node`` (and every cut node under the same parent) by the parent.

        Promoting the whole sibling group keeps the cut a partition of the
        item universe, which the k^m-anonymity check relies on.
        """
        parent = self.hierarchy.parent(node)
        if parent is None:
            return node
        parent_leaves = self._node_leaves.get(parent)
        if parent_leaves is None:
            parent_leaves = frozenset(self.hierarchy.leaves(parent))
            self._node_leaves[parent] = parent_leaves
        for item in self.items:
            if item in parent_leaves:
                self.mapping[item] = parent
        self.version += 1
        return parent

    def copy(self) -> "ItemCut":
        clone = ItemCut.__new__(ItemCut)
        clone.hierarchy = self.hierarchy
        clone.items = list(self.items)
        clone.mapping = dict(self.mapping)
        clone.version = self.version
        # The leaf memo is pure (the hierarchy is immutable), so copies share it.
        clone._node_leaves = self._node_leaves
        return clone


class KmAnonymityChecker:
    """Finds combinations of at most ``m`` cut nodes with support below ``k``."""

    def __init__(self, itemsets: Sequence[Iterable], k: int, m: int):
        if k < 2:
            raise AlgorithmError("k must be at least 2")
        if m < 1:
            raise AlgorithmError("m must be at least 1")
        self.k = k
        self.m = m
        rows = [sorted({str(item) for item in itemset}) for itemset in itemsets]
        #: the distinct items of the transactions; posting row ``t`` is item ``t``
        self._items = sorted({item for row in rows for item in row})
        token = {item: position for position, item in enumerate(self._items)}
        self._postings = posting_matrix(
            [token[item] for row in rows for item in row],
            np.repeat(np.arange(len(rows), dtype=np.int64), [len(row) for row in rows]),
            len(self._items),
            len(rows),
        )
        #: single-slot cache of the node bitsets for the last cut seen
        self._cut: "weakref.ref[ItemCut] | None" = None
        self._cut_version = -1
        self._nodes: list[str] = []
        self._node_bits = self._postings[:0]

    def _node_bitsets(self, cut: ItemCut) -> tuple[list[str], np.ndarray]:
        """The cut's nodes (sorted) and their record bitsets, cached per cut version.

        A node's row is the OR of the posting rows of the items it covers.
        """
        cached = self._cut() if self._cut is not None else None
        if cached is not cut or self._cut_version != cut.version:
            images = [cut.mapping[item] for item in self._items]
            self._nodes = sorted(set(images))
            position = {node: index for index, node in enumerate(self._nodes)}
            bits = np.zeros((len(self._nodes), self._postings.shape[1]), dtype=np.uint64)
            np.bitwise_or.at(
                bits,
                np.array([position[image] for image in images], dtype=np.int64),
                self._postings,
            )
            self._node_bits = bits
            self._cut = weakref.ref(cut)
            self._cut_version = cut.version
        return self._nodes, self._node_bits

    def violations(
        self, cut: ItemCut, size: int
    ) -> dict[tuple[str, ...], int]:
        """Node combinations of ``size`` with support in (0, k)."""
        nodes, bits = self._node_bitsets(cut)
        return {
            tuple(nodes[index] for index in combination): support
            for combinations, supports in rare_combinations(bits, size, self.k)
            for combination, support in zip(combinations.tolist(), supports.tolist())
        }

    def participation(
        self, cut: ItemCut, sizes: Iterable[int]
    ) -> tuple[list[str], list[int]]:
        """Per cut node, how many violating combinations of ``sizes`` contain it."""
        nodes, bits = self._node_bitsets(cut)
        counts = np.zeros(len(nodes), dtype=np.int64)
        for size in sizes:
            for combinations, _ in rare_combinations(bits, size, self.k):
                counts += np.bincount(combinations.ravel(), minlength=len(nodes))
        return nodes, counts.tolist()

    def all_violations(self, cut: ItemCut) -> dict[tuple[str, ...], int]:
        """Violating combinations of every size from 1 to ``m``."""
        result: dict[tuple[str, ...], int] = {}
        for size in range(1, self.m + 1):
            result.update(self.violations(cut, size))
        return result

    def is_km_anonymous(self, cut: ItemCut) -> bool:
        return not self.all_violations(cut)


def greedy_km_anonymize(
    itemsets: Sequence[frozenset],
    hierarchy: Hierarchy,
    k: int,
    m: int,
    cut: ItemCut | None = None,
    apriori_order: bool = True,
) -> tuple[ItemCut, dict]:
    """Greedy full-subtree generalization until k^m-anonymity holds.

    Violating combinations are collected (by increasing size when
    ``apriori_order`` is set, mirroring the Apriori algorithm's candidate
    generation) and the cut node participating in the most violations is
    promoted to its parent, until no violation remains.  Returns the final cut
    and statistics about the search.

    If the transactions cannot be protected even by generalizing everything to
    the hierarchy root (fewer than ``k`` non-empty transactions), the cut is
    returned fully generalized and the caller decides whether to suppress.
    """
    universe: set[str] = set()
    for itemset in itemsets:
        universe.update(str(item) for item in itemset)
    if cut is None:
        cut = ItemCut(hierarchy, universe)
    checker = KmAnonymityChecker(itemsets, k, m)

    generalization_steps = 0
    rounds = [[size] for size in range(1, m + 1)] if apriori_order else [range(1, m + 1)]
    for sizes in rounds:
        while not cut.is_fully_generalized():
            nodes, counts = checker.participation(cut, sizes)
            # Promote the node involved in the largest number of violations;
            # prefer the most specific node on ties (cheapest promotion).  No
            # promotable node means no violation is left, or every violating
            # node is already the hierarchy root (too few non-empty
            # transactions), where no generalization can help.
            promotable = [
                index
                for index, count in enumerate(counts)
                if count and cut.hierarchy.parent(nodes[index]) is not None
            ]
            if not promotable:
                break
            target = max(
                promotable,
                key=lambda index: (
                    counts[index],
                    -cut.generalization_level(nodes[index]),
                    nodes[index],
                ),
            )
            cut.generalize_node(nodes[target])
            generalization_steps += 1

    remaining = checker.all_violations(cut)
    statistics = {
        "generalization_steps": generalization_steps,
        "final_nodes": len(cut.nodes),
        "fully_generalized": cut.is_fully_generalized(),
        "unresolvable_violations": len(remaining),
    }
    return cut, statistics
