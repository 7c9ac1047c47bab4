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

The counting runs on per-record bitsets (Python ``int`` values, cheap at the
size of an RT cluster): a cut node's bitset is the OR of its items', and a
node combination's support is the popcount of the AND of its nodes'.  Rare
combinations are enumerated by :func:`repro.columnar.bitset.rare_combinations`,
the enumerator of the k^m verifier
(:func:`repro.metrics.privacy_checks.km_violations`) as well:
:class:`KmAnonymityChecker` over a cut's node rows, and
:func:`greedy_km_anonymize` once per round and then, per promotion, only for
the combinations containing the new parent.
"""

from __future__ import annotations

import copy
import functools
from collections import Counter
from typing import Iterable, Sequence

from repro.columnar.bitset import rare_combinations
from repro.exceptions import AlgorithmError
from repro.hierarchy.hierarchy import Hierarchy


@functools.lru_cache(maxsize=32)
def _node_memo(hierarchy: Hierarchy) -> tuple[dict, dict, dict[str, frozenset[str]]]:
    """Per hierarchy (immutable once built): parents, promotion ranks, leaf sets.

    A rank breaks ties between promotion targets: the deepest node, then the
    largest label.  Leaf sets fill in as nodes are promoted to.
    """
    nodes = list(hierarchy.iter_nodes())
    parents = {node.label: node.parent.label if node.parent else None for node in nodes}
    return parents, {node.label: (node.depth, node.label) for node in nodes}, {}


class ItemCut:
    """A full-subtree generalization cut over an item hierarchy.

    Parents and subtree leaf sets are memoized per hierarchy (resolved from
    the hierarchy itself — cut nodes are always hierarchy nodes, never
    item-group labels), so repeated promotions never re-walk a subtree.
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
        self._parents, self._rank, self._leaves = _node_memo(hierarchy)

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

    def leaves(self, node: str) -> frozenset[str]:
        """The leaves under ``node``: the items its promotion maps to it."""
        if node not in self._leaves:
            self._leaves[node] = frozenset(self.hierarchy.leaves(node))
        return self._leaves[node]

    # -- transformation -------------------------------------------------------
    def generalize_node(self, node: str) -> str:
        """Replace ``node`` (and every cut node under the same parent) by the parent.

        Promoting the whole sibling group keeps the cut a partition of the
        item universe, which the k^m-anonymity check relies on.  An item
        already mapped at or above the parent stays where it is: a promotion
        never moves an item down.  (Only an item that is itself an inner
        hierarchy node can leave a leaf's image above a live cut node.)
        """
        if node not in self._parents:
            self.hierarchy.node(node)  # raises the typed "not in hierarchy" error
        parent = self._parents[node]
        if parent is None:
            return node
        depth = self._rank[parent][0]
        for item in self.leaves(parent).intersection(self.mapping):
            if self._rank[self.mapping[item]][0] > depth:
                self.mapping[item] = parent
        return parent

    def copy(self) -> "ItemCut":
        clone = copy.copy(self)
        clone.items, clone.mapping = list(self.items), dict(self.mapping)
        return clone


class KmAnonymityChecker:
    """Finds combinations of at most ``m`` cut nodes with support below ``k``."""

    def __init__(self, itemsets: Sequence[Iterable], k: int, m: int):
        if k < 2:
            raise AlgorithmError("k must be at least 2")
        if m < 1:
            raise AlgorithmError("m must be at least 1")
        self.k, self.m, self.n_records = k, m, len(itemsets)
        postings: dict[str, int] = {}
        for record, itemset in enumerate(itemsets):
            for item in map(str, itemset):
                postings[item] = postings.get(item, 0) | 1 << record
        #: the distinct items of the transactions (sorted) and, per item, the
        #: bitset of the records holding it (bit r = record r)
        self.items = sorted(postings)
        self.postings = [postings[item] for item in self.items]

    def node_bitsets(self, mapping: dict[str, str]) -> dict[str, int]:
        """The record bitset of every node the items map to: the OR of its items'."""
        bits: dict[str, int] = {}
        for item, posting in zip(self.items, self.postings):
            bits[mapping[item]] = bits.get(mapping[item], 0) | posting
        return bits

    def violations(self, cut: ItemCut, *sizes: int) -> dict[tuple[str, ...], int]:
        """Node combinations of the given sizes with support in (0, k)."""
        bits = self.node_bitsets(cut.mapping)
        nodes = sorted(bits)
        rows = [bits[node] for node in nodes]
        return {
            tuple(nodes[index] for index in combination): together.bit_count()
            for size in sizes
            for combination, together in rare_combinations(rows, size, self.k)
        }

    def all_violations(self, cut: ItemCut) -> dict[tuple[str, ...], int]:
        """Violating combinations of every size from 1 to ``m``."""
        return self.violations(cut, *range(1, self.m + 1))

    def is_km_anonymous(self, cut: ItemCut) -> bool:
        return not self.all_violations(cut)


class _Promotions:
    """The search's live cut nodes and the rare combinations of its current round.

    ``live`` maps each node the items reach to its bitset.  A round's rare
    combinations are enumerated once, with each node's count of them (the
    root, never promotable, is not counted).  A promotion ORs the sibling
    group's bitsets into the parent's, drops the combinations touching the
    group and adds those containing the parent.  A node whose promotion
    moves no item leaves the round's candidates (``stuck``).
    """

    def __init__(self, checker: KmAnonymityChecker, cut: ItemCut):
        self.checker, self.cut, self.root = checker, cut, cut.hierarchy.root.label
        self.rank = _node_memo(cut.hierarchy)[1]
        #: checker item -> the live node it maps to
        self.images = {item: cut.mapping[item] for item in checker.items}

    def start_round(self, sizes: Sequence[int]) -> None:
        """Start a round over the combinations of ``sizes``; no node is stuck yet."""
        self.sizes = sizes
        self.stuck: set[str] = set()
        self._recount()

    def _recount(self) -> None:
        """Rebuild the live nodes from the cut and enumerate the round's combinations."""
        self.live = self.checker.node_bitsets(self.images)
        #: live node -> how many checker items map to it
        self.members = Counter(self.images.values())
        self.rare: set[tuple] = set()
        self.counts: dict[str, int] = {}
        self.touching: dict[str, list[tuple]] = {}
        self._add((), None)

    def _add(self, prefix: tuple, bits: int | None) -> None:
        """Record the round's rare combinations made of ``prefix`` and live nodes.

        ``bits`` is the AND of ``prefix``'s bitsets; the rest of each
        combination comes from the live nodes outside ``prefix``, in order.
        """
        labels = [node for node in self.live if node not in prefix]
        rows = [self.live[node] for node in labels]
        for size in self.sizes:
            for positions, _ in rare_combinations(rows, size - len(prefix), self.checker.k, bits):
                combination = prefix + tuple(labels[position] for position in positions)
                self.rare.add(combination)
                for node in combination:
                    self.touching.setdefault(node, []).append(combination)
                    if node != self.root:
                        self.counts[node] = self.counts.get(node, 0) + 1

    def target(self) -> str | None:
        """The unstuck node in the most rare combinations (ties: ``rank``), if any."""
        counts = self.counts
        if self.stuck:
            counts = {node: count for node, count in counts.items() if node not in self.stuck}
        most = max(counts.values(), default=0)
        tied = [node for node, count in counts.items() if count == most]
        return max(tied, key=self.rank.__getitem__) if most else None

    def promote(self, node: str) -> str | None:
        """Generalize ``node``'s sibling group in the cut; return the parent.

        Returns ``None`` when no item moves: ``node`` is an item that is an
        inner hierarchy node, and its siblings already reached the parent.
        Promoting it again would change nothing, so it is stuck for the
        round and its rare combinations stay unresolved.
        """
        parent = self.cut.generalize_node(node)
        under = self.cut.leaves(parent).intersection(self.images)
        moved = [item for item in under if self.images[item] != self.cut.mapping[item]]
        if not moved:
            self.stuck.add(node)
            return None
        group = {self.images[item] for item in moved}
        self.images.update(dict.fromkeys(moved, parent))
        if parent in self.live or sum(map(self.members.get, group)) != len(moved):
            # Not whole cut nodes moving into a new one: an item that is an
            # inner hierarchy node splits its cut node.  Recount the round.
            self._recount()
            return parent
        bits = 0
        for member in group:
            bits |= self.live.pop(member)
            del self.members[member]
            for combination in self.touching.pop(member, ()):
                if combination in self.rare:
                    self.rare.remove(combination)
                    for other in combination:
                        if other != self.root:
                            self.counts[other] -= 1
        for member in group:
            self.counts.pop(member, None)
        self.live[parent], self.members[parent] = bits, len(moved)
        self._add((parent,), bits)
        return parent


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
    checker = KmAnonymityChecker(itemsets, k, m)
    if cut is None:
        cut = ItemCut(hierarchy, checker.items)
    missing = [item for item in checker.items if item not in cut.mapping]
    if missing:
        raise AlgorithmError(f"items {missing[:5]} are not covered by the item cut")
    search = _Promotions(checker, cut)

    generalization_steps = 0
    rounds = [[size] for size in range(1, m + 1)] if apriori_order else [range(1, m + 1)]
    for sizes in rounds:
        if cut.is_fully_generalized():
            break
        search.start_round(sizes)
        while (node := search.target()) is not None:
            parent = search.promote(node)
            if parent is None:
                continue
            generalization_steps += 1
            # Only a promotion to the root can generalize the cut fully.
            if parent == search.root and cut.is_fully_generalized():
                break

    statistics = {
        "generalization_steps": generalization_steps,
        "final_nodes": len(cut.nodes),
        "fully_generalized": cut.is_fully_generalized(),
        "unresolvable_violations": len(checker.all_violations(cut)),
    }
    return cut, statistics
