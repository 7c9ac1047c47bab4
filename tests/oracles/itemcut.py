"""Scalar references of the item-cut search shared by Apriori, LRA and VPA.

``greedy_km_anonymize`` keeps its rare combinations incrementally: a
promotion retires the combinations of the absorbed sibling group and adds
only those that contain the new parent.  The references below recount from
scratch at every step:

* :func:`scalar_cut_violations` — per-record combination counting over the
  generalized itemsets;
* :func:`scalar_greedy_km_anonymize` — the greedy promotion loop over those
  counts, with the search's four statistics; a promotion that moves no item
  takes its node out of the round's candidates;
* :func:`participation` — the per-step rescoring that the incremental
  search replaced: every cut node's count of rare combinations, recounted
  with ``itertools.combinations`` over the cut's node bitsets;
* :func:`forced_root_publication` — the RT bounding methods' forced-root
  shortcut over one cluster's itemsets, as the per-item checker computed it
  before each slot kept its root-child bitsets
  (``repro.algorithms.rt.bounding._RootChildBits``).
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter

from repro.algorithms.transaction._itemcut import ItemCut, KmAnonymityChecker
from repro.columnar.bitset import rare_combinations


def scalar_cut_violations(itemsets, cut, k, size):
    """Generalized item combinations of ``size`` with support in (0, k)."""
    supports = {}
    for itemset in itemsets:
        generalized = sorted(cut.generalize_itemset(itemset))
        for combination in itertools.combinations(generalized, size):
            supports[combination] = supports.get(combination, 0) + 1
    return {c: s for c, s in supports.items() if 0 < s < k}


def scalar_greedy_km_anonymize(itemsets, hierarchy, k, m, cut=None, apriori_order=True):
    """The greedy promotion loop over scalar violation counts; returns (cut, statistics)."""
    items = sorted({str(item) for itemset in itemsets for item in itemset})
    if cut is None:
        cut = ItemCut(hierarchy, items)
    steps = 0
    rounds = [[size] for size in range(1, m + 1)] if apriori_order else [range(1, m + 1)]
    for sizes in rounds:
        # Nodes whose promotion moved no item: they sit out the rest of the round.
        stuck = set()
        while True:
            violations = {}
            for size in sizes:
                violations.update(scalar_cut_violations(itemsets, cut, k, size))
            if not violations or cut.is_fully_generalized():
                break
            scores = {}
            for combination in violations:
                for node in combination:
                    scores[node] = scores.get(node, 0) + 1
            promotable = {
                n: s
                for n, s in scores.items()
                if cut.hierarchy.parent(n) is not None and n not in stuck
            }
            if not promotable:
                break
            target = max(
                promotable,
                key=lambda node: (promotable[node], -cut.hierarchy.level(node), node),
            )
            before = [cut.mapping[item] for item in items]
            cut.generalize_node(target)
            if [cut.mapping[item] for item in items] == before:
                stuck.add(target)
            else:
                steps += 1
    remaining = sum(
        len(scalar_cut_violations(itemsets, cut, k, size)) for size in range(1, m + 1)
    )
    return cut, {
        "generalization_steps": steps,
        "final_nodes": len(cut.nodes),
        "fully_generalized": cut.is_fully_generalized(),
        "unresolvable_violations": remaining,
    }


def participation(checker: KmAnonymityChecker, cut: ItemCut, sizes) -> dict[str, int]:
    """Per cut node, how many rare combinations of ``sizes`` contain it (zeros omitted)."""
    bits = checker.node_bitsets(cut.mapping)
    counts: Counter[str] = Counter()
    for size in sizes:
        for combination in itertools.combinations(sorted(bits), size):
            together = functools.reduce(operator.and_, (bits[node] for node in combination))
            if 0 < together.bit_count() < checker.k:
                counts.update(combination)
    return dict(counts)


def forced_root_publication(itemsets, hierarchy, k, m):
    """What Apriori publishes for ``itemsets`` when its search must end at the root.

    ``None`` when that is not decided in advance.  The items' postings are
    ORed into one record bitset per child of the root; a combination of
    1..``m`` root children with support in (0, ``k``) decides the search,
    unless some item is not a leaf.  The decided output is ``{root}`` per
    non-empty itemset, or every itemset suppressed when fewer than ``k`` are
    non-empty (``_RootChildBits.publication`` gives the argument).
    """
    checker = KmAnonymityChecker(itemsets, k, m)
    branches = {
        leaf: position
        for position, child in enumerate(hierarchy.root.children)
        for leaf in hierarchy.leaves(child.label)
    }
    rows = [0] * len(hierarchy.root.children)
    for item, posting in zip(checker.items, checker.postings):
        branch = branches.get(item)
        if branch is None:
            return None
        rows[branch] |= posting
    if not any(next(rare_combinations(rows, size, k), None) for size in range(1, m + 1)):
        return None
    if sum(1 for itemset in itemsets if itemset) < k:
        return [frozenset()] * len(itemsets)
    root = frozenset([hierarchy.root.label])
    return [root if itemset else frozenset() for itemset in itemsets]
