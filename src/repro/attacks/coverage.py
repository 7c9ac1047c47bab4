"""Shared adversary semantics: what a published cell can(not) rule out.

Both attack implementations — the bitset kernels in
:mod:`repro.attacks.simulator` and the per-record scalar oracle in
``tests/oracles/attacks.py`` — must agree *exactly* on two questions:

* **Coverage** — given a target's original cell value, can a published
  (possibly generalized) cell belong to that target?  A label *covers* a
  value when the value is among the original values the label may stand
  for; a record whose every published QI cell covers the target's values
  cannot be excluded by the adversary and belongs to the matching set.
* **Knowledge enumeration** — which item combinations (size 1..m drawn from
  the target's original basket) the adversary tries, and in which order.
  The order fixes which combination is reported as the witness when several
  reach the same (worst) matching-set size.

Centralising both here is what makes "kernel bit-identical to oracle" a
meaningful claim: the two paths share the *semantics* and differ only in the
set algebra (uint64 bitsets vs Python sets).  The oracle enumerates through
:func:`knowledge_combos`; the kernel enumerates ascending positions in the
sorted item universe, which ``tests/attacks/test_simulator.py`` pins to the
same order.

Coverage is deliberately conservative in the adversary's favour only when
the published cell carries no information: a suppressed (``†``), root
(``*``) or missing cell can never exclude a target, and an attribute whose
original value the adversary does not know (``None``) constrains nothing.
Everything else resolves through the same label interpretation the metrics
use (:func:`repro.index.interpreter_for`), so hierarchy nodes, interval
labels and explicit item groups all match the utility-loss reading.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from repro.hierarchy.hierarchy import Hierarchy
from repro.index import interpreter_for
from repro.metrics.interpretation import SUPPRESSED


class AttributeCoverage:
    """Memoized "does this published label cover that original value" oracle.

    One instance per quasi-identifier attribute; decisions are cached per
    (label, value) pair, so the kernels' distinct-code cross products and the
    scalar path's per-record probes hit the same memo.
    """

    __slots__ = ("attribute", "numeric", "_interpreter", "_memo")

    def __init__(
        self,
        attribute: str,
        numeric: bool,
        hierarchy: Hierarchy | None = None,
    ) -> None:
        self.attribute = attribute
        self.numeric = numeric
        self._interpreter = interpreter_for(hierarchy)
        self._memo: dict[tuple, bool] = {}

    def covers(self, label: object, value: object) -> bool:
        """Whether a record published as ``label`` could be the ``value`` target."""
        if value is None:
            # The adversary does not know this attribute of the target, so it
            # cannot be used to exclude anyone.
            return True
        if label is None:
            return True
        key = (label, value)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._decide(str(label), value)
            self._memo[key] = cached
        return cached

    def _decide(self, label: str, value: object) -> bool:
        if label in (SUPPRESSED, "*"):
            # A withheld or root-generalized cell stands for the whole
            # domain: it can never exclude a target.
            return True
        if label == str(value):
            return True
        if self.numeric:
            target = _as_number(value)
            if target is not None:
                published = _as_number(label)
                if published is not None:
                    return published == target
                span = self._interpreter.span(label)
                if span is not None:
                    low, high = span
                    return low <= target <= high
                return any(
                    (leaf_number := _as_number(leaf)) is not None
                    and leaf_number == target
                    for leaf in self._interpreter.leaves(label)
                )
        return str(value) in self._interpreter.leaves(label)


def _as_number(value: object) -> float | None:
    """``value`` as a float, or ``None`` when it is not a plain number."""
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def coverage_for(
    attributes: Sequence[str],
    numeric_attributes: Iterable[str],
    hierarchies: dict[str, Hierarchy] | None = None,
) -> dict[str, AttributeCoverage]:
    """One :class:`AttributeCoverage` per quasi-identifier attribute."""
    hierarchies = hierarchies or {}
    numeric = set(numeric_attributes)
    return {
        attribute: AttributeCoverage(
            attribute, attribute in numeric, hierarchies.get(attribute)
        )
        for attribute in attributes
    }


def knowledge_combos(
    items: Iterable[object], m: int
) -> Iterator[tuple[str, ...]]:
    """All item combinations an m-item adversary may know about one target.

    Sizes ascending, lexicographic within a size, over the *sorted distinct*
    original items of the target's basket — a total order both attack paths
    share, so "the first combination reaching the minimum" is well defined.
    """
    ordered = sorted({str(item) for item in items})
    for size in range(1, min(m, len(ordered)) + 1):
        yield from itertools.combinations(ordered, size)
