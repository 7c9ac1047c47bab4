"""The full-domain generalization lattice.

Full-domain algorithms (Incognito, full-subtree bottom-up) do not generalize
individual records; they pick, for every quasi-identifier attribute, a single
*generalization level* and apply it to the whole column.  The search space is
therefore the lattice whose nodes are vectors of per-attribute levels
``(l_1, ..., l_d)`` with ``0 <= l_i <= height_i``, ordered component-wise.

:class:`GeneralizationLattice` enumerates this lattice level by level,
exposes the predecessor/successor structure that Incognito's top-down search
tags and its minimal nodes are defined by, and applies a lattice node to a
dataset column-wise.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from repro.exceptions import HierarchyError
from repro.hierarchy.hierarchy import Hierarchy

#: A lattice node: one generalization level per attribute, in attribute order.
LevelVector = tuple[int, ...]


class GeneralizationLattice:
    """The lattice of full-domain generalization level vectors."""

    def __init__(self, hierarchies: Mapping[str, Hierarchy], attributes: Sequence[str]):
        missing = [name for name in attributes if name not in hierarchies]
        if missing:
            raise HierarchyError(f"no hierarchy supplied for attributes {missing}")
        self.attributes = list(attributes)
        self.hierarchies = {name: hierarchies[name] for name in self.attributes}
        self.max_levels: LevelVector = tuple(
            self.hierarchies[name].height for name in self.attributes
        )

    # -- structure ------------------------------------------------------------
    @property
    def bottom(self) -> LevelVector:
        """The no-generalization node ``(0, ..., 0)``."""
        return tuple(0 for _ in self.attributes)

    @property
    def top(self) -> LevelVector:
        """The fully generalized node (every attribute at its root level)."""
        return self.max_levels

    def size(self) -> int:
        """Total number of lattice nodes."""
        total = 1
        for level in self.max_levels:
            total *= level + 1
        return total

    def contains(self, node: LevelVector) -> bool:
        return len(node) == len(self.attributes) and all(
            0 <= level <= maximum for level, maximum in zip(node, self.max_levels)
        )

    def validate(self, node: LevelVector) -> None:
        if not self.contains(node):
            raise HierarchyError(
                f"level vector {node} is outside the lattice bounds {self.max_levels}"
            )

    def iter_nodes(self) -> Iterator[LevelVector]:
        """All lattice nodes in increasing order of total generalization."""
        ranges = [range(maximum + 1) for maximum in self.max_levels]
        yield from sorted(itertools.product(*ranges), key=sum)

    def iter_levels(self) -> Iterator[list[LevelVector]]:
        """Nodes grouped by height (sum of levels), bottom-up.

        Incognito walks these levels in reverse, and lists its minimal nodes
        in this order.
        """
        by_height: dict[int, list[LevelVector]] = {}
        for node in self.iter_nodes():
            by_height.setdefault(sum(node), []).append(node)
        for height in sorted(by_height):
            yield by_height[height]

    def successors(self, node: LevelVector) -> list[LevelVector]:
        """Immediate generalizations of ``node`` (one attribute, one level up)."""
        self.validate(node)
        result = []
        for position, (level, maximum) in enumerate(zip(node, self.max_levels)):
            if level < maximum:
                successor = list(node)
                successor[position] = level + 1
                result.append(tuple(successor))
        return result

    def predecessors(self, node: LevelVector) -> list[LevelVector]:
        """Immediate specializations of ``node`` (one attribute, one level down)."""
        self.validate(node)
        result = []
        for position, level in enumerate(node):
            if level > 0:
                predecessor = list(node)
                predecessor[position] = level - 1
                result.append(tuple(predecessor))
        return result

    def is_generalization_of(self, node: LevelVector, other: LevelVector) -> bool:
        """Whether ``node`` generalizes ``other`` (component-wise >=)."""
        self.validate(node)
        self.validate(other)
        return all(a >= b for a, b in zip(node, other))

    # -- application ------------------------------------------------------------
    def generalize_value(self, attribute: str, value, node: LevelVector) -> str:
        """Generalize one value of ``attribute`` according to lattice node."""
        position = self.attributes.index(attribute)
        hierarchy = self.hierarchies[attribute]
        return hierarchy.generalize_to_level(str(value), node[position])

    def generalize_tuple(self, values: Sequence, node: LevelVector) -> tuple:
        """Generalize a quasi-identifier tuple (aligned with ``attributes``)."""
        self.validate(node)
        return tuple(
            self.hierarchies[attribute].generalize_to_level(str(value), level)
            for attribute, value, level in zip(self.attributes, values, node)
        )

    def level_description(self, node: LevelVector) -> dict[str, int]:
        """Human-readable mapping ``attribute -> level`` for reports."""
        self.validate(node)
        return dict(zip(self.attributes, node))
