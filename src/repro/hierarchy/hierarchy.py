"""Domain generalization hierarchies (DGH).

Every anonymization algorithm in SECRETA except COAT and PCTA transforms
values by climbing a *generalization hierarchy*: a tree whose leaves are the
original domain values and whose internal nodes are progressively more general
labels, up to a single root (``*``).  The same structure serves

* categorical relational attributes (e.g. ``Tech → White-collar → *``),
* numeric relational attributes (leaves are values, internal nodes are
  interval labels such as ``[20-40)``), and
* transaction item domains (Terrovitis-style item hierarchies).

:class:`Hierarchy` is a read-only tree with fast lookups of parents,
ancestors, leaf sets and lowest common ancestors — the primitives the
algorithms and the information-loss metrics need.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import HierarchyError


class HierarchyNode:
    """A single node of a generalization hierarchy."""

    __slots__ = ("label", "parent", "children", "depth", "_leaf_count", "interval")

    def __init__(self, label: str, parent: "HierarchyNode | None" = None):
        self.label = label
        self.parent = parent
        self.children: list[HierarchyNode] = []
        self.depth = 0 if parent is None else parent.depth + 1
        self._leaf_count: int | None = None
        #: Optional ``(low, high)`` bounds for interval nodes of numeric
        #: hierarchies; ``None`` for categorical nodes.
        self.interval: tuple[float, float] | None = None

    def __repr__(self) -> str:
        return f"HierarchyNode({self.label!r}, depth={self.depth})"

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None


class Hierarchy:
    """A generalization hierarchy over one attribute's domain.

    Build hierarchies with :class:`HierarchyBuilder`, the functions in
    :mod:`repro.hierarchy.builders`, or :func:`repro.hierarchy.io.load_hierarchy`.
    """

    def __init__(self, root: HierarchyNode, attribute: str = ""):
        self.attribute = attribute
        self._root = root
        self._nodes: dict[str, HierarchyNode] = {}
        self._index_nodes(root)
        self._height = max(node.depth for node in self._nodes.values())
        self._ancestor_table: tuple[dict[str, int], np.ndarray, np.ndarray] | None = None

    def _index_nodes(self, node: HierarchyNode) -> None:
        if node.label in self._nodes:
            raise HierarchyError(
                f"duplicate node label {node.label!r} in hierarchy "
                f"{self.attribute or '<unnamed>'}"
            )
        self._nodes[node.label] = node
        for child in node.children:
            self._index_nodes(child)

    # -- basic accessors -----------------------------------------------------
    @property
    def root(self) -> HierarchyNode:
        return self._root

    @property
    def height(self) -> int:
        """Maximum depth of any node (root has depth 0)."""
        return self._height

    @property
    def labels(self) -> list[str]:
        """All node labels."""
        return list(self._nodes)

    def __contains__(self, label: object) -> bool:
        return label in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, label: str) -> HierarchyNode:
        """The node with the given label."""
        try:
            return self._nodes[str(label)]
        except KeyError:
            raise HierarchyError(
                f"value {label!r} is not part of hierarchy "
                f"{self.attribute or '<unnamed>'}"
            ) from None

    def leaves(self, label: str | None = None) -> list[str]:
        """Leaf labels under ``label`` (or under the root)."""
        start = self._root if label is None else self.node(label)
        result: list[str] = []
        stack = [start]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                result.append(current.label)
            else:
                stack.extend(current.children)
        return result

    def leaf_count(self, label: str | None = None) -> int:
        """Number of leaves under ``label`` (cached)."""
        node = self._root if label is None else self.node(label)
        if node._leaf_count is None:
            if node.is_leaf:
                node._leaf_count = 1
            else:
                node._leaf_count = sum(
                    self.leaf_count(child.label) for child in node.children
                )
        return node._leaf_count

    def parent(self, label: str) -> str | None:
        """Label of the parent node, or ``None`` for the root."""
        node = self.node(label)
        return node.parent.label if node.parent else None

    def children(self, label: str) -> list[str]:
        return [child.label for child in self.node(label).children]

    def ancestors(self, label: str, include_self: bool = False) -> list[str]:
        """Ancestor labels from the node (exclusive by default) up to the root."""
        node = self.node(label)
        result = [node.label] if include_self else []
        while node.parent is not None:
            node = node.parent
            result.append(node.label)
        return result

    def depth(self, label: str) -> int:
        return self.node(label).depth

    def level(self, label: str) -> int:
        """Generalization level of a node: 0 for leaves, ``height`` for the root.

        Levels are counted as distance from the *deepest* leaf in the
        hierarchy, so climbing one edge always increases the level by one.
        """
        return self._height - self.node(label).depth

    def is_leaf(self, label: str) -> bool:
        return self.node(label).is_leaf

    # -- generalization primitives ---------------------------------------------
    def generalize(self, value: str, steps: int = 1) -> str:
        """Replace ``value`` by its ancestor ``steps`` levels up (capped at root)."""
        node = self.node(str(value))
        for _ in range(steps):
            if node.parent is None:
                break
            node = node.parent
        return node.label

    def generalize_to_level(self, value: str, level: int) -> str:
        """Full-domain generalization of ``value`` to the given level.

        Level 0 returns the value itself; each increment climbs one edge; the
        result never climbs past the root.  This is the mapping Incognito and
        the full-subtree algorithm apply uniformly to a whole column.
        """
        if level < 0:
            raise HierarchyError("generalization level must be non-negative")
        node = self.node(str(value))
        target_depth = max(self._height - level, 0)
        while node.parent is not None and node.depth > target_depth:
            node = node.parent
        return node.label

    def lowest_common_ancestor(self, values: Iterable[str]) -> str:
        """Label of the lowest common ancestor of ``values``."""
        values = [str(v) for v in values]
        if not values:
            raise HierarchyError("cannot take the LCA of an empty set of values")
        ancestor_paths = []
        for value in values:
            path = list(reversed(self.ancestors(value, include_self=True)))
            ancestor_paths.append(path)  # root .. value
        lca = ancestor_paths[0][0]
        for depth in range(min(len(path) for path in ancestor_paths)):
            candidate = ancestor_paths[0][depth]
            if all(path[depth] == candidate for path in ancestor_paths):
                lca = candidate
            else:
                break
        return lca

    def ancestor_table(self) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
        """Node ids, the (node × depth) ancestor-id matrix and leaf counts (cached).

        Node ids follow :attr:`labels`.  Row ``i`` of the matrix holds node
        ``i``'s ancestors from the root (column 0) down to the node itself
        (column ``depth``), and ``-1 - i`` past that depth, a padding unique
        to the row.  Two rows therefore agree exactly on the columns of their
        common ancestors, and the lowest common ancestor of two distinct
        nodes is the entry just before their first disagreement.
        """
        if self._ancestor_table is None:
            index = {label: position for position, label in enumerate(self._nodes)}
            table = np.empty((len(index), self._height + 1), dtype=np.int64)
            for position, node in enumerate(self._nodes.values()):
                table[position] = -1 - position
                current: HierarchyNode | None = node
                while current is not None:
                    table[position, current.depth] = index[current.label]
                    current = current.parent
            leaf_counts = np.array(
                [self.leaf_count(label) for label in index], dtype=np.int64
            )
            self._ancestor_table = (index, table, leaf_counts)
        return self._ancestor_table

    def is_ancestor(self, ancestor: str, descendant: str) -> bool:
        """Whether ``ancestor`` lies on the path from ``descendant`` to the root."""
        if ancestor == descendant:
            return True
        return ancestor in self.ancestors(descendant)

    def covers(self, general: str, specific: str) -> bool:
        """Alias of :meth:`is_ancestor` (reads better in constraint code)."""
        return self.is_ancestor(general, specific)

    # -- traversal ---------------------------------------------------------------
    def iter_nodes(self) -> Iterator[HierarchyNode]:
        """All nodes, in depth-first pre-order."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def nodes_at_depth(self, depth: int) -> list[str]:
        return [node.label for node in self.iter_nodes() if node.depth == depth]

    def to_mapping_rows(self) -> list[list[str]]:
        """One row per leaf: ``[leaf, parent, ..., root]`` (hierarchy file format)."""
        rows = []
        for leaf in sorted(self.leaves()):
            rows.append([leaf] + self.ancestors(leaf))
        return rows


class HierarchyBuilder:
    """Incrementally construct a :class:`Hierarchy`.

    The builder enforces that every node has a single parent and that labels
    are unique, then produces an immutable :class:`Hierarchy`.
    """

    def __init__(self, root_label: str = "*", attribute: str = ""):
        self.attribute = attribute
        self._root = HierarchyNode(root_label)
        self._nodes: dict[str, HierarchyNode] = {root_label: self._root}

    @property
    def root_label(self) -> str:
        return self._root.label

    def add(self, label: str, parent: str) -> "HierarchyBuilder":
        """Add node ``label`` as a child of ``parent`` (which must exist)."""
        label = str(label)
        parent = str(parent)
        if label in self._nodes:
            raise HierarchyError(f"node {label!r} already exists")
        if parent not in self._nodes:
            raise HierarchyError(f"parent node {parent!r} does not exist")
        parent_node = self._nodes[parent]
        node = HierarchyNode(label, parent_node)
        parent_node.children.append(node)
        self._nodes[label] = node
        return self

    def add_path(self, labels: Sequence[str]) -> "HierarchyBuilder":
        """Add a root-to-leaf path ``[child-of-root, ..., leaf]``, reusing
        already existing prefixes."""
        parent = self._root.label
        for label in labels:
            label = str(label)
            if label not in self._nodes:
                self.add(label, parent)
            elif self._nodes[label].parent is not self._nodes[parent]:
                raise HierarchyError(
                    f"node {label!r} already exists with a different parent"
                )
            parent = label
        return self

    def set_interval(self, label: str, low: float, high: float) -> "HierarchyBuilder":
        """Attach numeric bounds to a node (used for numeric hierarchies)."""
        if label not in self._nodes:
            raise HierarchyError(f"node {label!r} does not exist")
        self._nodes[label].interval = (float(low), float(high))
        return self

    def build(self) -> Hierarchy:
        return Hierarchy(self._root, attribute=self.attribute)
