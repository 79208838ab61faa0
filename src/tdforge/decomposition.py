"""Tree decompositions in subtree view, with validation and classification.

A decomposition is a host tree T plus one bag per host node. The subtree of a
decomposed vertex v is the set of host nodes whose bag contains v; validity
means every subtree is non-empty and connected and every edge of the
decomposed graph sees both endpoints share a host node. A valid
decomposition is anchored when T is a spanning tree of the graph and every
vertex lies in its own subtree; validate reports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple, TYPE_CHECKING

from .graphs import Graph, Vertex, connected_in, is_tree

if TYPE_CHECKING:
    from .constructions import GadgetInstance

EMPTY_SUBTREE = "empty-subtree"
DISCONNECTED_SUBTREE = "disconnected-subtree"
UNCOVERED_EDGE = "uncovered-edge"


@dataclass(frozen=True)
class Violation:
    """One broken decomposition condition: a kind tag plus the offender."""

    kind: str
    subject: object

    def __str__(self) -> str:
        return f"{self.kind}: {self.subject!r}"


@dataclass(frozen=True)
class ValidationReport:
    """What validate found; validate_model never sets anchored."""

    valid: bool
    violations: Tuple[Violation, ...]
    anchored: bool = False

    def __bool__(self) -> bool:
        return self.valid

    def __str__(self) -> str:
        if self.valid:
            return "valid"
        return "; ".join(str(v) for v in self.violations)


class TreeDecomposition:
    """Host tree plus bags. Immutable; bags are stored as frozensets.

    The host is checked to be a tree here, once, so nothing that takes a
    decomposition checks it again. Every host node gets a bag entry
    (missing entries become empty bags).
    Whether the bags satisfy the decomposition conditions for a particular
    graph is checked by validate, not here.
    """

    __slots__ = ("_host", "_bags")

    def __init__(self, host: Graph, bags: Mapping[Vertex, Iterable[Vertex]]):
        if not is_tree(host):
            raise ValueError("host must be a tree")
        stray = set(bags) - host.vertex_set
        if stray:
            raise ValueError(f"bags keyed by non-host nodes: {sorted(stray)!r}")
        self._host = host
        self._bags = {x: frozenset(bags.get(x, ())) for x in host.vertices}

    @property
    def host(self) -> Graph:
        return self._host

    @property
    def bags(self) -> Dict[Vertex, FrozenSet[Vertex]]:
        return dict(self._bags)

    def bag(self, x: Vertex) -> FrozenSet[Vertex]:
        return self._bags[x]

    def width(self) -> int:
        """Largest bag size minus one (-1 when all bags are empty)."""
        return max(len(b) for b in self._bags.values()) - 1

    def subtree_of(self, v: Vertex) -> FrozenSet[Vertex]:
        """Host nodes whose bag contains v."""
        return frozenset(x for x, b in self._bags.items() if v in b)

    def decomposed_vertices(self) -> FrozenSet[Vertex]:
        out = set()
        for b in self._bags.values():
            out |= b
        return frozenset(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeDecomposition):
            return NotImplemented
        return self._host == other._host and self._bags == other._bags

    def __repr__(self) -> str:
        return (f"TreeDecomposition({len(self._host)} host nodes, "
                f"width {self.width()})")


def _subtree_map(td: TreeDecomposition) -> Dict[Vertex, set]:
    out: Dict[Vertex, set] = {}
    for x, b in td.bags.items():
        for v in b:
            out.setdefault(v, set()).add(x)
    return out


def validate(g: Graph, td: TreeDecomposition) -> ValidationReport:
    """Check the decomposition conditions of td against g, and anchoring.

    Reports one violation per broken condition: a vertex with an empty or
    disconnected subtree, or an edge whose endpoint subtrees are disjoint.
    A valid td is anchored when its host has vertex set V(g) and edges in
    E(g) (it is a tree by construction, so then a spanning tree of g) and
    every vertex lies in its own subtree.
    """
    stray = td.decomposed_vertices() - g.vertex_set
    if stray:
        raise ValueError(f"bags mention non-vertices of g: {sorted(stray)!r}")
    subtrees = _subtree_map(td)
    violations = []
    for v in g.vertices:
        nodes = subtrees.get(v)
        if not nodes:
            violations.append(Violation(EMPTY_SUBTREE, v))
        elif not connected_in(td.host, nodes):
            violations.append(Violation(DISCONNECTED_SUBTREE, v))
    for e in sorted(g.edges):
        u, v = e
        if not (subtrees.get(u, set()) & subtrees.get(v, set())):
            violations.append(Violation(UNCOVERED_EDGE, e))
    host = td.host
    anchored = (not violations and host.vertex_set == g.vertex_set
                and host.edges <= g.edges
                and all(v in subtrees[v] for v in g.vertices))
    return ValidationReport(not violations, tuple(violations), anchored)


def is_anchored(g: Graph, td: TreeDecomposition) -> bool:
    """True iff td's host is a spanning tree of g and every v lies in its own subtree.

    td must be valid for g; an invalid decomposition raises instead.
    """
    report = validate(g, td)
    if not report:
        raise ValueError("decomposition is not valid for g")
    return report.anchored


@dataclass(frozen=True)
class Classification:
    """Vertex classes of a decomposition of a gadget-bearing graph.

    A vertex is free when its subtree meets the base graph's vertex set,
    constrained otherwise. A base vertex is grounded when it lies in its own
    subtree (equivalently, in its own bag).
    """

    free: FrozenSet[Vertex]
    constrained: FrozenSet[Vertex]
    grounded: FrozenSet[Vertex]
    ungrounded: FrozenSet[Vertex]


def classify_vertices(inst: "GadgetInstance", td: TreeDecomposition) -> Classification:
    """Split V(inst.graph) into free/constrained and V(inst.base) into grounded/ungrounded."""
    report = validate(inst.graph, td)
    if not report:
        raise ValueError(f"decomposition is not valid for the instance: {report}")
    base = inst.base.vertex_set
    subtrees = _subtree_map(td)
    free = frozenset(v for v in inst.graph.vertices if subtrees.get(v, set()) & base)
    constrained = inst.graph.vertex_set - free
    grounded = frozenset(x for x in base if x in subtrees.get(x, set()))
    return Classification(free, constrained, grounded, base - grounded)
