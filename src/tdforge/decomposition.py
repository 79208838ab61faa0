"""Tree decompositions in subtree view, with validation.

A decomposition is a host tree T plus one bag per host node. The subtree of a
decomposed vertex v is the set of host nodes whose bag contains v; validity
means every subtree is non-empty and connected and every edge of the
decomposed graph sees both endpoints share a host node. A valid
decomposition is anchored when T is a spanning tree of the graph and every
vertex lies in its own subtree; validate reports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from .graphs import Graph, Vertex

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
    decomposition checks it again. The check reads the host's kept walk
    (Graph._tree_walk), so a host that a HostTree already walked, such as
    the decider's, is not walked again. Every host node gets a bag entry
    (missing entries become empty bags).
    Whether the bags satisfy the decomposition conditions for a particular
    graph is checked by validate, not here; the decomposition keeps
    validate's last report and the graph it was for.
    """

    __slots__ = ("_host", "_bags", "_checked")

    def __init__(self, host: Graph, bags: Mapping[Vertex, Iterable[Vertex]]):
        if host._tree_walk() is None:
            raise ValueError("host must be a tree")
        stray = set(bags) - host.vertex_set
        if stray:
            raise ValueError(f"bags keyed by non-host nodes: {sorted(stray)!r}")
        self._host = host
        self._bags = {x: frozenset(bags.get(x, ())) for x in host.vertices}
        self._checked = None  # (graph, its report), kept by validate

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


def validate(g: Graph, td: TreeDecomposition) -> ValidationReport:
    """Check the decomposition conditions of td against g, and anchoring.

    Reports one violation per broken condition: a vertex with an empty or
    disconnected subtree (vertices in g.vertices order), then each edge
    whose endpoint subtrees are disjoint (edges sorted). A valid td is
    anchored when its host has vertex set V(g) and edges in E(g) (it is a
    tree by construction, so then a spanning tree of g) and every vertex
    lies in its own subtree.

    Connectivity is counted, not searched. The host is a tree, so the host
    nodes whose bags hold v induce a forest, and a forest has as many
    components as nodes minus edges: v's subtree is connected iff it has
    one inside edge fewer than nodes. One pass over the host edges counts,
    for each v in bag(x) & bag(y), the inside edge xy.

    td keeps its last report with the graph object it was checked against,
    so validate and is_anchored on the same g and td check once. A call
    that raises keeps nothing.
    """
    checked = td._checked
    if checked is not None and checked[0] is g:
        return checked[1]
    report = _check(g, td)
    td._checked = (g, report)
    return report


def _check(g: Graph, td: TreeDecomposition) -> ValidationReport:
    """validate without the kept report."""
    bags = td._bags
    host = td._host
    # each vertex's subtree as a bitmask over host.vertices
    nodes = dict.fromkeys(g.vertices, 0)
    bit = 1
    try:
        for x in host.vertices:
            for v in bags[x]:
                nodes[v] |= bit
            bit <<= 1
    except KeyError:
        stray = td.decomposed_vertices() - g.vertex_set
        raise ValueError(
            f"bags mention non-vertices of g: {sorted(stray)!r}") from None
    inside = dict.fromkeys(g.vertices, 0)  # edges with both ends in v's subtree
    for x, y in host.edges:
        for v in bags[x] & bags[y]:
            inside[v] += 1
    violations = []
    for v, mask in nodes.items():
        if not mask:
            violations.append(Violation(EMPTY_SUBTREE, v))
        elif inside[v] + 1 != mask.bit_count():
            violations.append(Violation(DISCONNECTED_SUBTREE, v))
    uncovered = [e for e in g.edges if not nodes[e[0]] & nodes[e[1]]]
    if uncovered:
        violations.extend(Violation(UNCOVERED_EDGE, e)
                          for e in sorted(uncovered))
    anchored = (not violations and host.vertex_set == g.vertex_set
                and host.edges <= g.edges
                and all(v in bags[v] for v in g.vertices))
    return ValidationReport(not violations, tuple(violations), anchored)


def is_anchored(g: Graph, td: TreeDecomposition) -> bool:
    """True iff td's host is a spanning tree of g and every v lies in its own subtree.

    td must be valid for g; an invalid decomposition raises instead.
    """
    report = validate(g, td)
    if not report:
        raise ValueError("decomposition is not valid for g")
    return report.anchored
