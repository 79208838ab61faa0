"""The two decomposition transformations.

minor_to_spanning turns a decomposition hosted on a tree that is a minor of
the graph into one hosted on an honest spanning tree, with the same width.
reduce_to_anchored turns a spanning-tree-hosted decomposition of a
gadget-bearing graph into an anchored decomposition of the base graph,
growing the width by at most one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, FrozenSet

from .constructions import GadgetInstance
from .decomposition import (TreeDecomposition, ValidationReport, Violation,
                            validate)
from .errors import HostNotSpanning, ReductionInvalid
from .graphs import (Graph, Vertex, Edge, component_in, connected_in, edge,
                     is_connected, is_spanning_tree, is_tree)

PATTERN_NOT_TREE = "pattern-not-tree"
BRANCH_MISSING = "branch-set-missing"
BRANCH_EMPTY = "branch-set-empty"
BRANCH_STRAY = "branch-set-outside-graph"
BRANCH_OVERLAP = "branch-sets-overlap"
BRANCH_DISCONNECTED = "branch-set-disconnected"
WITNESS_MISSING = "edge-witness-missing"
WITNESS_BAD = "edge-witness-bad"


@dataclass(frozen=True)
class MinorModel:
    """A tree minor model: branch sets in the graph, one per pattern vertex,
    plus one connecting graph edge per pattern edge."""

    graph: Graph
    pattern: Graph
    branch_sets: Dict[Vertex, FrozenSet[Vertex]]
    edge_map: Dict[Edge, Edge]

    def __post_init__(self):
        object.__setattr__(self, "branch_sets",
                           {x: frozenset(q) for x, q in self.branch_sets.items()})
        object.__setattr__(self, "edge_map",
                           {edge(*xy): edge(*e) for xy, e in self.edge_map.items()})

    def covered(self) -> FrozenSet[Vertex]:
        out = set()
        for q in self.branch_sets.values():
            out |= q
        return frozenset(out)

    def is_covering(self) -> bool:
        return self.covered() == self.graph.vertex_set


def validate_model(m: MinorModel) -> ValidationReport:
    """Report every violated model invariant (empty report means valid)."""
    violations = []
    if not is_tree(m.pattern):
        violations.append(Violation(PATTERN_NOT_TREE, None))
    for x in m.pattern.vertices:
        if x not in m.branch_sets:
            violations.append(Violation(BRANCH_MISSING, x))
    seen: Dict[Vertex, Vertex] = {}
    for x in sorted(m.branch_sets):
        q = m.branch_sets[x]
        if not q:
            violations.append(Violation(BRANCH_EMPTY, x))
            continue
        stray = q - m.graph.vertex_set
        if stray:
            violations.append(Violation(BRANCH_STRAY, (x, tuple(sorted(stray)))))
            continue
        for v in q:
            if v in seen:
                violations.append(Violation(BRANCH_OVERLAP, (seen[v], x, v)))
            seen[v] = x
        if not connected_in(m.graph, q):
            violations.append(Violation(BRANCH_DISCONNECTED, x))
    for xy in sorted(m.pattern.edges):
        x, y = xy
        if xy not in m.edge_map:
            violations.append(Violation(WITNESS_MISSING, xy))
            continue
        e = m.edge_map[xy]
        qx = m.branch_sets.get(x, frozenset())
        qy = m.branch_sets.get(y, frozenset())
        endpoints_ok = ((e[0] in qx and e[1] in qy) or (e[0] in qy and e[1] in qx))
        if e not in m.graph.edges or not endpoints_ok:
            violations.append(Violation(WITNESS_BAD, (xy, e)))
    return ValidationReport(not violations, tuple(violations))


def complete_model(m: MinorModel) -> MinorModel:
    """Absorb uncovered vertices so the branch sets cover the whole graph.

    Uncovered vertices are taken in breadth-first order from the covered
    region and each joins the branch set of a neighbor assigned one level
    earlier, ties toward the lexicographically smallest branch id. Keeps
    branch sets connected; idempotent on covering models.
    """
    report = validate_model(m)
    if not report:
        raise ValueError(f"model is invalid: {report}")
    if not is_connected(m.graph):
        raise ValueError("completion needs a connected graph")
    return _complete(m)


def _complete(m: MinorModel) -> MinorModel:
    """complete_model on a valid model of a connected graph."""
    assigned: Dict[Vertex, Vertex] = {}
    for x, q in m.branch_sets.items():
        for v in q:
            assigned[v] = x
    while len(assigned) < len(m.graph):
        frontier = {}
        for v in m.graph.vertices:
            if v in assigned:
                continue
            sources = {assigned[w] for w in m.graph.neighbors(v) if w in assigned}
            if sources:
                frontier[v] = min(sources)
        if not frontier:
            raise ValueError("uncovered region unreachable from the covered region")
        assigned.update(frontier)
    if len(assigned) == sum(len(q) for q in m.branch_sets.values()):
        return m
    new_sets: Dict[Vertex, set] = {x: set() for x in m.branch_sets}
    for v, x in assigned.items():
        new_sets[x].add(v)
    return MinorModel(m.graph, m.pattern,
                      {x: frozenset(q) for x, q in new_sets.items()}, m.edge_map)


def minor_to_spanning(g: Graph, td: TreeDecomposition, m: MinorModel
                      ) -> TreeDecomposition:
    """Rehost a decomposition from a tree minor of g onto a spanning tree of g.

    td must decompose g with host equal to the model's pattern tree. The new
    host glues the breadth-first spanning tree of each branch set, grown
    from its least vertex, with the witness edges;
    each graph vertex inherits the bag of its branch's pattern vertex. Width
    is preserved exactly.
    """
    report = validate_model(m)
    if not report:
        raise ValueError(f"model is invalid: {report}")
    if m.graph != g:
        raise ValueError("model is not a model in g")
    if not is_connected(g):
        raise ValueError("need a connected graph")
    if td.host != m.pattern:
        raise ValueError("decomposition host differs from the model's pattern tree")
    td_report = validate(g, td)
    if not td_report:
        raise ValueError(f"input decomposition invalid: {td_report}")
    if not m.is_covering():
        m = _complete(m)
    host_edges = []
    branch_of: Dict[Vertex, Vertex] = {}
    for x in sorted(m.branch_sets):
        q = m.branch_sets[x]
        host_edges.extend(edge(v, w) for w, v in
                          component_in(g, q, min(q)).items() if w != v)
        for v in q:
            branch_of[v] = x
    host_edges.extend(m.edge_map[xy] for xy in m.pattern.edges)
    bags = {w: td.bag(branch_of[w]) for w in g.vertices}
    # on V(g) with edges of g, so the tree check here makes it spanning
    out = TreeDecomposition(Graph(g.vertices, host_edges), bags)
    out_report = validate(g, out)
    assert out_report, f"rehosted decomposition invalid: {out_report}"
    assert out.width() == td.width()
    return out


def reduce_to_anchored(inst: GadgetInstance, td: TreeDecomposition
                       ) -> TreeDecomposition:
    """Reduce a spanning-tree-hosted decomposition of the gadget graph to an
    anchored one of the base graph.

    The host becomes the induced tree on the base vertices, bags are cut down
    to base vertices at base-hosted nodes, and every base vertex joins its own
    bag (it is already there when it lies in its own subtree). Width
    grows by at most one. With toy schedules the result can be invalid, in
    which case ReductionInvalid carries the validation report.
    """
    g, host = inst.graph, td.host
    report = validate(g, td)
    if not report:
        raise ValueError(f"input decomposition invalid: {report}")
    # host is a tree by construction: spanning iff on V(g) with edges in E(g)
    if host.vertex_set != g.vertex_set or not host.edges <= g.edges:
        raise ValueError("host must be a spanning tree of the instance graph")
    if td.width() > inst.schedule.k:
        warnings.warn(
            f"input width {td.width()} exceeds the schedule's k={inst.schedule.k}; "
            "the reduction's guarantees assume width <= k", stacklevel=2)
    base = inst.base
    induced = host.subgraph(base.vertex_set)
    if not is_spanning_tree(base, induced):
        raise HostNotSpanning(
            "induced host is not a spanning tree of the base; "
            "gadget instances cannot do this, so this is a bug")
    bags = {x: td.bag(x) & base.vertex_set | {x} for x in base.vertices}
    out = TreeDecomposition(induced, bags)
    out_report = validate(base, out)
    if not out_report:
        raise ReductionInvalid(out_report)
    assert out.width() <= td.width() + 1
    assert out_report.anchored
    return out
