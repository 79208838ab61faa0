"""Width-lower-bound certificates for spanning trees of reflected trees.

For any spanning tree T of the level-r reflected tree, the recursion here
produces a matching M of r-1 non-tree edges whose fundamental cycles all
pass through one common edge of the u-v tree path. In every anchored
decomposition hosted on T, each matching edge forces one of its endpoints
into the bag at that edge's endpoint (the hub), so |B_hub| >= r-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .constructions import ReflectedTree
from .decomposition import TreeDecomposition, validate
from .errors import CertificateContradiction, HypothesisViolated, StructureViolation
from .graphs import Edge, Graph, HostTree, Matching, Vertex, edge


@dataclass(frozen=True)
class WidthCertificate:
    """Spanning-tree certificate: matching, hub, common witness edge, and the
    fundamental cycle vertex set of each matching edge."""

    level: int
    host: Graph
    matching: Matching
    hub: Vertex
    witness_edge: Edge
    cycles: Dict[Edge, FrozenSet[Vertex]]


class _Side:
    """One copy of a reflected tree joined to the level's roots u and v:
    the copy's edge set and order, the two edges that attach it to u and v,
    the side's edges as index pairs in sorted order, and the copy's own
    plan."""

    __slots__ = ("copy_edges", "copy_order", "attach", "pairs", "child")

    def __init__(self, copy: ReflectedTree, u: Vertex, v: Vertex,
                 index: Dict[Vertex, int]):
        g = copy.graph
        self.copy_edges = g.edges
        self.copy_order = len(g)
        self.attach = (edge(u, copy.roots[0]), edge(v, copy.roots[-1]))
        # the index is sorted, so sorted index pairs are the sorted edges
        self.pairs = sorted((index[a], index[b])
                            for a, b in g.edges.union(self.attach))
        self.child = _Level(copy, index)


class _Level:
    """The plan of one reflected tree: its level, its roots as indices,
    and either its two sides or, at level 2, its edge set."""

    __slots__ = ("level", "roots", "sides", "edges")

    def __init__(self, rt: ReflectedTree, index: Dict[Vertex, int]):
        self.level = rt.level
        self.roots = (index[rt.roots[0]], index[rt.roots[1]])
        if rt.level == 2:
            self.sides, self.edges = None, rt.graph.edges
        else:
            self.sides = tuple(_Side(c, *rt.roots, index) for c in rt.copies)
            self.edges = None


class MatchingPlan:
    """What reflected_matching reads at each level of one reflected tree,
    built once for all the trees one command certifies: the level's roots
    u and v as indices into the graph's shared index, and for each side
    (a copy with u and v) its size, its edges, and its edges as index
    pairs in sorted order. Sets and edges are the reflected tree's own
    objects, so a plan adds only its index pairs and small objects, but
    it still lives only as long as the command that builds it: nothing
    caches it."""

    __slots__ = ("graph", "_top")

    def __init__(self, rt: ReflectedTree):
        if rt.level < 2:
            raise ValueError("certificates need level >= 2")
        self.graph = rt.graph
        self._top = _Level(rt, rt.graph.indexed()[1])


def _collect_matching(plan: MatchingPlan, host: HostTree) -> List[Edge]:
    """The matching edges, from the base level up to the top.

    Walks down the levels into whichever copy keeps a connected
    restriction of the host tree t. t has no cycle, so its restriction to
    a vertex set is a forest with one component per vertex more than it
    has edges: a side is connected iff t has one edge fewer inside it than
    it has vertices, and the disconnected side must have exactly one edge
    fewer than that (two components). The crossing edge is the first
    non-tree edge of that side, in sorted order, whose ends lie in
    different components, and those are the edges whose tree path passes
    through both u and v. The connected side holds a u-v tree path, so u
    and v fall in different components of the other side, or t would
    have a cycle. The copy meets the rest of the graph only at u and v,
    so a pair in different components has a tree path that leaves the
    side through one root and comes back through the other. A pair in one
    component has its tree path inside it, which holds at most one root.
    """
    tedges = host.tree.edges
    vertices, parent = host.vertices, host._parent
    crossings: List[Edge] = []
    level = plan._top
    while level.sides is not None:
        inside = []
        for side in level.sides:
            au, av = side.attach
            inside.append(len(tedges & side.copy_edges)
                          + (au in tedges) + (av in tedges))
        (left, right), (in_left, in_right) = level.sides, inside
        conn_left = in_left == left.copy_order + 1
        conn_right = in_right == right.copy_order + 1
        if conn_left == conn_right:
            raise StructureViolation(
                f"level {level.level}: expected exactly one connected "
                f"root-augmented restriction, got left={conn_left} "
                f"right={conn_right}")
        if conn_left:
            connected, other, in_other = left, right, in_right
        else:
            connected, other, in_other = right, left, in_left
        comps = other.copy_order + 2 - in_other
        if comps != 2:
            raise StructureViolation(
                f"level {level.level}: disconnected side fell into {comps} "
                "components, expected 2")
        ru, rv = level.roots
        for i, j in other.pairs:
            # (i, j) is an edge of the graph, so a tree edge iff one end
            # is the other's parent
            if parent[i] == j or parent[j] == i:
                continue
            path, top = host._below(i, j)
            path.add(top)
            if ru in path and rv in path:
                crossings.append((vertices[i], vertices[j]))
                break
        else:
            raise StructureViolation(
                f"level {level.level}: no non-tree edge reconnects the "
                "disconnected side")
        # the copy alone: a connected restriction is a spanning tree of it
        if len(tedges & connected.copy_edges) != connected.copy_order - 1:
            raise StructureViolation(
                f"level {level.level}: connected copy restriction is not a "
                "spanning tree")
        level = connected.child
    extra = sorted(level.edges - tedges)
    if len(extra) != 1:
        raise StructureViolation(
            f"level 2 expects exactly one non-tree edge, found {len(extra)}")
    return extra + crossings[::-1]


def reflected_matching(rt: ReflectedTree, t,
                       plan: Optional[MatchingPlan] = None) -> WidthCertificate:
    """Build the certificate for spanning tree t of the reflected tree rt.

    t is a Graph, or a HostTree over rt.graph that the caller has already
    checked. plan is MatchingPlan(rt); a caller that certifies many trees
    of rt builds it once and passes it on.

    Walks into whichever copy keeps a connected restriction, collecting
    the missing attachment edge at each level; the base level contributes
    its unique non-tree edge. The common witness edge is recomputed at the
    top: it lies on every fundamental cycle and on the u-v tree path.
    """
    if rt.level < 2:
        raise ValueError("certificates need level >= 2")
    if isinstance(t, HostTree):
        host = t
        if host.graph is not rt.graph and host.graph != rt.graph:
            raise ValueError("t is not a spanning tree of the reflected tree")
    else:
        try:
            host = HostTree(rt.graph, t)
        except ValueError:
            raise ValueError(
                "t is not a spanning tree of the reflected tree") from None
    if plan is None:
        plan = MatchingPlan(rt)
    elif plan.graph is not rt.graph and plan.graph != rt.graph:
        raise ValueError("plan is for another reflected tree")
    matching_edges = _collect_matching(plan, host)
    index, vertices, parent = host.index, host.vertices, host._parent
    # tree edges are named by their lower ends, the u-v path's and each
    # cycle's alike, so the common edges are one set intersection
    u, v = rt.roots
    common = host._below(index[u], index[v])[0]
    cycles = {}
    for e in matching_edges:
        below, top = host._below(index[e[0]], index[e[1]])
        cycles[e] = frozenset([vertices[x] for x in below] + [vertices[top]])
        common &= below
    if not common:
        raise StructureViolation(
            "no common edge on the u-v path across all fundamental cycles")
    # the index is sorted, so the least index pair names the least edge
    a, b = min((x, parent[x]) if x < parent[x] else (parent[x], x)
               for x in common)
    return WidthCertificate(
        level=rt.level,
        host=host.tree,
        matching=Matching(frozenset(matching_edges)),
        hub=vertices[a],
        witness_edge=(vertices[a], vertices[b]),
        cycles=cycles,
    )


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reasons: Tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(rt: ReflectedTree, cert: WidthCertificate) -> CertificateCheck:
    """Recheck every certificate invariant from scratch.

    The host is checked again by a HostTree of its own (over the graph's
    shared index), and cycles and the u-v path are named edge sets: a
    second route beside reflected_matching's plan. Returns a falsy report
    with reasons instead of raising, so tampered certificates are
    diagnosed rather than rejected with an exception.
    """
    reasons = []
    if cert.level != rt.level:
        reasons.append(f"level {cert.level} does not match the graph's {rt.level}")
    try:
        host = HostTree(rt.graph, cert.host)
    except ValueError:
        reasons.append("host is not a spanning tree of the reflected tree")
        return CertificateCheck(False, tuple(reasons))
    edges = sorted(cert.matching.edges)
    if len(edges) != rt.level - 1:
        reasons.append(f"matching has {len(edges)} edges, expected {rt.level - 1}")
    endpoints = [v for e in edges for v in e]
    if len(set(endpoints)) != len(endpoints):
        reasons.append("matching edges share endpoints")
    for e in edges:
        if e not in rt.graph.edges:
            reasons.append(f"{e!r} is not an edge of the graph")
        elif e in cert.host.edges:
            reasons.append(f"{e!r} is a tree edge")
    if set(cert.cycles) != set(edges):
        reasons.append("cycle record does not match the matching")
    if reasons:
        return CertificateCheck(False, tuple(reasons))
    u, v = rt.roots
    puv = host._edges(host._below(host.index[u], host.index[v])[0])
    for e in edges:
        cyc = host.cycle(e)
        if cyc.vertices != cert.cycles[e]:
            reasons.append(f"recorded cycle of {e!r} is wrong")
        if cert.hub not in cyc.vertices:
            reasons.append(f"hub {cert.hub!r} misses the cycle of {e!r}")
        if cert.witness_edge not in cyc.edges:
            reasons.append(f"witness edge misses the cycle of {e!r}")
    if cert.witness_edge not in puv:
        reasons.append("witness edge is not on the u-v tree path")
    if cert.hub not in cert.witness_edge:
        reasons.append("hub is not an endpoint of the witness edge")
    return CertificateCheck(not reasons, tuple(reasons))


def bag_lower_bound(rt: ReflectedTree, cert: WidthCertificate,
                    td: TreeDecomposition) -> Tuple[Vertex, List[Vertex]]:
    """Read off the forced members of the hub's bag from an anchored witness.

    For each matching edge, the hub lies on the tree path between its
    endpoints, which the two endpoint subtrees jointly cover; so one endpoint
    sits in the hub's bag. Returns the hub and one forced, pairwise distinct
    vertex per matching edge, proving |B_hub| >= level - 1.
    """
    check = verify_certificate(rt, cert)
    if not check:
        raise HypothesisViolated(f"certificate does not verify: {check.reasons}")
    if td.host != cert.host:
        raise HypothesisViolated("decomposition is hosted on a different tree")
    report = validate(rt.graph, td)
    if not report:
        raise HypothesisViolated(f"decomposition invalid: {report}")
    if not report.anchored:
        raise HypothesisViolated("decomposition is not anchored")
    hub_bag = td.bag(cert.hub)
    forced = []
    for a, b in sorted(cert.matching.edges):
        if a in hub_bag:
            forced.append(a)
        elif b in hub_bag:
            forced.append(b)
        else:
            raise CertificateContradiction(
                f"matching edge {(a, b)!r} has neither endpoint in the hub bag; "
                "this contradicts a verified certificate and means a bug")
    assert len(set(forced)) == len(forced)
    return cert.hub, forced
