"""Width-lower-bound certificates for spanning trees of reflected trees.

For any spanning tree T of the level-r reflected tree, the recursion here
produces a matching M of r-1 non-tree edges whose fundamental cycles all
pass through one common edge of the u-v tree path. In every anchored
decomposition hosted on T, each matching edge forces one of its endpoints
into the bag at that edge's endpoint (the hub), so |B_hub| >= r-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .constructions import ReflectedTree
from .decomposition import TreeDecomposition, _anchored, validate
from .errors import CertificateContradiction, HypothesisViolated, StructureViolation
from .graphs import Edge, Graph, HostTree, Matching, Vertex, path_edges


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


def _collect_matching(rt: ReflectedTree, host: HostTree) -> List[Edge]:
    """The matching edges contributed at rt's level and below.

    host indexes a spanning tree t of the whole reflected tree; only its
    edges inside rt matter, so the recursion asks host whether t's
    restriction to a vertex set is connected, and for its components,
    rather than building restricted subgraphs.
    """
    t = host.tree
    if rt.level == 2:
        extra = sorted(rt.graph.edges - t.edges)
        if len(extra) != 1:
            raise StructureViolation(
                f"level 2 expects exactly one non-tree edge, found {len(extra)}")
        return extra
    left, right = rt.copies
    u, v = rt.roots
    conn_left = host.connects(left.graph.vertex_set | {u, v})
    conn_right = host.connects(right.graph.vertex_set | {u, v})
    if conn_left == conn_right:
        raise StructureViolation(
            f"level {rt.level}: expected exactly one connected root-augmented "
            f"restriction, got left={conn_left} right={conn_right}")
    connected_copy = left if conn_left else right
    other_copy = right if conn_left else left
    side_vertices = other_copy.graph.vertex_set | {u, v}
    comps = host.components(side_vertices)
    if len(comps) != 2:
        raise StructureViolation(
            f"level {rt.level}: disconnected side fell into {len(comps)} "
            "components, expected 2")
    part = comps[0]
    candidates = [e for e in rt.graph.edges - t.edges
                  if e[0] in side_vertices and e[1] in side_vertices
                  and (e[0] in part) != (e[1] in part)]
    if not candidates:
        raise StructureViolation(
            f"level {rt.level}: no non-tree edge reconnects the disconnected side")
    crossing = min(candidates)
    # t has no cycle, so its restriction to the copy is a spanning tree of
    # the copy exactly when it is connected
    if not host.connects(connected_copy.graph.vertex_set):
        raise StructureViolation(
            f"level {rt.level}: connected copy restriction is not a spanning tree")
    return _collect_matching(connected_copy, host) + [crossing]


def reflected_matching(rt: ReflectedTree, t: Graph) -> WidthCertificate:
    """Build the certificate for spanning tree t of the reflected tree rt.

    Recurses into whichever copy keeps a connected restriction, collecting
    the missing attachment edge at each level; the base level contributes
    its unique non-tree edge. The common witness edge is recomputed at the
    top: it lies on every fundamental cycle and on the u-v tree path.
    """
    if rt.level < 2:
        raise ValueError("certificates need level >= 2")
    try:
        host = HostTree(rt.graph, t)
    except ValueError:
        raise ValueError("t is not a spanning tree of the reflected tree") from None
    matching_edges = _collect_matching(rt, host)
    cycles = {e: host.cycle(e) for e in matching_edges}
    u, v = rt.roots
    common = path_edges(host.path(u, v))
    for cyc in cycles.values():
        common = common & cyc.edges
    if not common:
        raise StructureViolation(
            "no common edge on the u-v path across all fundamental cycles")
    witness = min(common)
    return WidthCertificate(
        level=rt.level,
        host=t,
        matching=Matching(frozenset(matching_edges)),
        hub=min(witness),
        witness_edge=witness,
        cycles={e: c.vertices for e, c in cycles.items()},
    )


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reasons: Tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(rt: ReflectedTree, cert: WidthCertificate) -> CertificateCheck:
    """Recheck every certificate invariant from scratch.

    Returns a falsy report with reasons instead of raising, so tampered
    certificates are diagnosed rather than rejected with an exception.
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
    puv = path_edges(host.path(u, v))
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
    if not _anchored(rt.graph, td):
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
