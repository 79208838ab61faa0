"""Checks on the program's outputs that share no code with tdforge.

Each checker takes plain vertex and edge collections (read off a tdforge
``Graph`` or out of the program's JSON) and recomputes what it needs from
scratch: tree paths, connectivity, matchings and determinants. A checker
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Pair = Tuple[str, str]


def _pair(a, b) -> Pair:
    return (a, b) if a < b else (b, a)


def spanning_tree_count(vertices: Sequence, edges: Iterable[Pair]) -> int:
    """Kirchhoff's count: the determinant of the Laplacian with the first
    row and column removed, by Gaussian elimination over exact fractions."""
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for a, b in edges:
        i, j = index[a], index[b]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            if f:
                for j in range(c, size):
                    m[r][j] -= f * m[c][j]
    if det.denominator != 1:
        raise ArithmeticError("non-integer determinant of a Laplacian minor")
    return int(det)


class HostTree:
    """A tree rooted at its least vertex, for path queries.

    Raises ValueError when the edges do not form a tree on the vertices.
    """

    def __init__(self, vertices: Iterable, edges: Iterable[Pair]):
        self.vertices = set(vertices)
        adj: Dict[str, List[str]] = {v: [] for v in self.vertices}
        count = 0
        for a, b in edges:
            if a not in adj or b not in adj or a == b:
                raise ValueError(f"host edge {(a, b)!r} leaves the vertex set")
            adj[a].append(b)
            adj[b].append(a)
            count += 1
        if not self.vertices or count != len(self.vertices) - 1:
            raise ValueError("host is not a tree: wrong edge count")
        root = min(self.vertices)
        self.parent = {root: None}
        self.depth = {root: 0}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in self.parent:
                    self.parent[y] = x
                    self.depth[y] = self.depth[x] + 1
                    queue.append(y)
        if len(self.parent) != len(self.vertices):
            raise ValueError("host is not a tree: disconnected")
        self.adj = adj

    def path(self, a, b) -> List:
        """Vertices of the a-b path, a first."""
        left, right = [a], [b]
        while self.depth[left[-1]] > self.depth[right[-1]]:
            left.append(self.parent[left[-1]])
        while self.depth[right[-1]] > self.depth[left[-1]]:
            right.append(self.parent[right[-1]])
        while left[-1] != right[-1]:
            left.append(self.parent[left[-1]])
            right.append(self.parent[right[-1]])
        return left + right[-2::-1]

    def path_edges(self, a, b) -> Set[Pair]:
        p = self.path(a, b)
        return {_pair(x, y) for x, y in zip(p, p[1:])}

    def connected(self, nodes: Set) -> bool:
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in self.adj[x]:
                if y in nodes and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(nodes)


def max_matching_size(edges: Sequence[Pair]) -> int:
    """Largest set of pairwise disjoint edges, by exhaustive branching.

    Exponential in the edge count; the callers pass at most a few dozen
    edges.
    """
    if not edges:
        return 0
    (a, b), rest = edges[0], edges[1:]
    with_first = 1 + max_matching_size([e for e in rest
                                        if a not in e and b not in e])
    return max(with_first, max_matching_size(rest))


def hub_matching_bound(graph_edges: Iterable[Pair], host_vertices: Iterable,
                       host_edges: Iterable[Pair]) -> Tuple[int, Optional[str]]:
    """A lower bound on anchored width over this host, and its hub.

    In an anchored decomposition the subtrees of a and b contain a and b
    and meet, so together they cover the host path from a to b. Every graph
    edge ab whose host path passes a node h outside {a, b} therefore puts a
    or b into bag(h), next to h itself. A matching among those edges needs
    one bag slot per edge, so the width is at least the largest matching,
    maximised over h.
    """
    tree = HostTree(host_vertices, host_edges)
    through: Dict[str, List[Pair]] = {h: [] for h in tree.vertices}
    for a, b in graph_edges:
        for h in tree.path(a, b)[1:-1]:
            through[h].append(_pair(a, b))
    best, hub = 0, None
    for h in sorted(through):
        nu = max_matching_size(sorted(through[h]))
        if nu > best:
            best, hub = nu, h
    return best, hub


def check_decomposition(graph_vertices: Iterable, graph_edges: Iterable[Pair],
                        host_vertices: Iterable, host_edges: Iterable[Pair],
                        bags: Mapping[str, Iterable], *,
                        max_width: Optional[int] = None,
                        spanning: bool = False,
                        anchored: bool = False) -> List[str]:
    """Problems with a tree decomposition of a graph, or [] when it is one.

    Checks that the host is a tree, that every vertex's subtree is
    non-empty and connected, that every edge has both ends in one bag, and
    optionally the width, that the host is a spanning tree of the graph,
    and anchoring (every vertex in its own bag).
    """
    gv = set(graph_vertices)
    ge = {_pair(a, b) for a, b in graph_edges}
    try:
        tree = HostTree(host_vertices, host_edges)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    bag_sets = {x: set(b) for x, b in bags.items()}
    if set(bag_sets) - tree.vertices:
        problems.append("bags on nodes outside the host")
    stray = set().union(*bag_sets.values()) - gv if bag_sets else set()
    if stray:
        problems.append(f"bags hold non-vertices {sorted(stray)[:3]}")
    subtrees: Dict[str, Set] = {v: set() for v in gv}
    for x, bag in bag_sets.items():
        if x in tree.vertices:
            for v in bag & gv:
                subtrees[v].add(x)
    for v in sorted(gv):
        if not subtrees[v]:
            problems.append(f"{v} is in no bag")
        elif not tree.connected(subtrees[v]):
            problems.append(f"subtree of {v} is disconnected")
    for a, b in sorted(ge):
        if not subtrees.get(a, set()) & subtrees.get(b, set()):
            problems.append(f"edge {a}-{b} is in no bag")
    if max_width is not None:
        width = max((len(b) for b in bag_sets.values()), default=0) - 1
        if width > max_width:
            problems.append(f"width {width} exceeds {max_width}")
    if spanning or anchored:
        if tree.vertices != gv:
            problems.append("host vertices differ from the graph's")
        elif not {_pair(a, b) for a, b in host_edges} <= ge:
            problems.append("host uses non-edges of the graph")
    if anchored:
        for v in sorted(gv):
            if v not in bag_sets.get(v, ()):
                problems.append(f"{v} is not in its own bag")
    return problems


def check_certificate(obj: Mapping, graph_vertices: Iterable,
                      graph_edges: Iterable[Pair], level: int) -> List[str]:
    """Problems with one certificate as the CLI writes it, or [] when it holds.

    The host must be a spanning tree of the graph; the matching must hold
    level-1 pairwise disjoint non-tree edges; the witness edge must be a
    host edge on the u-v host path and on every matching edge's host path,
    with the hub one of its ends; each recorded cycle must be the vertex
    set of that edge's host path.
    """
    gv = set(graph_vertices)
    ge = {_pair(a, b) for a, b in graph_edges}
    host = obj["host"]
    hv = host["vertices"]
    he = {_pair(a, b) for a, b in host["edges"]}
    if set(hv) != gv or not he <= ge:
        return ["host is not a subgraph on all vertices"]
    try:
        tree = HostTree(hv, he)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    matching = [_pair(a, b) for a, b in obj["matching"]]
    if len(matching) != level - 1:
        problems.append(f"matching has {len(matching)} edges, "
                        f"needs {level - 1}")
    ends = [v for e in matching for v in e]
    if len(set(ends)) != len(ends):
        problems.append("matching edges share an endpoint")
    for e in matching:
        if e not in ge or e in he:
            problems.append(f"{e} is not a non-tree edge")
    if problems:
        return problems
    witness = _pair(*obj["witness_edge"])
    if witness not in he:
        problems.append("witness is not a host edge")
    if witness not in tree.path_edges("u", "v"):  # the reflected tree's roots
        problems.append("witness is off the u-v host path")
    if obj["hub"] not in witness:
        problems.append("hub is not an end of the witness edge")
    cycles = obj["cycles"]
    for a, b in matching:
        if witness not in tree.path_edges(a, b):
            problems.append(f"witness is off the host path of {a}-{b}")
        if set(cycles.get(f"{a},{b}", ())) != set(tree.path(a, b)):
            problems.append(f"recorded cycle of {a}-{b} is wrong")
    return problems
