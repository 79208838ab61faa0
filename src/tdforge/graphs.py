"""Immutable simple graphs, connectivity and tree predicates, small graph
families, and HostTree: a spanning tree checked once and indexed for the
tree paths that the certificates and the decider read.

Vertex identifiers are opaque tokens; they only need to be hashable and
mutually order-comparable (strings throughout this package). All operations
are deterministic: ties are broken by sorting identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Optional,
                    Set, Tuple)

Vertex = object  # opaque, order-comparable token; str in practice
Edge = Tuple[Vertex, Vertex]


def edge(u: Vertex, v: Vertex) -> Edge:
    """Canonical form of an undirected edge: endpoints sorted, loops rejected."""
    if u == v:
        raise ValueError(f"loop edge at {u!r}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph, immutable after construction.

    Vertex order is preserved as given; duplicate vertices, loops, and edges
    with undeclared endpoints are rejected. Parallel edges collapse (edges
    form a set).
    """

    __slots__ = ("_vertices", "_vset", "_edges", "_adj", "_index", "_walk")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable = ()):
        vs = tuple(vertices)
        if not vs:
            raise ValueError("graph needs at least one vertex")
        vset = set()
        for v in vs:
            if v in vset:
                raise ValueError(f"duplicate vertex {v!r}")
            vset.add(v)
        es = set()
        for pair in edges:
            u, v = pair
            e = edge(u, v)
            if e[0] not in vset or e[1] not in vset:
                raise ValueError(f"edge {e!r} has an undeclared endpoint")
            es.add(e)
        self._vertices = vs
        self._vset = frozenset(vset)
        self._edges = frozenset(es)
        self._adj = None  # neighbour tuples, built when first asked for
        self._index = None
        self._walk = None  # a tree's parents and depths, kept once walked

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> FrozenSet[Vertex]:
        return self._vset

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self._edges

    def indexed(self) -> Tuple[List[Vertex], Dict[Vertex, int]]:
        """The vertices in sorted order and each one's position in it,
        computed on first use. Every tree built by _spanning_subgraph shares
        this graph's pair, so HostTree and the samplers never sort again.
        Both are shared: read them, never change them."""
        if self._index is None:
            vertices = sorted(self._vertices)
            self._index = (vertices, {v: i for i, v in enumerate(vertices)})
        return self._index

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._vset

    def neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return adj[v]

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def _adjacency(self) -> Dict[Vertex, Tuple[Vertex, ...]]:
        """Each vertex's sorted neighbour tuple, built and kept on first
        use."""
        adj: Dict[Vertex, list] = {v: [] for v in self._vertices}
        for a, b in self._edges:
            adj[a].append(b)
            adj[b].append(a)
        for ws in adj.values():
            ws.sort()
        self._adj = {v: tuple(ws) for v, ws in adj.items()}
        return self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return edge(u, v) in self._edges

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """Induced subgraph on the given vertices, preserving vertex order."""
        ks = set(keep)
        missing = ks - self._vset
        if missing:
            raise ValueError(f"not vertices of this graph: {sorted(missing)!r}")
        vs = [v for v in self._vertices if v in ks]
        es = [e for e in self._edges if e[0] in ks and e[1] in ks]
        return Graph(vs, es)

    def _spanning_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """The graph on all of this graph's vertices with the given edges,
        built without checks: the caller guarantees that every edge is a
        canonical edge (a, b), a < b, of this graph. The vertex tuple, the
        vertex set and the index are shared with this graph."""
        sub = Graph.__new__(Graph)
        sub._vertices = self._vertices
        sub._vset = self._vset
        sub._edges = frozenset(edges)
        sub._adj = None
        sub._index = self.indexed()
        sub._walk = None
        return sub

    def _tree_walk(self) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """This graph as a rooted tree, or None if it is not a tree: each
        index's parent (the root its own parent) and depth over the sorted
        index, as tuples. A breadth-first walk from index 0 over the edges
        as index pairs finds them the first time; they are kept once it
        reaches every vertex, and a graph with n-1 edges is a tree exactly
        then. Later calls read them, whichever walk filled them (see
        HostTree._from_parents)."""
        walk = self._walk
        if walk is None and len(self._edges) == len(self._vertices) - 1:
            walk = self._walk = _walk_tree(self)
        return walk

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vset == other._vset and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vset, self._edges))

    def __repr__(self) -> str:
        return f"Graph({len(self._vertices)} vertices, {len(self._edges)} edges)"


@dataclass(frozen=True)
class Matching:
    """A set of edges with pairwise distinct endpoints."""

    edges: FrozenSet[Edge]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(edge(u, v) for u, v in self.edges))
        seen = set()
        for u, v in self.edges:
            if u in seen or v in seen:
                raise ValueError(f"edges share endpoint at {u!r} or {v!r}")
            seen.add(u)
            seen.add(v)

    def __len__(self) -> int:
        return len(self.edges)


def _walk_tree(t: Graph) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The walk of Graph._tree_walk, or None when it misses a vertex."""
    vertices, index = t.indexed()
    n = len(vertices)
    nbrs: List[List[int]] = [[] for _ in range(n)]
    for a, b in t.edges:
        i, j = index[a], index[b]
        nbrs[i].append(j)
        nbrs[j].append(i)
    parent = [-1] * n
    depth = [0] * n
    parent[0] = 0
    order = [0]
    append = order.append
    for x in order:
        d = depth[x] + 1
        for y in nbrs[x]:
            if parent[y] < 0:
                parent[y] = x
                depth[y] = d
                append(y)
    if len(order) != n:
        return None
    return tuple(parent), tuple(depth)


def component_in(g: Graph, nodes: AbstractSet[Vertex],
                 start: Vertex) -> Dict[Vertex, Vertex]:
    """The vertices of nodes that start reaches in the subgraph of g induced
    on nodes, by breadth-first search with neighbours in sorted order: a
    dict in discovery order that maps each vertex to the vertex it was
    reached from, start to itself. start must be one of nodes. No subgraph
    is built."""
    pred = {start: start}
    order = [start]
    for x in order:
        for y in g.neighbors(x):
            if y in nodes and y not in pred:
                pred[y] = x
                order.append(y)
    return pred


def connected_in(g: Graph, nodes: AbstractSet[Vertex]) -> bool:
    """True iff the non-empty vertex set nodes induces a connected subgraph of g."""
    return len(component_in(g, nodes, next(iter(nodes)))) == len(nodes)


def is_connected(g: Graph) -> bool:
    """True iff g has exactly one connected component (empty graph: false)."""
    return len(g) > 0 and connected_in(g, g.vertex_set)


def is_tree(g: Graph) -> bool:
    return is_connected(g) and len(g.edges) == len(g) - 1


def is_spanning_tree(g: Graph, t: Graph) -> bool:
    """True iff t is a tree on exactly V(g) using only edges of g."""
    return (t.vertex_set == g.vertex_set and t.edges <= g.edges and is_tree(t))


@dataclass(frozen=True)
class Cycle:
    """A cycle given by its vertex set and edge set."""

    vertices: FrozenSet[Vertex]
    edges: FrozenSet[Edge]


class HostTree:
    """A spanning tree t of a graph g, checked on every construction and
    indexed for paths.

    Construction checks that t spans g (the same vertex set, edges of g)
    and reads t's kept walk (Graph._tree_walk), which refuses a t that is
    not a tree: each index's parent and depth over g's shared index
    (vertices in sorted order, and index), which t's own index equals. The
    walk is made once per tree Graph, so a tree checked again, as
    verify_certificate checks a certificate's host, is not walked again.
    Two walkers read the tree without re-checking it. _below climbs from
    both ends of a path to their common ancestor, in time linear in the
    path's length; the certificates read paths from it, and _edges names
    their edges for cycle. path_row gives the paths from every index to
    one index as bitmasks over the same index, for the decider, from
    neighbour lists it builds on first use.

    Any vertex may be the root, which is its own parent: index 0 for a
    walk made here, g.vertices[0] for a tree drawn by the sampler (see
    _from_parents). No query reads which vertex it is.
    """

    __slots__ = ("graph", "tree", "vertices", "index", "_nbrs", "_parent",
                 "_depth")

    def __init__(self, g: Graph, t: Graph):
        if ((t.vertex_set is not g.vertex_set and t.vertex_set != g.vertex_set)
                or not t.edges <= g.edges):
            raise ValueError("host is not a spanning tree of g")
        walk = t._tree_walk()
        if walk is None:
            raise ValueError("host is not a spanning tree of g")
        self.graph = g
        self.tree = t
        self.vertices, self.index = g.indexed()
        self._nbrs = None
        self._parent, self._depth = walk

    @classmethod
    def _from_parents(cls, g: Graph, t: Graph, parent: List[int],
                      depth: List[int]) -> "HostTree":
        """The HostTree of t from its parent and depth lists over g's index,
        unchecked: the caller built t as a spanning tree of g from
        _spanning_subgraph, and parent and depth from the same edges, the
        root its own parent. They become t's kept walk, so HostTree(g, t)
        reads them too."""
        host = cls.__new__(cls)
        host.graph = g
        host.tree = t
        host.vertices, host.index = g.indexed()
        host._nbrs = None
        host._parent, host._depth = t._walk = (tuple(parent), tuple(depth))
        return host

    def _below(self, i: int, j: int) -> Tuple[Set[int], int]:
        """The tree path between indices i and j as the set of its indices
        below its top (the common ancestor), each of which names its parent
        edge, and that top."""
        depth, parent = self._depth, self._parent
        below = set()
        while depth[i] > depth[j]:
            below.add(i)
            i = parent[i]
        while depth[j] > depth[i]:
            below.add(j)
            j = parent[j]
        while i != j:
            below.add(i)
            below.add(j)
            i = parent[i]
            j = parent[j]
        return below, i

    def _edges(self, below: AbstractSet[int]) -> Set[Edge]:
        """The canonical edges that the indices below name, each the edge
        to its parent. The index is sorted, so the lower index names the
        lower end."""
        vertices, parent = self.vertices, self._parent
        return {(vertices[x], vertices[parent[x]]) if x < parent[x]
                else (vertices[parent[x]], vertices[x]) for x in below}

    def path_row(self, j: int) -> List[int]:
        """The tree paths from every index to index j as bitmasks over
        indices: bit y of row[x] is set iff vertices[y] is on the path from
        vertices[x] to vertices[j]."""
        nbrs = self._nbrs
        if nbrs is None:
            nbrs = self._nbrs = [[] for _ in self._parent]
            for x, p in enumerate(self._parent):
                if p != x:
                    nbrs[x].append(p)
                    nbrs[p].append(x)
        row = [0] * len(nbrs)
        row[j] = 1 << j
        order = [j]
        for x in order:
            for y in nbrs[x]:
                if not row[y]:
                    row[y] = row[x] | 1 << y
                    order.append(y)
        return row

    def _row_into(self, rows: List, j: int) -> List[int]:
        """path_row(j), stored in rows[j]. When rows already holds the row
        of a tree neighbour p of j, row j is read off it: the path from x
        to p passes through j iff x is on j's side of the edge jp, and then
        the path to j is that path less p; otherwise it is that path plus
        j."""
        nbrs = self._nbrs
        if nbrs is not None:
            bit = 1 << j
            for p in nbrs[j]:
                near = rows[p]
                if near is not None:
                    pbit = 1 << p
                    row = rows[j] = [y ^ pbit if y & bit else y | bit
                                     for y in near]
                    return row
        row = rows[j] = self.path_row(j)
        return row

    def cycle(self, e) -> Cycle:
        """The unique cycle closed by the non-tree edge e of g."""
        u, v = edge(*e)
        if (u, v) not in self.graph.edges:
            raise ValueError(f"{(u, v)!r} is not an edge of g")
        if (u, v) in self.tree.edges:
            raise ValueError(f"{(u, v)!r} is a tree edge")
        vertices = self.vertices
        below, top = self._below(self.index[u], self.index[v])
        edges = self._edges(below)
        edges.add((u, v))
        return Cycle(frozenset([vertices[x] for x in below] + [vertices[top]]),
                     frozenset(edges))


def path_graph(n: int, prefix: str = "p") -> Graph:
    """The canonical n-vertex path p00 - p01 - ... (zero-padded ids)."""
    if n < 1:
        raise ValueError("need n >= 1")
    width = max(2, len(str(n - 1)))
    vs = [f"{prefix}{i:0{width}d}" for i in range(n)]
    return Graph(vs, zip(vs, vs[1:]))


def cycle_graph(n: int, prefix: str = "c") -> Graph:
    if n < 3:
        raise ValueError("need n >= 3")
    width = max(2, len(str(n - 1)))
    vs = [f"{prefix}{i:0{width}d}" for i in range(n)]
    return Graph(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])


def complete_graph(n: int, prefix: str = "k") -> Graph:
    if n < 1:
        raise ValueError("need n >= 1")
    width = max(2, len(str(n - 1)))
    vs = [f"{prefix}{i:0{width}d}" for i in range(n)]
    return Graph(vs, [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)])
