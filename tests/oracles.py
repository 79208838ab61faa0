"""Independent brute-force oracles the fast engines are tested against.

Everything here trades speed for obviousness: subtree-product search over
explicitly enumerated candidates, a flood for the decider's candidates,
subset enumeration for counting, permutation search for treewidth and
name-keyed sets for its minor-min-width bound,
rng.choice for the spanning-tree walk, relabelling for the reflected
tree, a level-by-level breadth-first search for components, the
connectivity and spanning-tree predicates built on it, a validator that
searches every subtree with it, and name-set recursion over that search
for the certificate. from_subtrees
builds a decomposition from explicit subtrees, checking each one with
that search; the naive decider builds its candidates with it, and tests
use it to write decompositions by their subtrees. None of it shares code
with the engines under test beyond the basic graph, decomposition and
reflected-tree types and the validator.
sample_spanning_tree alone is no oracle: it is one draw of the package's
own sampler, kept here because only tests draw single trees.
"""

import itertools
import random
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

from tdforge.constructions import ReflectedTree
from tdforge.decomposition import (DISCONNECTED_SUBTREE, EMPTY_SUBTREE,
                                   UNCOVERED_EDGE, TreeDecomposition,
                                   ValidationReport, Violation, is_anchored,
                                   validate)
from tdforge.errors import StructureViolation
from tdforge.graphs import Edge, Graph, Vertex, edge
from tdforge.search import _wilson


def enumerate_induced_subtrees(t: Graph, anchor: str) -> Iterator[FrozenSet[str]]:
    """Yield every vertex set containing anchor that induces a subtree of
    the tree t, each exactly once, in a deterministic order: branch on the
    smallest frontier vertex, taking it or banning it. On an m-vertex path
    anchored at an end this emits exactly m sets."""
    if anchor not in t:
        raise ValueError(f"{anchor!r} not in the tree")

    def rec(current: FrozenSet[str], banned: FrozenSet[str]):
        frontier = sorted({w for v in current for w in t.neighbors(v)}
                          - current - banned)
        if not frontier:
            yield current
            return
        c = frontier[0]
        yield from rec(current | {c}, banned)
        yield from rec(current, banned | {c})

    yield from rec(frozenset([anchor]), frozenset())


def naive_decide(g: Graph, host: Graph, budget: int, anchored: bool) -> bool:
    """Subtree-product decider: try every assignment of candidate subtrees
    vertex by vertex, pruning only with necessary conditions (per-node load
    caps, intersection with already-placed neighbours, anchoring), and
    accept only assignments the real validator passes."""
    verts = sorted(g.vertices)
    n = len(verts)
    hosts = sorted(host.vertices)
    hidx = {x: i for i, x in enumerate(hosts)}
    cap = budget + 1

    subtree_sets = sorted({s for x in host.vertices
                           for s in enumerate_induced_subtrees(host, x)},
                          key=lambda s: (len(s), sorted(s)))
    masks = []
    for s in subtree_sets:
        m = 0
        for x in s:
            m |= 1 << hidx[x]
        masks.append((m, s))

    # maximum-adjacency order: always place next the vertex with the most
    # already-placed neighbours, so candidate subtrees face every one of
    # those intersection constraints at once
    order: List[str] = []
    placed_set = set()
    while len(order) < n:
        best = min((v for v in verts if v not in placed_set),
                   key=lambda v: (-sum(1 for w in g.neighbors(v)
                                       if w in placed_set), v))
        order.append(best)
        placed_set.add(best)

    start: Dict[str, List[tuple]] = {}
    for v in order:
        vmask = 1 << hidx[v] if v in hidx else 0
        start[v] = [(m, len(s)) for m, s in masks
                    if (not anchored or m & vmask)]

    loads = [0] * len(hosts)
    state = {"free": len(hosts) * cap,  # every subtree takes >= 1 slot
             "full": 0}                 # nodes already at capacity
    chosen: Dict[str, int] = {}
    pos = {v: i for i, v in enumerate(order)}

    def rec(i: int, cand: Dict[str, List[tuple]]) -> bool:
        if i == n:
            assignment = {v: frozenset(hosts[j] for j in range(len(hosts))
                                       if chosen[v] >> j & 1)
                          for v in verts}
            td = from_subtrees(host, assignment)
            if not validate(g, td):
                return False
            if td.width() > budget:
                return False
            if anchored and not is_anchored(g, td):
                return False
            return True
        v = order[i]
        later = [w for w in g.neighbors(v) if pos[w] > i]
        full = state["full"]
        for m, size in cand[v]:
            if m & full:
                continue
            if state["free"] - size < n - i - 1:
                continue
            # forward checking: unplaced neighbours keep only candidates
            # that meet this subtree; an emptied list kills the branch
            nxt = cand
            dead = False
            for w in later:
                kept = [cs for cs in nxt[w] if cs[0] & m]
                if not kept:
                    dead = True
                    break
                if len(kept) != len(nxt[w]):
                    if nxt is cand:
                        nxt = dict(cand)
                    nxt[w] = kept
            if dead:
                continue
            chosen[v] = m
            mm = m
            while mm:
                b = mm & -mm
                j = b.bit_length() - 1
                loads[j] += 1
                if loads[j] == cap:
                    state["full"] |= b
                mm ^= b
            state["free"] -= size
            if rec(i + 1, nxt):
                return True
            state["free"] += size
            mm = m
            while mm:
                b = mm & -mm
                j = b.bit_length() - 1
                loads[j] -= 1
                if loads[j] == cap - 1:
                    state["full"] &= ~b
                mm ^= b
            del chosen[v]
        return False

    return rec(0, start)


def bfs_path(g: Graph, a: str, b: str) -> List[str]:
    """A shortest path from a to b in g by breadth-first search, as a vertex
    list; in a tree, the unique path."""
    parent = {a: None}
    queue = [a]
    for v in queue:
        if v == b:
            break
        for w in g.neighbors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path[::-1]


def bfs_component(g: Graph, nodes, start: str) -> Dict[str, int]:
    """The vertices of nodes that start reaches in the subgraph of g
    induced on nodes, each mapped to its distance from start there, by a
    breadth-first search that expands one whole level at a time."""
    dist = {start: 0}
    level = [start]
    while level:
        nxt = []
        for v in level:
            for w in g.neighbors(v):
                if w in nodes and w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        level = nxt
    return dist


def bfs_connected(g: Graph) -> bool:
    """Whether g has a vertex and bfs_component reaches every vertex from
    the first."""
    return bool(g.vertices) and len(
        bfs_component(g, g.vertex_set, g.vertices[0])) == len(g)


def spans_as_tree(g: Graph, t: Graph) -> bool:
    """Whether t is a spanning tree of g: the same vertices, edges of g
    only, one edge fewer than vertices, and connected."""
    return (t.vertex_set == g.vertex_set and t.edges <= g.edges
            and len(t.edges) == len(t) - 1 and bfs_connected(t))


def bfs_validate(g: Graph, td: TreeDecomposition) -> ValidationReport:
    """The report validate gives, built from the definitions: each
    vertex's subtree is listed bag by bag and searched with bfs_component,
    each edge's endpoint subtrees are intersected, and anchoring is
    spans_as_tree plus every vertex in its own bag."""
    bags = td.bags
    stray = set().union(*bags.values()) - g.vertex_set
    if stray:
        raise ValueError(f"bags mention non-vertices of g: {sorted(stray)!r}")
    subtrees = {v: {x for x, b in bags.items() if v in b} for v in g.vertices}
    violations = []
    for v in g.vertices:
        nodes = subtrees[v]
        if not nodes:
            violations.append(Violation(EMPTY_SUBTREE, v))
        elif len(bfs_component(td.host, nodes, min(nodes))) != len(nodes):
            violations.append(Violation(DISCONNECTED_SUBTREE, v))
    for e in sorted(g.edges):
        if not subtrees[e[0]] & subtrees[e[1]]:
            violations.append(Violation(UNCOVERED_EDGE, e))
    anchored = (not violations and spans_as_tree(g, td.host)
                and all(v in bags[v] for v in g.vertices))
    return ValidationReport(not violations, tuple(violations), anchored)


def from_subtrees(host: Graph, assignment: Mapping[Vertex, Iterable[Vertex]]
                  ) -> TreeDecomposition:
    """The decomposition on host whose subtrees are exactly the given sets.

    Each assigned set must be a non-empty set of host nodes that
    bfs_component finds connected, and host must be a tree
    (TreeDecomposition checks it)."""
    bags: Dict[Vertex, set] = {x: set() for x in host.vertices}
    for v, nodes in assignment.items():
        ns = set(nodes)
        if not ns:
            raise ValueError(f"empty subtree assigned to {v!r}")
        stray = ns - host.vertex_set
        if stray:
            raise ValueError(f"subtree of {v!r} uses non-host nodes: "
                             f"{sorted(stray)!r}")
        if len(bfs_component(host, ns, next(iter(ns)))) != len(ns):
            raise ValueError(f"subtree of {v!r} is disconnected")
        for x in ns:
            bags[x].add(v)
    return TreeDecomposition(host, bags)


def path_edges(path: List[Vertex]) -> FrozenSet[Edge]:
    """Edge set of a vertex path."""
    return frozenset(edge(u, v) for u, v in zip(path, path[1:]))


def flood_reach(adj: List[int], s: int, room: int) -> int:
    """The host nodes in s or joined to it through room, as a bitmask over
    indices; adj[x] is the bitmask of x's tree neighbours and s a non-empty
    subtree. A node outside s is in the answer iff every node of its tree
    path to s, s excluded, is in room: the flood leaves s and steps only
    onto room nodes, and a tree has one path from a node to a subtree.
    The reference for the decider's path-row candidate test."""
    reach = frontier = s
    while frontier:
        grown = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            grown |= adj[bit.bit_length() - 1]
        frontier = grown & room & ~reach
        reach |= frontier
    return reach


def brute_count_spanning_trees(g: Graph) -> int:
    """Count spanning trees by testing every (n-1)-edge subset."""
    n = len(g)
    return sum(1 for comb in itertools.combinations(sorted(g.edges), n - 1)
               if spans_as_tree(g, Graph(g.vertices, comb)))


def minor_min_width_by_sets(g: Graph) -> int:
    """minor_min_width on name-keyed neighbour sets: contract a vertex of
    least degree into its neighbour of least degree, ties to the smaller
    name, and keep the largest least degree seen."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    best = 0
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        nbrs = adj.pop(v)
        best = max(best, len(nbrs))
        if not nbrs:
            continue
        u = min(nbrs, key=lambda x: (len(adj[x]), x))
        for w in nbrs:
            adj[w].discard(v)
            if w != u:
                adj[w].add(u)
                adj[u].add(w)
    return best


def brute_treewidth(g: Graph) -> int:
    """Treewidth as the best elimination order, tried exhaustively."""
    verts = sorted(g.vertices)
    best = len(verts)
    for perm in itertools.permutations(verts):
        adj = {v: set(g.neighbors(v)) for v in verts}
        worst = 0
        for v in perm:
            nbrs = adj.pop(v)
            worst = max(worst, len(nbrs))
            for a in nbrs:
                adj[a].discard(v)
                adj[a].update(nbrs - {a})
        best = min(best, worst)
    return best


def naive_threshold(g: Graph, host: Graph, top_budget: int,
                    anchored: bool) -> int:
    """Least budget in 0..top_budget that naive_decide accepts, else
    top_budget + 1, found by deciding the budgets upward from 0: one SAT
    call at most, and an UNSAT call for each budget below the answer."""
    for b in range(top_budget + 1):
        if naive_decide(g, host, b, anchored):
            return b
    return top_budget + 1


def choice_spanning_tree(g: Graph, rng: random.Random) -> Graph:
    """One uniformly random spanning tree (loop-erased random walk) over
    dicts and sets, each step an rng.choice over the neighbour tuple: the
    reference for the stream the indexed sampler must draw."""
    if not bfs_connected(g):
        raise ValueError("need a connected graph")
    verts = g.vertices
    in_tree = {verts[0]}
    parent: Dict[Vertex, Vertex] = {}
    for v in verts[1:]:
        if v in in_tree:
            continue
        nxt: Dict[Vertex, Vertex] = {}
        u = v
        while u not in in_tree:
            nxt[u] = rng.choice(g.neighbors(u))
            u = nxt[u]
        u = v
        while u not in in_tree:
            in_tree.add(u)
            parent[u] = nxt[u]
            u = nxt[u]
    return Graph(verts, [(c, p) for c, p in parent.items()])


def sample_spanning_tree(g: Graph, rng: random.Random) -> Graph:
    """One draw of the package's sampler on rng, as a Graph: the single
    tree the tests compare with choice_spanning_tree, or use as a host."""
    return _wilson(g)(rng).tree


def relabel(g: Graph, fn) -> Graph:
    """New graph with every vertex v renamed to fn(v); fn must be injective."""
    return Graph([fn(v) for v in g.vertices],
                 [(fn(u), fn(v)) for u, v in g.edges])


def _prefixed(rt: ReflectedTree, prefix: str) -> ReflectedTree:
    fn = lambda v: prefix + v
    copies = None
    if rt.copies is not None:
        copies = (_prefixed(rt.copies[0], prefix), _prefixed(rt.copies[1], prefix))
    return ReflectedTree(relabel(rt.graph, fn), rt.level,
                         tuple(fn(v) for v in rt.roots), copies)


def relabelled_reflected_tree(r: int) -> ReflectedTree:
    """The level-r reflected tree by the relabel recursion: build level r-1
    once, then rename every vertex of it and of each nested copy under "L."
    and under "R."."""
    if r == 1:
        return ReflectedTree(Graph(["u"]), 1, ("u",), None)
    child = relabelled_reflected_tree(r - 1)
    left = _prefixed(child, "L.")
    right = _prefixed(child, "R.")
    vertices = ["u", "v"] + list(left.graph.vertices) + list(right.graph.vertices)
    edges = list(left.graph.edges) + list(right.graph.edges)
    edges += [("u", left.roots[0]), ("u", right.roots[0]),
              ("v", left.roots[-1]), ("v", right.roots[-1])]
    return ReflectedTree(Graph(vertices, edges), r, ("u", "v"), (left, right))


def reference_matching(rt: ReflectedTree, t: Graph
                       ) -> Tuple[List[Edge], Vertex, Edge,
                                  Dict[Edge, FrozenSet[Vertex]]]:
    """The matching (base level first), hub, witness edge and cycle vertex
    sets that reflected_matching must return for the spanning tree t of
    rt, by the name-set recursion: at each level, the side (a copy with
    the roots u and v) on which t is connected is found by breadth-first
    search, the other side's two components likewise, and the crossing
    edge is the least non-tree edge of that side joining them. Cycles and
    the u-v path are breadth-first tree paths. Refuses as
    reflected_matching does."""
    if rt.level < 2:
        raise ValueError("certificates need level >= 2")
    if not spans_as_tree(rt.graph, t):
        raise ValueError("t is not a spanning tree of the reflected tree")

    def spans(nodes) -> bool:
        return len(bfs_component(t, nodes, min(nodes))) == len(nodes)

    def collect(rt: ReflectedTree) -> List[Edge]:
        if rt.level == 2:
            extra = sorted(rt.graph.edges - t.edges)
            if len(extra) != 1:
                raise StructureViolation("level 2: not one non-tree edge")
            return extra
        left, right = rt.copies
        u, v = rt.roots
        conn_left = spans(left.graph.vertex_set | {u, v})
        conn_right = spans(right.graph.vertex_set | {u, v})
        if conn_left == conn_right:
            raise StructureViolation(f"level {rt.level}: not one connected side")
        connected, other = (left, right) if conn_left else (right, left)
        side = other.graph.vertex_set | {u, v}
        comps, rest = [], set(side)
        while rest:
            comps.append(set(bfs_component(t, rest, min(rest))))
            rest -= comps[-1]
        if len(comps) != 2:
            raise StructureViolation(f"level {rt.level}: not two components")
        part = comps[0]
        candidates = [e for e in rt.graph.edges - t.edges
                      if e[0] in side and e[1] in side
                      and (e[0] in part) != (e[1] in part)]
        if not candidates:
            raise StructureViolation(f"level {rt.level}: no crossing edge")
        if not spans(connected.graph.vertex_set):
            raise StructureViolation(f"level {rt.level}: copy not spanned")
        return collect(connected) + [min(candidates)]

    matching = collect(rt)
    paths = {e: bfs_path(t, *e) for e in matching}
    common = path_edges(bfs_path(t, *rt.roots))
    for p in paths.values():
        common = common & path_edges(p)
    if not common:
        raise StructureViolation("no common edge")
    witness = min(common)
    return (matching, min(witness), witness,
            {e: frozenset(p) for e, p in paths.items()})
