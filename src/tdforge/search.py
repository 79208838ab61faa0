"""Exact search engines.

Spanning-tree enumeration, counting, and uniform sampling; an exact decider
for width-budgeted (optionally anchored) decompositions on a fixed host
tree; and exact treewidth at desk scale.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .decomposition import TreeDecomposition, validate
from .errors import CapExceeded
from .graphs import Graph, HostTree, component_in, is_connected

SAT = "SAT"
UNSAT = "UNSAT"
BOUND = "bound"    # answered by minor_min_width, without search
SEARCH = "search"


@dataclass(frozen=True)
class DeciderResult:
    status: str
    witness: Optional[TreeDecomposition]
    budget: int
    anchored: bool
    nodes: int
    seconds: float
    source: str  # BOUND or SEARCH: where the answer came from
    # branches the look-ahead cut, by rule (see min_width_on_tree)
    pruned_no_room: int
    pruned_path: int
    pruned_meet: int
    # meeting nodes skipped because a lower one dominates them (same
    # docstring)
    pruned_dominated: int

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


# ------------------------------------------------------- spanning trees

def enumerate_spanning_trees(g: Graph) -> Iterator[Graph]:
    """Stream every spanning tree of g exactly once, deterministically.

    Branches on including or excluding each edge in sorted order, include
    first; the exclude branch is taken only when the remaining edges can
    still connect the graph, so no dead subtree is ever entered, and an
    include branch always completes. The search runs from an explicit
    stack of the edges it included, each with the union-find link it made:
    it descends by including every edge that joins two components until
    n-1 are chosen, yields that tree, and backtracks by undoing the last
    inclusion and taking its exclude branch if it can. Trees are built
    without checks from g's own edges, and lazily: each is yielded from
    the one loop, whatever the depth.
    """
    if not is_connected(g):
        raise ValueError("need a connected graph")
    n = len(g)
    index = g.indexed()[1]
    edges = sorted(g.edges)
    pairs = [(index[a], index[b]) for a, b in edges]
    m = len(edges)
    parent = list(range(n))

    def connectable(start: int, merges_left: int) -> bool:
        # merges_left >= 1 edges of start..m-1 must join components
        p2 = parent.copy()
        for j in range(start, m):
            ra, rb = pairs[j]
            while p2[ra] != ra:
                ra = p2[ra]
            while p2[rb] != rb:
                rb = p2[rb]
            if ra != rb:
                p2[ra] = rb
                merges_left -= 1
                if merges_left == 0:
                    return True
        return False

    chosen: List = []
    included: List[Tuple[int, int]] = []  # (edge position, root it linked)
    i = 0
    while True:
        for i in range(i, m):
            if len(chosen) == n - 1:
                break
            ra, rb = pairs[i]
            while parent[ra] != ra:
                ra = parent[ra]
            while parent[rb] != rb:
                rb = parent[rb]
            if ra != rb:
                parent[ra] = rb
                chosen.append(edges[i])
                included.append((i, ra))
        yield g._spanning_subgraph(chosen)
        while included:
            j, ra = included.pop()
            chosen.pop()
            parent[ra] = ra
            # exclude edge j: the edges after it must still make the
            # n-1-len(chosen) >= 1 merges left
            i = j + 1
            left = n - 1 - len(chosen)
            if m - i >= left and connectable(i, left):
                break
        else:
            return


def _det_bareiss(mat: List[List[int]]) -> int:
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk = m[k][k]
        for i in range(k + 1, n):
            row = m[i]
            rik = row[k]
            base = m[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - rik * base[j]) // prev
            row[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def count_spanning_trees(g: Graph) -> int:
    """Exact spanning-tree count via an integer Laplacian-minor determinant,
    over the vertices in g.vertices order."""
    if not is_connected(g):
        raise ValueError("need a connected graph")
    verts = g.vertices
    if len(verts) == 1:
        return 1
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[0] * (n - 1) for _ in range(n - 1)]
    for a, b in g.edges:
        ia, ib = index[a], index[b]
        if ia > 0:
            lap[ia - 1][ia - 1] += 1
        if ib > 0:
            lap[ib - 1][ib - 1] += 1
        if ia > 0 and ib > 0:
            lap[ia - 1][ib - 1] -= 1
            lap[ib - 1][ia - 1] -= 1
    return _det_bareiss(lap)


def _wilson(g: Graph) -> Callable[[random.Random], HostTree]:
    """A sampler of uniformly random spanning trees of g (Wilson's
    loop-erased random walk), each drawn as a HostTree; g is checked to be
    connected once for all the sampler's draws.

    The walk runs on g's shared index. It starts from g.vertices[0] and
    walks from the other vertices in g.vertices order. Each step reads the
    vertex's bit width k and its neighbour indices padded with None to 2**k
    entries, takes one getrandbits(k) and redraws on a pad, as rng.choice
    over the neighbour tuple does: so the random stream, and every tree
    drawn from it, is the one rng.choice would give. The walk's successor
    array is the tree's parent list, rooted at g.vertices[0]; depths are
    set as each loop-erased path joins the tree, and the tree's edges are
    canonical edges of g, so the HostTree is built without checks.
    """
    if not is_connected(g):
        raise ValueError("need a connected graph")
    verts, index = g.indexed()
    steps = []
    for v in verts:
        ws = [index[w] for w in g.neighbors(v)]
        k = len(ws).bit_length()
        steps.append((k, tuple(ws) + (None,) * ((1 << k) - len(ws))))
    root, *starts = [index[v] for v in g.vertices]
    n = len(verts)

    def draw(rng: random.Random) -> HostTree:
        getrandbits = rng.getrandbits
        parent = [-1] * n  # -1: not yet in the tree
        parent[root] = root
        depth = [0] * n
        nxt = [0] * n
        edges = []
        for v in starts:
            u = v
            while parent[u] < 0:
                k, row = steps[u]
                w = row[getrandbits(k)]
                while w is None:
                    w = row[getrandbits(k)]
                nxt[u] = w
                u = w
            path = []
            u = v
            while parent[u] < 0:
                w = parent[u] = nxt[u]
                path.append(u)
                # sorted index: the smaller index names the smaller vertex
                edges.append((verts[u], verts[w]) if u < w
                             else (verts[w], verts[u]))
                u = w
            d = depth[u] + len(path)
            for x in path:
                depth[x] = d
                d -= 1
        return HostTree._from_parents(g, g._spanning_subgraph(edges), parent,
                                      depth)

    return draw


def sample_spanning_trees(g: Graph, count: int,
                          seed: int = 0) -> Iterator[HostTree]:
    """count uniformly random spanning trees drawn lazily from one seeded
    stream random.Random(seed), each as the HostTree the walk builds (its
    .tree is the Graph). A negative count or a disconnected g raises here,
    before anything is drawn; g is checked and indexed once for the whole
    stream."""
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    draw = _wilson(g)
    rng = random.Random(seed)
    return (draw(rng) for _ in range(count))


# -------------------------------------------------------------- decider

def minor_min_width(g: Graph) -> int:
    """A lower bound on the treewidth of g: its minor-min-width (Bodlaender
    and Koster, "Treewidth computations II. Lower bounds", 2011).

    Repeatedly contracts a vertex of minimum degree into its neighbour of
    minimum degree (an isolated vertex is deleted; ties go to the smaller
    name) and returns the largest minimum degree seen.

    Sound as a decider bound: every intermediate graph is a minor of g; a
    graph's minimum degree is at most its treewidth (in a decomposition
    with no bag inside a neighbouring one, a leaf bag holds a vertex seen
    nowhere else, and with it all of that vertex's neighbours); treewidth
    is minor-monotone; and a decomposition on any host, anchored or not,
    is a tree decomposition of g. So budget < minor_min_width(g) is UNSAT.
    """
    verts, index = g.indexed()
    # neighbours as bitmasks over the sorted index, so the lower index is
    # the smaller name and ties go to it
    adj = [0] * len(verts)
    for a, b in g.edges:
        i, j = index[a], index[b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    deg = [m.bit_count() for m in adj]
    left = list(range(len(verts)))
    best = 0
    while left:
        v = min(left, key=deg.__getitem__)
        left.remove(v)
        nbrs = adj[v]
        if deg[v] > best:
            best = deg[v]
        if not nbrs:
            continue
        u = -1
        rest = nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            if u < 0 or deg[w] < deg[u]:
                u = w
        vbit, ubit = 1 << v, 1 << u
        rest = nbrs ^ ubit
        adj[u] = adj[u] ^ vbit | rest
        deg[u] = adj[u].bit_count()
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            adj[w] = adj[w] ^ vbit | ubit
            deg[w] = adj[w].bit_count()
    return best


def min_width_on_tree(g: Graph, host: Graph, budget: int,
                      anchored: bool = False) -> DeciderResult:
    """Decide whether g has a width-<= budget decomposition on this host.

    Exact. A budget below minor_min_width(g) is answered UNSAT without
    search (source "bound"); any other budget is searched (source "search")
    edge by edge over the shared host node each edge's endpoint subtrees
    must meet, growing each subtree as the minimal one spanning its chosen
    nodes. Any satisfying assignment can be shrunk to that form (replace
    each subtree by the union of host paths from the vertex, or its first
    node, to one shared node per incident edge), so restricting the search
    loses nothing. The shared node x of an edge is tried in index order.
    Each endpoint subtree grows by its tree path to x: the path row of the
    subtree's lowest node, read at x, minus the subtree (a tree has one
    path from a node to a subtree; an empty subtree grows to x alone). The
    subtrees are disjoint, so every node of a growth gains a guest and a
    node of both gains two. x is a candidate iff neither growth holds a
    full node and their overlap holds no node without room for two; any
    other x would overfill a node, so only placements that must fail are
    skipped. Loads are kept bit-sliced: one mask per count k of the nodes
    holding at least k guests.

    After each placement, and once before the first, a look-ahead scans the
    edges still pending (endpoint subtrees disjoint) and cuts the branch by
    any of three rules; the result counts the cuts of each.
    - No room (pruned_no_room): no node has room for two more guests, and
      neither endpoint subtree has a node with room for one. The subtrees
      must meet, so some node gains a guest: a node outside both would
      gain two, a node inside one would gain the other.
    - Path (pruned_path): both subtrees are non-empty and a host node
      strictly between them is full. The path row of either subtree, read
      at any node of the other, covers the host path P between them: a
      tree path leaves one subtree once and enters the other once. So P
      minus both subtrees is its interior I, and P's end nodes p (in A =
      sub[a]) and q (in B = sub[b]) are among its nodes in A or B.
    - Meet (pruned_meet): both subtrees are non-empty, no node of I has
      room for two, and every node of the row in A or B is full, so p and
      q are.
    All three are sound. Along a branch subtrees only grow and loads only
    rise. The final subtrees A' and B' of a and b are connected and meet,
    so their union contains all of P, and every node of I, being in
    neither yet, must take a or b as a new guest, which a full node cannot.
    Moreover, for a node z of both, A' holds the tree path from p to z and
    B' the one from q to z; these share the node m where z's path meets P,
    so m is in A' and B'. Either m = p, which gains b; or m = q, which
    gains a; or m is in I and gains both. A full p or q gains nothing and
    a node of I without room for two cannot gain both, so the meet rule
    leaves no m. A cut therefore removes only branches with no solution,
    and the search order is unchanged. The path and meet rules both need
    a full node on P, so an edge whose row holds none is passed over, and
    the scan is skipped while no node is full and some has room for two.

    Dominance (pruned_dominated; Jouglet and Carlier, "Dominance rules in
    combinatorial optimization problems", 2011): a candidate x is skipped
    when the subtrees of a and b, grown to x, share a node y below x. A
    grown subtree is the old one plus its tree path to x, so y lies in A =
    sub[a] or on A's path to x, and in B = sub[b] or on B's path to x. The
    path from A to y is then part of the path from A to x (empty if y is
    in A), and likewise for B: growing to y adds a subset of what growing
    to x adds, every subtree and load of y's branch is at most that of
    x's, and a solution containing x's branch contains y's. y came before
    x at this node and was handled in one of three ways, each leaving x's
    branch without a solution. It was tried and failed: the search is
    complete from any state a solution contains (at each edge, the lowest
    meeting node whose branch a solution contains passes the room test
    and the look-ahead, is not skipped, being lowest, and is tried). It was full or failed
    the room test, which is monotone in the growths, so x fails it too.
    Or it was skipped for a lower node that dominates it, and dominance
    is transitive. An empty subtree grows to {x} alone, and then nothing
    is skipped. Nodes are tried in the same order and only branches with no
    solution are skipped, so every status and witness is unchanged.
    """
    return _decide(HostTree(g, host), budget, anchored, minor_min_width(g))


def _decide(tree: HostTree, budget: int, anchored: bool,
            bound: int) -> DeciderResult:
    """min_width_on_tree on a checked host, given a lower bound on the
    treewidth of tree.graph; bound 0 runs the raw search."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    t0 = time.perf_counter()
    if budget < bound:
        return DeciderResult(UNSAT, None, budget, anchored, 0,
                             time.perf_counter() - t0, BOUND, 0, 0, 0, 0)
    g, host = tree.graph, tree.tree
    verts = tree.vertices
    n = len(verts)
    index = tree.index
    # A node holds at most n guests, so every budget from n-1 up runs one
    # search and cap stops at n. A node full at cap n holds every vertex,
    # so it is in every subtree and no growth, and none exists while an
    # edge is pending; one without room for two is in one of any two
    # disjoint subtrees. No room test or look-ahead rule can fire.
    cap = min(budget, n - 1) + 1

    deg = {v: g.degree(v) for v in verts}
    edge_order = sorted(g.edges, key=lambda e: (-(deg[e[0]] + deg[e[1]]), e))
    epairs = [(index[a], index[b]) for a, b in edge_order]
    m = len(epairs)
    # rows[r]: the host paths to node r, built the first time r is the
    # lowest node of a subtree; growth and candidates are read from them.
    rows: List[Optional[List[int]]] = [None] * n
    row_into = tree._row_into

    # The host spans g, so g is connected and the search gives a subtree to
    # every vertex with an edge. An anchored vertex starts in its own node,
    # and so does the lone vertex of a one-vertex g.
    own = anchored or n == 1
    sub = [1 << i if own else 0 for i in range(n)]
    full = (1 << n) - 1
    # levels[k]: the nodes holding at least k guests, for k = 0..cap; so
    # levels[cap] has no room for one more and levels[cap - 1] none for two
    levels = [full, full] + [0] * (cap - 1) if own else [full] + [0] * cap
    nodes = pruned_no_room = pruned_path = pruned_meet = pruned_dominated = 0

    def future_ok(start: int, levels: List[int]) -> bool:
        nonlocal pruned_no_room, pruned_path, pruned_meet
        fulls, tight = levels[cap], levels[cap - 1]
        roomy = tight != full  # some node has room for two
        if roomy and not fulls:  # no rule can fire
            return True
        for j in range(start, m):
            a, b = epairs[j]
            sa, sb = sub[a], sub[b]
            if sa & sb:
                continue
            if not (roomy or (sa | sb) & ~fulls):
                pruned_no_room += 1
                return False
            if sa and sb:
                r = (sa & -sa).bit_length() - 1
                row = rows[r]
                if row is None:
                    row = row_into(rows, r)
                path = row[(sb & -sb).bit_length() - 1]
                # both rules need a full node on the path
                if path & fulls:
                    ends = sa | sb
                    if path & fulls & ~ends:
                        pruned_path += 1
                        return False
                    if not (path & ~(ends | tight) or path & ends & ~fulls):
                        pruned_meet += 1
                        return False
        return True

    def finish() -> TreeDecomposition:
        bags: List[List] = [[] for _ in verts]
        for v, s in zip(verts, sub):
            while s:
                low = s & -s
                bags[low.bit_length() - 1].append(v)
                s ^= low
        td = TreeDecomposition(host, dict(zip(verts, bags)))
        # kept by td, so a caller's validate or is_anchored reads it
        report = validate(g, td)
        assert report and td.width() <= budget
        assert report.anchored or not anchored
        return td

    def rec(j: int, levels: List[int]) -> Optional[TreeDecomposition]:
        nonlocal nodes, pruned_dominated
        while j < m and sub[epairs[j][0]] & sub[epairs[j][1]]:
            j += 1
        if j == m:
            return finish()
        a, b = epairs[j]
        sa, sb = sub[a], sub[b]
        if sa:
            r = (sa & -sa).bit_length() - 1
            row_a = rows[r]
            if row_a is None:
                row_a = row_into(rows, r)
        if sb:
            r = (sb & -sb).bit_length() - 1
            row_b = rows[r]
            if row_b is None:
                row_b = row_into(rows, r)
        fulls, tight = levels[cap], levels[cap - 1]
        xs = full ^ fulls
        while xs:
            bit = xs & -xs
            xs ^= bit
            x = bit.bit_length() - 1
            # each subtree grows by its path to x (x alone if it is empty);
            # sa and sb are disjoint, so every node on a new path gains a
            # guest, and a node on both gains two
            ga = row_a[x] & ~sa if sa else bit
            gb = row_b[x] & ~sb if sb else bit
            if (ga | gb) & fulls or ga & gb & tight:
                continue
            if (sa | ga) & (sb | gb) & (bit - 1):  # a lower node dominates x
                pruned_dominated += 1
                continue
            nodes += 1
            one, two = ga ^ gb, ga & gb
            grown = [full, levels[1] | ga | gb]
            for k in range(2, cap + 1):
                grown.append(levels[k] | levels[k - 1] & one
                             | levels[k - 2] & two)
            sub[a] = sa | ga
            sub[b] = sb | gb
            if future_ok(j + 1, grown):
                witness = rec(j + 1, grown)
                if witness is not None:
                    return witness
            sub[a], sub[b] = sa, sb
        return None

    witness = rec(0, levels) if future_ok(0, levels) else None
    return DeciderResult(UNSAT if witness is None else SAT, witness, budget,
                         anchored, nodes, time.perf_counter() - t0, SEARCH,
                         pruned_no_room, pruned_path, pruned_meet,
                         pruned_dominated)


def decide_over_trees(g: Graph, trees: Iterable, budget: int,
                      anchored: bool) -> Iterator[DeciderResult]:
    """Run the decider over many host trees of g, lazily and in order.

    Each tree is a spanning tree of g, as a Graph or as a HostTree over g
    that the caller has already checked. minor_min_width(g) is computed
    once per sweep. Below it every host is still checked, but nothing is
    searched. Each result keeps its witness.
    """
    bound = minor_min_width(g)
    for t in trees:
        if not isinstance(t, HostTree):
            t = HostTree(g, t)
        elif t.graph is not g and t.graph != g:
            raise ValueError("host tree is over another graph")
        yield _decide(t, budget, anchored, bound)


def min_anchored_spanning_width(g: Graph, cap_vertices: int = 12
                                ) -> Tuple[int, Graph, TreeDecomposition]:
    """Minimum anchored width over every spanning tree of g, with a witness.

    Exhaustive over spanning trees, so guarded by a vertex cap. Width
    len(g) - 1 fits on every host (every bag holds every vertex), so each
    tree descends from one below the best width so far while it stays SAT.
    Enumeration stops once a tree attains minor_min_width(g), since no tree
    can do better.
    """
    if not is_connected(g):
        raise ValueError("need a connected graph")
    if len(g) > cap_vertices:
        raise CapExceeded(len(g), cap_vertices, "min anchored spanning width")
    bound = minor_min_width(g)
    best = len(g)
    best_host: Optional[Graph] = None
    best_witness: Optional[TreeDecomposition] = None
    for t in enumerate_spanning_trees(g):
        if best == bound:
            break
        tree = HostTree(g, t)
        while best > bound:
            res = _decide(tree, best - 1, True, bound)
            if not res.is_sat:
                break
            best, best_host, best_witness = best - 1, t, res.witness
    return best, best_host, best_witness


# ------------------------------------------------------------ treewidth

def _is_forest(g: Graph) -> bool:
    # acyclic iff every component ships one edge fewer than its vertices
    seen = set()
    components = 0
    for start in g.vertices:
        if start not in seen:
            components += 1
            seen.update(component_in(g, g.vertex_set, start))
    return len(g.edges) == len(g) - components


def _reduces_to_empty(g: Graph) -> bool:
    """Degree-<=1 deletion plus degree-2 suppression empties exactly the
    graphs of treewidth <= 2."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    work = set(adj)
    while work:
        v = work.pop()
        if v not in adj:
            continue
        nbrs = adj[v]
        if len(nbrs) > 2:
            continue
        if len(nbrs) == 2:
            a, b = sorted(nbrs)
            adj[a].add(b)
            adj[b].add(a)
        for w in nbrs:
            adj[w].discard(v)
            if len(adj[w]) <= 2:
                work.add(w)
        del adj[v]
    return not adj


def _treewidth_dp(g: Graph) -> int:
    index = g.indexed()[1]
    n = len(index)
    adj = [0] * n
    for a, b in g.edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    full = (1 << n) - 1
    f = [0] * (1 << n)
    f[0] = -1
    for s in range(1, 1 << n):
        best = n
        t = s
        while t:
            vb = t & -t
            t ^= vb
            prev = f[s ^ vb]
            if prev >= best:
                continue
            comp = vb
            nb = 0
            while True:
                nb = 0
                c = comp
                while c:
                    cb = c & -c
                    nb |= adj[cb.bit_length() - 1]
                    c ^= cb
                grown = comp | (nb & s)
                if grown == comp:
                    break
                comp = grown
            q = bin(nb & ~s).count("1")
            cand = prev if prev > q else q
            if cand < best:
                best = cand
        f[s] = best
    return f[full]


def exact_treewidth(g: Graph, cap: int = 14) -> int:
    """Exact treewidth: forest and treewidth-2 recognizers handle any size,
    the general elimination-order search is capped."""
    if not g.edges:
        return 0
    if _is_forest(g):
        return 1
    if _reduces_to_empty(g):
        return 2
    if len(g) > cap:
        raise CapExceeded(len(g), cap, "exact treewidth")
    return _treewidth_dp(g)
