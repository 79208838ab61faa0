"""Seeded random generators shared by the property and acceptance tests.

Every generator takes an explicit random.Random so corpora are frozen by
seed. Validity of generated structures is by construction and re-checked
by the library validators inside the tests that use them. Beside
random_path_decomposition is the long-path property that criterion 11
checks on its output, with the tree diameter it reads.
"""

import itertools
import random
from typing import Dict, List, Tuple

from tdforge.constructions import GadgetInstance, attach_gadgets, toy_schedule
from tdforge.decomposition import TreeDecomposition, validate
from tdforge.graphs import Graph, is_connected, path_graph
from tdforge.transforms import MinorModel
from oracles import bfs_component


def random_connected_graph(rng: random.Random, n: int, p: float,
                           prefix: str = "x") -> Graph:
    """Random n-vertex graph, resampled until connected."""
    vs = [f"{prefix}{i}" for i in range(n)]
    while True:
        es = [(a, b) for a, b in itertools.combinations(vs, 2)
              if rng.random() < p]
        g = Graph(vs, es)
        if is_connected(g):
            return g


def random_spanning_tree(rng: random.Random, g: Graph) -> Graph:
    """Random spanning tree by a shuffled greedy edge scan. Not uniform,
    which is fine: tests only need seeded diversity."""
    edges = sorted(g.edges)
    rng.shuffle(edges)
    comp = {v: v for v in g.vertices}

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    chosen = []
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[ra] = rb
            chosen.append((a, b))
    return Graph(g.vertices, chosen)


def random_tree(rng: random.Random, ids: List[str]) -> Graph:
    """Random labelled tree over the given ids (random attachment)."""
    if len(ids) == 1:
        return Graph(ids, [])
    edges = []
    for i in range(1, len(ids)):
        edges.append((ids[i], ids[rng.randrange(i)]))
    return Graph(ids, edges)


def random_model_and_td(rng: random.Random, max_n: int = 12
                        ) -> Tuple[Graph, TreeDecomposition, MinorModel]:
    """A connected graph, a valid decomposition hosted on a pattern tree,
    and a valid minor model with that pattern.

    Built pattern-first: vertices are partitioned into branch sets, each
    made connected; cross edges run only between branches that are pattern
    neighbours, so importing foreign endpoints into home bags yields a
    valid decomposition. Sometimes branch sets are then shrunk so the
    model stops covering and the caller exercises completion.
    """
    n = rng.randint(2, max_n)
    vs = [f"v{i}" for i in range(n)]
    parts = rng.randint(1, min(n, 5))
    cut = sorted(rng.sample(range(1, n), parts - 1)) if parts > 1 else []
    bounds = [0] + cut + [n]
    branches: Dict[str, List[str]] = {}
    home: Dict[str, str] = {}
    for b in range(parts):
        bid = f"b{b}"
        members = vs[bounds[b]:bounds[b + 1]]
        branches[bid] = members
        for v in members:
            home[v] = bid

    pattern = random_tree(rng, sorted(branches))
    edges = []
    for bid, members in branches.items():
        t = random_tree(rng, members)
        edges.extend(t.edges)
        for a, b in itertools.combinations(members, 2):
            if rng.random() < 0.3:
                edges.append((a, b))

    edge_map = {}
    imports: Dict[str, set] = {bid: set() for bid in branches}
    for x, y in sorted(pattern.edges):
        witness = (rng.choice(branches[x]), rng.choice(branches[y]))
        edges.append(witness)
        edge_map[(x, y)] = witness
        for a, b in itertools.combinations(branches[x] + branches[y], 2):
            if home[a] != home[b] and rng.random() < 0.15:
                edges.append((a, b))
    g = Graph(vs, edges)

    # bag per pattern node: own members plus every foreign endpoint of a
    # cross edge, imported on one side (sometimes both)
    bags = {bid: set(members) for bid, members in branches.items()}
    for a, b in sorted(g.edges):
        ha, hb = home[a], home[b]
        if ha == hb:
            continue
        if rng.random() < 0.5:
            bags[ha].add(b)
        else:
            bags[hb].add(a)
        if rng.random() < 0.2:
            bags[ha].add(b)
            bags[hb].add(a)
    td = TreeDecomposition(pattern, {x: sorted(s) for x, s in bags.items()})

    model_sets = {bid: list(members) for bid, members in branches.items()}
    if parts > 1 and rng.random() < 0.4:
        # shrink some branches so the model stops covering and the caller
        # exercises completion; witness endpoints must survive
        needed = {bid: set() for bid in branches}
        for (x, y), (a, b) in edge_map.items():
            needed[x].add(a)
            needed[y].add(b)
        for bid in sorted(branches):
            if rng.random() < 0.7:
                continue
            keep = set(needed[bid]) or {branches[bid][0]}
            for v in branches[bid]:
                if rng.random() < 0.5:
                    keep.add(v)
            model_sets[bid] = sorted(keep)
    # a spanning tree over each (possibly shrunk) branch set keeps it
    # connected in g; the new edges are intra-branch, hence still covered
    # by the home bags, so the decomposition stays valid
    extra = []
    for bid in sorted(model_sets):
        members = model_sets[bid]
        if len(members) > 1:
            extra.extend(random_tree(rng, members).edges)
    if extra:
        g = Graph(vs, list(g.edges) + extra)
        model = MinorModel(g, pattern, model_sets, edge_map)
    else:
        model = MinorModel(g, pattern, model_sets, edge_map)
    return g, td, model


def random_toy_instance(rng: random.Random, max_total: int = 14
                        ) -> GadgetInstance:
    """A small base graph with toy gadgets, total size within max_total."""
    while True:
        n = rng.randint(1, 5)
        base = random_connected_graph(rng, n, rng.choice([0.4, 0.7, 1.0]),
                                      prefix="a")
        heights = [rng.choice([1, 1, 2]) for _ in range(n)]
        widths = [rng.choice([1, 1, 2]) for _ in range(n)]
        schedule = toy_schedule(1, n, heights, widths)
        total = schedule.attachment_total(n)
        if total <= max_total:
            return attach_gadgets(base, None, schedule)


def random_path_decomposition(rng: random.Random, n: int, k: int
                              ) -> TreeDecomposition:
    """A valid width-<=k decomposition of the canonical n-vertex path on a
    randomly shaped host tree.

    Recursive interval splitting: a short interval becomes one bag; a long
    one splits, and a fresh join node with the two boundary vertices links
    the halves through nodes that already hold those vertices.
    """
    path = path_graph(n)
    verts = path.vertices
    nodes: List[str] = []
    host_edges: List[Tuple[str, str]] = []
    bags: Dict[str, List[str]] = {}

    def fresh(bag) -> str:
        node = f"t{len(nodes)}"
        nodes.append(node)
        bags[node] = sorted(bag)
        return node

    def build(lo: int, hi: int) -> Dict[str, str]:
        """Return, per interval endpoint vertex, a host node holding it."""
        size = hi - lo + 1
        if size <= k + 1:
            node = fresh(verts[lo:hi + 1])
            return {verts[lo]: node, verts[hi]: node}
        m = rng.randint(lo, hi - 1)
        left = build(lo, m)
        right = build(m + 1, hi)
        join = fresh([verts[m], verts[m + 1]])
        host_edges.append((join, left[verts[m]]))
        host_edges.append((join, right[verts[m + 1]]))
        return {verts[lo]: left[verts[lo]], verts[hi]: right[verts[hi]]}

    build(0, n - 1)
    host = Graph(nodes, host_edges)
    return TreeDecomposition(host, bags)


def tree_diameter(t: Graph) -> int:
    """Length in edges of a longest path in the tree t: a vertex farthest
    from the first vertex ends one such path, and the largest distance
    from it is the length."""
    dist = bfs_component(t, t.vertex_set, t.vertices[0])
    far = max(dist, key=dist.get)
    return max(bfs_component(t, t.vertex_set, far).values())


def check_longpath_property(n: int, k: int, td: TreeDecomposition) -> bool:
    """Whether the host of a width-<=k decomposition of the n-path has
    diameter at least the largest h with (k+2)^h <= n.

    A false return would be a counterexample to the long-path bound.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    g = path_graph(n)
    report = validate(g, td)
    if not report:
        raise ValueError(f"decomposition invalid for the {n}-path: {report}")
    if td.width() > k:
        raise ValueError(f"width {td.width()} exceeds k={k}")
    h = 0
    while (k + 2) ** (h + 1) <= n:
        h += 1
    return tree_diameter(td.host) >= h


# Size/density plan for the decider-vs-oracle corpus. Counts sum to 500.
# Density thins as n grows because the oracle must exhaust the whole
# subtree-assignment space to prove UNSAT, which blows up on dense graphs;
# the dense regime is still covered exactly where it is affordable
# (complete graphs up to K5, moderately dense 6-vertex graphs).
_CORPUS_PLAN = (
    (1, 20, (0.0,)),
    (2, 40, (1.0,)),
    (3, 90, (0.6, 1.0)),
    (4, 140, (0.4, 0.6, 0.8, 1.0)),
    (5, 118, (0.3, 0.4, 0.5, 0.6)),
    (6, 90, (0.25, 0.3, 0.35, 0.4)),
    (5, 2, (1.0,)),
)


def oracle_corpus(seed: int = 20260825) -> List[Graph]:
    """The fixed 500-graph corpus for decider-vs-oracle agreement."""
    rng = random.Random(seed)
    graphs = []
    for n, count, pool in _CORPUS_PLAN:
        for _ in range(count):
            graphs.append(random_connected_graph(rng, n, rng.choice(pool)))
    return graphs
