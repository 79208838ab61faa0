"""Graph type, tree predicates, HostTree paths and cycles, subtree
enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tdforge.graphs import (
    Cycle,
    Graph,
    HostTree,
    Matching,
    complete_graph,
    component_in,
    cycle_graph,
    edge,
    is_connected,
    is_spanning_tree,
    is_tree,
    path_graph,
)
from tdforge.search import sample_spanning_trees
from generators import (random_connected_graph, random_spanning_tree,
                        random_tree, tree_diameter)
from oracles import (bfs_component, bfs_path, enumerate_induced_subtrees,
                     path_edges)


def small_trees():
    """Hypothesis strategy: a random labelled tree on 2..8 vertices."""
    return st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.integers(min_value=0, max_value=2 ** 31).map(
            lambda seed: random_tree(random.Random(seed),
                                     [f"v{i}" for i in range(n)])))


class TestGraph:
    def test_basic_accessors(self):
        g = Graph(["b", "a", "c"], [("a", "b"), ("b", "c"), ("c", "b")])
        assert g.vertices == ("b", "a", "c")  # insertion order kept
        assert g.vertex_set == {"a", "b", "c"}
        assert g.edges == {("a", "b"), ("b", "c")}  # canonical, deduped
        assert g.neighbors("b") == ("a", "c")  # sorted
        assert g.degree("b") == 2 and g.degree("a") == 1
        assert g.has_edge("c", "b") and not g.has_edge("a", "c")
        assert len(g) == 3 and "a" in g and "z" not in g

    def test_rejects_bad_edges_and_duplicates(self):
        with pytest.raises(ValueError):
            Graph(["a"], [("a", "b")])
        with pytest.raises(ValueError):
            Graph(["a", "a"], [])
        with pytest.raises(ValueError):
            Graph(["a"], [("a", "a")])  # loop

    def test_subgraph_induces(self):
        g = complete_graph(4)
        h = g.subgraph(["k00", "k01", "k02"])
        assert h.vertex_set == {"k00", "k01", "k02"}
        assert len(h.edges) == 3
        with pytest.raises(ValueError):
            g.subgraph(["k00", "nope"])

    def test_builders(self):
        p = path_graph(4)
        assert p.vertices == ("p00", "p01", "p02", "p03")
        assert len(p.edges) == 3 and is_tree(p)
        c = cycle_graph(5)
        assert len(c.edges) == 5 and all(c.degree(v) == 2 for v in c.vertices)
        k = complete_graph(5)
        assert len(k.edges) == 10
        assert path_graph(1).vertices == ("p00",)
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_edge_canonicalizes(self):
        assert edge("b", "a") == ("a", "b")
        with pytest.raises(ValueError):
            edge("a", "a")


class TestPredicates:
    def test_connected(self):
        assert is_connected(path_graph(6))
        assert not is_connected(Graph(["a", "b"], []))
        assert is_connected(Graph(["a"], []))
        with pytest.raises(ValueError):
            Graph([], [])  # at least one vertex required

    def test_tree(self):
        assert is_tree(path_graph(5))
        assert not is_tree(cycle_graph(4))
        assert not is_tree(Graph(["a", "b"], []))
        assert is_tree(Graph(["a"], []))

    def test_spanning_tree(self):
        c = cycle_graph(4)
        t = Graph(c.vertices, [("c00", "c01"), ("c01", "c02"), ("c02", "c03")])
        assert is_spanning_tree(c, t)
        # right edge count but wrong vertex set
        assert not is_spanning_tree(c, path_graph(4))
        # a tree, but one edge is not in the graph
        bad = Graph(c.vertices, [("c00", "c01"), ("c01", "c02"), ("c00", "c02")])
        assert not is_spanning_tree(c, bad)


class TestComponentIn:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=9),
           st.integers(min_value=0, max_value=2 ** 31), st.data())
    def test_breadth_first_against_the_oracle(self, n, seed, data):
        """Same reached set as the oracle's search; each vertex's
        predecessor is an earlier, adjacent member of nodes one step
        nearer to start; discovery order never moves away from start."""
        rng = random.Random(seed)
        g = random_connected_graph(rng, n, rng.uniform(0.2, 0.8))
        nodes = data.draw(st.sets(st.sampled_from(g.vertices), min_size=1))
        start = data.draw(st.sampled_from(sorted(nodes)))
        pred = component_in(g, nodes, start)
        dist = bfs_component(g, nodes, start)
        assert pred.keys() == dist.keys()
        order = list(pred)
        assert order[0] == start and pred[start] == start
        for i, v in enumerate(order[1:], 1):
            p = pred[v]
            assert p in nodes and order.index(p) < i and g.has_edge(p, v)
            assert dist[p] == dist[v] - 1
        assert [dist[v] for v in order] == sorted(dist.values())


def below_path(host: HostTree, a, b):
    """The tree path from a to b that host._below gives: its vertex set
    (the indices below the top, and the top) and its edges from
    host._edges."""
    below, top = host._below(host.index[a], host.index[b])
    return ({host.vertices[x] for x in below | {top}}, host._edges(below))


class TestPaths:
    """bfs_path and path_edges are the oracles the HostTree walker is
    checked against."""

    def test_tree_path_endpoints_and_degenerate(self):
        t = path_graph(5)
        assert bfs_path(t, "p00", "p04") == list(t.vertices)
        assert bfs_path(t, "p03", "p01") == ["p03", "p02", "p01"]
        assert bfs_path(t, "p02", "p02") == ["p02"]
        host = HostTree(t, t)
        assert below_path(host, "p03", "p01") == (
            {"p01", "p02", "p03"}, {("p01", "p02"), ("p02", "p03")})
        assert below_path(host, "p02", "p02") == ({"p02"}, set())

    def test_path_edges(self):
        assert path_edges(["a", "b", "c"]) == {("a", "b"), ("b", "c")}
        assert path_edges(["a"]) == frozenset()

    @settings(max_examples=50, deadline=None)
    @given(small_trees(), st.data())
    def test_tree_path_is_a_path_in_the_tree(self, t, data):
        a = data.draw(st.sampled_from(t.vertices))
        b = data.draw(st.sampled_from(t.vertices))
        p = bfs_path(t, a, b)
        assert p[0] == a and p[-1] == b
        assert len(set(p)) == len(p)
        assert path_edges(p) <= t.edges
        assert below_path(HostTree(t, t), a, b) == (set(p), path_edges(p))

    def test_diameter(self):
        assert tree_diameter(path_graph(7)) == 6
        assert tree_diameter(Graph(["a"], [])) == 0
        star = Graph(["c", "l0", "l1", "l2"],
                     [("c", "l0"), ("c", "l1"), ("c", "l2")])
        assert tree_diameter(star) == 2

    @settings(max_examples=100, deadline=None)
    @given(small_trees())
    def test_diameter_is_the_longest_tree_path(self, t):
        assert tree_diameter(t) == max(len(bfs_path(t, a, b)) - 1
                                       for a in t.vertices for b in t.vertices)


class TestFundamentalCycle:
    def test_square(self):
        c = cycle_graph(4)
        t = Graph(c.vertices, [("c00", "c01"), ("c01", "c02"), ("c02", "c03")])
        cyc = HostTree(c, t).cycle(("c00", "c03"))
        assert cyc.vertices == c.vertex_set
        assert cyc.edges == c.edges

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=9),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_rows_read_off_a_neighbours_row(self, n, seed):
        """_row_into fills rows in any order, reading a row off a tree
        neighbour's where it can, and every row is path_row's; on a
        checked tree and on one drawn by the sampler, whose neighbour
        lists wait for the first row."""
        rng = random.Random(seed)
        g = random_connected_graph(rng, n, 0.5)
        for host in (HostTree(g, random_spanning_tree(rng, g)),
                     next(sample_spanning_trees(g, 1, seed))):
            rows = [None] * n
            for j in rng.sample(range(n), n):
                assert host._row_into(rows, j) is rows[j]
                assert rows[j] == host.path_row(j)

    def test_rejections(self):
        c = cycle_graph(4)
        t = Graph(c.vertices, [("c00", "c01"), ("c01", "c02"), ("c02", "c03")])
        with pytest.raises(ValueError):
            HostTree(c, t).cycle(("c00", "c01"))  # tree edge
        with pytest.raises(ValueError):
            HostTree(c, t).cycle(("c00", "c02"))  # not a graph edge
        with pytest.raises(ValueError):
            HostTree(c, t).cycle(("c00", "c00"))  # loop
        with pytest.raises(ValueError):
            HostTree(c, c)  # host not a tree


class TestHostTree:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=7),
           st.integers(min_value=0, max_value=2 ** 31),
           st.sampled_from(["spanning tree", "n-1 edges", "any edges"]))
    def test_agrees_with_predicate_and_bfs(self, n, seed, subset):
        """HostTree(g, t) is refused exactly when t is not a spanning tree
        of g; otherwise its paths (every ordered pair, a == b and tree
        edges included), path rows and cycles are the plain BFS ones."""
        rng = random.Random(seed)
        vs = [f"v{i}" for i in range(n)]
        g = Graph(vs, [e for e in itertools.combinations(vs, 2)
                       if rng.random() < 0.5])
        edges = sorted(g.edges)
        if subset == "spanning tree" and is_connected(g):
            t = random_spanning_tree(rng, g)
        elif subset == "n-1 edges":
            t = Graph(vs, rng.sample(edges, min(n - 1, len(edges))))
        else:
            t = Graph(vs, [e for e in edges if rng.random() < 0.5])
        if not is_spanning_tree(g, t):
            with pytest.raises(ValueError):
                HostTree(g, t)
            return
        host = HostTree(g, t)
        assert host.vertices == sorted(vs)
        for b in vs:
            row = host.path_row(host.index[b])
            for a in vs:
                p = bfs_path(t, a, b)
                assert below_path(host, a, b) == (set(p), path_edges(p))
                assert row[host.index[a]] == sum(1 << host.index[x] for x in p)
        for e in edges:
            if e in t.edges:
                continue
            p = bfs_path(t, *e)
            cyc = host.cycle(e)
            assert cyc.vertices == set(p)
            assert cyc.edges == {edge(x, y) for x, y in zip(p, p[1:])} | {e}

    def test_rejections(self):
        c = cycle_graph(4)
        t = Graph(c.vertices, [("c00", "c01"), ("c01", "c02"), ("c02", "c03")])
        host = HostTree(c, t)
        with pytest.raises(ValueError, match="is a tree edge"):
            host.cycle(("c01", "c00"))
        with pytest.raises(ValueError, match="not an edge of g"):
            host.cycle(("c00", "c02"))
        # n-1 edges, all of g, but a cycle plus an isolated vertex
        square_plus = Graph(["a", "b", "c", "d", "e"],
                            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        with pytest.raises(ValueError, match="not a spanning tree"):
            HostTree(square_plus, square_plus)


def count_walks(monkeypatch):
    """Every tree walk made from here on, as the list of walked graphs
    (kept alive, so their ids stay distinct)."""
    from tdforge import graphs
    walked = []
    real = graphs._walk_tree

    def counting(t):
        walked.append(t)
        return real(t)

    monkeypatch.setattr(graphs, "_walk_tree", counting)
    return walked


class TestWalkOnce:
    """A tree Graph keeps its walk: HostTree and TreeDecomposition read it,
    while the spanning checks against g run on every call."""

    def test_two_host_trees_walk_once(self, monkeypatch):
        walked = count_walks(monkeypatch)
        g = cycle_graph(5)
        t = Graph(g.vertices, sorted(g.edges)[1:])
        first, second = HostTree(g, t), HostTree(g, t)
        assert walked == [t]
        assert first._parent is second._parent and first._depth is second._depth
        assert type(first._parent) is tuple and type(first._depth) is tuple
        assert t._tree_walk() is t._tree_walk()

    def test_a_sampled_tree_keeps_the_samplers_walk(self, monkeypatch):
        walked = count_walks(monkeypatch)
        g = complete_graph(6)
        for drawn in sample_spanning_trees(g, 5, seed=2):
            host = HostTree(g, drawn.tree)
            assert host._parent is drawn._parent and host._depth is drawn._depth
        assert walked == []

    def test_refusals_on_every_call(self, monkeypatch):
        """A g that a walked t does not span (another vertex set, an edge
        outside g), and a t that is not a tree, are refused on every call
        with the same ValueError; a t that is not a tree keeps no walk."""
        walked = count_walks(monkeypatch)
        g = cycle_graph(5)
        t = Graph(g.vertices, sorted(g.edges)[1:])
        HostTree(g, t)
        bigger = Graph(list(g.vertices) + ["z"], g.edges | {("c00", "z")})
        fewer = Graph(g.vertices, sorted(g.edges)[2:])
        other = Graph(g.vertices, fewer.edges | {("c00", "c02")})
        cyclic_plus = Graph(["a", "b", "c", "d", "e"],
                            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        square = Graph(["a", "b", "c", "d", "e"],
                       cyclic_plus.edges | {("a", "c"), ("d", "e")})
        for host_g, tree in [(bigger, t), (fewer, t), (other, t),
                             (square, cyclic_plus), (g, fewer)]:
            for _ in range(2):
                with pytest.raises(ValueError) as got:
                    HostTree(host_g, tree)
                assert str(got.value) == "host is not a spanning tree of g"
        assert cyclic_plus._walk is None and fewer._walk is None
        assert walked.count(t) == 1 and walked.count(cyclic_plus) == 2
        assert fewer not in walked  # n-2 edges: refused without a walk
        assert HostTree(g, t)._parent is t._walk[0]

    def test_decomposition_reads_the_walk(self, monkeypatch):
        """TreeDecomposition checks its host by the kept walk, with the
        same error; the decider's witness host is walked once, by the
        HostTree the decider builds."""
        from tdforge.decomposition import TreeDecomposition
        from tdforge.search import min_width_on_tree
        walked = count_walks(monkeypatch)
        g = complete_graph(4)
        t = Graph(g.vertices, [("k00", "k01"), ("k01", "k02"), ("k02", "k03")])
        res = min_width_on_tree(g, t, 3, anchored=True)
        assert res.is_sat and res.witness.host is t
        TreeDecomposition(t, {})
        assert walked == [t]
        for host in (cycle_graph(4), Graph(["a", "b"]),
                     Graph(["a", "b", "c"], [("a", "b")])):
            for _ in range(2):
                with pytest.raises(ValueError, match="^host must be a tree$"):
                    TreeDecomposition(host, {})


class TestSharedIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=9),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_host_tree_equals_a_from_scratch_build(self, n, seed):
        """HostTree over g's shared index equals a HostTree built from
        scratch, over fresh copies of g and t with their own index, in
        every field and every query."""
        rng = random.Random(seed)
        vs = [f"x{i}" for i in range(n)]
        rng.shuffle(vs)  # vertex order is not sorted order
        g = random_connected_graph(rng, n, 0.5)
        g = Graph(vs, g.edges)
        t = random_spanning_tree(rng, g)
        host = HostTree(g, t)
        fresh = HostTree(Graph(list(g.vertices), g.edges),
                         Graph(list(t.vertices), t.edges))
        assert host.vertices is g.indexed()[0]
        assert host.index is g.indexed()[1]
        assert fresh.vertices is not host.vertices
        assert host.vertices == fresh.vertices == sorted(vs)
        assert host.index == fresh.index
        assert host._parent == fresh._parent
        assert host._depth == fresh._depth
        for j in range(n):
            assert host.path_row(j) == fresh.path_row(j)
        for a, b in itertools.product(vs, repeat=2):
            p = bfs_path(t, a, b)
            assert (below_path(host, a, b) == below_path(fresh, a, b)
                    == (set(p), path_edges(p)))

    def test_index_is_built_once(self):
        g = Graph(["b", "c", "a"], [("a", "b"), ("b", "c")])
        vertices, index = g.indexed()
        assert (vertices, index) == (["a", "b", "c"], {"a": 0, "b": 1, "c": 2})
        assert g.indexed() is g.indexed()
        assert g.indexed()[0] is vertices

    def test_trees_share_their_graphs_index(self):
        """Trees from _spanning_subgraph, the sampler and enumeration hold
        their graph's index object itself, so nothing is sorted again."""
        from tdforge.constructions import reflected_tree
        from tdforge.search import enumerate_spanning_trees
        g = reflected_tree(3).graph
        shared = g.indexed()
        assert g._spanning_subgraph(sorted(g.edges)[:1]).indexed() is shared
        trees = [h.tree for h in sample_spanning_trees(g, 5, seed=1)]
        trees += itertools.islice(enumerate_spanning_trees(g), 5)
        for t in trees:
            assert t.indexed() is shared
            assert HostTree(g, t).vertices is shared[0]
            assert t._adj is None  # HostTree reads edges, not neighbours
            assert t.neighbors("u") == Graph(g.vertices, t.edges).neighbors("u")


class TestInducedSubtrees:
    def test_path_counts(self):
        # subtrees of a path containing a fixed vertex are the intervals
        # covering it: (i+1) * (n-i) for anchor at position i
        t = path_graph(4)
        for i, anchor in enumerate(t.vertices):
            subs = list(enumerate_induced_subtrees(t, anchor))
            assert len(subs) == (i + 1) * (4 - i)
            assert len(set(subs)) == len(subs)

    def test_star_counts(self):
        star = Graph(["c", "l0", "l1", "l2"],
                     [("c", "l0"), ("c", "l1"), ("c", "l2")])
        # through the centre: any subset of leaves
        assert len(list(enumerate_induced_subtrees(star, "c"))) == 8
        # through a leaf: the leaf alone, or centre plus any other-leaf subset
        assert len(list(enumerate_induced_subtrees(star, "l0"))) == 5

    @settings(max_examples=40, deadline=None)
    @given(small_trees(), st.data())
    def test_matches_brute_force(self, t, data):
        anchor = data.draw(st.sampled_from(t.vertices))
        got = set(enumerate_induced_subtrees(t, anchor))
        expected = set()
        verts = list(t.vertices)
        for r in range(1, len(verts) + 1):
            for comb in itertools.combinations(verts, r):
                if anchor not in comb:
                    continue
                sub = t.subgraph(comb)
                if is_connected(sub):
                    expected.add(frozenset(comb))
        assert got == expected


class TestSmallTypes:
    def test_matching(self):
        m = Matching(frozenset([("a", "b"), ("c", "d")]))
        assert len(m) == 2
        with pytest.raises(ValueError):
            Matching(frozenset([("a", "b"), ("b", "c")]))

    def test_cycle_is_plain_data(self):
        cyc = Cycle(frozenset({"a", "b", "c"}),
                    frozenset({("a", "b"), ("b", "c"), ("a", "c")}))
        assert "a" in cyc.vertices and ("a", "c") in cyc.edges
