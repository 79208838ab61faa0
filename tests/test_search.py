"""Spanning-tree machinery, the width decider, and exact treewidth."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tdforge import search
from tdforge.constructions import reflected_tree
from tdforge.decomposition import TreeDecomposition, is_anchored, validate
from tdforge.errors import CapExceeded
from tdforge.graphs import (
    Graph,
    HostTree,
    complete_graph,
    cycle_graph,
    is_spanning_tree,
    path_graph,
)
from tdforge.search import (
    BOUND,
    SAT,
    SEARCH,
    UNSAT,
    count_spanning_trees,
    decide_over_trees,
    enumerate_spanning_trees,
    exact_treewidth,
    min_anchored_spanning_width,
    min_width_on_tree,
    minor_min_width,
    sample_spanning_trees,
)
from generators import (check_longpath_property, oracle_corpus,
                        random_connected_graph, random_tree)
from oracles import (bfs_path, brute_count_spanning_trees, brute_treewidth,
                     choice_spanning_tree, flood_reach, minor_min_width_by_sets,
                     naive_decide, naive_threshold, path_edges,
                     sample_spanning_tree)


class TestEnumerateSpanningTrees:
    def test_known_counts(self):
        assert len(list(enumerate_spanning_trees(path_graph(4)))) == 1
        assert len(list(enumerate_spanning_trees(cycle_graph(4)))) == 4
        assert len(list(enumerate_spanning_trees(complete_graph(4)))) == 16

    @pytest.mark.parametrize("level, digest", [
        (3, "f8b3c77d5fab2b94ac0df34f2b6f22ddc902fdcbb6ac81ed5a8fff9b27d870f5"),
        (4, "951b1c668058fc83433569abe29c7555ba2d41172b4c341654f3fefc6f61052d"),
    ])
    def test_order_is_pinned(self, level, digest):
        """The include-first order over sorted edges: sha256 over each
        tree's sorted edges, written a,b and joined by ;, one tree a line,
        for all 96 level-3 and all 64,512 level-4 trees."""
        h = hashlib.sha256()
        for t in enumerate_spanning_trees(reflected_tree(level).graph):
            h.update((";".join(f"{a},{b}" for a, b in sorted(t.edges))
                      + "\n").encode())
        assert h.hexdigest() == digest

    def test_a_one_vertex_graph_has_one_tree(self):
        g = Graph(["a"])
        assert [t.edges for t in enumerate_spanning_trees(g)] == [frozenset()]

    def test_yields_distinct_spanning_trees(self):
        g = complete_graph(4)
        seen = set()
        for t in enumerate_spanning_trees(g):
            assert is_spanning_tree(g, t)
            seen.add(t.edges)
        assert len(seen) == 16

    def test_matches_determinant_and_brute_force(self):
        rng = random.Random(52)
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 6), 0.5)
            listed = len(list(enumerate_spanning_trees(g)))
            assert listed == count_spanning_trees(g)
            assert listed == brute_count_spanning_trees(g)

    def test_rejects_disconnected(self):
        g = Graph(["a", "b"], [])
        with pytest.raises(ValueError):
            next(enumerate_spanning_trees(g))


class TestCountSpanningTrees:
    def test_cayley(self):
        for n in range(2, 7):
            assert count_spanning_trees(complete_graph(n)) == n ** (n - 2)

    def test_reflected_tree_counts(self):
        expected = {2: 4, 3: 96, 4: 64512, 5: 31213486080}
        for r, count in expected.items():
            assert count_spanning_trees(reflected_tree(r).graph) == count

    def test_reflected_recursion(self):
        # two copies, four attachment edges: trees either leave both copies
        # connected (pick 2 of the 4 edges not forming a root cycle) or mend
        # one split copy through its roots, giving 4 tau^2 + 2 tau sigma
        for r in (2, 3, 4):
            g = reflected_tree(r).graph
            tau = count_spanning_trees(g)
            with_uv = Graph(g.vertices, sorted(g.edges) + [("u", "v")])
            sigma = count_spanning_trees(with_uv) - tau
            nxt = count_spanning_trees(reflected_tree(r + 1).graph)
            assert nxt == 4 * tau * tau + 2 * tau * sigma

    def test_pivot_order_is_cosmetic(self):
        """The matrix follows g.vertices; the same graph built from the
        reversed list is a second evaluation in another order."""
        g = reflected_tree(3).graph
        backwards = Graph(list(reversed(g.vertices)), g.edges)
        assert count_spanning_trees(backwards) == 96


class TestSampleSpanningTree:
    def test_samples_are_spanning_trees(self):
        rng = random.Random(3)
        g = random_connected_graph(rng, 8, 0.4)
        for _ in range(20):
            assert is_spanning_tree(g, sample_spanning_tree(g, rng))

    def test_seeded_stream_is_deterministic(self):
        g = complete_graph(5)
        a = [h.tree.edges for h in sample_spanning_trees(g, 6, seed=7)]
        b = [h.tree.edges for h in sample_spanning_trees(g, 6, seed=7)]
        assert a == b
        assert a != [h.tree.edges for h in sample_spanning_trees(g, 6, seed=8)]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=9),
           st.sampled_from([0.3, 0.5, 0.8]),
           st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=0, max_value=6))
    def test_draws_the_rng_choice_stream(self, n, p, graph_seed, seed, count):
        """Draw for draw, the indexed sampler gives the trees the
        rng.choice walk gives on one stream, and leaves the stream where
        that walk leaves it."""
        g = random_connected_graph(random.Random(graph_seed), n, p)
        self.assert_same_stream(g, seed, count)

    def test_draws_the_rng_choice_stream_off_powers_of_two(self):
        """Neighbour counts of 3, 5 and 6 make getrandbits draw values past
        the count, so the redraw loop runs."""
        for g in (complete_graph(4), complete_graph(6), complete_graph(7),
                  reflected_tree(5).graph):
            assert any(len(g.neighbors(v)) & (len(g.neighbors(v)) - 1)
                       for v in g.vertices)
            self.assert_same_stream(g, 17, 25)

    @staticmethod
    def assert_same_stream(g, seed, count):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(count):
            got, want = sample_spanning_tree(g, rng), choice_spanning_tree(g, ref)
            assert (got.vertices, got.edges) == (want.vertices, want.edges)
            assert rng.getstate() == ref.getstate()
        ref = random.Random(seed)
        want = [(t.vertices, t.edges) for t in
                (choice_spanning_tree(g, ref) for _ in range(count))]
        assert [(h.tree.vertices, h.tree.edges) for h in
                sample_spanning_trees(g, count, seed=seed)] == want

    def test_disconnected_graph_refused_at_call(self):
        """The stream checks g once, when called, as it checks the count:
        nothing has to be drawn for the error to show."""
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        for count in (0, 3):
            with pytest.raises(ValueError, match="connected"):
                sample_spanning_trees(g, count)
        with pytest.raises(ValueError, match="connected"):
            sample_spanning_tree(g, random.Random(0))

    def test_square_samples_roughly_uniform(self):
        g = cycle_graph(4)
        counts = {}
        for h in sample_spanning_trees(g, 1000, seed=1):
            counts[h.tree.edges] = counts.get(h.tree.edges, 0) + 1
        assert len(counts) == 4
        # 5 sigma around the uniform expectation of 250
        assert all(180 <= c <= 320 for c in counts.values())


class TestWalkedHostTree:
    """The sampler's HostTree, built from the walk's successor array and
    rooted at g.vertices[0], answers every query that does not depend on
    the root as the checked HostTree(g, t) over the same tree does."""

    @staticmethod
    def assert_same_queries(g, walked, rng, pairs=None):
        t = walked.tree
        # the walk builds neither the tree's adjacency nor neighbour lists
        assert t._adj is None and walked._nbrs is None
        assert t._index is g.indexed()
        assert walked.vertices is g.indexed()[0]
        assert walked.index is g.indexed()[1]
        root = walked.index[g.vertices[0]]
        assert walked._parent[root] == root and walked._depth[root] == 0
        checked = HostTree(g, t)
        for j in range(len(g)):
            assert walked.path_row(j) == checked.path_row(j)
        vs = g.vertices
        if pairs is None:
            pairs = [(a, b) for a in vs for b in vs]
        else:
            pairs = [(rng.choice(vs), rng.choice(vs)) for _ in range(pairs)]
        vertices = walked.vertices
        for a, b in pairs:
            p = bfs_path(t, a, b)
            for host in (walked, checked):
                below, top = host._below(host.index[a], host.index[b])
                assert {vertices[x] for x in below | {top}} == set(p)
                assert host._edges(below) == path_edges(p)
        for e in sorted(g.edges - t.edges):
            assert walked.cycle(e) == checked.cycle(e)
        return checked

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=9),
           st.sampled_from([0.3, 0.5, 0.8]),
           st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_hypothesis_graphs(self, n, p, graph_seed, seed):
        """Vertex order shuffled, so the walk's root is rarely index 0."""
        rng = random.Random(graph_seed)
        vs = [f"x{i}" for i in range(n)]
        rng.shuffle(vs)
        g = Graph(vs, random_connected_graph(rng, n, p).edges)
        for walked in sample_spanning_trees(g, 3, seed=seed):
            self.assert_same_queries(g, walked, rng)

    @pytest.mark.parametrize("level", [3, 4, 5, 6, 7])
    def test_reflected_trees(self, level):
        """Levels 3-7, seeds 1-3: the same queries, and equal certificates
        from either host."""
        from tdforge.certificates import MatchingPlan, reflected_matching
        rt = reflected_tree(level)
        g = rt.graph
        plan = MatchingPlan(rt)
        rng = random.Random(level)
        for seed in (1, 2, 3):
            for walked in sample_spanning_trees(g, 2, seed=seed):
                checked = self.assert_same_queries(g, walked, rng, pairs=300)
                assert (reflected_matching(rt, walked, plan)
                        == reflected_matching(rt, checked, plan))


class TestTreesFromCheckedGraphs:
    """Sampled and enumerated trees are built from g's own edges without
    checks; each is the Graph the checking constructor builds from the
    same edges."""

    @staticmethod
    def assert_checked(g, t, want=None):
        if want is None:
            want = Graph(g.vertices, sorted(t.edges))
        assert all(a < b for a, b in t.edges) and t.edges <= g.edges
        assert t.vertices == want.vertices == g.vertices
        assert t.vertex_set == want.vertex_set
        assert t.edges == want.edges
        for v in g.vertices:
            assert t.neighbors(v) == want.neighbors(v)

    def test_sampled_trees(self):
        """Against the rng.choice walk, whose trees the checking
        constructor builds, at levels 4, 5 and 7 and on corpus graphs."""
        graphs = [reflected_tree(r).graph for r in (4, 5, 7)]
        graphs += oracle_corpus()[::10]
        for seed, g in enumerate(graphs):
            ref = random.Random(seed)
            for h in sample_spanning_trees(g, 5, seed=seed):
                self.assert_checked(g, h.tree, choice_spanning_tree(g, ref))

    def test_enumerated_trees(self):
        """All 96 level-3 trees, and every tree of a slice of the oracle
        corpus."""
        g = reflected_tree(3).graph
        trees = list(enumerate_spanning_trees(g))
        assert len({t.edges for t in trees}) == 96
        for t in trees:
            self.assert_checked(g, t)
        for g in oracle_corpus()[::10]:
            for t in enumerate_spanning_trees(g):
                assert is_spanning_tree(g, t)
                self.assert_checked(g, t)


class TestDecider:
    def test_single_vertex(self):
        """The lone vertex has no edge to give it a subtree, so it starts
        in its own bag in either mode, and nothing is searched."""
        g = Graph(["x"], [])
        for anchored in (False, True):
            for budget in (0, 1):
                res = min_width_on_tree(g, g, budget, anchored=anchored)
                assert (res.status, res.nodes, res.source) == (SAT, 0, SEARCH)
                assert res.witness.bags == {"x": frozenset({"x"})}
                assert res.witness.width() == 0

    def test_single_edge_threshold(self):
        g = path_graph(2)
        for anchored in (False, True):
            lo = min_width_on_tree(g, g, 0, anchored=anchored)
            hi = min_width_on_tree(g, g, 1, anchored=anchored)
            assert lo.status == UNSAT and lo.witness is None
            assert hi.is_sat
            assert validate(g, hi.witness)
            if anchored:
                assert is_anchored(g, hi.witness)

    def test_square_needs_width_two(self):
        g = cycle_graph(4)
        host = Graph(g.vertices, [("c00", "c01"), ("c01", "c02"),
                                  ("c02", "c03")])
        for anchored in (False, True):
            assert not min_width_on_tree(g, host, 1, anchored=anchored).is_sat
            res = min_width_on_tree(g, host, 2, anchored=anchored)
            assert res.is_sat
            assert validate(g, res.witness)
            assert res.witness.width() <= 2

    def test_result_records_parameters(self):
        g = cycle_graph(4)
        host = next(enumerate_spanning_trees(g))
        res = min_width_on_tree(g, host, 1, anchored=False)
        assert (res.budget, res.anchored) == (1, False)
        assert res.nodes >= 0
        assert res.seconds >= 0

    def test_budgets_below_the_bound_are_not_searched(self):
        g = complete_graph(5)
        host = next(enumerate_spanning_trees(g))
        for anchored in (False, True):
            for budget in range(4):
                res = min_width_on_tree(g, host, budget, anchored=anchored)
                assert (res.status, res.nodes, res.source) == (UNSAT, 0, BOUND)
            res = min_width_on_tree(g, host, 4, anchored=anchored)
            assert res.is_sat and res.source == SEARCH and res.nodes > 0

    def test_raw_search_agrees_with_naive_oracle(self):
        """The search itself, with no bound (bound 0), against the oracle at
        budgets 0..3 on a seeded slice of the oracle corpus: K4 and K5, whose
        UNSAT answers the bound would otherwise settle, and 20 more graphs,
        on up to two seeded hosts each. The path and meet look-ahead rules
        and the dominance rule cut branches on this slice, so the oracle
        checks them too."""
        graphs = oracle_corpus()
        path_cuts = meet_cuts = dominated_cuts = 0
        rng = random.Random(17)
        complete = [next(g for g in graphs if len(g) == n and
                         len(g.edges) == n * (n - 1) // 2) for n in (4, 5)]
        for g in complete + rng.sample(graphs, 20):
            trees = list(enumerate_spanning_trees(g))
            for host in rng.sample(trees, min(2, len(trees))):
                tree = HostTree(g, host)
                for anchored in (False, True):
                    want = naive_threshold(g, host, 3, anchored)
                    got = 4
                    for b in range(4):
                        res = search._decide(tree, b, anchored, 0)
                        path_cuts += res.pruned_path
                        meet_cuts += res.pruned_meet
                        dominated_cuts += res.pruned_dominated
                        if res.is_sat:
                            got = b
                            break
                    assert got == want
                    assert minor_min_width(g) <= want
        assert path_cuts > 0
        assert meet_cuts > 0
        assert dominated_cuts > 0

    def test_meet_rule_cuts_where_the_path_rule_cannot(self):
        """A triangle c, x, y with a pendant p, hosted on the star at c,
        unanchored at budget 1. One branch puts edge cx at node x and edge
        cy at node y: x holds c and x, y holds c and y, and both are full.
        c holds c alone, so no node between x and y is full and the path
        rule has nothing to cut. The subtrees {x} and {y} of the pending
        edge xy can now meet only at c, which would hold three, and the
        meet rule cuts the branch. The status agrees with the oracle in
        both modes, with and without the lower bound."""
        g = Graph(["c", "p", "x", "y"],
                  [("c", "p"), ("c", "x"), ("c", "y"), ("x", "y")])
        host = Graph(g.vertices, [("c", "p"), ("c", "x"), ("c", "y")])
        tree = HostTree(g, host)
        res = search._decide(tree, 1, False, 0)
        assert (res.status, res.pruned_no_room, res.pruned_path) == (
            UNSAT, 0, 0)
        assert res.pruned_meet > 0
        for anchored in (False, True):
            want = naive_threshold(g, host, 3, anchored)
            for bound in (0, minor_min_width(g)):
                got = next((b for b in range(4) if search._decide(
                    tree, b, anchored, bound).is_sat), 4)
                assert got == want

    def test_level3_search_tree_is_pinned(self):
        """The decider's search tree on all 96 level-3 trees at anchored
        budgets 2 and 3 and unanchored budget 3, frozen as totals of nodes
        and of each cut, and a digest of every status and witness. A change
        that makes search nodes cheaper while visiting the same nodes in
        the same order keeps all six; a cut that removes only branches
        with no solution lowers the totals and keeps the digest."""
        g = reflected_tree(3).graph
        digest = hashlib.sha256()
        totals = [0, 0, 0, 0, 0]
        for t in enumerate_spanning_trees(g):
            for budget, anchored in ((2, True), (3, True), (3, False)):
                res = min_width_on_tree(g, t, budget, anchored)
                assert res.source == SEARCH
                totals[0] += res.nodes
                totals[1] += res.pruned_no_room
                totals[2] += res.pruned_path
                totals[3] += res.pruned_meet
                totals[4] += res.pruned_dominated
                bags = None if res.witness is None else sorted(
                    (v, sorted(b)) for v, b in res.witness.bags.items())
                digest.update(repr((res.status, bags)).encode())
        # [147121, 437, 99805] (nodes, no-room and path cuts) before the
        # dominance rule; [54406, 200, 33372, 0, 10755] before the meet rule
        assert totals == [52190, 187, 31445, 4277, 10575]
        assert digest.hexdigest() == ("8f8ef191e0fcfe061727e7a508895d65"
                                      "729d80766c27b7079888ace6a5571044")

    def test_budgets_from_n_minus_1_search_alike(self):
        """A node holds at most n guests, so every budget from n-1 up runs
        the same search: the same status, witness, node count and cuts, on
        a seeded slice of the oracle corpus (up to three hosts a graph,
        both modes, raw search). A budget of 10**9 returns as promptly as
        n-1 and still echoes the budget asked for."""
        rng = random.Random(23)
        k4 = complete_graph(4)
        cases = [(k4, Graph(k4.vertices, zip(k4.vertices, k4.vertices[1:])))]
        for g in rng.sample(oracle_corpus(), 40):
            trees = list(enumerate_spanning_trees(g))
            cases += [(g, t) for t in rng.sample(trees, min(3, len(trees)))]
        for g, host in cases:
            tree = HostTree(g, host)
            n = len(g)
            for anchored in (False, True):
                seen = set()
                for budget in (n - 1, n, n + 3, 50, 10 ** 9):
                    res = search._decide(tree, budget, anchored, 0)
                    assert res.budget == budget
                    bags = None if res.witness is None else sorted(
                        (v, sorted(b)) for v, b in res.witness.bags.items())
                    seen.add((res.status, repr(bags), res.nodes,
                              res.pruned_no_room, res.pruned_path,
                              res.pruned_meet, res.pruned_dominated))
                assert len(seen) == 1

    def test_tree_hosts_itself_at_width_one(self):
        rng = random.Random(11)
        for _ in range(15):
            ids = [f"t{i:02d}" for i in range(rng.randint(2, 10))]
            t = random_tree(rng, ids)
            res = min_width_on_tree(t, t, 1, anchored=True)
            assert res.is_sat
            assert is_anchored(t, res.witness)

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(5)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(3, 5), 0.5)
            host = sample_spanning_tree(g, rng)
            for anchored in (False, True):
                want = naive_threshold(g, host, 3, anchored)
                got = 4
                for b in range(4):
                    if min_width_on_tree(g, host, b, anchored=anchored).is_sat:
                        got = b
                        break
                assert got == want


class TestCandidateFlood:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_reach_and_growth_follow_the_path_to_the_subtree(self, n, seed):
        """On a random tree, subtree s and room mask: x is reached iff every
        node of its path to the nearest node of s, s excluded, has room, and
        its growth (the path row of any root in s, minus s) is that path
        minus s, so the decider's path-row test (growth within room) picks
        exactly the nodes the flood reaches. For a second subtree disjoint
        from s, that row at any of its nodes, minus both subtrees, is the
        interior of the path between them, which the path look-ahead tests
        for full nodes; and the nodes with room whose growths towards both
        subtrees lie in room are those both floods reach."""
        rng = random.Random(seed)
        ids = [f"t{i:02d}" for i in range(n)]
        rng.shuffle(ids)
        t = random_tree(rng, ids)
        host = HostTree(t, t)
        bit = {v: 1 << host.index[v] for v in ids}
        adj = [sum(bit[w] for w in t.neighbors(v)) for v in host.vertices]
        s = {rng.choice(ids)}
        for _ in range(rng.randrange(n)):
            s.add(rng.choice([w for v in sorted(s) for w in t.neighbors(v)]
                             or sorted(s)))
        room = {v for v in ids if rng.random() < 0.6}
        s_mask = sum(bit[v] for v in s)
        room_mask = sum(bit[v] for v in room)
        reach = flood_reach(adj, s_mask, room_mask)
        row = host.path_row(host.index[rng.choice(sorted(s))])
        for x in ids:
            path = min((bfs_path(t, x, y) for y in s), key=len)
            outside = [v for v in path if v not in s]
            assert bool(reach & bit[x]) == (set(outside) <= room)
            assert row[host.index[x]] & ~s_mask == sum(bit[v] for v in outside)
            assert bool(reach & bit[x]) == \
                (not row[host.index[x]] & ~s_mask & ~room_mask)
        rest = [v for v in ids if v not in s]
        if rest:
            s2 = {rng.choice(rest)}
            for _ in range(rng.randrange(len(rest))):
                grow = [w for v in sorted(s2) for w in t.neighbors(v)
                        if w not in s and w not in s2]
                if grow:
                    s2.add(rng.choice(grow))
            s2_mask = sum(bit[v] for v in s2)
            both = s_mask | s2_mask
            between = min((bfs_path(t, x, y) for x in sorted(s)
                           for y in sorted(s2)), key=len)
            y = host.index[rng.choice(sorted(s2))]
            assert row[y] & ~both == sum(bit[v] for v in between
                                         if not bit[v] & both)
            row2 = host.path_row(host.index[rng.choice(sorted(s2))])
            picked = sum(bit[x] for x in room
                         if not ((row[host.index[x]] & ~s_mask)
                                 | (row2[host.index[x]] & ~s2_mask))
                         & ~room_mask)
            assert picked == (room_mask & reach
                              & flood_reach(adj, s2_mask, room_mask))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_a_dominated_meeting_node_grows_more_than_its_dominator(
            self, n, seed):
        """On a random tree with disjoint connected node sets A and B (either
        may be empty), the decider skips meeting node x when A and B grown to
        x by path rows share a node below x. With growths taken from BFS
        paths instead, that is the case exactly when some y < x lies in both
        grown sets, and then for every such y the growths towards y are
        subsets of those towards x: y's branch is no larger than x's."""
        rng = random.Random(seed)
        ids = [f"t{i:02d}" for i in range(n)]
        rng.shuffle(ids)
        t = random_tree(rng, ids)
        host = HostTree(t, t)
        idx = host.index

        def connected_set(taken):
            free = [v for v in ids if v not in taken]
            if not free or rng.random() < 0.2:
                return set()
            s = {rng.choice(free)}
            for _ in range(rng.randrange(len(free))):
                grow = [w for v in sorted(s) for w in t.neighbors(v)
                        if w not in taken and w not in s]
                if grow:
                    s.add(rng.choice(grow))
            return s

        def growth(s, x):  # the nodes a subtree s gains on growing to x
            if not s:
                return {x}
            path = min((bfs_path(t, x, y) for y in sorted(s)), key=len)
            return set(path) - s

        def mask(nodes):
            return sum(1 << idx[v] for v in nodes)

        def row_growth(s, x):
            if not s:
                return 1 << idx[x]
            return host.path_row(idx[min(s, key=idx.get)])[idx[x]] & ~mask(s)

        a = connected_set(set())
        b = connected_set(a)
        sa, sb = mask(a), mask(b)
        for x in ids:
            bit = 1 << idx[x]
            skipped = bool((sa | row_growth(a, x)) & (sb | row_growth(b, x))
                           & (bit - 1))
            ga, gb = growth(a, x), growth(b, x)
            lower = [y for y in (a | ga) & (b | gb) if idx[y] < idx[x]]
            assert skipped == bool(lower)
            if not (a and b):
                assert not skipped
            for y in lower:
                assert growth(a, y) <= ga and growth(b, y) <= gb


class TestDecideOverTrees:
    def test_sources_witnesses_and_foreign_hosts(self):
        """On K4 (minor-min-width 3) budgets 1 and 2 are bound answers and
        3 is searched; a witness comes exactly with SAT, every budget-3
        answer is SAT, trees are pulled one per result, and a host with an edge outside g is refused: here a
        K4 tree in a sweep over K4 minus one of its edges."""
        g = complete_graph(4)
        trees = list(enumerate_spanning_trees(g))
        for budget in (1, 2, 3):
            results = list(decide_over_trees(g, trees, budget, anchored=True))
            assert len(results) == len(trees)
            assert {r.source for r in results} == \
                ({BOUND} if budget < 3 else {SEARCH})
            for r in results:
                assert (r.witness is None) == (r.status == UNSAT)
        assert {r.status for r in results} == {SAT}
        pulled = []
        sweep = decide_over_trees(g, (pulled.append(t) or t for t in trees),
                                  3, anchored=True)
        assert [next(sweep).is_sat for _ in range(2)] == [True, True]
        assert len(pulled) == 2  # lazily: one tree per result
        k4_minus_e = Graph(g.vertices, g.edges - {min(trees[0].edges)})
        with pytest.raises(ValueError, match="not a spanning tree"):
            next(decide_over_trees(k4_minus_e, trees[:1], 3, anchored=True))

    def test_checked_host_trees(self):
        """HostTrees over g give the results their Graphs give; a HostTree
        over another graph is refused."""
        g = complete_graph(4)
        trees = list(enumerate_spanning_trees(g))
        hosts = [HostTree(g, t) for t in trees]
        for budget in (2, 3):
            want = list(decide_over_trees(g, trees, budget, anchored=True))
            got = list(decide_over_trees(g, hosts, budget, anchored=True))
            assert [(r.status, r.source, r.nodes, r.witness) for r in got] \
                == [(r.status, r.source, r.nodes, r.witness) for r in want]
        k5 = complete_graph(5)
        foreign = HostTree(k5, next(iter(enumerate_spanning_trees(k5))))
        with pytest.raises(ValueError, match="another graph"):
            next(decide_over_trees(g, [foreign], 3, anchored=True))

    def test_hosts_are_checked_below_the_bound(self):
        g = complete_graph(4)
        not_spanning = Graph(g.vertices, [])
        with pytest.raises(ValueError, match="not a spanning tree"):
            list(decide_over_trees(g, [not_spanning], 0, anchored=True))


class TestMinAnchoredSpanningWidth:
    def test_known_values(self):
        assert min_anchored_spanning_width(Graph(["x"], []))[0] == 0
        assert min_anchored_spanning_width(path_graph(3))[0] == 1
        assert min_anchored_spanning_width(cycle_graph(4))[0] == 2
        assert min_anchored_spanning_width(complete_graph(4))[0] == 3

    def test_witness_is_consistent(self):
        g = cycle_graph(5)
        best, host, wit = min_anchored_spanning_width(g)
        assert best == 2
        assert is_spanning_tree(g, host)
        assert wit.host == host
        assert validate(g, wit) and is_anchored(g, wit)
        assert wit.width() == best

    def test_agrees_with_naive_oracle_over_every_tree(self):
        """A second route: the least naive_threshold over every spanning
        tree, on seeded corpus graphs of 4 to 6 vertices. Since SAT at a
        budget implies SAT above it, that least threshold is best exactly
        when some tree is SAT at best and none is at best - 1."""
        rng = random.Random(31)
        graphs = oracle_corpus()
        small = [g for g in graphs if 4 <= len(g) <= 5 and g.edges]
        six = [g for g in graphs if len(g) == 6]
        for g in rng.sample(small, 25) + rng.sample(six, 10):
            best, host, wit = min_anchored_spanning_width(g)
            trees = list(enumerate_spanning_trees(g))
            assert any(naive_decide(g, t, best, True) for t in trees)
            assert not any(naive_decide(g, t, best - 1, True) for t in trees)
            assert is_spanning_tree(g, host) and wit.host == host
            assert validate(g, wit) and is_anchored(g, wit)
            assert wit.width() == best

    def test_level3_needs_width_three(self):
        best, _, wit = min_anchored_spanning_width(reflected_tree(3).graph)
        assert best == 3
        assert wit.width() == 3

    def test_cap(self):
        rng = random.Random(0)
        big = random_tree(rng, [f"t{i:02d}" for i in range(13)])
        with pytest.raises(CapExceeded):
            min_anchored_spanning_width(big)


class TestMinorMinWidth:
    def test_exact_values(self):
        for n in range(1, 7):
            assert minor_min_width(complete_graph(n)) == n - 1
        for n in range(3, 9):
            assert minor_min_width(cycle_graph(n)) == 2
        rng = random.Random(8)
        for n in range(2, 12):
            ids = [f"t{i:02d}" for i in range(n)]
            assert minor_min_width(random_tree(rng, ids)) == 1
        grid = Graph([f"g{r}{c}" for r in range(3) for c in range(3)],
                     [(f"g{r}{c}", f"g{r}{c + 1}") for r in range(3)
                      for c in range(2)] +
                     [(f"g{r}{c}", f"g{r + 1}{c}") for r in range(2)
                      for c in range(3)])
        assert minor_min_width(grid) == 3
        k33 = Graph(["a0", "a1", "a2", "b0", "b1", "b2"],
                    [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)])
        assert minor_min_width(k33) == 3
        assert minor_min_width(reflected_tree(4).graph) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(
            st.booleans(), min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2))))
    def test_at_most_treewidth(self, case):
        n, picks = case
        vs = [f"v{i}" for i in range(n)]
        pairs = itertools.combinations(vs, 2)
        g = Graph(vs, [e for e, keep in zip(pairs, picks) if keep])
        assert minor_min_width(g) <= brute_treewidth(g)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2 ** 31),
           st.floats(min_value=0.0, max_value=1.0))
    def test_same_contractions_as_name_keyed_sets(self, n, seed, p):
        """The bitmask contraction over the sorted index breaks ties as
        the name-keyed one does; names are drawn so that vertex order is
        not sorted order."""
        rng = random.Random(seed)
        vs = [f"v{i:03d}" for i in rng.sample(range(1000), n)]
        g = Graph(vs, [e for e in itertools.combinations(vs, 2)
                       if rng.random() < p])
        assert minor_min_width(g) == minor_min_width_by_sets(g)


class TestExactTreewidth:
    def test_known_values(self):
        assert exact_treewidth(Graph(["a", "b"], [])) == 0
        assert exact_treewidth(path_graph(6)) == 1
        assert exact_treewidth(cycle_graph(5)) == 2
        assert exact_treewidth(complete_graph(4)) == 3
        assert exact_treewidth(complete_graph(5)) == 4

    def test_reflected_trees_have_treewidth_two(self):
        # 46 vertices: only the series-parallel recognizer can do this size
        assert exact_treewidth(reflected_tree(5).graph) == 2

    def test_matches_brute_force(self):
        rng = random.Random(21)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 7), 0.5)
            assert exact_treewidth(g) == brute_treewidth(g)

    def test_cap_applies_only_past_the_recognizers(self):
        k4 = complete_graph(4)
        anchor = k4.vertices[0]
        pendants = [f"p{i:02d}" for i in range(12)]
        g = Graph(list(k4.vertices) + pendants,
                  sorted(k4.edges) + [(anchor, p) for p in pendants])
        with pytest.raises(CapExceeded):
            exact_treewidth(g)
        assert exact_treewidth(g, cap=16) == 3


class TestLongPaths:
    def test_path_on_itself_satisfies_the_bound(self):
        n = 9
        g = path_graph(n)
        verts = g.vertices
        bags = {verts[i]: {verts[i], verts[min(i + 1, n - 1)]}
                for i in range(n)}
        td = TreeDecomposition(g, bags)
        assert validate(g, td)
        assert check_longpath_property(n, 1, td)

    def test_rejects_overwide_and_invalid(self):
        g = path_graph(3)
        hub = TreeDecomposition(Graph(["h"], []), {"h": set(g.vertices)})
        assert validate(g, hub)  # width 2, so k=1 must be refused
        with pytest.raises(ValueError):
            check_longpath_property(3, 1, hub)
        broken = TreeDecomposition(g, {v: set() for v in g.vertices})
        with pytest.raises(ValueError):
            check_longpath_property(3, 1, broken)
