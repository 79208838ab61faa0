"""Reflected trees, complete ary trees, schedules, gadget attachment."""

import pytest

from tdforge.constructions import (
    GadgetSchedule,
    ary_tree_size,
    attach_gadgets,
    complete_ary_tree,
    gadget_schedule,
    reflected_tree,
    reflected_tree_order,
    reflected_tree_size,
    toy_schedule,
)
from tdforge.errors import ScheduleTooLarge, SizeExceeded
from tdforge.graphs import Graph, is_connected, is_tree

from oracles import bfs_path, relabel, relabelled_reflected_tree


class TestReflectedTree:
    def test_base_level(self):
        rt = reflected_tree(1)
        assert rt.level == 1
        assert rt.roots == ("u",)
        assert rt.copies is None
        assert rt.graph.vertices == ("u",)
        assert rt.graph.edges == frozenset()

    def test_level_two_is_the_square(self):
        rt = reflected_tree(2)
        g = rt.graph
        assert rt.roots == ("u", "v")
        assert g.vertex_set == {"u", "v", "L.u", "R.u"}
        assert g.edges == {("L.u", "u"), ("R.u", "u"),
                           ("L.u", "v"), ("R.u", "v")}

    def test_counts_match_formulas(self):
        expected = {1: (1, 0), 2: (4, 4), 3: (10, 12), 4: (22, 28),
                    5: (46, 60)}
        for r in range(1, 9):
            rt = reflected_tree(r)
            assert len(rt.graph) == reflected_tree_order(r)
            assert len(rt.graph.edges) == reflected_tree_size(r)
            if r in expected:
                assert (len(rt.graph), len(rt.graph.edges)) == expected[r]
            assert is_connected(rt.graph)

    def test_recursive_structure(self):
        rt = reflected_tree(4)
        left, right = rt.copies
        child = reflected_tree(3)
        assert left.graph == relabel(child.graph, lambda v: "L." + v)
        assert right.graph == relabel(child.graph, lambda v: "R." + v)
        assert left.graph.edges <= rt.graph.edges
        # the four attachment edges: u to the first roots, v to the last
        for e in [("u", left.roots[0]), ("u", right.roots[0]),
                  ("v", left.roots[-1]), ("v", right.roots[-1])]:
            assert rt.graph.has_edge(*e)
        # roots of the whole are fresh, never adjacent to each other
        assert not rt.graph.has_edge("u", "v")

    def test_matches_relabel_recursion(self):
        """Every copy, at every depth, has the vertices in the same order,
        the edges, roots and level of the relabel recursion's copy."""
        def same(a, b):
            assert a.graph.vertices == b.graph.vertices
            assert a.graph.edges == b.graph.edges
            assert (a.roots, a.level) == (b.roots, b.level)
            assert (a.copies is None) == (b.copies is None)
            for x, y in zip(a.copies or (), b.copies or ()):
                same(x, y)

        for r in range(1, 9):
            same(reflected_tree(r), relabelled_reflected_tree(r))

    def test_cap(self):
        with pytest.raises(SizeExceeded) as exc:
            reflected_tree(4, cap=10)
        assert exc.value.total == 22 and exc.value.cap == 10
        with pytest.raises(ValueError):
            reflected_tree(0)

    def test_a_huge_level_is_refused_by_its_size(self):
        """The message shortens a total str() could not spell; .total
        stays exact. Past the bit guard the order is never computed."""
        with pytest.raises(SizeExceeded) as exc:
            reflected_tree(20000)
        assert exc.value.total == 3 * 2 ** 19999 - 2
        assert str(exc.value) == ("reflected tree of level 20000 needs at "
                                  "least 2^20000 vertices, cap is 500000")
        for fn in (reflected_tree, reflected_tree_order, reflected_tree_size):
            with pytest.raises(ScheduleTooLarge, match="level 1000000000000"):
                fn(10 ** 12)


class TestAryTrees:
    def test_size_formula(self):
        assert ary_tree_size(1, 3) == 4
        assert ary_tree_size(2, 2) == 7
        assert ary_tree_size(3, 1) == 4
        for w in range(1, 5):
            for h in range(0, 4):
                assert ary_tree_size(w, h) == sum(w ** i for i in range(h + 1))
        with pytest.raises(ValueError):
            ary_tree_size(0, 1)

    def test_complete_ary_tree(self):
        t = complete_ary_tree(2, 2)
        assert t.vertices[0] == "g"  # the root is listed first
        assert [v for v in t.vertices if t.degree(v) == 1] == [
            "g.0.0", "g.0.1", "g.1.0", "g.1.1"]
        assert bfs_path(t, "g", "g.1.0") == ["g", "g.1", "g.1.0"]
        for w in range(1, 4):
            for h in range(0, 4):
                t = complete_ary_tree(w, h, root="r")
                assert len(t) == ary_tree_size(w, h) and is_tree(t)
                assert t.vertices[0] == "r"
                assert t.neighbors("r") == tuple(f"r.{i}"
                                                 for i in range(w if h else 0))
                paths = [bfs_path(t, "r", v) for v in t.vertices]
                assert max(len(p) for p in paths) == h + 1
                leaves = [v for v in t.vertices[1:] if t.degree(v) == 1]
                assert len(leaves) == (w ** h if h else 0)
                for p in paths:  # each step down appends ".i" to the id
                    assert all(b.rsplit(".", 1)[0] == a
                               for a, b in zip(p, p[1:]))

    def test_unary_tree_is_a_path(self):
        t = complete_ary_tree(1, 3)
        assert len(t) == 4 and is_tree(t)
        assert bfs_path(t, "g", "g.0.0.0") == ["g", "g.0", "g.0.0", "g.0.0.0"]

    def test_cap(self):
        with pytest.raises(SizeExceeded):
            complete_ary_tree(10, 9, cap=1000)

    def test_a_huge_height_is_refused_before_its_power(self):
        for fn in (ary_tree_size, complete_ary_tree):
            with pytest.raises(ScheduleTooLarge,
                               match="2-ary tree of height 1000000000000"):
                fn(2, 10 ** 12)
        with pytest.raises(ScheduleTooLarge, match="height 1000000000000"):
            toy_schedule(1, 1, [10 ** 12], [2])
        with pytest.raises(SizeExceeded, match=r"heights up to 20000 needs "
                           r"at least 2\^20000 vertices, cap is 500000"):
            attach_gadgets(Graph(["a"]), None, toy_schedule(1, 1, [20000], [2]))


class TestSchedules:
    def test_single_gadget(self):
        s = gadget_schedule(1, 1)
        assert (s.heights, s.widths, s.tree_sizes) == ((2,), (3,), (13,))
        assert s.genuine
        s2 = gadget_schedule(2, 1)
        assert (s2.heights, s2.widths, s2.tree_sizes) == ((2,), (4,), (21,))

    def test_two_gadgets_exact_closed_form(self):
        s = gadget_schedule(1, 2)
        assert s.heights == (2, 82)
        assert s.widths[1] == 5
        assert s.tree_sizes[1] == (5 ** 83 - 1) // 4
        # the first arity must dominate k+1 times everything attached later
        assert s.widths[0] == 2 * (2 + s.tree_sizes[1]) + 1

    def test_growth_leaves_the_representable_range(self):
        # k=2, n=2 still fits: heights (2, 257), sizes a few thousand bits
        s = gadget_schedule(2, 2)
        assert s.heights == (2, 4 ** 4 + 1)
        # a third gadget pushes the height itself to ~10^78, whose tree size
        # could never be materialized as an integer
        with pytest.raises(ScheduleTooLarge):
            gadget_schedule(1, 3)
        with pytest.raises(ScheduleTooLarge):
            gadget_schedule(2, 3)

    def test_genuine_schedule_computes_each_size_once(self, monkeypatch):
        """gadget_schedule takes each tree's size from ary_tree_size once,
        and the schedule it builds unchecked passes the full check."""
        from tdforge import constructions
        calls = []

        def counted(width, height, real=constructions.ary_tree_size):
            calls.append((width, height))
            return real(width, height)

        monkeypatch.setattr(constructions, "ary_tree_size", counted)
        s = gadget_schedule(3, 2)
        monkeypatch.undo()
        assert calls == [(s.widths[1], s.heights[1]),
                         (s.widths[0], s.heights[0])]
        assert GadgetSchedule(s.k, s.n, s.heights, s.widths, s.tree_sizes,
                              s.genuine) == s

    def test_toy_schedule(self):
        s = toy_schedule(1, 2, [1, 2], [2, 2])
        assert not s.genuine
        assert s.tree_sizes == (3, 7)
        assert s.attachment_total(2) == 2 + 2 + 6
        with pytest.raises(ValueError):
            toy_schedule(1, 2, [1], [2, 2])

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            GadgetSchedule(1, 1, (0,), (2,), (1,), False)  # height < 1
        with pytest.raises(ValueError):
            GadgetSchedule(1, 1, (1,), (2,), (99,), False)  # size mismatch
        with pytest.raises(ValueError):
            GadgetSchedule(0, 1, (1,), (2,), (3,), False)  # k < 1


class TestAttachGadgets:
    def test_single_vertex_base(self):
        base = Graph(["a0"], [])
        inst = attach_gadgets(base, None, toy_schedule(1, 1, [1], [1]))
        assert inst.graph.vertex_set == {"a0", "a0#0"}
        assert inst.graph.edges == {("a0", "a0#0")}
        assert inst.gadgets["a0"] == {"a0#0"}
        assert inst.ordering == ("a0",)

    def test_ordering_routes_trees(self):
        base = Graph(["a0", "a1"], [("a0", "a1")])
        sched = toy_schedule(1, 2, [1, 2], [1, 1])
        inst = attach_gadgets(base, ["a1", "a0"], sched)
        # a1 receives the height-1 tree, a0 the height-2 one
        assert inst.gadgets["a1"] == {"a1#0"}
        assert inst.gadgets["a0"] == {"a0#0", "a0#0.0"}
        assert len(inst.graph) == sched.attachment_total(2)
        assert base.edges <= inst.graph.edges

    def test_base_is_induced(self):
        base = Graph(["a0", "a1", "a2"],
                     [("a0", "a1"), ("a1", "a2"), ("a0", "a2")])
        inst = attach_gadgets(base, None, toy_schedule(1, 3, [1, 1, 1],
                                                       [2, 1, 1]))
        assert inst.graph.subgraph(base.vertex_set) == base
        sets = list(inst.gadgets.values())
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not (sets[i] & sets[j])

    def test_rejections(self):
        base = Graph(["a0", "a1"], [("a0", "a1")])
        sched = toy_schedule(1, 2, [1, 1], [1, 1])
        with pytest.raises(ValueError):
            attach_gadgets(base, ["a0"], sched)  # wrong length
        with pytest.raises(ValueError):
            attach_gadgets(base, ["a0", "a0"], sched)  # not a permutation
        with pytest.raises(SizeExceeded):
            attach_gadgets(base, None, sched, cap=3)

    def test_name_collision_detected(self):
        base = Graph(["a0", "a0#0"], [("a0", "a0#0")])
        sched = toy_schedule(1, 2, [1, 1], [1, 1])
        with pytest.raises(ValueError):
            attach_gadgets(base, None, sched)
