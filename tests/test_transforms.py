"""Minor models, rehosting onto spanning trees, anchoring reduction."""

import random

import pytest

from tdforge import transforms
from tdforge.constructions import GadgetInstance, attach_gadgets, toy_schedule
from tdforge.decomposition import (
    UNCOVERED_EDGE,
    TreeDecomposition,
    is_anchored,
    validate,
)
from tdforge.errors import HostNotSpanning, ReductionInvalid
from tdforge.graphs import Graph, cycle_graph, is_spanning_tree, path_graph
from tdforge.transforms import (
    BRANCH_DISCONNECTED,
    BRANCH_EMPTY,
    BRANCH_MISSING,
    BRANCH_OVERLAP,
    BRANCH_STRAY,
    BRANCH_UNKNOWN,
    PATTERN_NOT_TREE,
    WITNESS_BAD,
    WITNESS_MISSING,
    MinorModel,
    complete_model,
    minor_to_spanning,
    reduce_to_anchored,
    validate_model,
)
from generators import random_model_and_td


def five_cycle_model():
    """C5 contracted to a single edge x-y, with a width-3 decomposition."""
    g = cycle_graph(5)
    pattern = Graph(["x", "y"], [("x", "y")])
    model = MinorModel(g, pattern,
                       {"x": {"c00", "c01", "c02"}, "y": {"c03", "c04"}},
                       {("x", "y"): ("c02", "c03")})
    td = TreeDecomposition(pattern, {"x": {"c00", "c01", "c02", "c04"},
                                     "y": {"c02", "c03", "c04"}})
    return g, td, model


class TestValidateModel:
    def test_valid(self):
        g, _, model = five_cycle_model()
        assert validate_model(model)
        assert model.is_covering()

    def test_each_violation_kind(self):
        g = cycle_graph(5)
        pattern = Graph(["x", "y"], [("x", "y")])
        ok_sets = {"x": {"c00", "c01", "c02"}, "y": {"c03", "c04"}}
        ok_map = {("x", "y"): ("c02", "c03")}

        def kinds(sets, emap, pat=pattern):
            return {v.kind for v in
                    validate_model(MinorModel(g, pat, sets, emap)).violations}

        assert PATTERN_NOT_TREE in kinds(ok_sets, {},
                                         pat=Graph(["x", "y"], []))
        assert BRANCH_MISSING in kinds({"x": ok_sets["x"]}, ok_map)
        assert BRANCH_EMPTY in kinds({**ok_sets, "y": set()}, ok_map)
        assert BRANCH_STRAY in kinds({**ok_sets, "y": {"zz"}}, ok_map)
        assert kinds({**ok_sets, "z": {"c04"}}, ok_map) == {BRANCH_UNKNOWN}
        assert BRANCH_OVERLAP in kinds(
            {**ok_sets, "y": {"c02", "c03", "c04"}}, ok_map)
        assert BRANCH_DISCONNECTED in kinds(
            {"x": {"c00", "c01"}, "y": {"c02", "c04"}}, ok_map)
        assert WITNESS_MISSING in kinds(ok_sets, {})
        assert WITNESS_BAD in kinds(ok_sets, {("x", "y"): ("c00", "c01")})

    def test_report_is_falsy_with_subjects(self):
        g, _, model = five_cycle_model()
        bad = MinorModel(g, model.pattern,
                         {**model.branch_sets, "y": frozenset()},
                         model.edge_map)
        report = validate_model(bad)
        assert not report
        assert report.violations[0].subject == "y"


class TestCompleteModel:
    def test_absorbs_by_layers_with_lexicographic_ties(self):
        # triangle t0-t1-t2 plus pendant t3 at t2; t2 borders both branches
        g = Graph(["t0", "t1", "t2", "t3"],
                  [("t0", "t1"), ("t1", "t2"), ("t0", "t2"), ("t2", "t3")])
        m = MinorModel(g, Graph(["x", "y"], [("x", "y")]),
                       {"x": {"t0"}, "y": {"t1"}},
                       {("x", "y"): ("t0", "t1")})
        full = complete_model(m)
        assert full.branch_sets == {"x": {"t0", "t2", "t3"}, "y": {"t1"}}
        assert validate_model(full)
        assert full.is_covering()

    def test_idempotent_on_covering(self):
        g, _, model = five_cycle_model()
        assert complete_model(model) is model

    def test_rejects_invalid(self):
        g = path_graph(3)
        m = MinorModel(g, Graph(["x"], []), {"x": set()}, {})
        with pytest.raises(ValueError):
            complete_model(m)


class TestMinorToSpanning:
    def test_five_cycle_exact(self):
        g, td, model = five_cycle_model()
        out = minor_to_spanning(g, td, model)
        assert out.host.edges == {("c00", "c01"), ("c01", "c02"),
                                  ("c02", "c03"), ("c03", "c04")}
        assert out.bag("c01") == td.bag("x")
        assert out.bag("c04") == td.bag("y")
        assert out.width() == td.width() == 3
        assert is_spanning_tree(g, out.host)
        assert validate(g, out)

    def test_single_branch_pattern(self):
        g = path_graph(4)
        pattern = Graph(["x"], [])
        model = MinorModel(g, pattern, {"x": {"p01"}}, {})
        td = TreeDecomposition(pattern, {"x": set(g.vertices)})
        out = minor_to_spanning(g, td, model)  # completion absorbs the rest
        assert out.host.edges == g.edges  # the path spans itself
        assert out.width() == 3

    def test_non_covering_model_is_checked_once(self, monkeypatch):
        """With c04 left out of every branch set, minor_to_spanning
        completes the model itself: c04 joins x, its least neighbouring
        branch, and inherits x's bag. The model is validated and the graph
        checked for connectivity once each, and the result is the one the
        completed model gives."""
        g, td, model = five_cycle_model()
        partial = MinorModel(g, model.pattern,
                             {**model.branch_sets, "y": {"c03"}},
                             model.edge_map)
        want = minor_to_spanning(g, td, complete_model(partial))
        calls = []
        for name in ("validate_model", "_check_model", "is_connected"):
            def counted(*args, name=name, real=getattr(transforms, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(transforms, name, counted)
        out = minor_to_spanning(g, td, partial)
        # validate_model is _check_model's report alone
        assert sorted(calls) == ["_check_model", "is_connected"]
        assert out.host == want.host
        assert out.bags == want.bags
        assert out.bag("c04") == td.bag("x")

    def test_mismatched_inputs(self):
        g, td, model = five_cycle_model()
        with pytest.raises(ValueError):
            minor_to_spanning(cycle_graph(4), td, model)
        wrong_host = TreeDecomposition(Graph(["z"], []), {"z": set()})
        with pytest.raises(ValueError):
            minor_to_spanning(g, wrong_host, model)
        bad_model = MinorModel(g, model.pattern,
                               {**model.branch_sets, "y": frozenset()},
                               model.edge_map)
        with pytest.raises(ValueError):
            minor_to_spanning(g, td, bad_model)

    def test_branch_set_outside_the_pattern_is_refused(self):
        """A covering model makes its graph connected only if every branch
        set belongs to a pattern vertex: here c02 sits in a branch set of
        its own, keyed outside the pattern, on a disconnected graph."""
        g = Graph(["c00", "c01", "c02"], [("c00", "c01")])
        pattern = Graph(["x"], [])
        model = MinorModel(g, pattern, {"x": {"c00", "c01"}, "z": {"c02"}},
                           {})
        td = TreeDecomposition(pattern, {"x": set(g.vertices)})
        with pytest.raises(ValueError, match="branch-set-outside-pattern"):
            minor_to_spanning(g, td, model)

    def test_seeded_suite(self):
        rng = random.Random(99)
        for _ in range(40):
            g, td, model = random_model_and_td(rng)
            out = minor_to_spanning(g, td, model)
            assert is_spanning_tree(g, out.host)
            assert validate(g, out)
            assert out.width() == td.width()


def tree_instance():
    """Base edge a0-a1 with one pendant gadget vertex on each side."""
    base = Graph(["a0", "a1"], [("a0", "a1")])
    return attach_gadgets(base, None, toy_schedule(1, 2, [1, 1], [1, 1]))


class TestReduceToAnchored:
    def test_grounded_case_passes_through(self):
        inst = tree_instance()
        g = inst.graph
        td = TreeDecomposition(g, {
            "a0#0": {"a0#0", "a0"},
            "a0": {"a0", "a1"},
            "a1": {"a1", "a1#0"},
            "a1#0": {"a1#0"},
        })
        assert validate(g, td) and is_anchored(g, td)
        out = reduce_to_anchored(inst, td)
        assert out.host.edges == {("a0", "a1")}
        assert out.bags == {"a0": {"a0", "a1"}, "a1": {"a1"}}
        assert out.width() == td.width() == 1

    def test_ungrounded_vertex_is_injected(self):
        inst = tree_instance()
        g = inst.graph
        # a0 lives only on the gadget node a0#0 and never in its own bag
        td = TreeDecomposition(g, {
            "a0#0": {"a0", "a0#0", "a1"},
            "a0": {"a1"},
            "a1": {"a1", "a1#0"},
            "a1#0": {"a1#0"},
        })
        assert validate(g, td)
        assert not is_anchored(g, td)
        with pytest.warns(UserWarning):
            out = reduce_to_anchored(inst, td)
        assert out.bags == {"a0": {"a0", "a1"}, "a1": {"a1"}}
        assert is_anchored(inst.base, out)
        assert out.width() <= td.width() + 1

    def test_reduction_invalid_branch(self):
        # both base vertices live entirely inside a0's gadget region, so
        # cutting to base nodes uncovers the base edge
        base = Graph(["a0", "a1"], [("a0", "a1")])
        inst = attach_gadgets(base, None, toy_schedule(1, 2, [1, 1], [2, 2]))
        g = inst.graph
        td = TreeDecomposition(g, {
            "a0": {"a0#1", "a1#0", "a1#1"},
            "a1": {"a1#0", "a1#1"},
            "a0#0": {"a0", "a1", "a0#0", "a0#1", "a1#0", "a1#1"},
            "a0#1": {"a0#1"},
            "a1#0": {"a1#0"},
            "a1#1": {"a1#1"},
        })
        assert validate(g, td)
        with pytest.warns(UserWarning):
            with pytest.raises(ReductionInvalid) as exc:
                reduce_to_anchored(inst, td)
        report = exc.value.report
        assert not report.valid
        assert {v.kind for v in report.violations} == {UNCOVERED_EDGE}
        assert report.violations[0].subject == ("a0", "a1")

    def test_input_rejections(self):
        inst = tree_instance()
        g = inst.graph
        all_empty = TreeDecomposition(g, {x: set() for x in g.vertices})
        with pytest.raises(ValueError):
            reduce_to_anchored(inst, all_empty)
        # valid decomposition, but hosted on a non-spanning tree
        host = Graph(["t0"], [])
        td = TreeDecomposition(host, {"t0": set(g.vertices)})
        assert validate(g, td)
        with pytest.raises(ValueError):
            reduce_to_anchored(inst, td)

    def test_internal_host_check(self):
        # a hand-forged instance whose "gadget" vertices form a bridge lets
        # the host bypass the base edge; the defensive check must fire
        base = Graph(["a0", "a1"], [("a0", "a1")])
        square = Graph(["a0", "a1", "b0", "b1"],
                       [("a0", "a1"), ("a0", "b0"), ("b0", "b1"), ("a1", "b1")])
        forged = GadgetInstance(base, ("a0", "a1"),
                                toy_schedule(1, 2, [1, 1], [1, 1]), square,
                                {"a0": frozenset({"b0"}),
                                 "a1": frozenset({"b1"})})
        host = Graph(square.vertices,
                     [("a0", "b0"), ("b0", "b1"), ("a1", "b1")])
        td = TreeDecomposition(host, {x: set(square.vertices)
                                      for x in host.vertices})
        assert validate(square, td)
        with pytest.warns(UserWarning):
            with pytest.raises(HostNotSpanning):
                reduce_to_anchored(forged, td)
