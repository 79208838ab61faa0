"""Decomposition type, validator, subtree view, anchoring."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tdforge.decomposition import (
    DISCONNECTED_SUBTREE,
    EMPTY_SUBTREE,
    UNCOVERED_EDGE,
    TreeDecomposition,
    is_anchored,
    validate,
)
from tdforge.graphs import Graph, cycle_graph, is_spanning_tree, path_graph
from tdforge.transforms import minor_to_spanning
from generators import random_model_and_td, random_spanning_tree, random_tree
from oracles import bfs_path, from_subtrees


def square_on_path():
    """A width-2 anchored decomposition of the 4-cycle on a spanning path."""
    g = cycle_graph(4)
    host = Graph(g.vertices, [("c00", "c01"), ("c01", "c02"), ("c02", "c03")])
    bags = {
        "c00": {"c00", "c01", "c03"},
        "c01": {"c01", "c02", "c03"},
        "c02": {"c02", "c03"},
        "c03": {"c03"},
    }
    return g, TreeDecomposition(host, bags)


class TestTreeDecomposition:
    def test_accessors(self):
        g, td = square_on_path()
        assert td.width() == 2
        assert td.bag("c03") == {"c03"}
        assert td.bags["c00"] == {"c00", "c01", "c03"}
        assert td.decomposed_vertices() == g.vertex_set

    def test_missing_bags_become_empty(self):
        host = path_graph(3)
        td = TreeDecomposition(host, {"p00": {"x"}})
        assert td.bag("p01") == frozenset()
        assert td.width() == 0

    def test_rejects_bad_hosts_and_keys(self):
        with pytest.raises(ValueError):
            TreeDecomposition(cycle_graph(3), {})
        with pytest.raises(ValueError):
            TreeDecomposition(path_graph(2), {"nope": {"x"}})

    def test_equality(self):
        g, td = square_on_path()
        g2, td2 = square_on_path()
        assert td == td2
        assert td != TreeDecomposition(td.host, {})


class TestValidate:
    def test_valid(self):
        g, td = square_on_path()
        report = validate(g, td)
        assert report and bool(report) and str(report) == "valid"
        assert report.violations == ()

    def test_uncovered_edge(self):
        g, td = square_on_path()
        bags = td.bags
        bags["c00"] = bags["c00"] - {"c03"}
        report = validate(g, TreeDecomposition(td.host, bags))
        assert not report
        assert {v.kind for v in report.violations} == {UNCOVERED_EDGE}
        assert report.violations[0].subject == ("c00", "c03")

    def test_empty_subtree(self):
        g, td = square_on_path()
        bags = {x: b - {"c03"} for x, b in td.bags.items()}
        report = validate(g, TreeDecomposition(td.host, bags))
        kinds = {v.kind for v in report.violations}
        assert EMPTY_SUBTREE in kinds and UNCOVERED_EDGE in kinds

    def test_disconnected_subtree(self):
        g, td = square_on_path()
        bags = td.bags
        bags["c01"] = bags["c01"] - {"c03"}  # c03 now at c00, c02 but not c01
        report = validate(g, TreeDecomposition(td.host, bags))
        assert {v.kind for v in report.violations} == {DISCONNECTED_SUBTREE}
        assert report.violations[0].subject == "c03"

    def test_rejects_stray_vertices(self):
        host = path_graph(2)
        td = TreeDecomposition(host, {"p00": {"z"}})
        with pytest.raises(ValueError):
            validate(path_graph(2, prefix="q"), td)

    def test_seeded_generator_outputs_validate(self):
        rng = random.Random(11)
        for _ in range(25):
            g, td, _ = random_model_and_td(rng)
            assert validate(g, td)


class TestFromSubtrees:
    """The oracles' from_subtrees, which tests and the naive decider use
    to build decompositions by their subtrees."""

    def test_round_trip(self):
        g, td = square_on_path()
        assignment = {v: {x for x, b in td.bags.items() if v in b}
                      for v in g.vertices}
        assert from_subtrees(td.host, assignment) == td

    def test_rejections(self):
        host = path_graph(3)
        with pytest.raises(ValueError):
            from_subtrees(host, {"x": set()})
        with pytest.raises(ValueError):
            from_subtrees(host, {"x": {"p00", "p02"}})  # disconnected
        with pytest.raises(ValueError):
            from_subtrees(host, {"x": {"nope"}})
        with pytest.raises(ValueError):
            from_subtrees(cycle_graph(3), {"x": {"c00"}})


class TestIsAnchored:
    def test_anchored_case(self):
        g, td = square_on_path()
        assert is_anchored(g, td)

    def test_spanning_but_not_anchored(self):
        # valid on a spanning path, but c00 never sits in its own bag
        g, td = square_on_path()
        bags = {
            "c00": {"c03"},
            "c01": {"c00", "c01", "c02", "c03"},
            "c02": {"c02", "c03"},
            "c03": {"c03"},
        }
        td2 = TreeDecomposition(td.host, bags)
        assert validate(g, td2)
        assert not is_anchored(g, td2)

    def test_not_spanning_host(self):
        g = cycle_graph(4)
        host = Graph(["t0"], [])
        td = TreeDecomposition(host, {"t0": g.vertex_set})
        assert validate(g, td)
        assert not is_anchored(g, td)

    def test_invalid_decomposition_raises(self):
        g, td = square_on_path()
        with pytest.raises(ValueError):
            is_anchored(g, TreeDecomposition(td.host, {}))

    def test_invalid_decomposition_reports_not_anchored(self):
        """Dropping c01 from c00's bag uncovers the edge c00-c01, while the
        host still spans g and every vertex stays in its own bag: the
        report is invalid and not anchored, and is_anchored still raises."""
        g, td = square_on_path()
        bags = td.bags
        bags["c00"] = bags["c00"] - {"c01"}
        broken = TreeDecomposition(td.host, bags)
        report = validate(g, broken)
        assert not report and not report.anchored
        with pytest.raises(ValueError):
            is_anchored(g, broken)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_definition(self, seed):
        """is_anchored against its definition on the generator's pattern
        host, on its rehosting onto a spanning tree, and on random spanning
        and non-spanning trees over V(g). On the last two every subtree is
        a path from one shared centre node, to v itself half the time."""
        rng = random.Random(seed)
        g, td, model = random_model_and_td(rng)
        tds = [td, minor_to_spanning(g, td, model)]
        for host in (random_spanning_tree(rng, g),
                     random_tree(rng, list(g.vertices))):
            centre = rng.choice(host.vertices)
            ends = {v: v if rng.random() < 0.5 else rng.choice(host.vertices)
                    for v in g.vertices}
            tds.append(from_subtrees(host, {v: bfs_path(host, centre, end)
                                            for v, end in ends.items()}))
        for d in tds:
            report = validate(g, d)
            definition = (is_spanning_tree(g, d.host)
                          and all(x in d.bag(x) for x in g.vertices))
            assert report
            assert report.anchored == is_anchored(g, d) == definition
