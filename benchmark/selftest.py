"""Tests for the benchmark's own checkers: each must pass a true output
and reject a tampered one.

    python3 benchmark/selftest.py
"""

import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tdforge import io  # noqa: E402
from tdforge.certificates import reflected_matching  # noqa: E402
from tdforge.constructions import reflected_tree  # noqa: E402
from tdforge.graphs import Graph, complete_graph, cycle_graph  # noqa: E402


class SpanningTreeCount(unittest.TestCase):
    def test_known_counts(self):
        for g, count in ((complete_graph(4), 16), (cycle_graph(5), 5),
                         (reflected_tree(3).graph, 96),
                         (reflected_tree(4).graph, 64512)):
            self.assertEqual(checks.spanning_tree_count(g.vertices, g.edges),
                             count)

    def test_disconnected_graph_has_none(self):
        self.assertEqual(checks.spanning_tree_count("abcd", [("a", "b"),
                                                             ("c", "d")]), 0)


class PipelineReport(unittest.TestCase):
    def report(self, certified=96, unsat=96, tw=2):
        return {"ok": True, "checks": [
            {"check": "outer-reflected-tree-treewidth", "ok": True, "value": 2},
            {"check": "gadget-graph-treewidth", "ok": True, "value": tw},
            {"check": "certificates", "ok": True, "matching_size": 2,
             "certified": certified},
            {"check": "anchored-width-bound", "ok": True, "budget": 0,
             "unsat": unsat}]}

    def test_true_report_passes(self):
        self.assertEqual(workloads.check_pipeline_report(self.report(), 1, 96),
                         [])

    def test_tampered_report_is_rejected(self):
        for report in (self.report(certified=95), self.report(unsat=0),
                       self.report(tw=3)):
            self.assertTrue(workloads.check_pipeline_report(report, 1, 96))


class HubMatchingBound(unittest.TestCase):
    def test_four_cycle(self):
        # host path a-b-c-d; the edge ad passes b and c, so the bound is 1
        host = [("a", "b"), ("b", "c"), ("c", "d")]
        bound, hub = checks.hub_matching_bound(host + [("a", "d")], "abcd",
                                               host)
        self.assertEqual((bound, hub), (1, "b"))

    def test_level4_hosts_certify_budget_2_unsat(self):
        g = reflected_tree(4).graph
        rng = random.Random(7)
        for _ in range(5):
            host = workloads.random_spanning_tree(g, rng)
            bound, _ = checks.hub_matching_bound(g.edges, g.vertices, host)
            self.assertGreaterEqual(bound, 3)

    def test_tampered_graph_certifies_nothing(self):
        g = reflected_tree(4).graph
        host = workloads.random_spanning_tree(g, random.Random(7))
        bound, _ = checks.hub_matching_bound(host, g.vertices, host)
        self.assertEqual(bound, 0)

    def test_host_that_is_not_a_tree_is_rejected(self):
        with self.assertRaises(ValueError):
            checks.hub_matching_bound([], "abc", [("a", "b")])


class Decomposition(unittest.TestCase):
    def setUp(self):
        self.vs, self.es, self.host, self.bags = workloads.plant(
            random.Random(3), 10, 2)

    def check(self, bags, **kw):
        return checks.check_decomposition(self.vs, self.es, self.vs,
                                          self.host, bags, **kw)

    def test_planted_decomposition_passes(self):
        self.assertEqual(self.check(self.bags, max_width=2, anchored=True), [])

    def test_vertex_missing_from_its_own_bag(self):
        v = self.vs[0]
        bags = {x: set(b) for x, b in self.bags.items()}
        bags[v].discard(v)
        self.assertTrue(self.check(bags, anchored=True))

    def test_uncovered_edge_and_disconnected_subtree(self):
        # host path a-b-c decomposing the path a-b-c
        host = [("a", "b"), ("b", "c")]
        good = {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c"}}
        self.assertEqual(checks.check_decomposition("abc", host, "abc", host,
                                                    good, anchored=True), [])
        uncovered = {"a": {"a"}, "b": {"b"}, "c": {"c"}}
        self.assertEqual(checks.check_decomposition("abc", host, "abc", host,
                                                    uncovered),
                         ["edge a-b is in no bag", "edge b-c is in no bag"])
        split = {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c", "a"}}
        self.assertEqual(checks.check_decomposition("abc", host, "abc", host,
                                                    split),
                         ["subtree of a is disconnected"])

    def test_width_over_budget(self):
        bags = {x: set(b) for x, b in self.bags.items()}
        bags[self.vs[0]] |= set(self.vs)
        self.assertTrue(self.check(bags, max_width=2))

    def test_host_not_spanning(self):
        host = [(a, b) for a, b in self.host]
        host[0] = (host[0][0], "elsewhere")
        problems = checks.check_decomposition(
            self.vs, self.es, self.vs[1:] + ["elsewhere"], host, {},
            spanning=True)
        self.assertTrue(problems)


class Certificate(unittest.TestCase):
    def setUp(self):
        self.rt = reflected_tree(4)
        g = self.rt.graph
        host = Graph(g.vertices, workloads.random_spanning_tree(
            g, random.Random(11)))
        self.obj = io.certificate_to_obj(reflected_matching(self.rt, host))

    def check(self, obj):
        g = self.rt.graph
        return checks.check_certificate(obj, g.vertices, g.edges, 4)

    def test_true_certificate_passes(self):
        self.assertEqual(self.check(self.obj), [])

    def test_dropped_matching_edge(self):
        self.assertTrue(self.check({**self.obj,
                                    "matching": self.obj["matching"][1:]}))

    def test_tree_edge_in_matching(self):
        matching = [self.obj["host"]["edges"][0]] + self.obj["matching"][1:]
        self.assertTrue(self.check({**self.obj, "matching": matching}))

    def test_witness_edge_moved(self):
        tree = checks.HostTree(self.obj["host"]["vertices"],
                               self.obj["host"]["edges"])
        on_uv = tree.path_edges("u", "v")
        off = next(list(e) for e in self.obj["host"]["edges"]
                   if tuple(sorted(e)) not in on_uv)
        self.assertTrue(self.check({**self.obj, "witness_edge": off,
                                    "hub": off[0]}))

    def test_wrong_cycle_record(self):
        cycles = dict(self.obj["cycles"])
        key = next(iter(cycles))
        cycles[key] = cycles[key][1:]
        self.assertTrue(self.check({**self.obj, "cycles": cycles}))


if __name__ == "__main__":
    unittest.main()
