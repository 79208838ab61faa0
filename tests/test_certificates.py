"""Spanning-tree width certificates: construction, verification, readout."""

import dataclasses
import itertools
import random

import pytest

from oracles import (bfs_path, path_edges, reference_matching,
                     verify_certificate_by_sets)
from tdforge.certificates import (
    MatchingPlan,
    WidthCertificate,
    bag_lower_bound,
    reflected_matching,
    verify_certificate,
)
from tdforge.constructions import reflected_tree
from tdforge.decomposition import TreeDecomposition, is_anchored, validate
from tdforge.errors import HypothesisViolated
from tdforge.graphs import Graph, HostTree, Matching
from tdforge.search import (enumerate_spanning_trees, min_width_on_tree,
                            sample_spanning_trees)

RT2 = reflected_tree(2)
ALL4 = frozenset({"L.u", "R.u", "u", "v"})


def host_missing(e):
    """The spanning tree of the level-2 square that omits edge e."""
    return Graph(RT2.graph.vertices, sorted(RT2.graph.edges - {e}))


class TestReflectedMatching:
    def test_level2_structure(self):
        for missing in sorted(RT2.graph.edges):
            t = host_missing(missing)
            cert = reflected_matching(RT2, t)
            assert cert.level == 2
            assert cert.host == t
            assert cert.matching.edges == {missing}
            # every fundamental cycle in the square is the whole square
            assert cert.cycles == {missing: ALL4}
            assert cert.witness_edge in t.edges
            assert cert.witness_edge in path_edges(bfs_path(t, "u", "v"))
            assert cert.hub == cert.witness_edge[0]

    def test_level2_exact_hubs(self):
        expected = {
            ("L.u", "u"): ("R.u", ("R.u", "u")),
            ("R.u", "u"): ("L.u", ("L.u", "u")),
            ("L.u", "v"): ("R.u", ("R.u", "u")),
            ("R.u", "v"): ("L.u", ("L.u", "u")),
        }
        for missing, (hub, witness) in expected.items():
            cert = reflected_matching(RT2, host_missing(missing))
            assert (cert.hub, cert.witness_edge) == (hub, witness)

    def test_level3_properties(self):
        rt = reflected_tree(3)
        hosts = enumerate_spanning_trees(rt.graph)
        for t in list(hosts)[:12]:
            cert = reflected_matching(rt, t)
            assert len(cert.matching) == 2
            assert all(e in rt.graph.edges and e not in t.edges
                       for e in cert.matching.edges)
            assert all(cert.hub in cyc for cyc in cert.cycles.values())
            check = verify_certificate(rt, cert)
            assert check and check.reasons == ()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            reflected_matching(reflected_tree(1), RT2.graph)
        not_spanning = Graph(RT2.graph.vertices, [("L.u", "u"), ("R.u", "u")])
        with pytest.raises(ValueError):
            reflected_matching(RT2, not_spanning)


def assert_matches_reference(rt, trees):
    """reflected_matching, with one plan for all trees, returns what the
    name-set reference returns: matching, hub, witness edge and cycles."""
    plan = MatchingPlan(rt)
    count = 0
    for t in trees:
        matching, hub, witness, cycles = reference_matching(rt, t)
        cert = reflected_matching(rt, t, plan)
        assert cert.matching.edges == frozenset(matching)
        assert (cert.hub, cert.witness_edge) == (hub, witness)
        assert cert.cycles == cycles
        assert cert.host is t
        count += 1
    return count


class TestAgainstReference:
    def test_all_level3_trees(self):
        rt = reflected_tree(3)
        assert assert_matches_reference(
            rt, enumerate_spanning_trees(rt.graph)) == 96

    def test_every_64th_level4_tree(self):
        rt = reflected_tree(4)
        trees = itertools.islice(enumerate_spanning_trees(rt.graph), 0, None, 64)
        assert assert_matches_reference(rt, trees) == 1008

    @pytest.mark.parametrize("level", [5, 6, 7])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampled_trees(self, level, seed):
        rt = reflected_tree(level)
        trees = (h.tree for h in sample_spanning_trees(rt.graph, 25, seed=seed))
        assert assert_matches_reference(rt, trees) == 25

    def test_host_tree_input(self):
        """A checked HostTree gives the certificate its Graph gives."""
        rt = reflected_tree(4)
        plan = MatchingPlan(rt)
        for walked in sample_spanning_trees(rt.graph, 20, seed=4):
            t = walked.tree
            assert (reflected_matching(rt, HostTree(rt.graph, t), plan)
                    == reflected_matching(rt, t))

    def test_refusals_match(self):
        """A non-spanning tree, and a tree of another level, are refused
        with the reference's ValueError, as a Graph and (for the tree of
        another level) as a HostTree; so is a plan of another level."""
        rt4, rt5 = reflected_tree(4), reflected_tree(5)
        t4 = next(sample_spanning_trees(rt4.graph, 1, seed=1)).tree
        not_spanning = Graph(rt4.graph.vertices, sorted(t4.edges)[1:])
        for rt, t in [(rt4, not_spanning), (rt5, t4)]:
            with pytest.raises(ValueError) as want:
                reference_matching(rt, t)
            with pytest.raises(ValueError) as got:
                reflected_matching(rt, t, MatchingPlan(rt))
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as got:
            reflected_matching(rt5, HostTree(rt4.graph, t4))
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="another reflected tree"):
            reflected_matching(rt4, t4, MatchingPlan(rt5))


class TestVerifyCertificate:
    def setup_method(self):
        self.t = host_missing(("L.u", "u"))
        self.cert = reflected_matching(RT2, self.t)

    def test_clean_certificate(self):
        check = verify_certificate(RT2, self.cert)
        assert check
        assert check.reasons == ()

    def test_wrong_level(self):
        bad = dataclasses.replace(self.cert, level=3)
        check = verify_certificate(RT2, bad)
        assert not check
        assert "does not match" in check.reasons[0]

    def test_host_swapped_for_another_tree(self):
        # the matching edge is a tree edge of the substituted host
        bad = dataclasses.replace(self.cert, host=host_missing(("R.u", "u")))
        check = verify_certificate(RT2, bad)
        assert not check
        assert any("tree edge" in r for r in check.reasons)

    def test_wrong_hub(self):
        bad = dataclasses.replace(self.cert, hub="v")
        check = verify_certificate(RT2, bad)
        assert not check
        assert any("endpoint of the witness" in r for r in check.reasons)

    def test_witness_off_the_root_path(self):
        bad = dataclasses.replace(self.cert, hub="L.u",
                                  witness_edge=("L.u", "v"))
        check = verify_certificate(RT2, bad)
        assert not check
        assert check.reasons == ("witness edge is not on the u-v tree path",)

    def test_tampered_cycle_record(self):
        bad = dataclasses.replace(self.cert,
                                  cycles={("L.u", "u"): frozenset({"u"})})
        check = verify_certificate(RT2, bad)
        assert not check
        assert any("recorded cycle" in r for r in check.reasons)

    def test_matching_of_tree_edges(self):
        bad = dataclasses.replace(self.cert,
                                  matching=Matching(frozenset({("R.u", "u")})),
                                  cycles={("R.u", "u"): ALL4})
        check = verify_certificate(RT2, bad)
        assert not check
        assert any("is a tree edge" in r for r in check.reasons)


def matching_of(edges) -> Matching:
    """A Matching holding exactly these edges, without its check, so a
    tampered certificate can carry edges that share an endpoint."""
    m = Matching(frozenset())
    object.__setattr__(m, "edges", frozenset(edges))
    return m


def tampered(rt, cert, rng):
    """(what, certificate) pairs: cert with each field tampered, several
    ways each."""
    g, t = rt.graph, cert.host
    vertices = sorted(g.vertices)
    tree = sorted(t.edges)
    non_tree = sorted(g.edges - t.edges)
    matching = sorted(cert.matching.edges)
    spare = [e for e in non_tree if e not in cert.matching.edges]
    e0 = matching[0]
    replace = dataclasses.replace

    def with_matching(edges):
        return replace(cert, matching=matching_of(edges),
                       cycles={e: cert.cycles.get(e, frozenset(e))
                               for e in edges})

    yield "level up", replace(cert, level=cert.level + 1)
    yield "level down", replace(cert, level=cert.level - 1)
    for _ in range(3):
        swapped = set(tree) - {rng.choice(tree)} | {rng.choice(non_tree)}
        yield "host edge swapped", replace(cert, host=Graph(t.vertices, swapped))
    yield "host edge dropped", replace(cert, host=Graph(t.vertices, tree[1:]))
    yield "host on more vertices", replace(
        cert, host=Graph(list(t.vertices) + ["zz"], tree + [("u", "zz")]))
    if spare:
        extra = rng.choice(spare)
        yield "matching edge added", replace(
            cert, matching=matching_of(matching + [extra]))
        yield "matching edge added with its cycle", with_matching(
            matching + [extra])
    sharing = [e for e in non_tree if e != e0 and set(e) & set(e0)]
    if sharing:
        yield "matching edges share an endpoint", with_matching(
            matching[1:] + [rng.choice(sharing)])
    yield "matching holds a tree edge", with_matching(
        matching[1:] + [rng.choice(tree)])
    non_edges = [(a, b) for a, b in itertools.combinations(vertices, 2)
                 if (a, b) not in g.edges]
    yield "matching holds a non-edge", with_matching(
        matching[1:] + [rng.choice(non_edges)])
    cycles = dict(cert.cycles)
    outside = sorted(set(vertices) - cycles[e0])
    if outside:
        yield "cycle vertex added", replace(cert, cycles={
            **cycles, e0: cycles[e0] | {rng.choice(outside)}})
    yield "cycle vertex dropped", replace(cert, cycles={
        **cycles, e0: cycles[e0] - {rng.choice(sorted(cycles[e0]))}})
    if spare:
        renamed = dict(cycles)
        renamed[rng.choice(spare)] = renamed.pop(e0)
        yield "cycle key changed", replace(cert, cycles=renamed)
    for e in matching[1:]:
        only = sorted(cycles[e0] - cycles[e])
        if only:
            yield "hub on some cycles only", replace(cert, hub=rng.choice(only))
    yield "hub outside the graph", replace(cert, hub="zz")
    yield "hub elsewhere", replace(cert, hub=rng.choice(vertices))
    a, b = cert.witness_edge
    off_path = sorted(set(tree) - {cert.witness_edge})
    for what, w in [("witness reversed", (b, a)),
                    ("witness a non-tree edge", rng.choice(non_tree)),
                    ("witness the matching edge", e0),
                    ("witness another tree edge", rng.choice(off_path)),
                    ("witness a non-edge", rng.choice(non_edges)),
                    ("witness outside the graph", ("u", "zz"))]:
        yield what, replace(cert, witness_edge=w)
        yield what + ", hub its end", replace(cert, witness_edge=w, hub=w[0])


class TestVerifierMatchesReference:
    """verify_certificate, on the index, gives the former named-set check
    (oracles.verify_certificate_by_sets) exactly: the same ok and the same
    reasons in the same order, on genuine certificates and on copies with
    every field tampered. The reference gets a fresh copy of the host, so
    it walks the tree itself."""

    @staticmethod
    def assert_same(rt, cert):
        fresh = dataclasses.replace(
            cert, host=Graph(cert.host.vertices, cert.host.edges))
        want = verify_certificate_by_sets(rt, fresh)
        got = verify_certificate(rt, cert)
        assert (got.ok, got.reasons) == (want.ok, want.reasons)
        return got

    def check_trees(self, rt, trees, seed):
        rng = random.Random(seed)
        plan = MatchingPlan(rt)
        seen = set()
        for host in trees:
            cert = reflected_matching(rt, host, plan)
            assert self.assert_same(rt, cert)
            for what, bad in tampered(rt, cert, rng):
                if not self.assert_same(rt, bad):
                    seen.add(what)
        return seen

    def test_all_level3_trees(self):
        rt = reflected_tree(3)
        trees = (HostTree(rt.graph, t) for t in enumerate_spanning_trees(rt.graph))
        seen = self.check_trees(rt, trees, seed=3)
        # every kind of tampering was refused somewhere
        assert {"witness reversed", "hub outside the graph",
                "witness the matching edge", "witness another tree edge",
                "hub on some cycles only", "cycle key changed",
                "matching edges share an endpoint", "host edge dropped",
                "level up"} <= seen

    def test_unhashable_hub_or_witness_raises_alike(self):
        rt = reflected_tree(3)
        cert = reflected_matching(rt, next(enumerate_spanning_trees(rt.graph)))
        for bad in (dataclasses.replace(cert, hub=["u"]),
                    dataclasses.replace(cert, witness_edge=list(cert.witness_edge)),
                    dataclasses.replace(cert, witness_edge=(["u"], "v"))):
            with pytest.raises(TypeError) as want:
                verify_certificate_by_sets(rt, bad)
            with pytest.raises(TypeError) as got:
                verify_certificate(rt, bad)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("level, count", [(4, 40), (5, 15), (6, 6)])
    def test_sampled_trees(self, level, count):
        rt = reflected_tree(level)
        self.check_trees(rt, sample_spanning_trees(rt.graph, count, seed=level),
                         seed=level)


def anchored_td_on_tree1():
    """Anchored width-2 decomposition on the host omitting (L.u, u)."""
    t = host_missing(("L.u", "u"))  # path u - R.u - v - L.u
    td = TreeDecomposition(t, {
        "u": {"u"},
        "R.u": {"u", "R.u", "v"},
        "v": {"u", "v"},
        "L.u": {"u", "v", "L.u"},
    })
    assert validate(RT2.graph, td) and is_anchored(RT2.graph, td)
    return t, td


class TestBagLowerBound:
    def test_reads_forced_vertex(self):
        t, td = anchored_td_on_tree1()
        cert = reflected_matching(RT2, t)
        hub, forced = bag_lower_bound(RT2, cert, td)
        assert (hub, forced) == ("R.u", ["u"])
        assert set(forced) <= td.bag(hub)

    def test_level3_decider_witness(self):
        rt = reflected_tree(3)
        for t in enumerate_spanning_trees(rt.graph):
            res = min_width_on_tree(rt.graph, t, 3, anchored=True)
            if res.is_sat:
                break
        cert = reflected_matching(rt, t)
        hub, forced = bag_lower_bound(rt, cert, res.witness)
        assert len(set(forced)) == 2
        assert set(forced) <= res.witness.bag(hub)

    def test_rejects_unverified_certificate(self):
        t, td = anchored_td_on_tree1()
        bad = dataclasses.replace(reflected_matching(RT2, t), hub="v")
        with pytest.raises(HypothesisViolated):
            bag_lower_bound(RT2, bad, td)

    def test_rejects_foreign_host(self):
        t, _ = anchored_td_on_tree1()
        cert = reflected_matching(RT2, t)
        other = host_missing(("R.u", "u"))
        res = min_width_on_tree(RT2.graph, other, 2, anchored=True)
        assert res.is_sat
        with pytest.raises(HypothesisViolated):
            bag_lower_bound(RT2, cert, res.witness)

    def test_rejects_invalid_decomposition(self):
        t, _ = anchored_td_on_tree1()
        cert = reflected_matching(RT2, t)
        empty = TreeDecomposition(t, {x: set() for x in t.vertices})
        with pytest.raises(HypothesisViolated):
            bag_lower_bound(RT2, cert, empty)

    def test_rejects_unanchored_decomposition(self):
        t, td = anchored_td_on_tree1()
        cert = reflected_matching(RT2, t)
        bags = dict(td.bags)
        bags["u"] = {"R.u"}  # evict u from its own bag; stays valid
        loose = TreeDecomposition(t, bags)
        assert validate(RT2.graph, loose)
        assert not is_anchored(RT2.graph, loose)
        with pytest.raises(HypothesisViolated):
            bag_lower_bound(RT2, cert, loose)
