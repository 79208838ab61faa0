"""Acceptance gate: twelve exact or property-based criteria, one test each.

Each test carries a hard wall-clock budget asserted at the end, so a
performance regression fails the gate just like a wrong answer. Frozen
constants (spanning-tree counts, SAT tallies, corpus sizes) were computed
once by independent routes and pinned; a change in any of them means the
underlying mathematics changed and must be investigated, not re-frozen.

The conftest prints a per-criterion PASS/FAIL summary after the run.
"""

import random
import time
import warnings

import pytest

from tdforge import (
    CertificateContradiction,
    ReductionInvalid,
    bag_lower_bound,
    check_longpath_property,
    count_spanning_trees,
    decide_over_trees,
    enumerate_spanning_trees,
    exact_treewidth,
    gadget_schedule,
    is_anchored,
    is_connected,
    is_spanning_tree,
    min_width_on_tree,
    minor_to_spanning,
    path_graph,
    reduce_to_anchored,
    reflected_matching,
    reflected_tree,
    reflected_tree_order,
    reflected_tree_size,
    sample_spanning_trees,
    validate,
    validate_model,
    verify_certificate,
)
from generators import (
    oracle_corpus,
    random_model_and_td,
    random_path_decomposition,
    random_spanning_tree,
    random_toy_instance,
)
from oracles import naive_threshold

pytestmark = pytest.mark.acceptance

# Wall-clock budgets in seconds, fixed up front. They are regression
# tripwires (a complexity blowup jumps to minutes), not benchmarks, so
# even the cheap criteria get several seconds of scheduling slack.
BUDGET_1 = 10
BUDGET_2 = 10
BUDGET_3 = 300
BUDGET_4 = 600
BUDGET_5 = 3600
BUDGET_6 = 600
BUDGET_7 = 120
BUDGET_8 = 120
BUDGET_9 = 10
BUDGET_10 = 1800
BUDGET_11 = 120
BUDGET_12 = 300

# Frozen spanning-tree counts of the level-2..4 reflected trees, confirmed
# by determinant and by exhaustive enumeration.
TREES_LEVEL_2 = 4
TREES_LEVEL_3 = 96
TREES_LEVEL_4 = 64512

# Frozen totals for the seeded suites below; a drift means a generator or
# construction changed behaviour, which must be deliberate and re-frozen.
CORPUS_TREES = 4266    # spanning trees across the 500-graph oracle corpus
EXPECTED_REDUCED = 36  # criterion 8 outcome split for seed 777: toy
EXPECTED_REJECTED = 14  # schedules make some reductions genuinely invalid


def test_criterion_01():
    """Reflected-tree structure: exact orders and sizes for levels 1..12;
    level 2 is the 4-cycle with the two roots opposite."""
    t0 = time.monotonic()
    for r in range(1, 13):
        rt = reflected_tree(r)
        assert len(rt.graph.vertices) == 3 * 2 ** (r - 1) - 2
        assert len(rt.graph.edges) == 4 * (2 ** (r - 1) - 1)
        assert reflected_tree_order(r) == len(rt.graph.vertices)
        assert reflected_tree_size(r) == len(rt.graph.edges)
    rt2 = reflected_tree(2)
    g2 = rt2.graph
    # the only connected 2-regular graph on 4 vertices is the 4-cycle
    assert len(g2.vertices) == 4 and len(g2.edges) == 4
    assert all(g2.degree(v) == 2 for v in g2.vertices)
    assert is_connected(g2)
    u, v = rt2.roots
    assert not g2.has_edge(u, v)
    assert time.monotonic() - t0 < BUDGET_1


def test_criterion_02():
    """Exact treewidth 2 for reflected trees of levels 2..5; level 5 has 46
    vertices, so only the reduction recognizer can settle it in budget."""
    t0 = time.monotonic()
    for r in range(2, 6):
        assert exact_treewidth(reflected_tree(r).graph) == 2
    assert time.monotonic() - t0 < BUDGET_2


def test_criterion_03():
    """Every spanning tree of levels 2 and 3 yields a verifying certificate
    with a matching of size level-1, and certificate construction never hits
    its internal contradiction branch (any raise fails the test)."""
    t0 = time.monotonic()
    for r, expected in ((2, TREES_LEVEL_2), (3, TREES_LEVEL_3)):
        rt = reflected_tree(r)
        assert count_spanning_trees(rt.graph) == expected
        seen = 0
        for t in enumerate_spanning_trees(rt.graph):
            seen += 1
            cert = reflected_matching(rt, t)
            assert len(cert.matching) == r - 1
            check = verify_certificate(rt, cert)
            assert check, f"level {r}: {check.reasons}"
        assert seen == expected
    assert time.monotonic() - t0 < BUDGET_3


def test_criterion_04():
    """10,000 seeded uniform spanning trees of level 4 all certify with
    matchings of size 3."""
    t0 = time.monotonic()
    rt = reflected_tree(4)
    for t in sample_spanning_trees(rt.graph, 10_000, seed=20260825):
        cert = reflected_matching(rt, t)
        assert len(cert.matching) == 3
        check = verify_certificate(rt, cert)
        assert check, check.reasons
    assert time.monotonic() - t0 < BUDGET_4


def test_criterion_05():
    """Anchored width is at least 2 on every one of the 64512 spanning trees
    of the level-4 reflected tree: the width-1 decider must report UNSAT
    exhaustively (the count is under the million-tree cutoff for sampling)."""
    t0 = time.monotonic()
    rt = reflected_tree(4)
    count = count_spanning_trees(rt.graph)
    assert count == TREES_LEVEL_4
    assert count <= 10 ** 6
    seen = 0
    for res in decide_over_trees(rt.graph, enumerate_spanning_trees(rt.graph),
                                 budget=1, anchored=True):
        seen += 1
        assert not res.is_sat
    assert seen == count
    assert time.monotonic() - t0 < BUDGET_5


def test_criterion_06():
    """On every spanning tree of level 3, each anchored witness the decider
    finds at budgets 1..3 is consistent with the tree's certificate: the hub
    bag provably holds two forced vertices, with zero contradictions."""
    t0 = time.monotonic()
    rt = reflected_tree(3)
    contradictions = 0
    sat_by_budget = {1: 0, 2: 0, 3: 0}
    trees = 0
    for t in enumerate_spanning_trees(rt.graph):
        trees += 1
        cert = reflected_matching(rt, t)
        for budget in (1, 2, 3):
            res = min_width_on_tree(rt.graph, t, budget, anchored=True)
            if not res.is_sat:
                continue
            sat_by_budget[budget] += 1
            try:
                hub, forced = bag_lower_bound(rt, cert, res.witness)
            except CertificateContradiction:
                contradictions += 1
                continue
            assert hub == cert.hub
            assert len(set(forced)) == 2
            assert set(forced) <= res.witness.bag(hub)
            assert len(res.witness.bag(hub)) >= 2
    assert trees == TREES_LEVEL_3
    assert contradictions == 0
    # frozen tallies: no spanning tree admits anchored width <= 2, and
    # exactly 80 of the 96 admit width 3
    assert sat_by_budget == {1: 0, 2: 0, 3: 80}
    assert time.monotonic() - t0 < BUDGET_6


def test_criterion_07():
    """200 seeded (graph, decomposition, minor model) triples rehosted onto
    spanning trees: output validates, host spans, width preserved exactly."""
    t0 = time.monotonic()
    rng = random.Random(4242)
    for i in range(200):
        g, td, model = random_model_and_td(rng)
        assert validate(g, td)
        assert validate_model(model)
        out = minor_to_spanning(g, td, model)
        assert validate(g, out), i
        assert is_spanning_tree(g, out.host), i
        assert out.width() == td.width(), i
    assert time.monotonic() - t0 < BUDGET_7


def test_criterion_08():
    """50 seeded toy gadget instances with decider-built spanning-tree
    decompositions: anchoring reduction outputs either validate (anchored,
    width grows by at most one) or raise a structured report, never corrupt
    silently."""
    t0 = time.monotonic()
    rng = random.Random(777)
    reduced = rejected = 0
    for i in range(50):
        inst = random_toy_instance(rng)
        g = inst.graph
        host = random_spanning_tree(rng, g)
        td = None
        for budget in range(max(exact_treewidth(inst.base), 1),
                            len(g.vertices)):
            res = min_width_on_tree(g, host, budget, anchored=False)
            if res.is_sat:
                td = res.witness
                break
        assert td is not None, i
        with warnings.catch_warnings():
            # toy widths exceed the schedule's k by design
            warnings.simplefilter("ignore")
            try:
                out = reduce_to_anchored(inst, td)
            except ReductionInvalid as exc:
                rejected += 1
                assert not exc.report.valid
                assert exc.report.violations
                continue
        reduced += 1
        assert validate(inst.base, out), i
        assert is_anchored(inst.base, out), i
        assert out.width() <= td.width() + 1, i
    assert reduced + rejected == 50
    # frozen split for this seed; a drift means generator or reduction changed
    assert (reduced, rejected) == (EXPECTED_REDUCED, EXPECTED_REJECTED)
    assert time.monotonic() - t0 < BUDGET_8


def test_criterion_09():
    """Schedule arithmetic is exact at full precision: the two-gadget
    schedule for k=1 and the closed forms of its parameters."""
    t0 = time.monotonic()
    s = gadget_schedule(1, 2)
    assert s.heights == (2, 82)
    assert s.widths[1] == 5
    w1 = s.widths[0]
    assert (w1 - 1) % 2 == 0
    assert (w1 - 1) // 2 - 2 == (5 ** 83 - 1) // 4
    s1 = gadget_schedule(1, 1)
    assert (s1.heights[0], s1.widths[0], s1.tree_sizes[0]) == (2, 3, 13)
    assert time.monotonic() - t0 < BUDGET_9


def test_criterion_10():
    """Decider versus naive subtree-product oracle: full agreement at
    budgets 0..3, anchored and unanchored, over every spanning tree of a
    fixed seeded 500-graph corpus (up to 6 vertices, density thinned with
    size so the oracle's exhaustive UNSAT proofs stay affordable; complete
    graphs up to K5 included). Each SAT witness is valid, within its
    budget, and anchored when asked to be."""
    t0 = time.monotonic()
    graphs = oracle_corpus()
    assert len(graphs) == 500
    budgets = (0, 1, 2, 3)
    trees = 0
    for gi, g in enumerate(graphs):
        for host in enumerate_spanning_trees(g):
            trees += 1
            for anchored in (False, True):
                results = [min_width_on_tree(g, host, b, anchored=anchored)
                           for b in budgets]
                for lo, hi in zip(results, results[1:]):
                    assert (not lo.is_sat) or hi.is_sat, \
                        f"decider monotonicity broken on graph {gi}"
                threshold = naive_threshold(g, host, budgets[-1], anchored)
                for b, res in zip(budgets, results):
                    assert res.is_sat == (b >= threshold), \
                        (gi, b, anchored, threshold)
                    if res.is_sat:
                        assert validate(g, res.witness)
                        assert res.witness.width() <= b
                        assert not anchored or is_anchored(g, res.witness)
    assert trees == CORPUS_TREES
    assert time.monotonic() - t0 < BUDGET_10


def test_criterion_11():
    """500 seeded random width-k decompositions of the (k+2)^h-vertex path
    (k in {1,2}, h in {1,2,3}) all have host diameter at least h."""
    t0 = time.monotonic()
    rng = random.Random(31)
    cases = [(k, h) for k in (1, 2) for h in (1, 2, 3)]
    counts = [84, 84, 83, 83, 83, 83]
    assert sum(counts) == 500
    for (k, h), count in zip(cases, counts):
        n = (k + 2) ** h
        for _ in range(count):
            td = random_path_decomposition(rng, n, k)
            assert validate(path_graph(n), td)
            assert td.width() <= k
            assert check_longpath_property(n, k, td)
    assert time.monotonic() - t0 < BUDGET_11


def test_criterion_12():
    """Gadget attachment preserves treewidth except for lifting trees to 1:
    exact treewidth of 30 toy-materializable instances (at most 14 vertices)
    equals max(treewidth of the base, 1)."""
    t0 = time.monotonic()
    rng = random.Random(999)
    for i in range(30):
        inst = random_toy_instance(rng)
        assert len(inst.graph.vertices) <= 14
        assert exact_treewidth(inst.graph) == \
            max(exact_treewidth(inst.base), 1), i
    assert time.monotonic() - t0 < BUDGET_12
