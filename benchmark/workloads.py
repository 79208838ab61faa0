"""The benchmark's workloads.

A workload builds its inputs (from the run's seed where that leaves their
cost alike across seeds; see the notes on the constants below), then runs
rounds: each round makes the same program calls on the same inputs, timed
one by one, and its outputs are checked by the code in checks.py. The
program sees only the generated inputs. Every call waits for the previous
one (a closed loop, one caller, one thread).

The library workloads call the program through module attributes
(``self.search.min_width_on_tree``), so that a traced round can swap in
wrapped functions.
"""

from __future__ import annotations

import hashlib
import io as stdio
import json
import os
import random
import traceback
from contextlib import redirect_stderr
from time import perf_counter
from typing import Dict, List, Tuple

import checks

CERTIFY_LEVEL = 7
CERTIFY_SAMPLE = 50
# Every call is repeated in every round and timed at its fastest repeat
# (see worker.py), which is steady only for calls of at most a few tenths
# of a second, repeated a dozen times or more in a run. That rules out the
# deepest proofs. Budget-2 proofs on uniform level-4 hosts are
# heavy-tailed: on the first 40 hosts of the stream below they took 0.01 s
# to over 30 s, and 15 of them ran past 12 s, so a seeded draw of hosts
# would also move wall_s several-fold between seeds. The level-4 hosts are
# therefore fixed: these positions in a fixed Wilson stream, whose proofs
# took 0.07-0.14 s (2,600-10,300 nodes). The unanchored proof on the 3x3
# grid (about 3 s, 440k nodes) is left out for the same reason. The seed
# draws the hosts of the closed-form graphs and the order of the instances.
LEVEL4_STREAM = "level-4 hosts"
LEVEL4_PICKS = (10, 21, 24, 28, 37)
# graph, how many seeded hosts, and its treewidth
CLOSED_FORM = (("K5", 1, 4), ("K3,3", 2, 3))
# Decision times on planted instances are heavy-tailed too: over ten
# seeds, the decider's node totals on 400 fresh 8-vertex plants varied by a
# quarter (quartile distance over median). The plants are therefore a
# fixed set, and the seed sets the order they are decided in; a fixed set
# can use 10-vertex plants, whose calls search deeper and still take at
# most about 0.15 s.
SAT_STREAM = "planted instances"
SAT_VERTICES = 10
SAT_WIDTH = 2
SAT_INSTANCES = 120
CONTRACT_PROBABILITY = 0.3


def random_spanning_tree(g, rng: random.Random) -> List[Tuple[str, str]]:
    """Edges of a uniform spanning tree of the tdforge Graph g (Wilson's
    loop-erased random walks, written here so that the program's sampler
    can change without changing the benchmark's inputs)."""
    verts = sorted(g.vertices)
    in_tree = {verts[0]}
    edges = []
    for start in verts[1:]:
        nxt = {}
        u = start
        while u not in in_tree:
            nxt[u] = rng.choice(sorted(g.neighbors(u)))
            u = nxt[u]
        u = start
        while u not in in_tree:
            in_tree.add(u)
            edges.append((u, nxt[u]))
            u = nxt[u]
    return edges


def plant(rng: random.Random, n: int, k: int):
    """A graph with a known anchored width-<=k decomposition on a host tree.

    The host is a random recursive tree under shuffled names. Each vertex's
    subtree starts at its own host node, covers one end of each host edge,
    then grows into neighbouring nodes while every bag has room; the graph
    has an edge wherever two subtrees meet, so the planted subtrees are a
    decomposition of it. Returns (vertices, edges, host edges, bags).
    """
    cap = k + 1
    names = [f"x{i:02d}" for i in range(n)]
    rng.shuffle(names)
    parent = [-1] + [rng.randrange(i) for i in range(1, n)]
    hadj: List[List[int]] = [[] for _ in range(n)]
    for c in range(1, n):
        hadj[c].append(parent[c])
        hadj[parent[c]].append(c)
    sub = [{v} for v in range(n)]
    load = [1] * n
    for c in range(1, n):
        p = parent[c]
        if load[p] < cap and rng.random() < 0.5:
            sub[c].add(p)
            load[p] += 1
        else:
            sub[p].add(c)
            load[c] += 1
    for _ in range(n * cap):
        v = rng.randrange(n)
        grow = sorted({y for x in sub[v] for y in hadj[x]
                       if y not in sub[v] and load[y] < cap})
        if grow:
            y = rng.choice(grow)
            sub[v].add(y)
            load[y] += 1
    edges = [(names[a], names[b]) for a in range(n) for b in range(a + 1, n)
             if sub[a] & sub[b]]
    host = [(names[c], names[parent[c]]) for c in range(1, n)]
    bags: Dict[str, set] = {x: set() for x in names}
    for v in range(n):
        for x in sub[v]:
            bags[names[x]].add(names[v])
    return names, edges, host, bags


def _k5(Graph):
    vs = [f"k{i}" for i in range(5)]
    return Graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]])


def _k33(Graph):
    a = [f"a{i}" for i in range(3)]
    b = [f"b{i}" for i in range(3)]
    return Graph(a + b, [(x, y) for x in a for y in b])


CLOSED_FORM_GRAPHS = {"K5": _k5, "K3,3": _k33}


class Round:
    """One round: the timed seconds of each operation, in the same order
    every round, and each operation's output (None when it raised)."""

    def __init__(self) -> None:
        self.op_seconds: List[float] = []
        self.outputs: list = []
        self.errors: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.errors)

    def fail(self, seconds: float) -> None:
        self.op_seconds.append(seconds)
        self.outputs.append(None)
        self.errors.append(traceback.format_exc(limit=3))


class Workload:
    """Inputs are built in __init__ (set-up); prepare_checks computes what
    the checks need, untimed; run_round and check_round repeat; final_check
    runs once after the last round."""

    def prepare_checks(self) -> None:
        pass

    def final_check(self) -> List[str]:
        return []


class CliWorkload(Workload):
    """One ``tdforge`` invocation through ``cli.main`` per round, writing
    into the run's work directory. Every round runs the same command, so
    every round's output must be byte-identical."""

    def __init__(self, td, seed: int, workdir: str):
        self.cli = td.cli
        self.td = td
        self.seed = seed
        self.out = os.path.join(workdir, "out.json")
        self.argv = self.command(workdir) + ["--out", self.out]
        self.digest = None

    def run_round(self) -> Round:
        rnd = Round()
        err = stdio.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stderr(err):
                code = self.cli.main(self.argv)
        except Exception:
            rnd.fail(perf_counter() - t0)
            return rnd
        rnd.op_seconds.append(perf_counter() - t0)
        rnd.outputs.append((code, err.getvalue()))
        return rnd

    def check_round(self, rnd: Round) -> List[str]:
        if rnd.outputs[0] is None:
            return []
        code, err = rnd.outputs[0]
        if code != 0:
            return [f"exit code {code}: {err.strip()[-300:]}"]
        manifest = self.out + ".manifest.json"
        if not os.path.exists(manifest):
            return ["no run manifest next to the output"]
        os.remove(manifest)
        with open(self.out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return ["output differs from the first round's"]
        return []


class Pipeline(CliWorkload):
    """``tdforge pipeline --k K``: treewidth checks, then every spanning tree
    of the level-(K+2) core certified, verified and decided."""

    k = 1

    def command(self, workdir: str) -> List[str]:
        # one toy gadget per vertex of the level-(K+3) outer tree
        outer = 3 * 2 ** (self.k + 2) - 2
        rng = random.Random(self.seed)
        heights = [rng.randint(1, 2) for _ in range(outer)]
        widths = [rng.randint(1, 2) for _ in range(outer)]
        return ["pipeline", "--k", str(self.k), "--jobs", "1",
                "--toy-heights", ",".join(map(str, heights)),
                "--toy-widths", ",".join(map(str, widths))]

    def prepare_checks(self) -> None:
        g = self.td.constructions.reflected_tree(self.k + 2).graph
        self.population = checks.spanning_tree_count(sorted(g.vertices),
                                                     g.edges)

    def check_round(self, rnd: Round) -> List[str]:
        problems = super().check_round(rnd)
        if problems or rnd.outputs[0] is None:
            return problems
        with open(self.out, encoding="utf-8") as fh:
            report = json.load(fh)
        return check_pipeline_report(report, self.k, self.population)


class PipelineK1(Pipeline):
    name = "pipeline-k1"


class PipelineK2(Pipeline):
    """Reference only: 64,512 trees, about a minute a round."""

    name = "pipeline-k2"
    k = 2


def check_pipeline_report(report: dict, k: int, population: int
                          ) -> List[str]:
    """Problems with a ``pipeline --k k`` report: both treewidth checks
    must read 2, and every one of the core's spanning trees, as many as the
    determinant counts, must be certified by a (k+1)-edge matching and be
    UNSAT at budget k-1."""
    problems = []
    if report.get("ok") is not True:
        problems.append("pipeline reports a failed check")
    by_name = {c["check"]: c for c in report.get("checks", [])}
    for name in ("outer-reflected-tree-treewidth", "gadget-graph-treewidth"):
        if by_name.get(name, {}).get("value") != 2:
            problems.append(f"{name} is not 2")
    cert = by_name.get("certificates", {})
    bound = by_name.get("anchored-width-bound", {})
    if (cert.get("certified"), cert.get("matching_size")) != (population,
                                                              k + 1):
        problems.append(f"certified {cert.get('certified')}, "
                        f"expected {population}")
    if (bound.get("unsat"), bound.get("budget")) != (population, k - 1):
        problems.append(f"unsat {bound.get('unsat')}, expected {population}")
    return problems


class CertifySampled(CliWorkload):
    name = "certify-sampled"

    def command(self, workdir: str) -> List[str]:
        return ["certify", "--r", str(CERTIFY_LEVEL), "--sample",
                str(CERTIFY_SAMPLE), "--seed", str(self.seed)]

    def final_check(self) -> List[str]:
        g = self.td.constructions.reflected_tree(CERTIFY_LEVEL).graph
        with open(self.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = []
        if (doc.get("mode"), doc.get("count"), doc.get("seed")) != (
                "sampled", CERTIFY_SAMPLE, self.seed):
            problems.append("wrong certify header")
        certs = doc.get("certificates", [])
        if len(certs) != CERTIFY_SAMPLE:
            problems.append(f"{len(certs)} certificates")
        for i, cert in enumerate(certs):
            for p in checks.check_certificate(cert, g.vertices, g.edges,
                                              CERTIFY_LEVEL):
                problems.append(f"certificate {i}: {p}")
        return problems


class DecideUnsat(Workload):
    """UNSAT proofs by search: anchored budget 2 on level-4 hosts, and
    unanchored budget tw-1 on graphs whose treewidth has a closed form."""

    name = "decide-unsat"

    def __init__(self, td, seed: int, workdir: str):
        self.search = td.search
        Graph = td.graphs.Graph
        g4 = td.constructions.reflected_tree(4).graph
        fixed = random.Random(LEVEL4_STREAM)
        stream = [random_spanning_tree(g4, fixed)
                  for _ in range(max(LEVEL4_PICKS) + 1)]
        self.instances = [(f"level4-host{i}", g4,
                           Graph(g4.vertices, stream[i]), None)
                          for i in LEVEL4_PICKS]
        rng = random.Random(seed)
        for name, hosts, tw in CLOSED_FORM:
            g = CLOSED_FORM_GRAPHS[name](Graph)
            for _ in range(hosts):
                self.instances.append(
                    (name, g, Graph(g.vertices, random_spanning_tree(g, rng)),
                     tw))
        rng.shuffle(self.instances)

    def prepare_checks(self) -> None:
        self.hub_bounds = [
            checks.hub_matching_bound(g.edges, host.vertices, host.edges)[0]
            if tw is None else None
            for _, g, host, tw in self.instances]

    def run_round(self) -> Round:
        rnd = Round()
        search = self.search
        for name, g, host, tw in self.instances:
            t0 = perf_counter()
            try:
                if tw is None:
                    got_tw = None
                    res = search.min_width_on_tree(g, host, 2, anchored=True)
                else:
                    got_tw = search.exact_treewidth(g)
                    res = search.min_width_on_tree(g, host, got_tw - 1,
                                                   anchored=False)
            except Exception:
                rnd.fail(perf_counter() - t0)
                continue
            rnd.op_seconds.append(perf_counter() - t0)
            rnd.outputs.append((got_tw, res.status))
        return rnd

    def check_round(self, rnd: Round) -> List[str]:
        problems = []
        for (name, g, host, tw), bound, out in zip(
                self.instances, self.hub_bounds, rnd.outputs):
            if out is None:
                continue
            got_tw, status = out
            if tw is None and bound < 3:
                problems.append(f"{name}: hub bound {bound} does not "
                                "certify budget 2 as UNSAT")
            if got_tw != tw:
                problems.append(f"{name}: treewidth {got_tw}, expected {tw}")
            if status != "UNSAT":
                problems.append(f"{name}: decider says {status}")
        return problems


class DecideSat(Workload):
    """Planted SAT instances: one anchored call at budget k each; the
    witness then goes through validate and is_anchored, and, with the host
    contracted to a minor, through minor_to_spanning."""

    name = "decide-sat"

    def __init__(self, td, seed: int, workdir: str):
        self.search = td.search
        self.decomposition = td.decomposition
        self.transforms = td.transforms
        Graph = td.graphs.Graph
        rng = random.Random(SAT_STREAM)
        self.instances = []
        for _ in range(SAT_INSTANCES):
            vs, es, host_edges, bags = plant(rng, SAT_VERTICES, SAT_WIDTH)
            branch, edge_map = contraction(rng, host_edges)
            self.instances.append((Graph(vs, es), Graph(vs, host_edges), bags,
                                   Graph(sorted(branch), list(edge_map)),
                                   branch, edge_map))
        random.Random(seed).shuffle(self.instances)

    def prepare_checks(self) -> None:
        for g, host, bags, *_ in self.instances:
            problems = checks.check_decomposition(
                g.vertices, g.edges, host.vertices, host.edges, bags,
                max_width=SAT_WIDTH, anchored=True)
            if problems:
                raise AssertionError(f"planted decomposition: {problems}")

    def run_round(self) -> Round:
        rnd = Round()
        search, decomposition = self.search, self.decomposition
        TreeDecomposition = decomposition.TreeDecomposition
        MinorModel = self.transforms.MinorModel
        for g, host, _, pattern, branch, edge_map in self.instances:
            t0 = perf_counter()
            try:
                res = search.min_width_on_tree(g, host, SAT_WIDTH,
                                               anchored=True)
                if not res.is_sat:
                    rnd.op_seconds.append(perf_counter() - t0)
                    rnd.outputs.append((res.status, None, None, None, None))
                    continue
                verdicts = (bool(decomposition.validate(g, res.witness)),
                            decomposition.is_anchored(g, res.witness))
                t1 = perf_counter()
                merged = {x: set().union(*(res.witness.bag(v) for v in members))
                          for x, members in branch.items()}
                td_pattern = TreeDecomposition(pattern, merged)
                model = MinorModel(g, pattern, branch, edge_map)
                t2 = perf_counter()
                rehosted = self.transforms.minor_to_spanning(g, td_pattern,
                                                             model)
                t3 = perf_counter()
            except Exception:
                rnd.fail(perf_counter() - t0)
                continue
            rnd.op_seconds.append((t1 - t0) + (t3 - t2))
            rnd.outputs.append((res.status, res.witness, verdicts, merged,
                                rehosted))
        return rnd

    def check_round(self, rnd: Round) -> List[str]:
        problems = []
        for i, (inst, out) in enumerate(zip(self.instances, rnd.outputs)):
            if out is None:
                continue
            g, host = inst[0], inst[1]
            status, witness, verdicts, merged, rehosted = out
            if status != "SAT":
                problems.append(f"instance {i}: planted SAT instance "
                                f"decided {status}")
                continue
            if witness.host.edges != host.edges:
                problems.append(f"instance {i}: witness on another host")
            problems += [f"instance {i}: witness: {p}" for p in
                         checks.check_decomposition(
                             g.vertices, g.edges, witness.host.vertices,
                             witness.host.edges, witness.bags,
                             max_width=SAT_WIDTH, anchored=True)]
            if verdicts != (True, True):
                problems.append(f"instance {i}: validate/is_anchored said "
                                f"{verdicts} on a valid anchored witness")
            width = max(len(b) for b in merged.values()) - 1
            problems += [f"instance {i}: rehosted: {p}" for p in
                         checks.check_decomposition(
                             g.vertices, g.edges, rehosted.host.vertices,
                             rehosted.host.edges, rehosted.bags,
                             max_width=width, spanning=True)]
            if rehosted.width() != width:
                problems.append(f"instance {i}: rehosting changed the width")
        return problems


def contraction(rng: random.Random, host_edges):
    """Contract a random subset of host edges: the branch sets, and the
    host edge standing for each edge of the pattern tree left behind."""
    owner = {v: v for e in host_edges for v in e}

    def find(v):
        while owner[v] != v:
            v = owner[v]
        return v

    kept = []
    for a, b in host_edges:
        if rng.random() < CONTRACT_PROBABILITY:
            ra, rb = find(a), find(b)
            owner[max(ra, rb)] = min(ra, rb)
        else:
            kept.append((a, b))
    branch: Dict[str, set] = {}
    for v in owner:
        branch.setdefault("B" + find(v), set()).add(v)
    edge_map = {("B" + find(a), "B" + find(b)): (a, b) for a, b in kept}
    return branch, edge_map


WORKLOADS = {w.name: w for w in (PipelineK1, DecideUnsat, DecideSat,
                                  CertifySampled, PipelineK2)}
