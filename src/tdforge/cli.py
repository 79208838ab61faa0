"""Command-line front end.

One binary with subcommands covering the whole pipeline: construct the
graphs, run the transforms, generate and audit certificates, drive the
exact search engines, verify decompositions, and compose everything in the
end-to-end demonstration. Every invocation writes a run manifest next to
its outputs; the outputs themselves are byte-identical across re-runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence

from . import __version__, io
from .certificates import (MatchingPlan, bag_lower_bound, reflected_matching,
                           verify_certificate)
from .constructions import (DEFAULT_CAP, attach_gadgets, gadget_schedule,
                            reflected_tree, toy_schedule)
from .decomposition import validate
from .errors import (CapExceeded, CertificateContradiction,
                     CertificateRejected, ReductionInvalid, ScheduleTooLarge,
                     SizeExceeded, TdforgeError)
from .graphs import Graph, HostTree
from .search import (count_spanning_trees, decide_over_trees,
                     enumerate_spanning_trees, exact_treewidth,
                     min_anchored_spanning_width, min_width_on_tree,
                     sample_spanning_trees)
from .transforms import minor_to_spanning, reduce_to_anchored

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

ENUMERATION_LIMIT = 10 ** 6  # past this, quantified runs switch to sampling
DEFAULT_SAMPLE = 10_000


@dataclass(frozen=True)
class Settings:
    """Resolved caps: defaults < config file < environment < flags."""

    cap_vertices: int = DEFAULT_CAP
    tw_cap: int = 14
    enum_cap: int = ENUMERATION_LIMIT


def _parse_config(path: str, caps: Sequence[str],
                  leaf: str) -> Dict[str, int]:
    """The caps a key = value file sets, each one that the leaf applies."""
    values: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in ("cap_vertices", "tw_cap", "enum_cap"):
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key not in caps:
                raise ValueError(f"{path}:{lineno}: {leaf} does not apply "
                                 f"key {key!r}; it applies "
                                 f"{', '.join(caps)}")
            values[key] = _cap_int(val.strip(), f"{path}:{lineno}: {key}")
    return values


def _cap_int(text: str, where: str) -> int:
    """A cap's value from text; where names its source in the error."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where} must be an integer, got {text!r}") from None


def resolve_settings(args: argparse.Namespace) -> Settings:
    settings = Settings()
    config = getattr(args, "config", None)
    if config:
        settings = replace(settings, **_parse_config(config, args.caps,
                                                      args.leaf))
    env_cap = os.environ.get("TDFORGE_CAP_VERTICES")
    if env_cap is not None and "cap_vertices" in args.caps:
        settings = replace(settings, cap_vertices=_cap_int(
            env_cap, "TDFORGE_CAP_VERTICES"))
    if getattr(args, "cap", None) is not None:
        settings = replace(settings, cap_vertices=args.cap)
    if getattr(args, "tw_cap", None) is not None:
        settings = replace(settings, tw_cap=args.tw_cap)
    return settings


# ------------------------------------------------------------- manifest

class Run:
    """Collects inputs, outputs, and settings for the run manifest."""

    def __init__(self, argv: Sequence[str], args: argparse.Namespace):
        self.argv = list(argv)
        self.seed = getattr(args, "seed", 0)
        self.out = args.out
        self.settings = Settings()
        self.caps = args.caps
        self.started = time.time()
        self.inputs: Dict[str, str] = {}
        self.outputs: List[str] = []
        self.decider: Optional[Dict[str, object]] = None

    def read_json(self, path: str):
        with open(path, "rb") as fh:
            data = fh.read()
        self.inputs[path] = hashlib.sha256(data).hexdigest()
        return json.loads(data.decode("utf-8"))

    def write(self, obj, path: Optional[str], to_dot: bool = False) -> None:
        """Write obj's JSON text and a newline, or the DOT text obj, to
        path or to stdout. JSON goes out in io.json_chunks pieces, so the
        whole document is never one string. Every piece is encoded before
        anything is opened or written, so a value JSON cannot encode
        raises with no output written."""
        chunks = [obj] if to_dot else [*io.json_chunks(obj), "\n"]
        if path is None:
            sys.stdout.writelines(chunks)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            self.outputs.append(path)

    def finish(self, exit_code: int, error: Optional[str]) -> None:
        """Write the manifest; called on every exit path, failures included.
        It goes out through write, which encodes it, outputs list and all,
        before the manifest's own path joins that list."""
        manifest_path = (self.out + ".manifest.json" if self.out
                         else "tdforge.manifest.json")
        manifest = {
            "command": self.argv,
            "version": __version__,
            "settings": {name: getattr(self.settings, name)
                         for name in self.caps},
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "started": datetime.fromtimestamp(
                self.started, tz=timezone.utc).isoformat(),
            "wall_clock_seconds": round(time.time() - self.started, 6),
            "exit_code": exit_code,
            "error": error,
        }
        if self.decider is not None:
            manifest["decider"] = self.decider
        try:
            self.write(manifest, manifest_path)
        except OSError as exc:
            print(f"error: run manifest not written: {exc}", file=sys.stderr)


# ----------------------------------------------------------- arg pieces

def _load_graph(run: Run, path: str) -> Graph:
    return io.graph_from_obj(run.read_json(path))


def _load_td(run: Run, path: str):
    return io.td_from_obj(run.read_json(path))


def _int_list(text: str, n: int, what: str) -> List[int]:
    parts = []
    for p in text.split(","):
        if p.strip() != "":
            try:
                parts.append(int(p))
            except ValueError:
                raise ValueError(f"{what} needs comma-separated integers, "
                                 f"got {p.strip()!r}") from None
    if len(parts) == 1:
        return parts * n
    if len(parts) != n:
        raise ValueError(f"{what} needs 1 or {n} comma-separated integers, "
                         f"got {len(parts)}")
    return parts


def _sidecar_path(out: Optional[str]) -> Optional[str]:
    if out is None:
        return None
    root, ext = os.path.splitext(out)
    return f"{root}.meta{ext or '.json'}"


# ---------------------------------------------------------- subcommands

def cmd_reflected_tree(run: Run, args) -> int:
    rt = reflected_tree(args.r, cap=run.settings.cap_vertices)
    run.write(io.graph_to_obj(rt.graph), args.out)
    if args.out is not None:
        meta = {"kind": "reflected-tree", "level": rt.level,
                "roots": list(rt.roots),
                "order": len(rt.graph), "size": len(rt.graph.edges)}
        run.write(meta, _sidecar_path(args.out))
    return EXIT_OK


def cmd_gadget(run: Run, args) -> int:
    g = _load_graph(run, args.graph)
    n = len(g)
    ordering = args.ordering.split(",") if args.ordering else None
    if (args.toy_heights is None) != (args.toy_widths is None):
        raise ValueError("--toy-heights and --toy-widths go together")
    if args.toy_heights is not None:
        schedule = toy_schedule(args.k, n,
                                _int_list(args.toy_heights, n, "--toy-heights"),
                                _int_list(args.toy_widths, n, "--toy-widths"))
        print("note: toy schedule in effect; the genuine growth hypotheses "
              "are not met and no width conclusions transfer", file=sys.stderr)
    else:
        schedule = gadget_schedule(args.k, n)
    inst = attach_gadgets(g, ordering, schedule, cap=run.settings.cap_vertices)
    run.write(io.graph_to_obj(inst.graph), args.out)
    if args.out is not None:
        meta = io.instance_to_obj(inst)
        meta["kind"] = "gadget-instance"
        run.write(meta, _sidecar_path(args.out))
    return EXIT_OK


def cmd_schedule(run: Run, args) -> int:
    schedule = gadget_schedule(args.k, args.n)
    if args.out:
        run.write(io.schedule_to_obj(schedule), args.out)
        return EXIT_OK
    lines = [f"k = {schedule.k}  n = {schedule.n}  "
             f"genuine = {schedule.genuine}"]
    for j in range(args.n):
        lines += [f"h_{j + 1} = {io.int_text(schedule.heights[j])}",
                  f"w_{j + 1} = {io.int_text(schedule.widths[j])}",
                  f"|V(S_{j + 1})| = {io.int_text(schedule.tree_sizes[j])}"]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_minor_to_spanning(run: Run, args) -> int:
    g = _load_graph(run, args.graph)
    td = _load_td(run, args.td)
    model = io.model_from_obj(run.read_json(args.model), g)
    out = minor_to_spanning(g, td, model)
    run.write(io.td_to_obj(out), args.out)
    return EXIT_OK


def cmd_reduce(run: Run, args) -> int:
    inst = io.instance_from_obj(run.read_json(args.instance))
    td = _load_td(run, args.td)
    try:
        out = reduce_to_anchored(inst, td)
    except ReductionInvalid as exc:
        print(f"reduction failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    run.write(io.td_to_obj(out), args.out)
    return EXIT_OK


def cmd_certify(run: Run, args) -> int:
    rt = reflected_tree(args.r, cap=run.settings.cap_vertices)
    if args.spanning_tree:
        host = _load_graph(run, args.spanning_tree)
        cert = reflected_matching(rt, host)
        run.write(io.certificate_to_obj(cert), args.out)
        return EXIT_OK
    if args.all:
        total = count_spanning_trees(rt.graph)
        if total > run.settings.enum_cap:
            raise CapExceeded(total, run.settings.enum_cap,
                              "spanning tree enumeration")
        doc = {"mode": "all", "count": total}
        hosts = enumerate_spanning_trees(rt.graph)
    else:
        count = args.sample if args.sample is not None else DEFAULT_SAMPLE
        doc = {"mode": "sampled", "count": count, "seed": run.seed}
        hosts = sample_spanning_trees(rt.graph, count, seed=run.seed)
    plan = MatchingPlan(rt)
    doc["certificates"] = [
        io.certificate_to_obj(reflected_matching(rt, host, plan))
        for host in hosts]
    run.write(doc, args.out)
    return EXIT_OK


def cmd_audit(run: Run, args) -> int:
    cert = io.certificate_from_obj(run.read_json(args.certificate))
    rt = reflected_tree(cert.level, cap=run.settings.cap_vertices)
    td = _load_td(run, args.td)
    report = {"certificate_ok": True, "reasons": []}
    try:
        hub, forced = bag_lower_bound(rt, cert, td)
    except CertificateRejected as exc:
        run.write({"certificate_ok": False, "reasons": list(exc.check.reasons)},
                  args.out)
        return EXIT_CHECK_FAILED
    except CertificateContradiction as exc:
        report.update({"bound_holds": False, "contradiction": str(exc)})
        run.write(report, args.out)
        return EXIT_CHECK_FAILED
    report.update({
        "bound_holds": True,
        "hub": hub,
        "forced": list(forced),
        "hub_bag": sorted(td.bag(hub)),
        "bag_size_lower_bound": len(forced),
    })
    run.write(report, args.out)
    return EXIT_OK


def cmd_decide(run: Run, args) -> int:
    g = _load_graph(run, args.graph)
    host = _load_graph(run, args.host)
    res = min_width_on_tree(g, host, args.budget, anchored=args.anchored)
    run.decider = {"source": res.source, "nodes": res.nodes,
                   "pruned": {"no_room": res.pruned_no_room,
                              "path": res.pruned_path,
                              "meet": res.pruned_meet,
                              "dominated": res.pruned_dominated}}
    out = {"status": res.status, "budget": res.budget,
           "anchored": res.anchored, "nodes": res.nodes}
    if res.witness is not None:
        out["witness"] = io.td_to_obj(res.witness)
    run.write(out, args.out)
    return EXIT_OK


def cmd_min_anchored(run: Run, args) -> int:
    g = _load_graph(run, args.graph)
    width, host, witness = min_anchored_spanning_width(
        g, cap_vertices=run.settings.cap_vertices)
    run.write({"width": width, "host": io.graph_to_obj(host),
               "witness": io.td_to_obj(witness)}, args.out)
    return EXIT_OK


def cmd_tw(run: Run, args) -> int:
    g = _load_graph(run, args.graph)
    run.write({"treewidth": exact_treewidth(g, cap=run.settings.tw_cap)},
              args.out)
    return EXIT_OK


def cmd_spanning(run: Run, args) -> int:
    g = _load_graph(run, args.graph)
    total = count_spanning_trees(g)
    if args.count_only:
        run.write({"count": total}, args.out)
        return EXIT_OK
    if total > run.settings.enum_cap:
        raise CapExceeded(total, run.settings.enum_cap,
                          "spanning tree enumeration")
    run.write({"count": total, "trees": [sorted(t.edges) for t in
                                         enumerate_spanning_trees(g)]},
              args.out)
    return EXIT_OK


def cmd_verify(run: Run, args) -> int:
    g = _load_graph(run, args.graph)
    td = _load_td(run, args.td)
    report = validate(g, td)
    out = {"valid": bool(report),
           "violations": [{"kind": v.kind, "subject": list(v.subject)
                           if isinstance(v.subject, tuple) else v.subject}
                          for v in report.violations]}
    ok = bool(report)
    if ok:
        out["width"] = td.width()
        out["anchored"] = report.anchored
        if args.budget is not None and td.width() > args.budget:
            out["width_within_budget"] = False
            ok = False
        elif args.budget is not None:
            out["width_within_budget"] = True
        if args.anchored and not out["anchored"]:
            ok = False
    run.write(out, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_pipeline(run: Run, args) -> int:
    k = args.k
    if k < 1:
        raise ValueError("need k >= 1")
    core = reflected_tree(k + 2, cap=run.settings.cap_vertices)
    outer = reflected_tree(k + 3, cap=run.settings.cap_vertices)
    n = len(outer.graph)
    heights = _int_list(args.toy_heights, n, "--toy-heights") \
        if args.toy_heights else [1] * n
    widths = _int_list(args.toy_widths, n, "--toy-widths") \
        if args.toy_widths else [1] * n
    schedule = toy_schedule(k, n, heights, widths)
    print("note: toy schedule in effect; the genuine growth hypotheses "
          "are not met and no width conclusions transfer", file=sys.stderr)
    inst = attach_gadgets(outer.graph, None, schedule,
                          cap=run.settings.cap_vertices)

    checks: List[Dict] = []
    failed = False

    def record(name: str, ok: bool, **extra):
        nonlocal failed
        checks.append({"check": name, "ok": ok, **extra})
        if not ok:
            failed = True
            print(f"FAIL {name}: {extra}", file=sys.stderr)

    tw_outer = exact_treewidth(outer.graph, cap=run.settings.tw_cap)
    record("outer-reflected-tree-treewidth", tw_outer == 2, value=tw_outer)
    tw_gadget = exact_treewidth(inst.graph, cap=run.settings.tw_cap)
    record("gadget-graph-treewidth", tw_gadget == max(tw_outer, 1),
           value=tw_gadget)

    total = count_spanning_trees(core.graph)
    if total <= run.settings.enum_cap:
        mode = {"mode": "all", "count": total}
        hosts = (HostTree(core.graph, t)
                 for t in enumerate_spanning_trees(core.graph))
    else:
        mode = {"mode": "sampled", "count": DEFAULT_SAMPLE, "seed": run.seed,
                "population": str(total)}
        hosts = sample_spanning_trees(core.graph, DEFAULT_SAMPLE, seed=run.seed)

    def certified(hosts):
        """Pass every host tree on, certifying each until the first
        failure. Enumerated trees are checked once, as they become
        HostTrees; sampled ones are built by the walk."""
        plan = MatchingPlan(core)
        count: Optional[int] = 0
        for host in hosts:
            if count is not None:
                cert = reflected_matching(core, host, plan)
                if len(cert.matching) == k + 1 and verify_certificate(core, cert):
                    count += 1
                else:
                    record("certificates", False, tree=sorted(host.tree.edges))
                    count = None
            yield host
        if count is not None:
            record("certificates", True, level=k + 2, matching_size=k + 1,
                   certified=count, **mode)

    budget = k - 1
    unsat = 0
    sat = False
    stream = certified(hosts)
    for res in decide_over_trees(core.graph, stream, budget, True):
        sat = res.is_sat
        if sat:
            break
        unsat += 1
    for _ in stream:
        pass  # after an early SAT, certify the rest: "certificates" comes first
    if sat:
        record("anchored-width-bound", False, budget=budget, tree_index=unsat)
    else:
        record("anchored-width-bound", True, budget=budget, unsat=unsat,
               **mode)

    report = {
        "k": k,
        "core_level": k + 2,
        "outer_level": k + 3,
        "schedule": io.schedule_to_obj(schedule),
        "checks": checks,
        "ok": not failed,
    }
    run.write(report, args.out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_export(run: Run, args) -> int:
    obj = run.read_json(args.input)
    if not isinstance(obj, dict):
        raise ValueError("input is not a graph, decomposition, or instance")
    if "host_vertices" in obj:
        text = io.td_to_dot(io.td_from_obj(obj))
    elif "base" in obj:
        text = io.instance_to_dot(io.instance_from_obj(obj))
    elif "vertices" in obj:
        text = io.graph_to_dot(io.graph_from_obj(obj))
    else:
        raise ValueError("input is not a graph, decomposition, or instance")
    run.write(text, args.out, to_dot=True)
    return EXIT_OK


# -------------------------------------------------------------- parsing

class _Parser(argparse.ArgumentParser):
    """A leaf (a parser with a handler) reports arguments it does not know
    itself, so the usage line names the leaf and the flags it accepts."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self.get_default("func") is not None:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tdforge",
        description="Spanning-tree-hosted tree decompositions: constructions, "
                    "transforms, certificates, and exact search.")
    parser.add_argument("--version", action="version", version=__version__)

    shared = {
        "--config": dict(help="key = value file for caps"),
        "--cap": dict(type=int, help="materialization cap on vertex count"),
        "--tw-cap": dict(type=int,
                         help="vertex cap for the general treewidth search"),
        "--seed": dict(type=int, default=0,
                       help="seed for all sampling (default 0)"),
    }

    def leaf(p, func, *flags, caps=()):
        """End a leaf: --out, the shared flags its handler reads, the caps
        (Settings fields) it applies, which its manifest records and its
        config file may set, the handler, and its name for errors."""
        p.add_argument("--out", help="write the main output here "
                                     "(default: stdout)")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func, caps=caps, leaf=p.prog)

    vertex_cap = ("cap_vertices",)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the graphs")
    psub = p.add_subparsers(dest="what", required=True)
    p1 = psub.add_parser("reflected-tree")
    p1.add_argument("--r", type=int, required=True)
    leaf(p1, cmd_reflected_tree, "--config", "--cap", caps=vertex_cap)
    p2 = psub.add_parser("gadget")
    p2.add_argument("--k", type=int, required=True)
    p2.add_argument("--graph", required=True)
    p2.add_argument("--ordering", help="comma-separated vertex ordering")
    p2.add_argument("--toy-heights", dest="toy_heights")
    p2.add_argument("--toy-widths", dest="toy_widths")
    leaf(p2, cmd_gadget, "--config", "--cap", caps=vertex_cap)

    p = sub.add_parser("schedule", help="print gadget growth parameters")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    leaf(p, cmd_schedule)

    p = sub.add_parser("transform", help="decomposition transformations")
    psub = p.add_subparsers(dest="what", required=True)
    p1 = psub.add_parser("minor-to-spanning")
    p1.add_argument("--graph", required=True)
    p1.add_argument("--td", required=True)
    p1.add_argument("--model", required=True)
    leaf(p1, cmd_minor_to_spanning)
    p2 = psub.add_parser("reduce")
    p2.add_argument("--instance", required=True)
    p2.add_argument("--td", required=True)
    leaf(p2, cmd_reduce)

    p = sub.add_parser("certify", help="matching certificates on host trees")
    p.add_argument("--r", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spanning-tree", dest="spanning_tree",
                       help="graph JSON of one host tree")
    group.add_argument("--all", action="store_true",
                       help="certify every spanning tree")
    group.add_argument("--sample", type=int,
                       help="certify this many sampled trees")
    leaf(p, cmd_certify, "--config", "--cap", "--seed",
         caps=("cap_vertices", "enum_cap"))

    p = sub.add_parser("audit", help="check a certificate against a "
                                     "decomposition")
    p.add_argument("--certificate", required=True)
    p.add_argument("--td", required=True)
    leaf(p, cmd_audit, "--config", "--cap", caps=vertex_cap)

    p = sub.add_parser("search", help="exact search engines")
    psub = p.add_subparsers(dest="what", required=True)
    p1 = psub.add_parser("decide")
    p1.add_argument("--graph", required=True)
    p1.add_argument("--host", required=True)
    p1.add_argument("--budget", type=int, required=True)
    p1.add_argument("--anchored", action="store_true")
    leaf(p1, cmd_decide)
    p2 = psub.add_parser("min-anchored")
    p2.add_argument("--graph", required=True)
    # a default beats the environment cap, so the exhaustive search keeps
    # its own small cap and the manifest records it
    p2.add_argument("--cap", type=int, default=12,
                    help="most vertices the graph may have for this search "
                         "over all its spanning trees (default 12; the "
                         "environment cap does not apply)")
    leaf(p2, cmd_min_anchored, caps=vertex_cap)
    p3 = psub.add_parser("tw")
    p3.add_argument("--graph", required=True)
    leaf(p3, cmd_tw, "--config", "--tw-cap", caps=("tw_cap",))
    p4 = psub.add_parser("spanning")
    p4.add_argument("--graph", required=True)
    p4.add_argument("--count-only", dest="count_only", action="store_true")
    leaf(p4, cmd_spanning, "--config", caps=("enum_cap",))

    p = sub.add_parser("verify", help="validate a decomposition")
    p.add_argument("--graph", required=True)
    p.add_argument("--td", required=True)
    p.add_argument("--anchored", action="store_true",
                   help="additionally require anchoring")
    p.add_argument("--budget", type=int, help="additionally require width "
                                              "within this budget")
    leaf(p, cmd_verify)

    p = sub.add_parser("pipeline", help="end-to-end toy demonstration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--toy-heights", dest="toy_heights")
    p.add_argument("--toy-widths", dest="toy_widths")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility, no effect: trees are "
                        "decided in-process, one after another")
    leaf(p, cmd_pipeline, "--config", "--cap", "--tw-cap", "--seed",
         caps=("cap_vertices", "tw_cap", "enum_cap"))

    p = sub.add_parser("export", help="DOT text for a JSON artifact")
    p.add_argument("--input", required=True)
    leaf(p, cmd_export)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    argv = list(sys.argv[1:] if argv is None else argv)
    if _parser is None:  # built at the first call, not at import
        _parser = build_parser()
    args = _parser.parse_args(argv)
    run = Run(["tdforge"] + argv, args)
    code, error = EXIT_CHECK_FAILED, None  # as for an uncaught exception
    try:
        run.settings = resolve_settings(args)
        code = args.func(run, args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            SizeExceeded, ScheduleTooLarge, CapExceeded) as exc:
        error = type(exc).__name__
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except TdforgeError as exc:
        error = type(exc).__name__
        print(f"check failed: {exc}", file=sys.stderr)
        code = EXIT_CHECK_FAILED
    except BaseException as exc:
        error = type(exc).__name__
        raise
    finally:
        run.finish(code, error)
    return code


if __name__ == "__main__":
    sys.exit(main())
