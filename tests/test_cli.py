"""End-to-end command-line behaviour: outputs, manifests, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from tdforge import io
from tdforge.cli import main
from tdforge.constructions import gadget_schedule
from tdforge.graphs import Graph, cycle_graph, path_graph
from jsonfiles import dump_json, exact_int, load_json

pytestmark = pytest.mark.usefixtures("in_tmp")


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TDFORGE_CAP_VERTICES", raising=False)


def write_graph(g: Graph, path: str) -> str:
    dump_json(io.graph_to_obj(g), path)
    return path


def write_square_td(path: str) -> str:
    host = Graph(["c00", "c01", "c02", "c03"],
                 [("c00", "c01"), ("c01", "c02"), ("c02", "c03")])
    obj = io.td_to_obj(io.td_from_obj({
        "host_vertices": list(host.vertices),
        "host_edges": [list(e) for e in sorted(host.edges)],
        "bags": {"c00": ["c00", "c01", "c03"], "c01": ["c01", "c02", "c03"],
                 "c02": ["c02", "c03"], "c03": ["c03"]},
    }))
    dump_json(obj, path)
    return path


def write_five_cycle_model() -> None:
    """The five-cycle, a width-3 decomposition on a two-node tree minor of
    it, and that minor's model: the inputs of MINOR_TO_SPANNING."""
    write_graph(cycle_graph(5), "g.json")
    dump_json({
        "host_vertices": ["x", "y"], "host_edges": [["x", "y"]],
        "bags": {"x": ["c00", "c01", "c02", "c04"],
                 "y": ["c02", "c03", "c04"]},
    }, "td.json")
    dump_json({
        "pattern_vertices": ["x", "y"], "pattern_edges": [["x", "y"]],
        "branch_sets": {"x": ["c00", "c01", "c02"], "y": ["c03", "c04"]},
        "edge_map": {"x,y": ["c02", "c03"]},
    }, "model.json")


MINOR_TO_SPANNING = ["transform", "minor-to-spanning", "--graph", "g.json",
                     "--td", "td.json", "--model", "model.json"]


def write_reduce_inputs(widths, bags) -> None:
    """A two-vertex base with one toy gadget tree of height 1 at each end,
    and a decomposition with the given bags hosted on the instance itself."""
    from tdforge.constructions import attach_gadgets, toy_schedule
    base = Graph(["a0", "a1"], [("a0", "a1")])
    inst = attach_gadgets(base, None, toy_schedule(1, 2, [1, 1], widths))
    dump_json(io.instance_to_obj(inst), "inst.json")
    host = inst.graph  # the instance is a tree, so it hosts itself
    dump_json(io.td_to_obj(io.td_from_obj({
        "host_vertices": list(host.vertices),
        "host_edges": [list(e) for e in sorted(host.edges)],
        "bags": bags,
    })), "td.json")


REDUCIBLE_BAGS = {"a0#0": ["a0#0", "a0"], "a0": ["a0", "a1"],
                  "a1": ["a1", "a1#0"], "a1#0": ["a1#0"]}


class TestParser:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_exclusive_certify_modes(self):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--r", "2", "--all", "--sample", "3"])
        assert exc.value.code == 2

    def test_each_leaf_accepts_only_the_flags_its_handler_reads(self):
        """Walking the parser finds these options on the leaves and no
        others, 67 in all, and a handler of its own on every leaf."""
        from tdforge import cli
        leaves = {}

        def walk(parser, words):
            subs = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                leaves[words] = (parser.get_default("func"), sorted(
                    o for a in parser._actions for o in a.option_strings
                    if o.startswith("--") and o != "--help"))
            for action in subs:
                for name, p in action.choices.items():
                    walk(p, f"{words} {name}".strip())

        walk(cli.build_parser(), "")
        assert {words: opts for words, (_, opts) in leaves.items()} == {
            words: sorted(opts) for words, opts in _LEAF_OPTIONS.items()}
        assert sum(len(opts) for _, opts in leaves.values()) == 67
        assert len({func for func, _ in leaves.values()}) == len(leaves)

    @pytest.mark.parametrize("leaf, rest", [
        (["verify"], ["--graph", "g.json", "--td", "td.json", "--seed", "1"]),
        (["export"], ["--input", "g.json", "--cap", "5"]),
        (["search", "decide"], ["--graph", "g.json", "--host", "g.json",
                                "--budget", "1", "--tw-cap", "3"]),
    ], ids=["verify --seed", "export --cap", "search decide --tw-cap"])
    def test_a_flag_the_leaf_does_not_read_is_a_usage_error(self, tmp_path,
                                                           leaf, rest):
        """Exit 2 with the leaf's own usage line and error prefix, which
        name the leaf, and no traceback, before any manifest is written."""
        write_graph(cycle_graph(4), "g.json")
        write_square_td("td.json")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "tdforge.cli", *leaf, *rest],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout) == (2, "")
        name = " ".join(["tdforge", *leaf])
        assert proc.stderr.startswith(f"usage: {name} [-h] ")
        assert proc.stderr.endswith(
            f"{name}: error: unrecognized arguments: {' '.join(rest[-2:])}\n")
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*manifest.json"))


_LEAF_OPTIONS = {
    "construct reflected-tree": ["--r", "--out", "--config", "--cap"],
    "construct gadget": ["--k", "--graph", "--ordering", "--toy-heights",
                         "--toy-widths", "--out", "--config", "--cap"],
    "schedule": ["--k", "--n", "--out"],
    "transform minor-to-spanning": ["--graph", "--td", "--model", "--out"],
    "transform reduce": ["--instance", "--td", "--out"],
    "certify": ["--r", "--spanning-tree", "--all", "--sample", "--out",
                "--config", "--cap", "--seed"],
    "audit": ["--certificate", "--td", "--out", "--config", "--cap"],
    "search decide": ["--graph", "--host", "--budget", "--anchored", "--out"],
    "search min-anchored": ["--graph", "--cap", "--out"],
    "search tw": ["--graph", "--out", "--config", "--tw-cap"],
    "search spanning": ["--graph", "--count-only", "--out", "--config"],
    "verify": ["--graph", "--td", "--anchored", "--budget", "--out"],
    "pipeline": ["--k", "--toy-heights", "--toy-widths", "--jobs", "--out",
                 "--config", "--cap", "--tw-cap", "--seed"],
    "export": ["--input", "--out"],
}


_SUBCOMMANDS = [[], ["construct"], ["construct", "reflected-tree"],
                ["construct", "gadget"], ["schedule"], ["transform"],
                ["transform", "minor-to-spanning"], ["transform", "reduce"],
                ["certify"], ["audit"], ["search"], ["search", "decide"],
                ["search", "min-anchored"], ["search", "tw"],
                ["search", "spanning"], ["verify"], ["pipeline"], ["export"]]


class TestParserBuiltOnce:
    @pytest.mark.parametrize("words", _SUBCOMMANDS, ids=" ".join)
    def test_help_equals_a_fresh_parsers(self, words, capsys):
        """--help through main's parser, after other runs, is byte for
        byte the help of a parser built afresh."""
        from tdforge import cli
        main(["schedule", "--k", "1", "--n", "1"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(words + ["--help"])
        assert exc.value.code == 0
        got = capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(words + ["--help"])
        want = capsys.readouterr()
        assert (got.out, got.err) == (want.out, want.err)
        assert got.out.startswith("usage: tdforge")

    def test_parser_is_built_once(self, monkeypatch, capsys):
        from tdforge import cli
        built = []
        fresh = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or fresh())
        for _ in range(3):
            main(["schedule", "--k", "1", "--n", "1"])
        assert built == [1]

    def test_runs_in_one_process_equal_runs_alone(self):
        """certify, a usage error, pipeline --k 1 and certify again, run in
        one process, give the bytes and exit codes each gives alone."""
        runs = [["certify", "--r", "4", "--sample", "3", "--seed", "2"],
                ["certify", "--r", "0", "--all"],
                ["pipeline", "--k", "1"],
                ["certify", "--r", "3", "--all"]]
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        script = ("import sys\nfrom tdforge.cli import main\n"
                  "for i, argv in enumerate(%r):\n"
                  "    code = main(argv + ['--out', 'together%%d.json' %% i])\n"
                  "    print('exit', code, file=sys.stderr)\n"
                  "    sys.stderr.flush()\n" % (runs,))
        together = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
        assert together.returncode == 0, together.stderr
        alone_err = ""
        for i, argv in enumerate(runs):
            proc = subprocess.run(
                [sys.executable, "-m", "tdforge.cli", *argv,
                 "--out", f"alone{i}.json"],
                capture_output=True, text=True, env=env, timeout=120)
            alone_err += proc.stderr + f"exit {proc.returncode}\n"
            assert os.path.exists(f"alone{i}.json") == (i != 1)
            if i != 1:
                with open(f"alone{i}.json", "rb") as a, \
                        open(f"together{i}.json", "rb") as b:
                    assert a.read() == b.read()
        assert not os.path.exists("together1.json")
        assert together.stderr == alone_err
        assert [line for line in alone_err.splitlines()
                if line.startswith("exit")] == [
            "exit 0", "exit 2", "exit 0", "exit 0"]


class TestConstruct:
    def test_reflected_tree_with_sidecar_and_manifest(self, tmp_path):
        assert main(["construct", "reflected-tree", "--r", "3",
                     "--out", "g3.json"]) == 0
        g = io.graph_from_obj(load_json("g3.json"))
        assert (len(g.vertices), len(g.edges)) == (10, 12)
        meta = load_json("g3.meta.json")
        assert meta == {"kind": "reflected-tree", "level": 3,
                        "roots": ["u", "v"], "order": 10, "size": 12}
        manifest = load_json("g3.json.manifest.json")
        assert manifest["command"][:2] == ["tdforge", "construct"]
        assert manifest["outputs"] == ["g3.json", "g3.meta.json"]
        assert manifest["settings"] == {"cap_vertices": 500_000}
        assert (manifest["exit_code"], manifest["error"]) == (0, None)

    def test_output_bytes_are_reproducible(self, tmp_path):
        main(["construct", "reflected-tree", "--r", "4", "--out", "a.json"])
        main(["construct", "reflected-tree", "--r", "4", "--out", "b.json"])
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_stdout_mode_writes_default_manifest(self, tmp_path, capsys):
        assert main(["construct", "reflected-tree", "--r", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["vertices"]) == 4
        assert (tmp_path / "tdforge.manifest.json").exists()

    def test_cap_refuses_large_levels(self, capsys):
        assert main(["construct", "reflected-tree", "--r", "4",
                     "--cap", "5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_toy_gadget(self, capsys):
        write_graph(path_graph(2), "base.json")
        assert main(["construct", "gadget", "--k", "1", "--graph", "base.json",
                     "--toy-heights", "1", "--toy-widths", "1",
                     "--out", "gg.json"]) == 0
        assert "toy schedule" in capsys.readouterr().err
        g = io.graph_from_obj(load_json("gg.json"))
        assert len(g.vertices) == 4
        meta = load_json("gg.meta.json")
        assert meta["kind"] == "gadget-instance"
        assert io.instance_from_obj(meta).gadgets == {
            "p00": frozenset({"p00#0"}), "p01": frozenset({"p01#0"})}

    def test_genuine_gadget_does_not_materialize(self, capsys):
        write_graph(path_graph(2), "base.json")
        assert main(["construct", "gadget", "--k", "1",
                     "--graph", "base.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_toy_flags_go_together(self):
        write_graph(path_graph(2), "base.json")
        assert main(["construct", "gadget", "--k", "1", "--graph", "base.json",
                     "--toy-heights", "1"]) == 2


class TestSchedule:
    def test_prints_single_gadget_parameters(self, capsys):
        assert main(["schedule", "--k", "1", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "genuine = True" in out
        assert "h_1 = 2" in out and "w_1 = 3" in out and "|V(S_1)| = 13" in out

    def test_two_gadget_json(self):
        assert main(["schedule", "--k", "1", "--n", "2",
                     "--out", "s.json"]) == 0
        obj = load_json("s.json")
        assert obj["heights"] == [2, 82]
        assert obj["widths"][1] == 5
        assert obj["widths"][0] == 2 * (2 + (5 ** 83 - 1) // 4) + 1

    def test_unrepresentable_schedule(self, capsys):
        assert main(["schedule", "--k", "1", "--n", "3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_values_past_the_digit_limit(self, capsys):
        """Sizes of tens of thousands of digits print and write exactly."""
        want = gadget_schedule(10, 2)
        assert main(["schedule", "--k", "10", "--n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        assert exact_int(lines[3].split(" = ")[1]) == want.tree_sizes[0]
        assert main(["schedule", "--k", "10", "--n", "2",
                     "--out", "s.json"]) == 0
        with open("s.json") as fh:
            obj = json.load(fh, parse_int=exact_int)
        assert io.schedule_from_obj(obj) == want


class TestTransform:
    def test_minor_to_spanning(self):
        write_five_cycle_model()
        assert main(MINOR_TO_SPANNING + ["--out", "out.json"]) == 0
        td = io.td_from_obj(load_json("out.json"))
        assert td.width() == 3
        assert td.host.edges == {("c00", "c01"), ("c01", "c02"),
                                 ("c02", "c03"), ("c03", "c04")}

    def test_reduce_success(self):
        write_reduce_inputs([1, 1], REDUCIBLE_BAGS)
        assert main(["transform", "reduce", "--instance", "inst.json",
                     "--td", "td.json", "--out", "out.json"]) == 0
        out = io.td_from_obj(load_json("out.json"))
        assert out.bags == {"a0": {"a0", "a1"}, "a1": {"a1"}}

    def test_reduce_reports_invalid(self, tmp_path, capsys):
        write_reduce_inputs([2, 2], {
            "a0": ["a0#1", "a1#0", "a1#1"], "a1": ["a1#0", "a1#1"],
            "a0#0": ["a0", "a1", "a0#0", "a0#1", "a1#0", "a1#1"],
            "a0#1": ["a0#1"], "a1#0": ["a1#0"], "a1#1": ["a1#1"]})
        with pytest.warns(UserWarning):
            rc = main(["transform", "reduce", "--instance", "inst.json",
                       "--td", "td.json", "--out", "out.json"])
        assert rc == 1
        assert "reduction failed" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


def write_level2_host(path="host.json"):
    return write_graph(Graph(["L.u", "R.u", "u", "v"],
                             [("L.u", "v"), ("R.u", "u"), ("R.u", "v")]),
                       path)


def write_level2_anchored_td(path="atd.json"):
    dump_json({
        "host_vertices": ["L.u", "R.u", "u", "v"],
        "host_edges": [["L.u", "v"], ["R.u", "u"], ["R.u", "v"]],
        "bags": {"u": ["u"], "R.u": ["u", "R.u", "v"], "v": ["u", "v"],
                 "L.u": ["u", "v", "L.u"]},
    }, path)
    return path


class TestCertifyAndAudit:
    def test_certify_one_tree_then_audit(self, capsys):
        write_level2_host()
        write_level2_anchored_td()
        assert main(["certify", "--r", "2", "--spanning-tree", "host.json",
                     "--out", "cert.json"]) == 0
        cert = load_json("cert.json")
        assert cert["level"] == 2
        assert cert["matching"] == [["L.u", "u"]]
        assert main(["audit", "--certificate", "cert.json", "--td", "atd.json",
                     "--out", "report.json"]) == 0
        report = load_json("report.json")
        assert report["certificate_ok"] is True
        assert report["bound_holds"] is True
        assert (report["hub"], report["forced"]) == ("R.u", ["u"])
        assert report["bag_size_lower_bound"] == 1

    def test_audit_rejects_tampered_certificate(self, capsys):
        write_level2_host()
        write_level2_anchored_td()
        main(["certify", "--r", "2", "--spanning-tree", "host.json",
              "--out", "cert.json"])
        obj = load_json("cert.json")
        obj["hub"] = "v"
        dump_json(obj, "bad.json")
        assert main(["audit", "--certificate", "bad.json",
                     "--td", "atd.json", "--out", "report.json"]) == 1
        report = load_json("report.json")
        assert report["certificate_ok"] is False
        assert report["reasons"]

    def test_audit_verifies_the_certificate_once(self, tmp_path, monkeypatch):
        """One verification per audit, in bag_lower_bound; the report bytes
        and exit codes for a valid, a tampered and a contradicted
        certificate are pinned."""
        from tdforge import certificates, cli
        from tdforge.errors import CertificateContradiction
        calls = []
        verify = certificates.verify_certificate

        def counted(rt, cert):
            calls.append(cert.hub)
            return verify(rt, cert)

        for module in (certificates, cli):
            monkeypatch.setattr(module, "verify_certificate", counted)
        write_level2_host()
        write_level2_anchored_td()
        main(["certify", "--r", "2", "--spanning-tree", "host.json",
              "--out", "cert.json"])
        obj = load_json("cert.json")
        obj["hub"] = "v"
        dump_json(obj, "bad.json")

        def audit(cert, code, expected):
            calls.clear()
            assert main(["audit", "--certificate", cert, "--td", "atd.json",
                         "--out", "report.json"]) == code
            assert (tmp_path / "report.json").read_bytes() == \
                (json.dumps(expected, indent=2) + "\n").encode()

        audit("cert.json", 0, {
            "certificate_ok": True, "reasons": [], "bound_holds": True,
            "hub": "R.u", "forced": ["u"], "hub_bag": ["R.u", "u", "v"],
            "bag_size_lower_bound": 1})
        assert calls == ["R.u"]
        audit("bad.json", 1, {
            "certificate_ok": False,
            "reasons": ["hub is not an endpoint of the witness edge"]})
        assert calls == ["v"]

        def contradicted(rt, cert, td):
            raise CertificateContradiction("forced")

        monkeypatch.setattr(cli, "bag_lower_bound", contradicted)
        audit("cert.json", 1, {"certificate_ok": True, "reasons": [],
                               "bound_holds": False, "contradiction": "forced"})

    def test_certify_all_level2(self, capsys):
        assert main(["certify", "--r", "2", "--all"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["mode"], obj["count"]) == ("all", 4)

    def test_sampled_certificates_are_seeded(self, tmp_path):
        argv = ["certify", "--r", "3", "--sample", "5", "--seed", "9"]
        assert main(argv + ["--out", "a.json"]) == 0
        assert main(argv + ["--out", "b.json"]) == 0
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()
        obj = load_json("a.json")
        assert (obj["mode"], obj["count"], obj["seed"]) == ("sampled", 5, 9)
        assert len(obj["certificates"]) == 5

    def test_manifest_records_input_digests(self):
        write_level2_host()
        write_level2_anchored_td()
        main(["certify", "--r", "2", "--spanning-tree", "host.json",
              "--out", "cert.json"])
        main(["audit", "--certificate", "cert.json", "--td", "atd.json",
              "--out", "report.json"])
        manifest = load_json("report.json.manifest.json")
        for path in ("cert.json", "atd.json"):
            with open(path, "rb") as fh:
                assert manifest["inputs"][path] == \
                    hashlib.sha256(fh.read()).hexdigest()


class TestSearchCommands:
    def test_decide_unsat_then_sat(self, capsys):
        write_graph(cycle_graph(4), "g.json")
        write_graph(Graph(["c00", "c01", "c02", "c03"],
                          [("c00", "c01"), ("c01", "c02"), ("c02", "c03")]),
                    "host.json")
        assert main(["search", "decide", "--graph", "g.json", "--host",
                     "host.json", "--budget", "1", "--anchored"]) == 0
        low = json.loads(capsys.readouterr().out)
        assert low == {"status": "UNSAT", "budget": 1, "anchored": True,
                       "nodes": 0}  # the 4-cycle's minor-min-width is 2
        manifest = load_json("tdforge.manifest.json")
        assert manifest["decider"] == {
            "source": "bound", "nodes": 0,
            "pruned": {"no_room": 0, "path": 0, "meet": 0,
                       "dominated": 0}}
        assert main(["search", "decide", "--graph", "g.json", "--host",
                     "host.json", "--budget", "2", "--anchored"]) == 0
        high = json.loads(capsys.readouterr().out)
        assert high["status"] == "SAT"
        assert io.td_from_obj(high["witness"]).width() <= 2
        manifest = load_json("tdforge.manifest.json")
        assert manifest["decider"] == {
            "source": "search", "nodes": high["nodes"],
            "pruned": {"no_room": 0, "path": 0, "meet": 0,
                       "dominated": 0}}

    def test_min_anchored(self, capsys):
        write_graph(cycle_graph(4), "g.json")
        assert main(["search", "min-anchored", "--graph", "g.json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["width"] == 2
        assert io.td_from_obj(obj["witness"]).width() == 2

    def test_min_anchored_cap(self, capsys):
        write_graph(path_graph(13), "big.json")
        assert main(["search", "min-anchored", "--graph", "big.json"]) == 2
        assert main(["search", "min-anchored", "--graph", "big.json",
                     "--cap", "13"]) == 0

    def test_min_anchored_manifest_records_the_cap_applied(
            self, tmp_path, monkeypatch, capsys):
        """The search's cap is 12 unless --cap sets it; TDFORGE_CAP_VERTICES
        does not, and a config file is a usage error. The manifest records
        the cap the search ran under. The level-2 graph has 4 vertices."""
        from tdforge.constructions import reflected_tree
        write_graph(reflected_tree(2).graph, "g.json")
        (tmp_path / "caps.cfg").write_text("cap_vertices = 2\n")
        monkeypatch.setenv("TDFORGE_CAP_VERTICES", "3")
        for extra, code, cap in (([], 0, 12),
                                 (["--cap", "3"], 2, 3),
                                 (["--cap", "4"], 0, 4)):
            assert main(["search", "min-anchored", "--graph", "g.json",
                         "--out", "o.json"] + extra) == code
            manifest = load_json("o.json.manifest.json")
            assert manifest["settings"]["cap_vertices"] == cap
        os.remove("o.json.manifest.json")
        with pytest.raises(SystemExit) as exc:  # it takes no config file
            main(["search", "min-anchored", "--graph", "g.json",
                  "--out", "o.json", "--config", "caps.cfg"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not os.path.exists("o.json.manifest.json")
        with pytest.raises(SystemExit):
            main(["search", "min-anchored", "--help"])
        assert "(default 12; the" in capsys.readouterr().out

    def test_treewidth(self, capsys):
        from tdforge.graphs import complete_graph
        write_graph(complete_graph(4), "k4.json")
        assert main(["search", "tw", "--graph", "k4.json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"treewidth": 3}
        assert main(["search", "tw", "--graph", "k4.json",
                     "--tw-cap", "3"]) == 2

    def test_spanning_listing_and_count(self, capsys):
        write_graph(cycle_graph(4), "g.json")
        assert main(["search", "spanning", "--graph", "g.json",
                     "--count-only"]) == 0
        assert json.loads(capsys.readouterr().out) == {"count": 4}
        assert main(["search", "spanning", "--graph", "g.json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["count"] == 4
        assert len(obj["trees"]) == 4
        assert all(len(t) == 3 for t in obj["trees"])

    def test_enum_cap_from_config(self, tmp_path, capsys):
        (tmp_path / "caps.cfg").write_text("enum_cap = 3\n")
        write_graph(cycle_graph(4), "g.json")
        assert main(["search", "spanning", "--graph", "g.json",
                     "--config", "caps.cfg"]) == 2
        assert main(["search", "spanning", "--graph", "g.json",
                     "--count-only", "--config", "caps.cfg"]) == 0

    def test_bad_config_rejected(self, tmp_path, capsys):
        (tmp_path / "caps.cfg").write_text("bogus = 3\n")
        write_graph(cycle_graph(4), "g.json")
        assert main(["search", "spanning", "--graph", "g.json",
                     "--config", "caps.cfg"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_non_integer_config_cap_names_its_line(self, tmp_path, capsys):
        (tmp_path / "caps.cfg").write_text("# caps\ncap_vertices = abc\n")
        assert main(["construct", "reflected-tree", "--r", "3",
                     "--config", "caps.cfg"]) == 2
        assert capsys.readouterr().err == (
            "error: caps.cfg:2: cap_vertices must be an integer, got 'abc'\n")

    def test_non_integer_env_cap_names_the_variable(self, monkeypatch,
                                                     capsys):
        monkeypatch.setenv("TDFORGE_CAP_VERTICES", "ten")
        assert main(["construct", "reflected-tree", "--r", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: TDFORGE_CAP_VERTICES must be an integer, got 'ten'\n")

    def test_config_key_the_leaf_does_not_apply(self, tmp_path, capsys):
        """A known cap that the leaf does not apply is a usage error naming
        the key and the leaf, and the manifest is still written."""
        write_graph(cycle_graph(4), "g.json")
        for key, leaf, argv, applied in (
                ("cap_vertices", "search spanning",
                 ["--graph", "g.json", "--count-only"], "enum_cap"),
                ("tw_cap", "certify", ["--r", "3", "--all"],
                 "cap_vertices, enum_cap"),
                ("enum_cap", "search tw", ["--graph", "g.json"], "tw_cap")):
            (tmp_path / "caps.cfg").write_text(f"# caps\n{key} = 1\n")
            assert main(leaf.split() + argv + ["--config", "caps.cfg",
                                               "--out", "o.json"]) == 2
            assert capsys.readouterr().err == (
                f"error: caps.cfg:2: tdforge {leaf} does not apply key "
                f"{key!r}; it applies {applied}\n")
            manifest = load_json("o.json.manifest.json")
            assert (manifest["exit_code"], manifest["error"]) == (2, "ValueError")
            assert not os.path.exists("o.json")


class TestVerify:
    def test_valid_anchored(self, capsys):
        write_graph(cycle_graph(4), "g.json")
        write_square_td("td.json")
        assert main(["verify", "--graph", "g.json", "--td", "td.json",
                     "--anchored"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["valid"] and obj["anchored"] and obj["width"] == 2

    def test_budget_failure(self, capsys):
        write_graph(cycle_graph(4), "g.json")
        write_square_td("td.json")
        assert main(["verify", "--graph", "g.json", "--td", "td.json",
                     "--budget", "1"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["width_within_budget"] is False

    def test_invalid_decomposition(self, capsys):
        write_graph(cycle_graph(4), "g.json")
        dump_json({
            "host_vertices": ["c00", "c01", "c02", "c03"],
            "host_edges": [["c00", "c01"], ["c01", "c02"], ["c02", "c03"]],
            "bags": {"c00": ["c00", "c01"], "c01": ["c01", "c02"],
                     "c02": ["c02", "c03"], "c03": ["c03"]},
        }, "td.json")
        assert main(["verify", "--graph", "g.json", "--td", "td.json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["valid"] is False
        assert obj["violations"]

    def test_anchoring_requirement(self, capsys):
        write_graph(cycle_graph(4), "g.json")
        dump_json({
            "host_vertices": ["c00", "c01", "c02", "c03"],
            "host_edges": [["c00", "c01"], ["c01", "c02"], ["c02", "c03"]],
            "bags": {"c00": ["c03"], "c01": ["c00", "c01", "c02", "c03"],
                     "c02": ["c02", "c03"], "c03": ["c03"]},
        }, "td.json")
        assert main(["verify", "--graph", "g.json", "--td", "td.json"]) == 0
        capsys.readouterr()
        assert main(["verify", "--graph", "g.json", "--td", "td.json",
                     "--anchored"]) == 1
        assert json.loads(capsys.readouterr().out)["anchored"] is False


class TestPipeline:
    def test_toy_run_for_k1(self, capsys):
        assert main(["pipeline", "--k", "1"]) == 0
        captured = capsys.readouterr()
        assert "toy schedule" in captured.err
        report = json.loads(captured.out)
        assert report["ok"] is True
        assert (report["core_level"], report["outer_level"]) == (3, 4)
        by_name = {c["check"]: c for c in report["checks"]}
        assert by_name["outer-reflected-tree-treewidth"]["value"] == 2
        assert by_name["gadget-graph-treewidth"]["value"] == 2
        assert by_name["certificates"]["matching_size"] == 2
        assert by_name["certificates"]["certified"] == 96
        assert by_name["anchored-width-bound"]["unsat"] == 96
        assert by_name["anchored-width-bound"]["budget"] == 0

    def test_rejects_bad_k(self, capsys):
        assert main(["pipeline", "--k", "0"]) == 2

    def test_one_shared_host_tree_per_tree(self, capsys, monkeypatch):
        """pipeline --k 1 builds two HostTrees per tree: the one it checks
        and hands to both the certificate and the decider, and the one
        verify_certificate builds as the second route."""
        from tdforge.graphs import HostTree
        built = []
        init = HostTree.__init__

        def counting(self, g, t):
            built.append(t)
            init(self, g, t)

        monkeypatch.setattr(HostTree, "__init__", counting)
        assert main(["pipeline", "--k", "1"]) == 0
        # built keeps every tree alive, so ids are distinct: 96 trees, each
        # checked twice
        assert sorted(Counter(map(id, built)).values()) == [2] * 96

    def test_each_tree_is_walked_once(self, capsys, monkeypatch):
        """Of the two HostTrees per tree, only the first walks the tree:
        verify_certificate's re-check reads the walk the tree keeps."""
        from tdforge import graphs
        walked = []
        walk = graphs._walk_tree

        def counting(t):
            walked.append(t)
            return walk(t)

        monkeypatch.setattr(graphs, "_walk_tree", counting)
        assert main(["pipeline", "--k", "1"]) == 0
        assert sorted(Counter(map(id, walked)).values()) == [1] * 96

    def test_failed_checks_keep_their_order(self, capsys, monkeypatch):
        """The fifth certificate fails and the third tree decides SAT: both
        checks fail, certifying stops at the failure, and the certificates
        check is still recorded before the width check."""
        from tdforge import cli
        verified = []

        def verify(core, cert):
            verified.append(cert)
            return len(verified) != 5

        def decide(g, trees, budget, anchored):
            for i, _ in enumerate(trees):
                yield SimpleNamespace(is_sat=i == 2)

        monkeypatch.setattr(cli, "verify_certificate", verify)
        monkeypatch.setattr(cli, "decide_over_trees", decide)
        assert main(["pipeline", "--k", "1"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"][2:]
        assert [(c["check"], c["ok"]) for c in checks] == [
            ("certificates", False), ("anchored-width-bound", False)]
        assert len(checks[0]["tree"]) == 9  # the fifth tree's edges
        assert checks[1]["tree_index"] == 2
        assert len(verified) == 5


class TestExport:
    def test_graph_td_and_instance(self, capsys):
        from tdforge.constructions import attach_gadgets, toy_schedule
        write_graph(cycle_graph(4), "g.json")
        assert main(["export", "--input", "g.json"]) == 0
        assert capsys.readouterr().out.startswith("graph ")
        write_square_td("td.json")
        assert main(["export", "--input", "td.json"]) == 0
        assert "label" in capsys.readouterr().out
        base = Graph(["a0", "a1"], [("a0", "a1")])
        inst = attach_gadgets(base, None, toy_schedule(1, 2, [1, 1], [1, 1]))
        dump_json(io.instance_to_obj(inst), "inst.json")
        assert main(["export", "--input", "inst.json"]) == 0
        assert "a0#0" in capsys.readouterr().out

    def test_rejects_unknown_and_missing(self, capsys):
        dump_json({"foo": 1}, "junk.json")
        assert main(["export", "--input", "junk.json"]) == 2
        dump_json(5, "number.json")
        assert main(["export", "--input", "number.json"]) == 2
        assert main(["export", "--input", "absent.json"]) == 2

    def test_graph_labels_key_is_ignored(self, capsys):
        """A "labels" key is an unknown key like any other: the graph loads,
        and nothing of it reaches the outputs."""
        obj = io.graph_to_obj(cycle_graph(4))
        dump_json(obj, "plain.json")
        dump_json({**obj, "labels": {"zz": "x"}}, "labelled.json")
        for name in ("plain", "labelled"):
            assert main(["search", "spanning", "--graph", f"{name}.json",
                         "--count-only", "--out", f"{name}.count.json"]) == 0
            assert main(["export", "--input", f"{name}.json",
                         "--out", f"{name}.dot"]) == 0
        assert load_json("labelled.count.json") == {"count": 4}
        assert open("labelled.dot").read() == open("plain.dot").read()


class TestMalformedInput:
    def run_cli(self, *argv):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "tdforge.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    def assert_usage_error(self, *argv) -> str:
        """The one error line of argv's run."""
        proc = self.run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        return proc.stderr

    def assert_usage_error_with_manifest(self, *argv) -> str:
        err = self.assert_usage_error(*argv, "--out", "o.json")
        manifest = load_json("o.json.manifest.json")
        assert (manifest["exit_code"], manifest["error"]) == (2, "ValueError")
        assert not os.path.exists("o.json")
        return err

    def test_bad_shapes_exit_2_without_traceback(self):
        dump_json({"vertices": [1, "a"], "edges": [[1, "a"]]}, "ids.json")
        write_graph(cycle_graph(4), "g.json")
        dump_json({"host_vertices": ["c00"], "host_edges": [],
                   "bags": [1]}, "td.json")
        for argv in (["search", "tw", "--graph", "ids.json"],
                     ["verify", "--graph", "g.json", "--td", "td.json"]):
            self.assert_usage_error(*argv)

    def test_certificate_cycles_not_an_object(self):
        write_level2_host()
        write_level2_anchored_td()
        assert main(["certify", "--r", "2", "--spanning-tree", "host.json",
                     "--out", "cert.json"]) == 0
        obj = load_json("cert.json")
        obj["cycles"] = []
        dump_json(obj, "bad.json")
        self.assert_usage_error_with_manifest(
            "audit", "--certificate", "bad.json", "--td", "atd.json")

    def test_instance_gadgets_not_an_object(self):
        from tdforge.constructions import attach_gadgets, toy_schedule
        base = Graph(["a0", "a1"], [("a0", "a1")])
        obj = io.instance_to_obj(
            attach_gadgets(base, None, toy_schedule(1, 2, [1, 1], [1, 1])))
        obj["gadgets"] = []
        dump_json(obj, "inst.json")
        self.assert_usage_error_with_manifest("export", "--input", "inst.json")

    def test_negative_sample_count(self):
        self.assert_usage_error_with_manifest("certify", "--r", "3",
                                              "--sample", "-1")
        assert main(["certify", "--r", "3", "--sample", "0",
                     "--out", "zero.json"]) == 0
        assert load_json("zero.json")["certificates"] == []

    def test_model_branch_sets_not_an_object(self):
        write_graph(cycle_graph(4), "g.json")
        write_square_td("td.json")
        dump_json({"branch_sets": []}, "model.json")
        self.assert_usage_error_with_manifest(
            "transform", "minor-to-spanning", "--graph", "g.json",
            "--td", "td.json", "--model", "model.json")

    def test_pipeline_non_integer_toy_height_names_its_flag(self):
        err = self.assert_usage_error_with_manifest(
            "pipeline", "--k", "1", "--toy-heights", "a")
        assert err == ("error: --toy-heights needs comma-separated "
                       "integers, got 'a'\n")

    def test_gadget_non_integer_toy_width_names_its_flag(self):
        write_graph(path_graph(2), "p2.json")
        err = self.assert_usage_error_with_manifest(
            "construct", "gadget", "--k", "1", "--graph", "p2.json",
            "--toy-heights", "1", "--toy-widths", "2, x2")
        assert err == ("error: --toy-widths needs comma-separated "
                       "integers, got 'x2'\n")

    def huge_inputs(self, big):
        """Argument lists whose level or toy height is big, with P2 and a
        certificate of level big on disk."""
        write_graph(path_graph(2), "p2.json")
        write_level2_host()
        write_level2_anchored_td()
        assert main(["certify", "--r", "2", "--spanning-tree", "host.json",
                     "--out", "cert.json"]) == 0
        cert = load_json("cert.json")
        cert["level"] = big
        dump_json(cert, "big.json")
        toy = ["--toy-heights", str(big), "--toy-widths", "2"]
        return [["construct", "reflected-tree", "--r", str(big)],
                ["certify", "--r", str(big), "--sample", "1"],
                ["audit", "--certificate", "big.json", "--td", "atd.json"],
                ["construct", "gadget", "--k", "1", "--graph", "p2.json", *toy],
                ["pipeline", "--k", "1", *toy]]

    def test_huge_levels_and_heights_name_the_cap(self, capsys):
        """Exit 2 with one error line naming the level or height and the
        vertex cap, never str()'s digit-limit error."""
        runs = [(argv, 20000) for argv in self.huge_inputs(20000)]
        runs.append((["construct", "gadget", "--k", "10", "--graph",
                      "p2.json"], 20737))
        capsys.readouterr()
        for argv, named in runs:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err.splitlines()
            assert err[-1].startswith("error: ") and len(err) <= 2, err
            assert f" {named} " in err[-1] and "cap is 500000" in err[-1]

    def test_a_level_or_height_of_10_to_the_12_is_refused_at_once(self,
                                                                  capsys):
        for argv in self.huge_inputs(10 ** 12):
            capsys.readouterr()
            start = time.perf_counter()
            assert main(argv) == 2, argv
            assert time.perf_counter() - start < 1.0, argv
            err = capsys.readouterr().err.splitlines()
            assert f" {10 ** 12} needs more than" in err[-1], err

    def test_failed_run_still_writes_manifest(self, capsys):
        assert main(["search", "tw", "--graph", "missing.json",
                     "--out", "o.json"]) == 2
        manifest = load_json("o.json.manifest.json")
        assert manifest["exit_code"] == 2
        assert manifest["error"] == "FileNotFoundError"
        assert manifest["outputs"] == []


class TestPinnedOutputs:
    """Output bytes frozen as sha256 digests; they do not depend on the
    interpreter's hash seed."""

    @pytest.mark.parametrize("argv, digest", [
        (["certify", "--r", "5", "--sample", "20", "--seed", "11"],
         "66812a6954fcd025a37c94b31cecaf5fa9d0797752cc4b1e6d2f47d69475f9b0"),
        (["pipeline", "--k", "1"],
         "1403553fc90a3cd3a0be4c9dbc48182aae5d10bab906d56de5f8b8970bcea4c6"),
        (["certify", "--r", "7", "--sample", "50", "--seed", "1"],
         "b0f6fc49fe4f1d27dcba91df6e4339869c022c6ee12615a21cf98099fb04681f"),
        (["certify", "--r", "3", "--all"],
         "97d612215bff76e2aba7f5711ca3d5df6be53174adb16e692451b67c7ba09a8d"),
        # --jobs still parses and changes nothing
        (["pipeline", "--k", "1", "--jobs", "1"],
         "1403553fc90a3cd3a0be4c9dbc48182aae5d10bab906d56de5f8b8970bcea4c6"),
        (["pipeline", "--k", "1", "--jobs", "2"],
         "1403553fc90a3cd3a0be4c9dbc48182aae5d10bab906d56de5f8b8970bcea4c6"),
    ])
    def test_digest(self, tmp_path, capsys, argv, digest):
        assert self.digest(tmp_path, argv) == digest

    def test_sampled_pipeline_digest(self, tmp_path, capsys):
        """pipeline --k 1 with enum_cap below the core's 96 trees samples
        10,000 of them, and certifies and decides each on the HostTree the
        walk built."""
        (tmp_path / "caps.cfg").write_text("enum_cap = 10\n")
        assert self.digest(tmp_path, [
            "pipeline", "--k", "1", "--seed", "3", "--config", "caps.cfg"]) == (
            "82261d8c364c79a875399bfc9812d4b216093eaa8019696877d741fea2713294")
        report = load_json("out.json")
        assert report["checks"][2]["mode"] == "sampled"

    def test_stdout_has_the_bytes_of_out(self, tmp_path, capsysbinary):
        """The chunked writer gives stdout the bytes it gives --out."""
        argv = ["certify", "--r", "7", "--sample", "50", "--seed", "1"]
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        assert main(argv + ["--out", "out.json"]) == 0
        assert stdout == (tmp_path / "out.json").read_bytes()

    def test_unencodable_value_writes_no_output(self, monkeypatch, capsys):
        """A value JSON cannot encode, deep in the last certificate, raises
        before the output is opened: no file for --out, nothing on
        stdout, and the manifest records the error."""
        real = io.certificate_to_obj
        built = []

        def poisoned(cert):
            obj = real(cert)
            built.append(obj)
            if len(built) % 3 == 0:
                obj = {**obj, "extra": [[{1, 2}]]}
            return obj

        monkeypatch.setattr(io, "certificate_to_obj", poisoned)
        argv = ["certify", "--r", "4", "--sample", "3", "--seed", "1"]
        for out in ([], ["--out", "out.json"]):
            with pytest.raises(TypeError, match="set is not JSON"):
                main(argv + out)
            assert capsys.readouterr().out == ""
        assert not os.path.exists("out.json")
        manifest = load_json("out.json.manifest.json")
        assert (manifest["exit_code"], manifest["error"]) == (1, "TypeError")
        assert manifest["outputs"] == []

    @classmethod
    def digest(cls, tmp_path, argv):
        assert main(argv + ["--out", "out.json"]) == 0
        return cls.sha256(tmp_path / "out.json")

    @staticmethod
    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @classmethod
    def decide_digest(cls, tmp_path, argv):
        """A decide output's digest without its node count (re-serialised
        as the CLI writes it, the other keys in their order), and the node
        count: pruning may only lower the count and must keep the rest."""
        cls.digest(tmp_path, argv)
        out = json.loads((tmp_path / "out.json").read_text())
        nodes = out.pop("nodes")
        text = json.dumps(out, indent=2) + "\n"
        return hashlib.sha256(text.encode()).hexdigest(), nodes

    def test_anchored_decide_digest(self, tmp_path, capsys):
        """Status, node count and witness of the anchored decider at
        budget 3 on the first enumerated spanning tree of level 3."""
        from tdforge.constructions import reflected_tree
        from tdforge.search import enumerate_spanning_trees
        g = reflected_tree(3).graph
        write_graph(g, "g.json")
        write_graph(next(enumerate_spanning_trees(g)), "host.json")
        assert self.decide_digest(tmp_path, [
            "search", "decide", "--graph", "g.json", "--host", "host.json",
            "--budget", "3", "--anchored"]) == (
            "3ac1dc8fb46003669c0c02331bbb147e298751d3bd92abcc6a3af7ec7393bf7a",
            15)  # 13,639 nodes before the path look-ahead

    def test_unanchored_decide_digest(self, tmp_path, capsys):
        """Status, node count and witness of the unanchored decider at
        budget 2 on the same host: level 3 has minor-min-width 2, so the
        lower bound does not settle this call and it is searched."""
        from tdforge.constructions import reflected_tree
        from tdforge.search import enumerate_spanning_trees
        g = reflected_tree(3).graph
        write_graph(g, "g.json")
        write_graph(next(enumerate_spanning_trees(g)), "host.json")
        # 643 nodes before the path look-ahead, 80 before the meet rule
        assert self.decide_digest(tmp_path, [
            "search", "decide", "--graph", "g.json", "--host", "host.json",
            "--budget", "2"]) == (
            "a87a6c04a42451205ad15fc28ced9340397cd92d27275f251b40309edba60383",
            75)

    def test_deep_unsat_decide_digest(self, tmp_path, capsys):
        """Status and node count of an anchored budget-2 UNSAT proof on a
        sampled level-4 host, which freezes the size of a deep search
        tree."""
        from tdforge.constructions import reflected_tree
        from tdforge.search import sample_spanning_trees
        g = reflected_tree(4).graph
        write_graph(g, "g.json")
        write_graph(next(sample_spanning_trees(g, 1, seed=43)).tree, "host.json")
        # 4,096 nodes before the path look-ahead, 70 before dominance, 25
        # before the meet rule
        assert self.decide_digest(tmp_path, [
            "search", "decide", "--graph", "g.json", "--host", "host.json",
            "--budget", "2", "--anchored"]) == (
            "dbb452efc33057799d44b0fb6682be87750549f8057423af9864f9bc8c47129b",
            24)

    def test_min_anchored_digest(self, tmp_path, capsys):
        """Width, host and witness of the minimum anchored width over the
        96 spanning trees of level 3."""
        from tdforge.constructions import reflected_tree
        write_graph(reflected_tree(3).graph, "g.json")
        assert self.digest(tmp_path, [
            "search", "min-anchored", "--graph", "g.json"]) == \
            "e6fe729362edbf144bbae18199f340a70eeef24cd1d69ace67de55920d22d3d7"

    def test_gadget_and_export_digests(self, tmp_path, capsys):
        """A toy gadget instance (graph and sidecar), whose trees come from
        complete_ary_tree, and the DOT export of its instance and graph."""
        write_graph(path_graph(3), "base.json")
        self.digest(tmp_path, ["construct", "gadget", "--k", "1",
                               "--graph", "base.json", "--ordering",
                               "p01,p00,p02", "--toy-heights", "2,1,3",
                               "--toy-widths", "2,3,1"])
        digests = [self.sha256(tmp_path / name)
                   for name in ("out.json", "out.meta.json")]
        for name in ("out.meta.json", "out.json"):
            assert main(["export", "--input", name, "--out", "out.dot"]) == 0
            digests.append(self.sha256(tmp_path / "out.dot"))
        assert digests == [
            "8c2055414113888c2f21468ee4fcb87ccf86d4e388b4c723bc38372f83fed28e",
            "9e9d0a9dbc9523ce9082e484a15862998b4c583f4eb1ac1ad2e262df05a81496",
            "4f9d8d4a6fca536f67dc43900ff5e7ad6df5930c72199804d0dbfa2e6103ab2f",
            "5c83054ad9babd95fe113683692563dead74ef91e89989227cfe937bcfa76502",
        ]

    def test_transform_digests(self, tmp_path, capsys):
        write_five_cycle_model()
        assert self.digest(tmp_path, MINOR_TO_SPANNING) == \
            "ee598f50ca4b9a170da0cf0bfef21ee8d3b04910008ab8844a22232b7a423bcd"
        write_reduce_inputs([1, 1], REDUCIBLE_BAGS)
        assert self.digest(tmp_path, [
            "transform", "reduce", "--instance", "inst.json",
            "--td", "td.json"]) == \
            "ccf0c8f7328bf8635d791fa331cc7b512b5df6fc00677da70724cb68cd848eb5"


class TestSettingsPrecedence:
    def test_env_caps_construction(self, monkeypatch, capsys):
        monkeypatch.setenv("TDFORGE_CAP_VERTICES", "10")
        assert main(["construct", "reflected-tree", "--r", "4"]) == 2
        assert main(["construct", "reflected-tree", "--r", "3"]) == 0

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("TDFORGE_CAP_VERTICES", "10")
        assert main(["construct", "reflected-tree", "--r", "4",
                     "--cap", "25"]) == 0

    def test_env_beats_config(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "caps.cfg").write_text("cap_vertices = 10\n")
        assert main(["construct", "reflected-tree", "--r", "4",
                     "--config", "caps.cfg"]) == 2
        monkeypatch.setenv("TDFORGE_CAP_VERTICES", "25")
        assert main(["construct", "reflected-tree", "--r", "4",
                     "--config", "caps.cfg"]) == 0

    def test_manifest_records_only_the_caps_the_leaf_applies(
            self, monkeypatch, capsys):
        """The environment cap does not reach export, which applies no cap,
        so its manifest records none; certify and pipeline record the caps
        they apply, the environment's included."""
        write_graph(path_graph(3), "g.json")
        monkeypatch.setenv("TDFORGE_CAP_VERTICES", "1")
        assert main(["export", "--input", "g.json", "--out", "g.dot"]) == 0
        assert load_json("g.dot.manifest.json")["settings"] == {}
        monkeypatch.setenv("TDFORGE_CAP_VERTICES", "100")
        assert main(["certify", "--r", "3", "--sample", "2",
                     "--out", "c.json"]) == 0
        assert load_json("c.json.manifest.json")["settings"] == {
            "cap_vertices": 100, "enum_cap": 10 ** 6}
        assert main(["pipeline", "--k", "1", "--out", "p.json"]) == 0
        assert load_json("p.json.manifest.json")["settings"] == {
            "cap_vertices": 100, "tw_cap": 14, "enum_cap": 10 ** 6}
