"""JSON round-trips, loader shape checks, DOT rendering."""

import dataclasses
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tdforge import io
from tdforge.certificates import reflected_matching
from tdforge.constructions import attach_gadgets, reflected_tree, toy_schedule
from tdforge.decomposition import TreeDecomposition
from tdforge.graphs import Graph, complete_graph, path_graph
from tdforge.search import enumerate_spanning_trees
from generators import random_model_and_td
from jsonfiles import exact_int


class TestGraphRoundTrip:
    def test_basic(self):
        g = Graph(["b", "a"], [("a", "b")])
        obj = io.graph_to_obj(g)
        assert obj == {"vertices": ["b", "a"], "edges": [["a", "b"]]}
        assert io.graph_from_obj(obj) == g
        assert io.graph_from_obj(obj).vertices == ("b", "a")

    def test_unknown_keys_are_ignored(self):
        obj = {"vertices": ["b", "a"], "edges": [["a", "b"]],
               "labels": {"zz": "x"}, "note": 1}
        g = io.graph_from_obj(obj)
        assert g == Graph(["b", "a"], [("a", "b")])
        assert io.graph_to_obj(g) == {"vertices": ["b", "a"],
                                      "edges": [["a", "b"]]}

    def test_edges_sorted_deterministically(self):
        g = complete_graph(3)
        obj = io.graph_to_obj(g)
        assert obj["edges"] == sorted(obj["edges"])
        assert json.dumps(obj) == json.dumps(io.graph_to_obj(g))

    def test_errors(self):
        with pytest.raises(ValueError):
            io.graph_from_obj({"edges": []})
        with pytest.raises(ValueError):
            io.graph_to_obj(Graph([1, 2], [(1, 2)]))  # non-string ids


class TestDecompositionRoundTrip:
    def test_round_trip(self):
        host = path_graph(3)
        td = TreeDecomposition(host, {"p00": {"x", "y"}, "p01": {"y"}})
        obj = io.td_to_obj(td)
        assert obj["bags"]["p02"] == []
        assert io.td_from_obj(obj) == td

    def test_missing_field(self):
        with pytest.raises(ValueError):
            io.td_from_obj({"host_vertices": [], "bags": {}})


class TestScheduleAndInstance:
    def test_schedule_round_trip(self):
        s = toy_schedule(2, 2, [1, 2], [3, 2])
        assert io.schedule_from_obj(io.schedule_to_obj(s)) == s

    def test_instance_round_trip(self):
        base = Graph(["a0", "a1"], [("a0", "a1")])
        inst = attach_gadgets(base, None, toy_schedule(1, 2, [1, 1], [2, 1]))
        obj = io.instance_to_obj(inst)
        back = io.instance_from_obj(obj)
        assert back.graph == inst.graph
        assert back.base == inst.base
        assert back.ordering == inst.ordering
        assert back.gadgets == inst.gadgets
        assert back.schedule == inst.schedule

    def test_instance_ids_must_be_strings(self):
        base = Graph(["a0"], [])
        inst = attach_gadgets(base, None, toy_schedule(1, 1, [1], [1]))
        bad = dataclasses.replace(
            inst, graph=Graph(inst.graph.vertices + (7,), inst.graph.edges),
            gadgets={"a0": inst.gadgets["a0"] | {7}})
        with pytest.raises(ValueError, match="must be strings, got 7"):
            io.instance_to_obj(bad)

    def test_instance_consistency_checks(self):
        base = Graph(["a0"], [])
        inst = attach_gadgets(base, None, toy_schedule(1, 1, [1], [1]))
        obj = io.instance_to_obj(inst)
        bad = json.loads(json.dumps(obj))
        bad["ordering"] = ["zz"]
        with pytest.raises(ValueError):
            io.instance_from_obj(bad)
        bad = json.loads(json.dumps(obj))
        bad["gadgets"] = {"a0": []}
        with pytest.raises(ValueError):
            io.instance_from_obj(bad)
        bad = json.loads(json.dumps(obj))
        bad["gadgets"]["zz"] = []
        with pytest.raises(ValueError, match="gadgets do not match"):
            io.instance_from_obj(bad)


class TestModelRoundTrip:
    def test_seeded_models(self):
        rng = random.Random(5)
        for _ in range(10):
            g, _, model = random_model_and_td(rng)
            obj = io.model_to_obj(model)
            back = io.model_from_obj(obj, g)
            assert back.branch_sets == model.branch_sets
            assert back.edge_map == model.edge_map
            assert back.pattern.edges == model.pattern.edges

    def test_edge_map_keys(self):
        with pytest.raises(ValueError):
            io._pair_key("a,b", "c")
        assert io._pair_key("y", "x") == "x,y"
        assert io._unpair_key("x,y") == ("x", "y")
        with pytest.raises(ValueError):
            io._unpair_key("xy")


class TestCertificateRoundTrip:
    def test_round_trip(self):
        rt = reflected_tree(3)
        t = next(enumerate_spanning_trees(rt.graph))
        cert = reflected_matching(rt, t)
        obj = io.certificate_to_obj(cert)
        back = io.certificate_from_obj(obj)
        assert back.level == cert.level
        assert back.host == cert.host
        assert back.matching.edges == cert.matching.edges
        assert back.hub == cert.hub
        assert back.witness_edge == cert.witness_edge
        assert back.cycles == cert.cycles


class TestLoaderShapes:
    """Malformed JSON is refused with ValueError, never another error."""

    @staticmethod
    def good():
        rt = reflected_tree(3)
        cert = io.certificate_to_obj(
            reflected_matching(rt, next(enumerate_spanning_trees(rt.graph))))
        base = Graph(["a0", "a1"], [("a0", "a1")])
        inst = io.instance_to_obj(
            attach_gadgets(base, None, toy_schedule(1, 2, [1, 1], [1, 1])))
        model = {"branch_sets": {"x": ["a0"], "y": ["a1"]},
                 "pattern_edges": [["x", "y"]],
                 "edge_map": {"x,y": ["a0", "a1"]}}
        return {"certificate": cert, "instance": inst, "model": model,
                "schedule": inst["schedule"]}

    @staticmethod
    def load(kind, obj):
        if kind == "model":
            return io.model_from_obj(obj, Graph(["a0", "a1"], [("a0", "a1")]))
        return getattr(io, f"{kind}_from_obj")(obj)

    @pytest.mark.parametrize("kind, field, value", [
        ("certificate", "level", "3"),
        ("certificate", "level", True),
        ("certificate", "host", []),
        ("certificate", "matching", {}),
        ("certificate", "matching", [["a"]]),
        ("certificate", "hub", 1),
        ("certificate", "witness_edge", "ab"),
        ("certificate", "witness_edge", [1, 2]),
        ("certificate", "cycles", []),
        ("certificate", "cycles", {"a,b": "ab"}),
        ("instance", "base", []),
        ("instance", "ordering", "a0"),
        ("instance", "ordering", [0, 1]),
        ("instance", "gadgets", []),
        ("instance", "gadgets", {"a0": []}),
        ("instance", "schedule", None),
        ("schedule", "k", 1.5),
        ("schedule", "heights", ["1", "1"]),
        ("schedule", "widths", 1),
        ("schedule", "genuine", "yes"),
        ("model", "branch_sets", []),
        ("model", "branch_sets", {"x": "a0"}),
        ("model", "pattern_edges", [["x"]]),
        ("model", "edge_map", []),
        ("model", "edge_map", {"x,y": "a0"}),
    ])
    def test_bad_field(self, kind, field, value):
        obj = self.good()[kind]
        self.load(kind, obj)
        obj[field] = value
        with pytest.raises(ValueError):
            self.load(kind, obj)

    @pytest.mark.parametrize("kind", ["certificate", "instance", "model",
                                      "schedule"])
    def test_not_an_object_or_missing_field(self, kind):
        with pytest.raises(ValueError):
            self.load(kind, [])
        obj = self.good()[kind]
        del obj[next(iter(obj))]
        with pytest.raises(ValueError):
            self.load(kind, obj)


# JSON values as json.dumps takes them: tuples are written as lists, and
# dict keys may be numbers, booleans or None, which json writes as strings.
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text())
_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
# lists of string pairs, the shape of edge lists, mixed with near misses:
# pairs that are tuples, that hold a non-string, or have one or three items
_PAIR = st.lists(st.text(max_size=3), min_size=2, max_size=2)
_NEAR_PAIR = (_PAIR.map(tuple) | st.lists(st.text(max_size=3), max_size=3)
              | st.tuples(st.text(max_size=3), _SCALARS) | st.text(max_size=2))
_PAIRS = (st.lists(_PAIR, max_size=6)
          | st.lists(_PAIR | _NEAR_PAIR, max_size=6))
_VALUES = st.recursive(
    _SCALARS | _PAIRS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=40)


class TestJsonText:
    """io.json_chunks joins to json.dumps(obj, indent=2), byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(_VALUES)
    def test_matches_json_dumps(self, obj):
        assert "".join(io.json_chunks(obj)) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[[]], {}, ()],
        {"a": [{"b": [[], {}]}], "c": ({},)},
        ["é", "\x00\x1f\x7f", "\u2028", "\U0001F600", "\ud800", '"\\\n\t'],
        {"ключ": "значение", "\x00": "\x01"},
        [-0.0, 0.0, 1e300, -1e-300, float("nan"), float("inf"),
         float("-inf"), 2 ** 100, -1, True, False, None],
        {2: "int", 2.5: "float", float("nan"): "nan", False: "bool",
         None: "none", "s": "str"},
        "top", 7, -0.0, None, True,
    ])
    def test_edge_cases(self, obj):
        assert "".join(io.json_chunks(obj)) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        [["a", "b"], ["c", "d"]], [("a", "b")], {"e": [["a", "b"]]},
        [["a", 1]], [["a", None]], [["a", 1.5]], [[["a"], "b"]],
        [["a", "b"], "ab"], [["a", "b"], ["a", "b", "c"]],
        [["a", "b"], ["c"]], ["ab", ["a", "b"]], [{"a": 1, "b": 2}],
        [["", ""]], [["é", "\u2603"], ["\x00", '"']],
    ])
    def test_pair_lists(self, obj):
        assert "".join(io.json_chunks(obj)) == json.dumps(obj, indent=2)

    def test_certify_document(self):
        rt = reflected_tree(4)
        certs = [io.certificate_to_obj(reflected_matching(rt, t)) for t in
                 itertools.islice(enumerate_spanning_trees(rt.graph), 20)]
        doc = {"mode": "all", "count": len(certs), "certificates": certs}
        assert "".join(io.json_chunks(doc)) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("obj", [
        {1, 2}, [set()], ["a", frozenset()], {"a": b"bytes"},
        ({"a": object()},), {(1, 2): "tuple key"}, {"a": {b"k": 1}},
        [["a", "b"], {"c", "d"}], [["a", "b"], ("c", b"d")],
    ])
    def test_unserializable_raises_json_type_error(self, obj):
        with pytest.raises(TypeError) as want:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as got:
            "".join(io.json_chunks(obj))
        assert str(got.value) == str(want.value)


class TestIntText:
    """io.int_text is str() wherever str() can spell the int, and past its
    digit limit spells it exactly."""

    def test_matches_str(self):
        rng = random.Random(3)
        values = [0, 1, -1, 10 ** 602, 10 ** 603 - 1, 2 ** 2000, -(2 ** 2001)]
        values += [rng.getrandbits(rng.randrange(1, 14000)) for _ in range(60)]
        for n in values:
            assert io.int_text(n) == str(n)

    def test_past_the_digit_limit(self):
        for n in (10 ** 5000, 10 ** 5000 - 1, 3 ** 40000, -(7 ** 9000) + 1,
                  5 * 10 ** 20000 + 1):
            text = io.int_text(n)
            sign = text[0] == "-"
            assert text.lstrip("-")[0] != "0"
            assert (-1 if sign else 1) * exact_int(text.lstrip("-")) == n

    @settings(max_examples=120, deadline=None)
    @given(bits=st.integers(min_value=1, max_value=40000),
           seed=st.integers(min_value=0, max_value=2 ** 31),
           digits=st.integers(min_value=590, max_value=12000),
           step=st.integers(min_value=-2, max_value=2))
    def test_decimal_route_is_str(self, bits, seed, digits, step):
        """Past 2^2000, int_text converts through decimal; it writes what
        str() writes with the digit limit lifted, for random values, their
        negations, and values beside powers of ten and of two."""
        rng = random.Random(seed)
        values = [rng.getrandbits(bits) | 1 << (bits - 1), 10 ** digits + step,
                  2 ** (digits * 3) + step, 2 ** 2000 + step]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for n in values:
                assert io.int_text(n) == str(n)
                assert io.int_text(-n) == str(-n)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_json_writes_a_huge_int_exactly(self):
        n = 11 ** 9000
        text = "".join(io.json_chunks({"sizes": [n, 2]}))
        assert json.loads(text, parse_int=exact_int) == {"sizes": [n, 2]}


class TestJsonChunks:
    """io.json_chunks yields pieces that join to json.dumps(obj, indent=2),
    and splits a long document into them."""

    @settings(max_examples=400, deadline=None)
    @given(_VALUES)
    def test_joins_to_json_text(self, obj):
        assert "".join(io.json_chunks(obj)) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], {"a": []}, [[[]], {}, ()], "top", 7, None,
        {"a": [{"b": [[], {}]}], "c": ({},)}, [["a", "b"], ["c", "d"]],
        {2: "int", None: "none", "s": ["x", ("y", "z")]},
    ])
    def test_edge_cases(self, obj):
        assert "".join(io.json_chunks(obj)) == json.dumps(obj, indent=2)

    def test_unserializable_raises_json_type_error(self):
        for obj in ({"a": [{1, 2}]}, [{(1, 2): "tuple key"}], [[b"deep"]]):
            with pytest.raises(TypeError) as want:
                json.dumps(obj, indent=2)
            with pytest.raises(TypeError) as got:
                "".join(io.json_chunks(obj))
            assert str(got.value) == str(want.value)

    def test_level7_certify_document(self):
        """The document certify --r 7 --sample 50 --seed 1 writes: one
        piece per key and per certificate, none of them the whole."""
        from tdforge.certificates import MatchingPlan
        from tdforge.search import sample_spanning_trees
        rt = reflected_tree(7)
        plan = MatchingPlan(rt)
        certs = [io.certificate_to_obj(reflected_matching(rt, host, plan))
                 for host in sample_spanning_trees(rt.graph, 50, seed=1)]
        doc = {"mode": "sampled", "count": 50, "seed": 1,
               "certificates": certs}
        chunks = list(io.json_chunks(doc))
        text = json.dumps(doc, indent=2)
        assert "".join(chunks) == text
        assert len(chunks) > 50
        assert max(map(len, chunks)) < len(text) // 10


class TestDot:
    def test_graph_dot(self):
        g = Graph(["a", "b"], [("a", "b")])
        dot = io.graph_to_dot(g)
        assert dot == 'graph G {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'

    def test_td_dot(self):
        host = path_graph(2)
        td = TreeDecomposition(host, {"p00": {"x"}, "p01": {"x", "y"}})
        assert io.td_to_dot(td) == (
            'graph decomposition {\n  node [shape=box];\n'
            '  "p00" [label="p00: {x}"];\n  "p01" [label="p01: {x,y}"];\n'
            '  "p00" -- "p01";\n}\n')

    def test_instance_dot(self):
        """Clusters follow the ordering, not the base's vertex order."""
        base = Graph(["a0", "a1"], [("a0", "a1")])
        inst = attach_gadgets(base, ["a1", "a0"],
                              toy_schedule(1, 2, [1, 1], [2, 1]))
        assert io.instance_to_dot(inst) == (
            'graph gadget {\n  "a0";\n  "a1";\n'
            '  subgraph cluster_0 {\n    label="gadget at a1";\n'
            '    "a1#0";\n    "a1#1";\n  }\n'
            '  subgraph cluster_1 {\n    label="gadget at a0";\n'
            '    "a0#0";\n  }\n'
            '  "a0" -- "a0#0";\n  "a0" -- "a1";\n  "a1" -- "a1#0";\n'
            '  "a1" -- "a1#1";\n}\n')

    def test_quote_escapes(self):
        g = Graph(['sa"y'], [])
        dot = io.graph_to_dot(g)
        assert '\\"' in dot
