"""JSON and DOT serialization for graphs, decompositions, and friends.

All serialized identifiers are strings. Output is deterministic: vertex
order is preserved where it is meaningful, everything else is sorted.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from .constructions import GadgetInstance, GadgetSchedule
from .decomposition import TreeDecomposition
from .graphs import Graph, Matching, edge


def json_chunks(obj) -> Iterator[str]:
    """The text of json.dumps(obj, indent=2), byte for byte, in pieces that
    join to it. The top two container levels go out item by item; each
    deeper value, and each scalar, is one piece, so a long document is
    never built as one string.

    With an indent, json.dumps runs the stdlib's pure-Python encoder, which
    yields every bracket, separator and scalar as a chunk of its own. This
    writer builds one string per piece and escapes strings with the C
    escaper json.dumps uses under ensure_ascii; a list of string pairs is
    one format string filled with all its escaped strings; ints of any size
    go through int_text. json.dumps itself spells the other scalars and the
    dict keys that are not strings, and raises its TypeError on what it
    cannot serialize. A container that holds itself exhausts the recursion
    limit instead of raising json's ValueError.
    """
    return _chunks(obj, "\n", 2)


def _chunks(o, pad: str, levels: int) -> Iterator[str]:
    """o as _text(o, pad) writes it, with levels container levels split
    into pieces."""
    if not levels or not o or not isinstance(o, (list, tuple, dict)):
        yield _text(o, pad)
        return
    inner = pad + "  "
    if isinstance(o, dict):
        close = pad + "}"
        items = [(_key(k) + ": ", v) for k, v in o.items()]
        sep = "{" + inner
    else:
        close = pad + "]"
        items = [("", x) for x in o]
        sep = "[" + inner
    for head, value in items:
        yield sep + head
        yield from _chunks(value, inner, levels - 1)
        sep = "," + inner
    yield close


def int_text(n: int) -> str:
    """str(n), exact at any size: str() refuses past
    sys.get_int_max_str_digits() digits (never below 640), so n past 2^2000
    (603 digits) is built as a decimal.Decimal and written from that.

    int division is quadratic in the digits, so n is split at powers of two
    instead: n = high * 2^w + low becomes high * D(2)^w + low in decimal
    arithmetic, whose multiplication is fast at this size, under a context
    with every digit it needs (prec=MAX_PREC, Emax=MAX_EMAX) and Inexact
    trapped, so every step is exact. This is the method of CPython 3.12's
    _pylong.int_to_decimal_string. decimal is imported only on this path."""
    if n < 0:
        return "-" + int_text(-n)
    if n.bit_length() <= 2000:
        return str(n)
    import decimal
    D = decimal.Decimal
    powers: Dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        # each power is computed once
        p = powers.get(w)
        if p is None:
            p = powers[w] = D(2) ** w
        return p

    def convert(n: int, w: int) -> decimal.Decimal:
        # n < 2^w
        if w <= 128:
            return D(n)
        half = w >> 1
        high = n >> half
        return (convert(n - (high << half), half)
                + convert(high, w - half) * power(half))

    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              traps=[decimal.Inexact])
    with decimal.localcontext(context):
        return str(convert(n, n.bit_length()))


def _text(o, pad: str) -> str:
    """o as json.dumps(o, indent=2) writes it at the nesting depth whose
    line break and indent is pad, as one string."""
    if isinstance(o, str):
        return _string(o)
    if type(o) is int:
        return int_text(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        sep = "," + inner
        try:
            body = sep.join(map(_string, o))
        except TypeError:  # an item that is not a string
            body = _pairs_text(o, inner)
            if body is None:
                body = sep.join([_text(x, inner) for x in o])
        return "[" + inner + body + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            _key(k) + ": " + _text(v, inner) for k, v in o.items()]) + pad + "}"
    return json.dumps(o)


_SEQUENCES = frozenset([list, tuple])


def _pairs_text(o, pad: str):
    """The items of o joined as _text writes them at the depth of pad, when
    every item is a list or tuple of two strings; else None. One format
    string, a pair's text repeated, takes every escaped string at once."""
    if not _SEQUENCES.issuperset(map(type, o)) or set(map(len, o)) != {2}:
        return None
    try:
        strings = tuple(map(_string, chain.from_iterable(o)))
    except TypeError:  # an item that is not a string
        return None
    inner = pad + "  "
    pair = "[" + inner + "%s," + inner + "%s" + pad + "]"
    return ("," + pad).join([pair] * len(o)) % strings


def _key(k) -> str:
    """A dict key as json writes it: numbers, booleans and None become the
    string of their JSON spelling."""
    if isinstance(k, str):
        return _string(k)
    if k is None or isinstance(k, (int, float)):
        return _string(json.dumps(k))
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _check_ids(ids: Iterable) -> None:
    for v in ids:
        if not isinstance(v, str):
            raise ValueError(f"serialized vertex ids must be strings, got {v!r}")


_KINDS = {dict: "an object", list: "a list", int: "an integer",
          str: "a string", bool: "a boolean"}


def _field(obj, what: str, name: str, kind: type, default=None):
    """obj[name], once obj is an object and the value has JSON type kind;
    default when the field is absent and a default is given."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {type(obj).__name__}")
    if name not in obj:
        if default is None:
            raise ValueError(f"{what} object needs a {name!r} field")
        return default
    value = obj[name]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} field {name!r} must be {_KINDS[kind]}, "
                         f"got {type(value).__name__}")
    return value


def _pairs(pairs: list, what: str) -> List[Tuple[str, str]]:
    """A list of 2-element lists of string ids, as tuples."""
    for e in pairs:
        if not isinstance(e, list) or len(e) != 2:
            raise ValueError(f"{what} must be 2-element lists, got {e!r}")
        _check_ids(e)
    return [tuple(e) for e in pairs]


def _id_sets(obj, what: str) -> Dict[str, FrozenSet[str]]:
    """An object mapping ids to lists of string ids, as frozensets."""
    if not isinstance(obj, dict) or not all(isinstance(b, list)
                                            for b in obj.values()):
        raise ValueError(f"{what} must be an object of lists")
    for b in obj.values():
        _check_ids(b)
    return {x: frozenset(b) for x, b in obj.items()}


def _ints(values: list, what: str) -> Tuple[int, ...]:
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ValueError(f"{what} must be a list of integers")
    return tuple(values)


def _sorted_pairs(pairs) -> List[List[str]]:
    return [list(e) for e in sorted(pairs)]


def _pair_key(u: str, v: str) -> str:
    if "," in u or "," in v:
        raise ValueError(f"vertex ids with commas cannot key edge maps: {u!r}, {v!r}")
    a, b = edge(u, v)
    return f"{a},{b}"


def _unpair_key(key: str) -> Tuple[str, str]:
    parts = key.split(",")
    if len(parts) != 2:
        raise ValueError(f"malformed edge key {key!r}")
    return parts[0], parts[1]


# ---------------------------------------------------------------- graphs

def graph_to_obj(g: Graph) -> dict:
    _check_ids(g.vertices)
    return {"vertices": list(g.vertices), "edges": _sorted_pairs(g.edges)}


def _graph(vertices, edges) -> Graph:
    """A Graph from JSON fields, once their shapes are checked: a list of
    string ids and a list of 2-element lists of string ids."""
    if not isinstance(vertices, list):
        raise ValueError(f"vertices must be a list, got {type(vertices).__name__}")
    _check_ids(vertices)
    if not isinstance(edges, list):
        raise ValueError(f"edges must be a list, got {type(edges).__name__}")
    return Graph(vertices, _pairs(edges, "edges"))


def graph_from_obj(obj: dict) -> Graph:
    """A Graph from its JSON object; keys other than vertices and edges are
    ignored."""
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ValueError("graph object needs a 'vertices' field")
    return _graph(obj["vertices"], obj.get("edges", []))


# ------------------------------------------------------- decompositions

def td_to_obj(td: TreeDecomposition) -> dict:
    _check_ids(td.host.vertices)
    return {
        "host_vertices": list(td.host.vertices),
        "host_edges": _sorted_pairs(td.host.edges),
        "bags": {x: sorted(td.bag(x)) for x in sorted(td.host.vertices)},
    }


def td_from_obj(obj: dict) -> TreeDecomposition:
    for field in ("host_vertices", "host_edges", "bags"):
        if not isinstance(obj, dict) or field not in obj:
            raise ValueError(f"decomposition object needs a {field!r} field")
    host = _graph(obj["host_vertices"], obj["host_edges"])
    return TreeDecomposition(host, _id_sets(obj["bags"], "bags"))


# ------------------------------------------------------------ schedules

def schedule_to_obj(s: GadgetSchedule) -> dict:
    return {"k": s.k, "n": s.n, "heights": list(s.heights),
            "widths": list(s.widths), "tree_sizes": list(s.tree_sizes),
            "genuine": s.genuine}


def schedule_from_obj(obj: dict) -> GadgetSchedule:
    lists = [_ints(_field(obj, "schedule", name, list), name)
             for name in ("heights", "widths", "tree_sizes")]
    return GadgetSchedule(_field(obj, "schedule", "k", int),
                          _field(obj, "schedule", "n", int), *lists,
                          _field(obj, "schedule", "genuine", bool))


def instance_to_obj(inst: GadgetInstance) -> dict:
    return {
        "base": graph_to_obj(inst.base),
        "ordering": list(inst.ordering),
        "schedule": schedule_to_obj(inst.schedule),
        "graph": graph_to_obj(inst.graph),
        "gadgets": {a: sorted(inst.gadgets[a]) for a in sorted(inst.gadgets)},
    }


def instance_from_obj(obj: dict) -> GadgetInstance:
    base = graph_from_obj(_field(obj, "instance", "base", dict))
    graph = graph_from_obj(_field(obj, "instance", "graph", dict))
    gadgets = _id_sets(_field(obj, "instance", "gadgets", dict), "gadgets")
    ordering = _field(obj, "instance", "ordering", list)
    _check_ids(ordering)
    inst = GadgetInstance(base, tuple(ordering),
                          schedule_from_obj(_field(obj, "instance", "schedule",
                                                   dict)), graph, gadgets)
    if set(inst.ordering) != base.vertex_set:
        raise ValueError("instance ordering does not match its base graph")
    if set(gadgets) != base.vertex_set:
        raise ValueError("instance gadgets do not match its base graph")
    covered = set(base.vertices)
    for a, vs in gadgets.items():
        covered |= vs
    if covered != graph.vertex_set:
        raise ValueError("gadget sets plus base do not cover the instance graph")
    return inst


# --------------------------------------------------------- minor models

def model_to_obj(m) -> dict:
    """Model files carry branch sets, pattern edges, and the edge map; the
    host graph travels separately."""
    _check_ids(m.graph.vertices)
    _check_ids(m.pattern.vertices)
    return {
        "branch_sets": {x: sorted(m.branch_sets[x]) for x in sorted(m.branch_sets)},
        "pattern_edges": _sorted_pairs(m.pattern.edges),
        "edge_map": {_pair_key(*xy): list(m.edge_map[xy])
                     for xy in sorted(m.edge_map)},
    }


def model_from_obj(obj: dict, graph: Graph):
    from .transforms import MinorModel
    branch_sets = _id_sets(_field(obj, "model", "branch_sets", dict),
                           "branch_sets")
    pattern = Graph(sorted(branch_sets),
                    _pairs(_field(obj, "model", "pattern_edges", list, []),
                           "pattern_edges"))
    edge_map = _field(obj, "model", "edge_map", dict, {})
    targets = _pairs(list(edge_map.values()), "edge_map values")
    edge_map = {edge(*_unpair_key(key)): edge(*pair)
                for key, pair in zip(edge_map, targets)}
    return MinorModel(graph, pattern, branch_sets, edge_map)


# --------------------------------------------------------- certificates

def certificate_to_obj(cert) -> dict:
    return {
        "level": cert.level,
        "host": graph_to_obj(cert.host),
        "matching": _sorted_pairs(cert.matching.edges),
        "hub": cert.hub,
        "witness_edge": list(cert.witness_edge),
        "cycles": {_pair_key(*e): sorted(vs) for e, vs in sorted(cert.cycles.items())},
    }


def certificate_from_obj(obj: dict):
    from .certificates import WidthCertificate
    what = "certificate"
    witness = _pairs([_field(obj, what, "witness_edge", list)], "witness_edge")
    return WidthCertificate(
        level=_field(obj, what, "level", int),
        host=graph_from_obj(_field(obj, what, "host", dict)),
        matching=Matching(frozenset(_pairs(_field(obj, what, "matching", list),
                                           "matching"))),
        hub=_field(obj, what, "hub", str),
        witness_edge=edge(*witness[0]),
        cycles={edge(*_unpair_key(k)): vs for k, vs in
                _id_sets(_field(obj, what, "cycles", dict), "cycles").items()},
    )


# ----------------------------------------------------------------- DOT

def _quote(s: str) -> str:
    return '"' + str(s).replace('"', '\\"') + '"'


def _dot(name: str, lines: List[str], edges) -> str:
    """A DOT graph: its header, the node lines given, a line for each of the
    edges in sorted order, and its footer."""
    lines = [f"graph {name} {{", *lines]
    lines += [f"  {_quote(u)} -- {_quote(v)};" for u, v in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(g: Graph, name: str = "G") -> str:
    return _dot(name, [f"  {_quote(v)};" for v in g.vertices], g.edges)


def td_to_dot(td: TreeDecomposition, name: str = "decomposition") -> str:
    lines = ["  node [shape=box];"]
    for x in td.host.vertices:
        bag = ",".join(sorted(td.bag(x)))
        lines.append(f"  {_quote(x)} [label={_quote(f'{x}: {{{bag}}}')}];")
    return _dot(name, lines, td.host.edges)


def instance_to_dot(inst: GadgetInstance, name: str = "gadget") -> str:
    lines = [f"  {_quote(v)};" for v in inst.base.vertices]
    for i, a in enumerate(inst.ordering):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f"    label={_quote(f'gadget at {a}')};")
        lines += [f"    {_quote(v)};" for v in sorted(inst.gadgets[a])]
        lines.append("  }")
    return _dot(name, lines, inst.graph.edges)
