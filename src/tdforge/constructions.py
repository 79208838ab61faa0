"""Constructions: reflected trees, complete ary trees, gadget schedules.

Reflected trees are built by the doubling recursion: level 1 is a single
root, and level r joins two disjoint level r-1 copies through two fresh
roots u and v, with u adjacent to the first root of each copy and v to the
remaining root of each copy. Vertex identifiers record the recursion path,
e.g. "L.R.u".

Gadget schedules carry the height and arity sequences for the trees hung
off a base graph, either with the genuine doubly exponential growth or as
small toy values for desk-scale experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .errors import ScheduleTooLarge, SizeExceeded, count_text
from .graphs import Graph, Vertex

DEFAULT_CAP = 500_000

# Largest integer, in bits, that schedule arithmetic will materialize. The
# height recursion is doubly exponential, so values beyond this guard could
# not be held in memory under any realistic budget.
MAX_SCHEDULE_BITS = 1 << 22


@dataclass(frozen=True)
class ReflectedTree:
    """A reflected tree of a given level, with its recursive structure.

    roots is (u,) at level 1 and (u, v) above. copies holds the two embedded
    level r-1 objects (identifiers prefixed "L." and "R."), or None at the
    base level.
    """

    graph: Graph
    level: int
    roots: Tuple[Vertex, ...]
    copies: Optional[Tuple["ReflectedTree", "ReflectedTree"]]


def _guard_bits(base: int, exponent: int, what: str) -> None:
    """Refuse base ** exponent, and anything as large, past
    MAX_SCHEDULE_BITS bits, before it is computed."""
    # integer arithmetic only: the exponent itself can be too large for a
    # float, so even computing a log here would overflow before the guard
    bits = exponent * base.bit_length() if base > 1 else 0
    if bits > MAX_SCHEDULE_BITS:
        raise ScheduleTooLarge(
            f"{what} needs more than {MAX_SCHEDULE_BITS} bits; "
            "nothing that large fits in memory")


def _guard_pow(base: int, exponent: int, what: str) -> int:
    _guard_bits(base, exponent, what)
    return base ** exponent


def reflected_tree_order(r: int) -> int:
    """Number of vertices of the level-r reflected tree, 3 * 2^(r-1) - 2."""
    if r < 1:
        raise ValueError("need r >= 1")
    return 3 * _guard_pow(2, r - 1, f"reflected tree of level {count_text(r)}") - 2


def reflected_tree_size(r: int) -> int:
    """Number of edges of the level-r reflected tree, 4 * (2^(r-1) - 1)."""
    return 4 * ((reflected_tree_order(r) + 2) // 3 - 1)


def _reflected(r: int, prefix: str) -> ReflectedTree:
    """The level-r reflected tree with every identifier under prefix; each
    copy is built once, under its final prefix."""
    u = prefix + "u"
    if r == 1:
        return ReflectedTree(Graph([u]), 1, (u,), None)
    v = prefix + "v"
    left = _reflected(r - 1, prefix + "L.")
    right = _reflected(r - 1, prefix + "R.")
    vertices = [u, v, *left.graph.vertices, *right.graph.vertices]
    # u takes the first root of each copy, v takes the remaining root; at
    # level 2 each copy has a single root serving as both.
    edges = [*left.graph.edges, *right.graph.edges,
             (u, left.roots[0]), (u, right.roots[0]),
             (v, left.roots[-1]), (v, right.roots[-1])]
    return ReflectedTree(Graph(vertices, edges), r, (u, v), (left, right))


def reflected_tree(r: int, cap: int = DEFAULT_CAP) -> ReflectedTree:
    """Build the level-r reflected tree.

    Refuses (with the exact vertex total) when the result would exceed cap.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    total = reflected_tree_order(r)
    if total > cap:
        raise SizeExceeded(total, cap, f"reflected tree of level {count_text(r)}")
    return _reflected(r, "")


def _ary(width: int, height: int) -> str:
    return f"complete {count_text(width)}-ary tree of height {count_text(height)}"


def ary_tree_size(width: int, height: int) -> int:
    """Vertex count of the complete width-ary tree with levels 0..height."""
    if width < 1 or height < 0:
        raise ValueError("need width >= 1 and height >= 0")
    if width == 1:
        return height + 1
    # the sum 1 + w + ... + w^h is below w^(h+1), which the guard bounds
    _guard_bits(width, height + 1, _ary(width, height))
    # By multiplications only: a long division by w - 1 is quadratic in
    # the digits. With S_N = 1 + w + ... + w^(N-1), S_2N = S_N (1 + w^N)
    # and S_(2N+1) = S_2N + w^2N; N runs over the leading bits of h + 1,
    # and the last step computes no power it does not add.
    total, power = 1, width  # S_1 and w^1
    bits = bin(height + 1)[3:]
    for k, bit in enumerate(bits, 1):
        more = k < len(bits)
        total *= 1 + power
        if bit == "1" or more:
            power *= power
        if bit == "1":
            total += power
            if more:
                power *= width
    return total


def complete_ary_tree(width: int, height: int, cap: int = DEFAULT_CAP,
                      root: str = "g") -> Graph:
    """The complete width-ary tree of the given height, rooted at root.

    Node identifiers are the root id followed by dotted child indices
    ("g", "g.0", "g.0.1", ...), listed level by level, so the root comes
    first. Refuses when the size exceeds cap.
    """
    total = ary_tree_size(width, height)
    if total > cap:
        raise SizeExceeded(total, cap, _ary(width, height))
    vertices = [root]
    edges = []
    level = [root]
    for _ in range(height):
        nxt = []
        for p in level:
            for i in range(width):
                c = f"{p}.{i}"
                vertices.append(c)
                edges.append((p, c))
                nxt.append(c)
        level = nxt
    return Graph(vertices, edges)


@dataclass(frozen=True)
class GadgetSchedule:
    """Heights, arities, and tree sizes for the gadgets of one attachment.

    Index j runs 1..n; heights[j-1] is the height of the j-th gadget tree,
    widths[j-1] its arity, tree_sizes[j-1] its vertex count. genuine marks
    schedules produced by the growth recursion rather than toy values.
    """

    k: int
    n: int
    heights: Tuple[int, ...]
    widths: Tuple[int, ...]
    tree_sizes: Tuple[int, ...]
    genuine: bool

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError("need k >= 1 and n >= 1")
        if not (len(self.heights) == len(self.widths) == len(self.tree_sizes) == self.n):
            raise ValueError("heights, widths, tree_sizes must have length n")
        for h, w, s in zip(self.heights, self.widths, self.tree_sizes):
            if h < 1 or w < 1:
                raise ValueError("heights and widths must be >= 1")
            if s != ary_tree_size(w, h):
                raise ValueError("tree_sizes inconsistent with heights and widths")

    @classmethod
    def _trusted(cls, k: int, n: int, heights: Tuple[int, ...],
                 widths: Tuple[int, ...], tree_sizes: Tuple[int, ...],
                 genuine: bool) -> "GadgetSchedule":
        """The schedule from these fields, unchecked: the caller has just
        computed each tree size with ary_tree_size from heights and widths
        that pass __post_init__'s checks, which would compute every size
        again."""
        schedule = cls.__new__(cls)
        for name, value in (("k", k), ("n", n), ("heights", heights),
                            ("widths", widths), ("tree_sizes", tree_sizes),
                            ("genuine", genuine)):
            object.__setattr__(schedule, name, value)
        return schedule

    def attachment_total(self, base_order: int) -> int:
        """Vertices of the attached graph over a base with base_order vertices."""
        return base_order + sum(s - 1 for s in self.tree_sizes)


def gadget_schedule(k: int, n: int) -> GadgetSchedule:
    """The genuine schedule for parameter k over an n-vertex base.

    Heights grow doubly exponentially (h_1 = 2, h_j = (k+2)^(2 h_{j-1}) + 1)
    and arities are chosen, from the last gadget backwards, to exceed k+1
    times the vertices of everything attached after them. Values are exact
    integers; past the third index they stop being physically representable
    and the constructor raises ScheduleTooLarge.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    heights = [2]
    for j in range(2, n + 1):
        heights.append(_guard_pow(k + 2, 2 * heights[-1], f"height {j}") + 1)
    widths = [0] * n
    sizes = [0] * n
    tail = 0  # total tree size of gadgets j+1..n
    for j in range(n, 0, -1):
        widths[j - 1] = (k + 1) * (n + tail) + 1
        sizes[j - 1] = ary_tree_size(widths[j - 1], heights[j - 1])
        tail += sizes[j - 1]
    # k, n >= 1, heights >= 2 and widths >= 1 here, and ary_tree_size made
    # every size
    return GadgetSchedule._trusted(k, n, tuple(heights), tuple(widths),
                                   tuple(sizes), True)


def toy_schedule(k: int, n: int, heights: Sequence[int],
                 widths: Sequence[int]) -> GadgetSchedule:
    """A schedule with hand-picked small heights and arities.

    Toy schedules make attachment materializable but void the guarantees
    that depend on the genuine growth.
    """
    if len(heights) != n or len(widths) != n:
        raise ValueError("need exactly n heights and n widths")
    sizes = tuple(ary_tree_size(w, h) for h, w in zip(heights, widths))
    return GadgetSchedule(k, n, tuple(heights), tuple(widths), sizes, False)


@dataclass(frozen=True)
class GadgetInstance:
    """A base graph with one gadget tree rooted at each of its vertices.

    ordering lists the base vertices in attachment order (a_1, ..., a_n);
    gadgets maps each base vertex to the set of its gadget tree's non-root
    vertices. graph is the full attached graph.
    """

    base: Graph
    ordering: Tuple[Vertex, ...]
    schedule: GadgetSchedule
    graph: Graph
    gadgets: Dict[Vertex, FrozenSet[Vertex]]


def attach_gadgets(g: Graph, ordering: Optional[Sequence[Vertex]],
                   schedule: GadgetSchedule, cap: int = DEFAULT_CAP) -> GadgetInstance:
    """Attach the j-th schedule tree by its root at the j-th base vertex.

    ordering must be a permutation of V(g) with length schedule.n; None means
    the base graph's vertex order. Refuses (with the exact total) when the
    attached graph would exceed cap.
    """
    order = tuple(ordering) if ordering is not None else g.vertices
    if len(order) != schedule.n or set(order) != g.vertex_set:
        raise ValueError("ordering must be a permutation of V(g) of length n")
    total = schedule.attachment_total(len(g))
    if total > cap:
        raise SizeExceeded(total, cap, "gadget attachment with heights up to "
                           + count_text(max(schedule.heights)))
    vertices = list(g.vertices)
    edges = list(g.edges)
    taken = set(vertices)
    gadget_sets: Dict[Vertex, FrozenSet[Vertex]] = {}
    for a, h, w in zip(order, schedule.heights, schedule.widths):
        tree = complete_ary_tree(w, h, cap=cap)

        def to_instance(node, a=a, root=tree.vertices[0]):
            return a if node == root else f"{a}#{node[len(root) + 1:]}"

        fresh = []
        for node in tree.vertices:
            name = to_instance(node)
            if name != a:
                if name in taken:
                    raise ValueError(f"gadget vertex name collision: {name!r}")
                taken.add(name)
                fresh.append(name)
                vertices.append(name)
        for x, y in tree.edges:
            edges.append((to_instance(x), to_instance(y)))
        gadget_sets[a] = frozenset(fresh)
    full = Graph(vertices, edges)
    assert len(full) == total
    return GadgetInstance(g, order, schedule, full, gadget_sets)
