"""Spans recorded from outside the program, and the per-layer metrics.

The tracer wraps public functions where the workload reaches them: for the
CLI workloads, the names ``tdforge.cli`` calls as bound in that module; for
the library workloads, the module attributes the workload calls through.
Each wrapped call, and each ``next`` on a wrapped generator, becomes one
span with a name, a start, an end and the index of its parent span. Spans
stay in memory; ``write`` saves them once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, *args,
             note: Optional[Callable] = None, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if note is not None:
            span[NOTE] = note(out)
        return out

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable] = None) -> Callable:
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, note=note, **kwargs)
        return wrapped

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time every ``next`` on the generators fn returns; a span whose
        note is 1 produced an item."""
        def wrapped(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, it, note=lambda _: 1)
                except StopIteration:
                    return
                yield item
        return wrapped

    @contextmanager
    def installed(self, patches: Sequence[Tuple[object, str, Callable]]
                  ) -> Iterator[None]:
        """Swap each (module, attribute) for its wrapper for the duration."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def write(self, path: str, header: Dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent",
                                            "note"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def patches_for(tracer: Tracer, tdforge_modules: Dict[str, object]
                ) -> List[Tuple[object, str, Callable]]:
    """The wrappers every workload installs in traced rounds.

    CLI names are wrapped in ``tdforge.cli``, where the subcommands look
    them up. The decider and the io encoders are wrapped in their own
    modules: ``decide_over_trees`` and ``cli`` reach them through those
    module namespaces. The library workloads call ``search``,
    ``decomposition`` and ``transforms`` attributes directly.
    """
    cli = tdforge_modules["cli"]
    search = tdforge_modules["search"]
    decomposition = tdforge_modules["decomposition"]
    transforms = tdforge_modules["transforms"]
    io = tdforge_modules["io"]
    decided = lambda res: [res.status, res.nodes]
    out = []
    for name in ("reflected_tree", "attach_gadgets"):
        out.append((cli, name, tracer.wrap(f"constructions.{name}",
                                           getattr(cli, name))))
    for mod in (cli, search):
        out.append((mod, "exact_treewidth",
                    tracer.wrap("search.treewidth", search.exact_treewidth)))
    out.append((cli, "count_spanning_trees",
                tracer.wrap("search.count", search.count_spanning_trees)))
    out.append((cli, "enumerate_spanning_trees",
                tracer.wrap_generator("search.enumerate",
                                      search.enumerate_spanning_trees)))
    out.append((cli, "sample_spanning_trees",
                tracer.wrap_generator("search.sample",
                                      search.sample_spanning_trees)))
    out.append((search, "min_width_on_tree",
                tracer.wrap("search.decide", search.min_width_on_tree,
                            note=decided)))
    out.append((cli, "reflected_matching",
                tracer.wrap("certificates.build", cli.reflected_matching)))
    out.append((cli, "verify_certificate",
                tracer.wrap("certificates.verify", cli.verify_certificate)))
    for name in ("validate", "is_anchored"):
        out.append((decomposition, name,
                    tracer.wrap(f"decomposition.{name}",
                                getattr(decomposition, name))))
    out.append((transforms, "minor_to_spanning",
                tracer.wrap("transforms.minor_to_spanning",
                            transforms.minor_to_spanning)))
    for name in ("graph_to_obj", "td_to_obj", "schedule_to_obj",
                 "certificate_to_obj"):
        out.append((io, name, tracer.wrap(f"io.{name}", getattr(io, name))))
    out.append((cli, "main", tracer.wrap("cli.main", cli.main)))
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: List[list], rounds: int, overhead_s: float
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Times and counts are per round. A span nested in a span of its own
    layer (io encoders calling each other) is not counted again.
    """
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    items: Dict[str, int] = {}
    child_time = [0.0] * len(spans)
    calls_ms: List[float] = []
    nodes = 0
    sat_s = unsat_s = 0.0
    for span in spans:
        name, start, end, parent, note = span
        dur = end - start
        if parent >= 0:
            child_time[parent] += dur
            if _layer(spans[parent][NAME]) == _layer(name):
                continue
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        if name in ("search.enumerate", "search.sample"):
            items[name] = items.get(name, 0) + (note or 0)
        elif name == "search.decide":
            calls_ms.append(dur * 1e3)
            nodes += note[1]
            if note[0] == "SAT":
                sat_s += dur
            else:
                unsat_s += dur
    cli_self = sum(end - start - child_time[i]
                   for i, (name, start, end, _, _) in enumerate(spans)
                   if name == "cli.main")

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def rate(n: float, seconds: float) -> float:
        return n / seconds if seconds > 0 else 0.0

    per = 1.0 / rounds
    decide_s = t("search.decide")
    build_s, verify_s = t("certificates.build"), t("certificates.verify")
    io_s = sum(v for k, v in total.items() if _layer(k) == "io")
    return {
        "constructions.reflected_tree_s":
            (t("constructions.reflected_tree") * per, "s"),
        "constructions.attach_gadgets_s":
            (t("constructions.attach_gadgets") * per, "s"),
        "search.count_s": (t("search.count") * per, "s"),
        "search.enumerate_s": (t("search.enumerate") * per, "s"),
        "search.enumerate_trees_per_s":
            (rate(items.get("search.enumerate", 0), t("search.enumerate")),
             "1/s"),
        "search.sample_s": (t("search.sample") * per, "s"),
        "search.sample_trees_per_s":
            (rate(items.get("search.sample", 0), t("search.sample")), "1/s"),
        "search.decide_calls": (count.get("search.decide", 0) * per, "count"),
        "search.decide_s": (decide_s * per, "s"),
        "search.decide_sat_s": (sat_s * per, "s"),
        "search.decide_unsat_s": (unsat_s * per, "s"),
        "search.decide_nodes": (nodes * per, "count"),
        "search.decide_nodes_per_s": (rate(nodes, decide_s), "1/s"),
        "search.decide_call_p50_ms":
            (statistics.median(calls_ms) if calls_ms else 0.0, "ms"),
        "search.treewidth_s": (t("search.treewidth") * per, "s"),
        "certificates.build_s": (build_s * per, "s"),
        "certificates.verify_s": (verify_s * per, "s"),
        "certificates.trees_per_s":
            (rate(count.get("certificates.build", 0), build_s + verify_s),
             "1/s"),
        "decomposition.validate_s":
            ((t("decomposition.validate") + t("decomposition.is_anchored"))
             * per, "s"),
        "transforms.minor_to_spanning_s":
            (t("transforms.minor_to_spanning") * per, "s"),
        "io.encode_s": (io_s * per, "s"),
        "cli.self_s": (cli_self * per, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
