"""The benchmark's tracer wraps names that the package still has.

benchmark/spans.py swaps module attributes of tdforge for timing wrappers
in traced runs; a name the package no longer binds would break those runs
and nothing else."""

import importlib.util
import os

from tdforge import cli, decomposition, io, search, transforms

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmark", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_is_bound():
    spans = load_spans()
    tracer = spans.Tracer()
    patches = spans.patches_for(tracer, {
        "cli": cli, "search": search, "decomposition": decomposition,
        "transforms": transforms, "io": io})
    assert patches
    originals = [getattr(mod, attr, None) for mod, attr, _ in patches]
    for (mod, attr, _), original in zip(patches, originals):
        assert callable(original), (mod.__name__, attr)
    with tracer.installed(patches):
        pass
    assert [getattr(mod, attr) for mod, attr, _ in patches] == originals
