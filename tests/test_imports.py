"""Every module of the package uses every name it imports, imports
nothing outside the standard library and the package itself, and none
indents JSON through json.dumps; no module imports a _-prefixed name from
another module of the package; cli.py opens a file for writing in one
place; every private function and method has a caller in the package."""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "tdforge")
# __init__ imports names only to re-export them
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str):
    """Names bound by the module's imports, anywhere in it, that no
    expression loads. Names inside string annotations count as loaded, so
    an import under TYPE_CHECKING used only as "Name" is a use."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(sub.value))
                                if isinstance(n, ast.Name))
    return sorted(imported - used)


def test_checker_flags_unused_and_reads_string_annotations():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import TYPE_CHECKING, Dict, List\n"
              "if TYPE_CHECKING:\n"
              "    from x import Late\n"
              "def f(a: 'Late') -> 'Dict[str, int]':\n"
              "    from y import z as inner\n"
              "    return {}\n")
    assert unused_imports(source) == ["List", "inner", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def outside_imports(source: str):
    """Top-level names of the absolute imports, anywhere in the module,
    that are neither standard library modules nor tdforge; relative
    imports are the package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names - {"tdforge"})


def test_stdlib_checker_flags_third_party_imports():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "import numpy as np\n"
              "from . import graphs\n"
              "from .search import SAT\n"
              "from tdforge.io import json_chunks\n"
              "from networkx.algorithms import tree\n"
              "def f():\n"
              "    import yaml\n")
    assert outside_imports(source) == ["networkx", "numpy", "yaml"]


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(SRC)
                                          if f.endswith(".py")))
def test_stdlib_only(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert outside_imports(fh.read()) == []


def private_imports(source: str):
    """The _-prefixed names other than dunders, anywhere in the module,
    that it imports from the package: by a relative import or from
    tdforge. A module's private names are its own; another module that
    needs one needs a public name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "tdforge"):
            names += [a.name for a in node.names if a.name.startswith("_")
                      and not a.name.endswith("__")]
    return sorted(names)


def test_private_import_checker_flags_package_privates():
    source = ("from __future__ import annotations\n"
              "from json.encoder import encode_basestring_ascii as _string\n"
              "from . import __version__, io\n"
              "from .decomposition import _x, validate\n"
              "from .graphs import Graph as _Graph\n"
              "from tdforge.search import _wilson\n"
              "def f():\n"
              "    from ..io import _key\n")
    assert private_imports(source) == ["_key", "_wilson", "_x"]


def test_no_module_imports_a_package_private():
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            assert private_imports(fh.read()) == [], module


def indented_json_calls(source: str):
    """Line numbers of the calls to a function named dump or dumps, such
    as json.dumps, that pass an indent keyword: with an indent, json runs
    its pure-Python encoder, and io.json_chunks writes the same text."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("dump", "dumps")
            and any(k.arg == "indent" for k in node.keywords)]


def test_indent_checker_flags_indented_dumps():
    source = ("import json\n"
              "from json import dumps\n"
              "a = json.dumps(x, indent=2)\n"
              "b = dumps(x, indent=None)\n"
              "c = json.dumps(x)\n"
              "json.dump(x, fh, sort_keys=True, indent=4)\n"
              "d = text.dumps(indent)\n")
    assert indented_json_calls(source) == [3, 4, 6]


def test_no_indented_json_dumps():
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            assert indented_json_calls(fh.read()) == [], module


def write_opens(source: str):
    """Line numbers of the calls to a function named open, such as open or
    io.open, whose mode may write: a string with w, a, x or + in it, or a
    mode that is not a string literal. Without a mode, open reads."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "attr",
                            getattr(node.func, "id", None)) == "open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords
                                  if k.arg == "mode"]
        mode = modes[0] if modes else ast.Constant("r")
        if (not isinstance(mode, ast.Constant)
                or not isinstance(mode.value, str)
                or set(mode.value) & set("wax+")):
            lines.append(node.lineno)
    return sorted(lines)


def test_write_open_checker_flags_write_modes():
    source = ("a = open(p)\n"
              "b = open(p, 'rb', encoding='utf-8')\n"
              "c = open(p, 'w', encoding='utf-8')\n"
              "d = io.open(p, mode='ab')\n"
              "e = open(p, mode)\n"
              "f = open(p, 'r+')\n"
              "g = open(p, mode='xt')\n"
              "h = reopen(p, 'w')\n"
              "i = open(p, mode='r')\n")
    assert write_opens(source) == [3, 4, 5, 6, 7]


def test_cli_opens_a_file_for_writing_in_one_place():
    """Run.write writes every output and the run manifest, so cli.py
    opens a file for writing once."""
    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as fh:
        assert len(write_opens(fh.read())) == 1


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unreferenced_privates(sources):
    """For sources, a map from module name to source text: the private
    (_-prefixed, not dunder) module-level functions and methods of
    module-level classes that no name or attribute in any of the sources
    refers to outside the function's own definition, as module.function
    or module.Class.method. References are matched by name alone."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    defs = []
    for m, tree in trees.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defs.append((f"{m}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{m}.{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, FUNCTIONS)]
    refs = [(getattr(n, "id", None) or n.attr, n)
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))]
    missing = []
    for qualified, f in defs:
        if not f.name.startswith("_") or (f.name.startswith("__")
                                          and f.name.endswith("__")):
            continue
        inside = {id(n) for n in ast.walk(f)}
        if not any(name == f.name and id(n) not in inside
                   for name, n in refs):
            missing.append(qualified)
    return sorted(missing)


def test_private_checker_flags_functions_only_their_own_body_calls():
    sources = {
        "a": ("def _used():\n"
              "    def _nested():\n"
              "        pass\n"
              "def _recursive():\n"
              "    return _recursive()\n"
              "def public():\n"
              "    return _used()\n"
              "class K:\n"
              "    def __init__(self):\n"
              "        self._called()\n"
              "    def _called(self):\n"
              "        pass\n"
              "    def _dead(self):\n"
              "        return self._dead\n"
              "    @classmethod\n"
              "    def _elsewhere(cls):\n"
              "        return cls()\n"),
        "b": "from a import K\nk = K._elsewhere()\n",
    }
    assert unreferenced_privates(sources) == ["a.K._dead", "a._recursive"]


def test_private_functions_have_a_caller_in_the_package():
    """Code that only tests call lives in tests/, not in src/."""
    sources = {}
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module[:-3]] = fh.read()
    assert unreferenced_privates(sources) == []
