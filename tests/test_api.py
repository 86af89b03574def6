"""No public name without a caller.

A module states what it offers by its names alone: its public names are its
top-level defs, classes and assigned names without a leading underscore.
Each must be read somewhere in the library itself (outside ``__init__.py``)
or in the benchmark, and each name the package ``__init__`` offers must be
read in the benchmark, which alone reads through the package.  A name that
only tests read is API nobody calls: delete it with its tests, or give it a
library or CLI caller.  The benchmark dispatches on op names with
``getattr(module, kind)``, so its string constants count as reads too.

``import wittlab`` loads the arithmetic only, and its records are
NamedTuples that keep the contract they had as frozen dataclasses.
"""

import ast
import os
import shutil
import subprocess
import sys

import pytest

from wittlab.arrow import arrow_from_integer, arrow_norm
from wittlab.errors import LengthMismatch
from wittlab.rings import ZModPM
from wittlab.tilt import tilt_from_top
from wittlab.witt import WittVec, ghost

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "wittlab")
BENCH = os.path.join(ROOT, "bench")


def _trees(directory, keep):
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py") and keep(name):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read())
    return trees


def _reads(tree, strings=False):
    """Names a tree loads, bare or as an attribute, and with ``strings`` its
    string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _public_names(tree):
    """The top-level defs, classes and assigned names of a module that take
    no leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {
                n.id
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
    return {name for name in names if not name.startswith("_")}


def uncalled_public_names(src=SRC):
    """``module.name`` for each public name of a module under ``src`` that
    nothing in ``src`` or the benchmark reads, and ``wittlab.name`` for each
    name of the package ``__init__`` that the benchmark does not read."""
    trees = _trees(src, lambda name: True)
    bench = set()
    for tree in _trees(BENCH, lambda name: not name.startswith("test_")).values():
        bench |= _reads(tree, strings=True)
    read = set(bench)
    for name, tree in trees.items():
        if name != "__init__.py":
            read |= _reads(tree)
    out = []
    for name, tree in trees.items():
        if name == "__init__.py":
            offered = _public_names(tree) | {
                alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            out += [f"wittlab.{n}" for n in sorted(offered - bench)]
        else:
            out += [f"{name[:-3]}.{n}" for n in sorted(_public_names(tree) - read)]
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_public_names() == []


def test_the_caller_rule_names_a_planted_def_and_a_planted_re_export(tmp_path):
    copy = tmp_path / "wittlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "rings.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef unused_helper():\n    return None\n")
    with open(copy / "__init__.py", "a", encoding="utf-8") as handle:
        handle.write("from .errors import WittError\n")
    assert uncalled_public_names(str(copy)) == ["wittlab.WittError", "rings.unused_helper"]


def test_importing_the_package_loads_the_arithmetic_only():
    code = (
        "import sys; before = set(sys.modules); import wittlab; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    path = os.pathsep.join([os.path.dirname(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(proc.stdout.split())
    assert "wittlab.witt" in loaded
    unused = {"dataclasses", "inspect"} | {
        f"wittlab.{name}" for name in ("suites", "kernelnorm", "artin", "reference", "config")
    }
    assert not loaded & unused, sorted(loaded & unused)


def test_records_keep_their_contract():
    ring = ZModPM(2, 3)
    with pytest.raises(LengthMismatch):
        WittVec(ring, ())
    x = WittVec(ring, (ring.from_int(1), ring.from_int(2)))
    a = arrow_from_integer(ring, 3, 2)
    t = tilt_from_top(ring, ring.from_int(1), 2)
    for record, field in (
        (x, "components"),
        (ghost(x), "entries"),
        (t, "entries"),
        (a, "levels"),
        (arrow_norm(a, 1), "status"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert repr(x) == "WittVec(Zmod(p=2, M=3), (1, 2))"
    assert repr(t) == "TiltElt(depth=2, base=Zmod(p=2, M=3))"
    assert repr(a) == "ArrowElt(depth=2, ring=Zmod(p=2, M=3))"
