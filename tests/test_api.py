"""No public name without a caller.

Every name in a module's ``__all__``, and every name the package
``__init__`` imports, must be read somewhere in the library itself (outside
``__init__.py`` and the ``__all__`` lists) or in the benchmark.  A name that
only tests read is API nobody calls: delete it with its tests, or give it a
library or CLI caller.  The benchmark dispatches on op names with
``getattr(module, kind)``, so its string constants count as reads too.

A module with an ``__all__`` must list in it every public top-level def and
class, so that no public name escapes the rule; a name that only its own
module reads takes a leading underscore instead.

``import wittlab`` loads the arithmetic only, and its records are
NamedTuples that keep the contract they had as frozen dataclasses.
"""

import ast
import os
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


def _all_names(tree):
    """The strings of a module's ``__all__`` list; None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return None


def _reads(tree, strings=False):
    """Names a tree loads, bare or as an attribute, and with ``strings`` its
    string constants.  An ``__all__`` list holds only strings, so without
    them it reads nothing."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def uncalled_public_names():
    src = _trees(SRC, lambda name: True)
    bench = _trees(BENCH, lambda name: not name.startswith("test_"))
    public = set()
    for name, tree in src.items():
        public |= _all_names(tree) or set()
        if name == "__init__.py":
            public |= {
                alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
    read = set()
    for name, tree in src.items():
        if name != "__init__.py":
            read |= _reads(tree)
    for tree in bench.values():
        read |= _reads(tree, strings=True)
    return sorted(public - read)


def unlisted_public_defs():
    """``module.name`` for each public top-level def or class that a module
    with an ``__all__`` leaves out of it."""
    out = []
    for name, tree in _trees(SRC, lambda name: True).items():
        listed = _all_names(tree)
        if listed is None:
            continue
        out += [
            f"{name[:-3]}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in listed
        ]
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_public_names() == []


def test_every_public_def_of_a_module_with_all_is_listed():
    assert unlisted_public_defs() == []


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
        f"wittlab.{name}" for name in ("suites", "kernelnorm", "artin", "reference")
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
