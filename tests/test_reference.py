"""The reference arithmetic stands alone: it imports only the standard library."""

import ast
import sys

import pytest

from wittlab import reference


def test_reference_imports_only_the_standard_library():
    with open(reference.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    outside = [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_reference_unghost_refuses_a_non_integral_level():
    # (0, 1) is no ghost vector at p=2: w_1 = x_0^2 + 2 x_1 is even when x_0 = 0
    with pytest.raises(ValueError, match="ghost level 1 is not integral"):
        reference.unghost(2, (0, 1))
    assert reference.frobenius(2, (1, 1)) == (3,)
