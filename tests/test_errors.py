"""errors.check_at_least, the one bound check of sizes, counts and seeds."""

import ast
from pathlib import Path

import pytest

from titletag.errors import check_at_least

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "titletag"


def test_check_at_least_names_the_first_value_below_the_bound():
    with pytest.raises(ValueError) as exc:
        check_at_least(1, hidden=4, layers=0, dim=-2)
    assert str(exc.value) == "layers must be >= 1, got 0"
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        check_at_least(0, count=0, seed=-1)


def test_check_at_least_accepts_values_at_the_bound():
    check_at_least(0, count=0, seed=0)
    check_at_least(1, hidden=1, layers=1, dim=10**400)
    check_at_least(1)


def test_only_check_at_least_writes_a_lower_bound():
    """No module words a ">=" bound of its own, so each is checked and
    reported in one way."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "check_at_least")
    found = [(path.name, lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "must be >=" in line]
    assert found and all(name == "errors.py" and fn.lineno <= lineno <= fn.end_lineno
                         for name, lineno in found), found
