"""Every ``pytest.approx`` in the suite states its absolute tolerance.

Given only ``rel=``, ``approx`` keeps its default ``abs=1e-12``, so a check of
a value near 1e-15 passes whatever the value, and one near 1e-3 at
``rel=1e-10`` is looser than written. Writing ``abs=`` makes the bound the
one that is read."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def approx_calls_without_abs(source, filename):
    """``file:line`` of each ``approx(...)`` call in ``source`` that passes no ``abs=``."""
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "approx"
            and "abs" not in {keyword.arg for keyword in node.keywords}]


def test_every_approx_states_its_abs():
    missing = [site for path in sorted(TESTS.glob("*.py"))
               for site in approx_calls_without_abs(path.read_text(), path.name)]
    assert not missing, f"pytest.approx without abs=: {', '.join(missing)}"


def test_the_check_finds_a_call_without_abs():
    source = ("import pytest\nfrom pytest import approx\n"
              "assert 1 == pytest.approx(1, rel=1e-9, abs=0)\n"
              "assert 1 == pytest.approx(1, rel=1e-9)\n"
              "assert 1 == approx(1)\n")
    assert approx_calls_without_abs(source, "t.py") == ["t.py:4", "t.py:5"]
