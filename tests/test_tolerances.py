"""Every ``pytest.approx`` in the suite states its absolute tolerance, and so
does every numpy ``allclose`` and ``isclose``.

Given only ``rel=``, ``approx`` keeps its default ``abs=1e-12``, so a check of
a value near 1e-15 passes whatever the value, and one near 1e-3 at
``rel=1e-10`` is looser than written. numpy's ``allclose`` and ``isclose``
default to ``atol=1e-8``: ``np.allclose(0.0, 2.0e-15, rtol=0.01)`` is True.
Writing the absolute tolerance makes the bound the one that is read.
``math.isclose`` and ``np.testing.assert_allclose`` default theirs to 0."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent
# the call name, its module (None: any) and the keyword that sets its absolute tolerance
CHECKED = {"approx": (None, "abs"), "allclose": ({"np", "numpy"}, "atol"),
           "isclose": ({"np", "numpy"}, "atol")}


def calls_without_abs(source, filename):
    """``file:line``, in line order, of each call in ``source`` to one of
    ``CHECKED`` that passes no absolute tolerance."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        modules, keyword = CHECKED.get(name, ((), None))
        module = getattr(getattr(node.func, "value", None), "id", None)
        if ((modules is None or module in modules)
                and keyword not in {k.arg for k in node.keywords}):
            lines.append(node.lineno)
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_every_tolerance_states_its_abs():
    missing = [site for path in sorted(TESTS.glob("*.py"))
               for site in calls_without_abs(path.read_text(), path.name)]
    assert not missing, f"approx, allclose or isclose without abs=/atol=: {', '.join(missing)}"


def test_the_check_finds_a_call_without_abs():
    source = ("import math\nimport numpy as np\nimport pytest\nfrom pytest import approx\n"
              "assert 1 == pytest.approx(1, rel=1e-9, abs=0)\n"
              "assert 1 == pytest.approx(1, rel=1e-9)\n"
              "assert 1 == approx(1)\n"
              "assert np.allclose(1, 1, rtol=1e-9, atol=0)\n"
              "assert np.allclose(1, 1, rtol=1e-9)\n"
              "assert numpy.isclose(1, 1)\n"
              "assert math.isclose(1, 1, rel_tol=1e-9)\n"
              "np.testing.assert_allclose(1, 1, rtol=1e-9)\n")
    assert calls_without_abs(source, "t.py") == ["t.py:6", "t.py:7", "t.py:9", "t.py:10"]
