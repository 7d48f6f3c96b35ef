"""The fault catalogue cannot rot silently: each fault's old text occurs
exactly once under ``src/``, in the file its row names. ``tests/faults.py``
runs the catalogue itself."""

import pytest

from faults import FAULTS, ROOT


@pytest.mark.parametrize("name, path, old, new", FAULTS, ids=[row[0] for row in FAULTS])
def test_old_text_occurs_once_under_src(name, path, old, new):
    counts = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8").count(old)
              for p in (ROOT / "src").rglob("*.py")}
    assert {p: n for p, n in counts.items() if n} == {path: 1}
    assert new != old
