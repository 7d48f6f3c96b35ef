"""The runnable experiments in ``scripts/`` use the public API; each one runs
to the end in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("argv", [
    ["sensitivity_estimate.py", "--seeds", "3"],
], ids=lambda argv: argv[0])
def test_script_exits_0(argv, src_env):
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0])] + argv[1:],
                         capture_output=True, text=True, env=src_env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout
