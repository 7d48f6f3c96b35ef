"""The benchmark's recorded CLI artifacts stay byte-identical.

``perfbench/refs/cli_paper.json`` holds the exit code and the sha256 of each
artifact of the ``cli-paper`` workload at ``configs/default.json``. Here the
commands that do not read ``--seed`` and both fits run with the workload's
own init specs, and each artifact is compared with its recorded digest;
``noise`` runs at two recorded seeds. The refs are read, never written. A
mismatch names the running Python, numpy and scipy beside the pins in
``constraints.txt`` that recorded the digests, whether numpy's AVX-512 loops
are in use, and the OpenBLAS core.
"""

import contextlib
import ctypes
import hashlib
import importlib.util
import io
import json
import platform
import re
from pathlib import Path

import numpy
import pytest
import scipy

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

from dispersive_readout import noiselockin
from dispersive_readout.cli import main

ROOT = Path(__file__).parent.parent
CONFIG = ROOT / "configs" / "default.json"
REFS = json.loads((ROOT / "perfbench" / "refs" / "cli_paper.json").read_text())
PINS = re.findall(r"^(\w+)==(\S+)$", (ROOT / "constraints.txt").read_text(),
                  re.MULTILINE)


def _avx512_targets():
    """numpy's AVX-512 dispatch targets that this process runs."""
    features = _multiarray_umath.__cpu_features__
    return [target for target in _multiarray_umath.__cpu_dispatch__
            if ("AVX512" in target or target == "X86_V4") and features.get(target)]


def _openblas_core():
    """The core numpy's bundled OpenBLAS runs, or "unknown"."""
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                      .glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _versions():
    """The running versions next to the pinned ones, and the kernels run."""
    pins = ", ".join(f"{name}=={version}" for name, version in PINS)
    avx512 = _avx512_targets()
    loops = f"in use ({' '.join(avx512)})" if avx512 else "off"
    return (f"running Python {platform.python_version()}, numpy "
            f"{numpy.__version__}, scipy {scipy.__version__}; numpy's AVX-512 "
            f"loops {loops}, OpenBLAS core {_openblas_core()}; the digests were "
            f"recorded with {pins} (constraints.txt)")


def _cli_paper():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CliPaper


CLI_PAPER = _cli_paper()
# in this order: each fit reads the CSV of a command before it
OPS = ["spectrum", "relaxation", "shift-vs-field", "sensitivity",
       "fit-reflection_phase", "fit-shift_vs_field"]
FIT_INPUTS = {"reflection_phase": "spectrum.csv",
              "shift_vs_field": "shift_vs_field.csv"}


@pytest.fixture(scope="module")
def cli_paper_run(tmp_path_factory):
    """Runs every op into one output directory; returns (codes, directory)."""
    work = tmp_path_factory.mktemp("cli_paper")
    out = work / "out"
    codes = {}
    for op in OPS:
        argv = [op]
        if op.startswith("fit-"):
            model = op[len("fit-"):]
            init = work / f"init_{model}.json"
            init.write_text(json.dumps(CLI_PAPER.INITS[model]))
            argv = ["fit", str(out / FIT_INPUTS[model]), "--model", model,
                    "--init", str(init)]
        with contextlib.redirect_stdout(io.StringIO()):
            codes[op] = main(argv + ["--config", str(CONFIG), "--out", str(out)])
    return codes, out


@pytest.mark.parametrize("op", OPS)
def test_artifact_matches_recorded_sha256(cli_paper_run, op):
    codes, out = cli_paper_run
    assert codes[op] == REFS["exit_codes"][op]
    name = CLI_PAPER.ARTIFACTS[op]
    digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digest == REFS["artifacts"][name], f"{name}: {_versions()}"


def test_noise_csv_matches_recorded_sha256_at_two_seeds(tmp_path):
    recorded = REFS["noise_csv_by_seed"]
    noiselockin._shaping_gain.cache_clear()
    for seed in sorted(recorded, key=int)[:2]:
        out = tmp_path / f"seed{seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["noise", "--n-samples", "65536", "--seed", seed,
                         "--config", str(CONFIG), "--out", str(out)])
        assert code == REFS["exit_codes"]["noise"]
        digest = hashlib.sha256((out / "noise.csv").read_bytes()).hexdigest()
        assert digest == recorded[seed], f"noise.csv, seed {seed}: {_versions()}"
    # the second seed reused the first one's shaping gain
    info = noiselockin._shaping_gain.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_mismatch_message_names_versions_and_pins():
    message = _versions()
    assert {name for name, _ in PINS} == {"numpy", "scipy"}
    for text in (platform.python_version(), f"numpy {numpy.__version__}",
                 f"scipy {scipy.__version__}",
                 *(f"{name}=={version}" for name, version in PINS),
                 f"OpenBLAS core {_openblas_core()}"):
        assert text in message
    avx512 = _avx512_targets()
    assert (f"AVX-512 loops in use ({' '.join(avx512)})" if avx512
            else "AVX-512 loops off") in message
