"""The benchmark's recorded CLI artifacts stay byte-identical.

``perfbench/refs/cli_paper.json`` holds the exit code and the sha256 of each
artifact of the ``cli-paper`` workload at ``configs/default.json``. Here the
commands that do not read ``--seed`` and both fits run with the workload's
own init specs, and each artifact is compared with its recorded digest;
``noise`` runs at two recorded seeds. The refs are read, never written. A
mismatch names the running platform beside the one that recorded the
digests (see ``recorded.py``).
"""

import contextlib
import hashlib
import io
import json
import platform

import numpy
import pytest
import scipy

from dispersive_readout import noiselockin
from dispersive_readout.cli import main
from recorded import (
    PINS,
    ROOT,
    WORKLOADS,
    _avx512_targets,
    _openblas_core,
    _versions,
)

CONFIG = ROOT / "configs" / "default.json"
REFS = json.loads((ROOT / "perfbench" / "refs" / "cli_paper.json").read_text())
CLI_PAPER = WORKLOADS.CliPaper

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
