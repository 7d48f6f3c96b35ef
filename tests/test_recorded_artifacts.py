"""The benchmark's recorded CLI artifacts stay byte-identical.

The ``cli-paper`` workload of ``perfbench/workloads.py`` runs here as the
benchmark runs it: each op is ``CliPaper.argv(op, seed)`` at
``configs/default.json``, and its artifact's sha256 must be
``CliPaper.expected_sha(op, seed)``, from the workload's ``refs``
(``perfbench/refs/cli_paper.json``, read, never written). Every op but
``noise`` runs once, in the workload's order, so each fit reads the CSV of
a command before it; ``noise`` runs at two recorded seeds. A mismatch names
the running platform beside the one that recorded the digests (see
``recorded.py``).
"""

import contextlib
import io
import os
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

CLI_PAPER = WORKLOADS.CliPaper
# the ops that do not read --seed, run at seed 0
UNSEEDED_OPS = [op for op in CLI_PAPER.ARTIFACTS if op != "noise"]


def _run(workload, op, seed):
    """The exit code of ``op`` at ``seed``, and the sha256 of its artifact."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(workload.argv(op, seed))
    return code, WORKLOADS.sha256(os.path.join(workload.out, CLI_PAPER.ARTIFACTS[op]))


@pytest.fixture(scope="module")
def cli_paper_run(tmp_path_factory):
    """The workload, and each unseeded op's exit code and digest."""
    workload = CLI_PAPER(ROOT, tmp_path_factory.mktemp("cli_paper"), seed=0)
    return workload, {op: _run(workload, op, 0) for op in UNSEEDED_OPS}


@pytest.mark.parametrize("op", UNSEEDED_OPS)
def test_artifact_matches_recorded_sha256(cli_paper_run, op):
    workload, runs = cli_paper_run
    code, digest = runs[op]
    assert code == workload.refs["exit_codes"][op]
    name = CLI_PAPER.ARTIFACTS[op]
    assert digest == workload.expected_sha(op, 0), f"{name}: {_versions()}"


def test_noise_csv_matches_recorded_sha256_at_two_seeds(tmp_path):
    workload = CLI_PAPER(ROOT, tmp_path, seed=0)
    noiselockin._shaping_gain.cache_clear()
    for seed in sorted(map(int, workload.refs["noise_csv_by_seed"]))[:2]:
        code, digest = _run(workload, "noise", seed)
        assert code == workload.refs["exit_codes"]["noise"]
        assert digest == workload.expected_sha("noise", seed), (
            f"noise.csv, seed {seed}: {_versions()}")
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
