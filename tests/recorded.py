"""Shared by the tests that compare outputs with the benchmark's recorded
values in ``perfbench/refs/``: the benchmark's workload module, loaded from
its file by ``load_perfbench`` (``perfbench`` is not a package), and the
platform those values hold on. A mismatch message names the running Python,
numpy and scipy beside the pins in ``constraints.txt``, whether numpy's
AVX-512 loops are in use, and the OpenBLAS core.
"""

import ctypes
import importlib.util
import platform
import re
from pathlib import Path

import numpy
import scipy

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

ROOT = Path(__file__).parent.parent
# the pins the digests depend on; constraints.txt also pins the test tools
PINS = re.findall(r"^(numpy|scipy)==(\S+)$", (ROOT / "constraints.txt").read_text(),
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


def load_perfbench(name):
    """The module ``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_perfbench("workloads")
