import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dispersive_readout import CavityParams, SpinEnsembleParams


@pytest.fixture
def measured_ensemble():
    """The fitted parameters of the measured device."""
    return SpinEnsembleParams(
        n_spins=2.0e12,
        g=2.4e-2,
        t2_star=18e-9,
        t1_dark=740e-6,
        t1_light=427e-6,
    )


@pytest.fixture
def measured_cavity():
    return CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74)


@pytest.fixture
def src_env():
    """The environment of a subprocess that imports the package from this
    checkout: os.environ with ``src`` first on PYTHONPATH."""
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
