"""The readout's recorded values still hold.

``perfbench/refs/readout_mc.npy`` holds (estimated_amplitude, noise_floor)
of ``simulate_readout`` at ``configs/default.json`` for every seed of the
``readout-mc`` workload's universe. Here every seed runs at the workload's
own signal phase and is compared at its own relative tolerance, the check
each benchmark op makes. The refs are read, never written. A mismatch names
the running platform beside the one that recorded the values (see
``recorded.py``).
"""

import numpy as np

from dispersive_readout import load_config, simulate_readout
from recorded import ROOT, WORKLOADS, _versions


def test_every_recorded_seed_reads_out_its_recorded_values():
    cfg = load_config(ROOT / "configs" / "default.json")
    want = np.load(WORKLOADS.READOUT_REFS)
    assert want.shape == (WORKLOADS.READOUT_SEED_UNIVERSE, 2)
    got = np.array([
        (out.estimated_amplitude, out.noise_floor)
        for out in (simulate_readout(cfg.optimized, cfg.psd, cfg.lockin,
                                     WORKLOADS.READOUT_SIGNAL_PHASE, seed)
                    for seed in range(len(want)))])
    missed = np.flatnonzero(np.any(
        ~(np.abs(got - want) <= WORKLOADS.READOUT_REL_TOL * np.abs(want)), axis=1))
    assert missed.size == 0, (
        f"{missed.size} of {len(want)} seeds differ from readout_mc.npy, first "
        f"seed {missed[0]}: {got[missed[0]].tolist()} against "
        f"{want[missed[0]].tolist()}; {_versions()}")
