"""The benchmark's tracer sees the readout's lock-in.

``perfbench/tracer.py`` times the public functions it wraps, so the per-layer
metrics ``noiselockin.square_wave.s`` and ``noiselockin.lockin_demodulate.s``
of the ``readout-mc`` workload read 0 unless ``simulate_readout`` reaches the
lock-in through them. The tracer is loaded from its file, as the benchmark
runs it.
"""

from dispersive_readout import load_config, noiselockin
from recorded import ROOT, load_perfbench

TRACER = load_perfbench("tracer")
LOCKIN_SPANS = ("noiselockin.square_wave", "noiselockin.lockin_demodulate")


def test_readout_modulates_and_demodulates_through_the_public_lockin():
    cfg = load_config(ROOT / "configs" / "default.json")
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        noiselockin.simulate_readout(cfg.optimized, cfg.psd, cfg.lockin, 0.01, 0)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    readout = names.index("noiselockin.simulate_readout")
    lockin = sorted((name, parent) for name, _, _, parent in tracer.spans
                    if name in LOCKIN_SPANS)
    assert lockin == [("noiselockin.lockin_demodulate", readout),
                      ("noiselockin.square_wave", readout),
                      ("noiselockin.square_wave", readout)]
