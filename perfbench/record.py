"""Re-record the reference outputs the benchmark checks against.

    python3 perfbench/run.py --record

Writes ``refs/cli_paper.json`` (exit code and sha256 of every ``cli-paper``
artifact, and of ``noise.csv`` for each op seed) and ``refs/readout_mc.npy``
(``(estimated_amplitude, noise_floor)`` for each ``readout-mc`` op seed).
Run it only when a change is meant to alter these outputs.
"""

import json
import os
import shutil
import tempfile

import numpy as np

import workloads


def record_cli(root, workdir):
    bench = workloads.CliPaper(root, workdir, seed=0, refs={})
    exit_codes, by_seed = {}, {0: {}, 1: {}}
    for seed in by_seed:
        for op, artifact in bench.ARTIFACTS.items():
            exit_codes[op] = bench.cli.main(bench.argv(op, seed))
            by_seed[seed][artifact] = workloads.sha256(os.path.join(bench.out, artifact))
    seed_sensitive = sorted(a for a in by_seed[0] if by_seed[0][a] != by_seed[1][a])
    noise = {}
    for seed in range(workloads.NOISE_SEEDS):
        bench.cli.main(bench.argv("noise", seed))
        noise[str(seed)] = workloads.sha256(os.path.join(bench.out, "noise.csv"))
    return {
        "exit_codes": exit_codes,
        "artifacts": {a: h for a, h in by_seed[0].items() if a not in seed_sensitive},
        "artifacts_that_read_seed": seed_sensitive,
        "noise_csv_by_seed": noise,
    }


def record_readout(root):
    from dispersive_readout import load_config, simulate_readout

    cfg = load_config(os.path.join(root, "configs", "default.json"))
    rows = []
    for seed in range(workloads.READOUT_SEED_UNIVERSE):
        r = simulate_readout(cfg.optimized, cfg.psd, cfg.lockin,
                             workloads.READOUT_SIGNAL_PHASE, seed)
        rows.append((r.estimated_amplitude, r.noise_floor))
    return np.array(rows)


def main(root, work):
    os.makedirs(work, exist_ok=True)
    os.makedirs(workloads.REFS, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work)
    try:
        refs = record_cli(root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.CLI_REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.save(workloads.READOUT_REFS, record_readout(root))
    print(f"recorded {workloads.CLI_REFS} and {workloads.READOUT_REFS}")
    return 0
