#!/usr/bin/env python3
"""Fast smoke run of the benchmark (about half a minute).

    python3 perfbench/smoke.py

Runs every workload at tiny sizes, untraced and traced, and asserts that
each run prints exactly the metrics BENCHMARK.json names, each with its
unit, and that no op failed. Then checks that the benchmark refuses to run,
without printing a result, in a directory that holds only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_ARGS = ["--seconds", "0.5", "--scale", "0.2"]


def run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            out = run(ROOT, "--workload", workload["name"], "--seed", "7",
                      "--trace", str(trace), *SMOKE_ARGS)
            assert out.returncode == 0, out.stderr
            result = json.loads(out.stdout.strip().splitlines()[-1])
            label = f"{workload['name']} trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] and result["failed"] == 0, (label, out.stderr)
            assert result["attempted"] >= 1, label
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (label, set(got) ^ set(expected[trace]))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (label, name)
            print(f"ok  {label}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")

    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "7",
                  "--trace", "0", *SMOKE_ARGS)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and "{" not in out.stdout, out.stdout
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
