#!/usr/bin/env python3
"""Benchmark of the dispersive-readout toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --repeat 5      # medians and quartiles
    python3 perfbench/run.py --record                       # re-record references

One invocation measures one workload in a closed loop: a single caller, and
each op starts only when the previous one returned. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics, taken by
alternating untraced and traced rounds so ``trace.overhead_frac`` compares
like with like. End-to-end times are scaled to a reference machine speed by
interleaved calibration units (calibration.py). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first statement

import os  # noqa: E402

# pin BLAS/OpenMP pools before numpy is imported, here and in every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(WORK, "results")

WARMUP_S = 1.0
SLICES = 8  # set-up probes per run, one before each measured slice
PROBE_CAL_UNITS = 20  # calibration units each set-up probe runs after set-up
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    pkg = os.path.join(SRC, "dispersive_readout", "__init__.py")
    config = os.path.join(ROOT, "configs", "default.json")
    for needed in (pkg, config):
        if not os.path.isfile(needed):
            sys.exit(f"perfbench: {os.path.relpath(needed, ROOT)} not found; "
                     "run from the root of a dispersive-readout checkout")
    sys.path.insert(0, SRC)
    import dispersive_readout

    if os.path.dirname(os.path.abspath(dispersive_readout.__file__)) != os.path.dirname(pkg):
        sys.exit(f"perfbench: imported {dispersive_readout.__file__}, not {pkg}")
    return dispersive_readout


def make_workload(args, workdir):
    import_program()
    from workloads import WORKLOADS

    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[args.workload](ROOT, workdir, args.seed, args.scale)


def workdir_for(args, tag):
    return os.path.join(WORK, f"{args.workload}-{tag}-{os.getpid()}")


# ---------------------------------------------------------------------------
# measurement


class Loop:
    """Closed-loop runner: runs whole rounds, times each op, checks each op
    after its timer stops. A failed check or an exception is a failed op.
    With a calibrator, a calibration unit runs between ops now and then."""

    def __init__(self, workload, calibrator=None):
        self.workload = workload
        self.calibrator = calibrator
        self.round_index = 0
        self.attempted = 0
        self.failures = []

    def run_round(self):
        """Run one round; returns ``(start_ns, latency_ns)`` per op."""
        ops = self.workload.round(self.round_index)
        self.round_index += 1
        timed = []
        for op in ops:
            self.attempted += 1
            start = time.perf_counter_ns()
            try:
                check = op()
            except Exception as exc:  # the op failed; count it and go on
                check = None
                miss = f"{type(exc).__name__}: {exc}"
            timed.append((start, time.perf_counter_ns() - start))
            if check is not None:
                try:
                    miss = check()
                except Exception as exc:
                    miss = f"check raised {type(exc).__name__}: {exc}"
            if miss is not None:
                self.failures.append(miss)
            if self.calibrator is not None:
                self.calibrator.maybe_run()
        return timed

    def warm_up(self):
        deadline = time.perf_counter() + WARMUP_S
        self.run_round()
        while time.perf_counter() < deadline:
            self.run_round()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies, pct):
    """Latency at percentile ``pct`` (nearest rank), or, when fewer than 10
    samples lie beyond it, at the highest percentile that has 10 beyond it.
    Returns (value, percentile used, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(math.ceil(pct / 100.0 * n) - 1, 0)
    if n - 1 - k < 10:
        k = max(n - 11, 0)
        pct = 100.0 * (k + 1) / n
    return ordered[k], pct, n - 1 - k


def setup_probe(args):
    """One fresh interpreter's set-up: returns (seconds, calibration unit ns)
    as measured by that interpreter, which runs calibration units right after
    its set-up, on the CPU it ran on."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--scale", repr(args.scale)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{out.stderr}")
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["unit_ns"]


def e2e_values(timed, setups, calibrator, tail_pct):
    """End-to-end metrics from ``(start_ns, latency_ns)`` per op and
    ``(seconds, unit_ns)`` per set-up probe. With a calibrator, times are
    scaled to the reference speed (see calibration.py)."""
    lat_ms = [ns / 1e6 for _, ns in timed]
    setup = [s for s, _ in setups]
    if calibrator is not None:
        from calibration import REF_NS

        speed = calibrator.speed([t for t, _ in timed])
        lat_ms = [v / f for v, f in zip(lat_ms, speed)]
        setup = [s * REF_NS / unit for s, unit in setups]
    tail_ms, tail_pct, beyond = tail(lat_ms, tail_pct)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, (tail_pct, beyond)


def run_untraced(args, loop):
    """Measure in SLICES slices of equal length with one set-up probe before
    each, so both the ops and the probes sample the whole run."""
    cal = loop.calibrator
    loop.warm_up()
    timed, setups = [], []
    for _ in range(SLICES):
        setups.append(setup_probe(args))
        deadline = time.perf_counter() + args.seconds / SLICES
        while time.perf_counter() < deadline:
            timed.extend(loop.run_round())
    pct = loop.workload.tail_pct
    values, (tail_pct, beyond) = e2e_values(timed, setups, cal, pct)
    raw, _ = e2e_values(timed, setups, None, pct)
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    detail = {"ops_timed": len(timed), "tail_percentile": tail_pct,
              "tail_samples_beyond": beyond,
              "raw_uncalibrated": raw,
              "calibration_unit_ms_median": statistics.median(
                  d for _, d in cal.units) / 1e6,
              "setup_probes": [{"s": s, "unit_ns": u} for s, u in setups]}
    return metrics, detail


def run_traced(args, loop):
    from tracer import Tracer

    loop.warm_up()
    tracer = Tracer()
    plain_ns = traced_ns = plain_ops = traced_ops = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or traced_ops == 0:
        lat = [ns for _, ns in loop.run_round()]
        plain_ns, plain_ops = plain_ns + sum(lat), plain_ops + len(lat)
        tracer.install()
        try:
            lat = [ns for _, ns in loop.run_round()]
        finally:
            tracer.uninstall()
        traced_ns, traced_ops = traced_ns + sum(lat), traced_ops + len(lat)
    overhead = (traced_ns / traced_ops) / (plain_ns / plain_ops) - 1.0
    detail = {"ops_traced": traced_ops, "ops_untraced": plain_ops,
              "spans": len(tracer.spans)}
    return tracer.layer_metrics(traced_ops, overhead), detail


# ---------------------------------------------------------------------------
# environment record


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit():
    """Commit of the checkout, read from its own .git if there is one."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def environment():
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        caches[f"L{level}-{kind}"] = _read(os.path.join(base, index, "size"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "thread_pools": {v: os.environ[v] for v in THREAD_VARS},
        "load": "closed loop, 1 caller, in-process",
    }


# ---------------------------------------------------------------------------
# modes


def single(args):
    workdir = workdir_for(args, f"trace{args.trace}")
    try:
        workload = make_workload(args, workdir)
        # imported only here: set-up probes must not pay for scipy on the
        # program's behalf
        from calibration import Calibrator

        loop = Loop(workload, None if args.trace else Calibrator(workload.calibration))
        if args.trace:
            metrics, detail = run_traced(args, loop)
        else:
            metrics, detail = run_untraced(args, loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(loop.failures)
    rel_err = workload.result_rel_err()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "environment": environment(),
        "attempted": loop.attempted, "failed": failed,
        "failed_ops_frac": failed / loop.attempted,
        "result_rel_err": rel_err, "metrics": metrics, "detail": detail,
        "failures": loop.failures[:20],
    }
    if args.workload == "cli-paper":
        record["cli_op_seeds"] = workload.seeds
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for miss in loop.failures[:5]:
        print(f"perfbench: failed op: {miss}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:<14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'':44s} op samples {detail['ops_timed']}, tail = "
              f"p{detail['tail_percentile']:g} ({detail['tail_samples_beyond']} beyond), "
              f"setup = median of {SLICES}")
    print(f"  {'failed_ops_frac':44s} {record['failed_ops_frac']:<14.6g} ratio "
          f"({failed}/{loop.attempted})")
    err = "n/a (artifacts checked by sha256)" if rel_err is None else f"{rel_err:<14.6g} ratio"
    print(f"  {'result_rel_err':44s} {err}")
    print(f"  results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def repeat(args):
    """Run each workload ``--repeat`` times in fresh interpreters with seeds
    seed, seed+1, ... and report each metric's median and quartiles, with
    the spread (q3 - q1) / median next to the bound in BENCHMARK.json."""
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path, encoding="utf-8") as fh:
            bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        runs = []
        for k in range(args.repeat):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed + k), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", repr(args.scale)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                sys.exit(f"perfbench: {' '.join(cmd[1:])} exited {out.returncode}")
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"workload {name}: {args.repeat} runs, seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {metric:44s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"{first['unit']:9s} spread {spread:.4f}{note}")
            summary["metrics"][f"{name}.{metric}"] = {
                "value": med, "unit": first["unit"], "q1": q1, "q3": q3,
                "spread": spread, "values": values}
        summary["correct"] &= all(r["correct"] for r in runs)
        summary["attempted"] += sum(r["attempted"] for r in runs)
        summary["failed"] += sum(r["failed"] for r in runs)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"summary-{args.workload}-x{args.repeat}-"
                                 f"seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), **summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed")}))
    return 0 if summary["correct"] else 1


def probe_main(args):
    """Body of a set-up probe: set up, then time calibration units. Set-up
    follows the ``numeric`` unit: under contention it slowed about 0.6 times
    as much as the ``text`` unit did, and about as much as ``numeric``."""
    workdir = workdir_for(args, "probe")
    try:
        workload = make_workload(args, workdir)
        elapsed = time.perf_counter() - _T0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from calibration import Calibrator

    cal = Calibrator("numeric")
    cal.run(PROBE_CAL_UNITS)
    unit_ns = statistics.median(d for _, d in cal.units)
    print(json.dumps({"setup_s": elapsed, "unit_ns": unit_ns}))
    return 0


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, each in a fresh interpreter")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input-size factor (< 1 only for the smoke run)")
    ap.add_argument("--record", action="store_true",
                    help="re-record the reference outputs under perfbench/refs")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.record:
        import record

        import_program()
        return record.main(ROOT, WORK)
    if args.setup_probe:
        return probe_main(args)
    if args.workload == "all" or args.repeat > 1:
        return repeat(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
