#!/usr/bin/env python3
"""Run one mmrd benchmark workload and print its metrics.

    python3 bench/run_bench.py --workload blowup_1d --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  With ``--trace 0`` the run reports the end-to-end metrics
(``setup_s``, ``solve_s``, ``peak_rss_mb``); with ``--trace 1`` it reports
the per-layer metrics of a traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Details
of each run (per-round times, machine, traced spans) go to
``.bench_out/<workload>-seed<n>.{result,trace}.json``.
"""

import os

# Pin native thread pools before numpy loads, so the numbers measure mmrd
# and not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("blowup_1d", "pair_reactor", "obstacle_reactor", "plate_2d")


def process_age() -> float:
    """Seconds since this process started, from /proc/self/stat (Linux)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


# On a virtual machine with a shared host, cores change speed by up to 2x
# within minutes, in CPU time as much as in wall time.  A fixed reference
# kernel timed right before and after each round follows that drift (per
# round, its time correlates 0.74 with the round's), so each round's time
# is scaled by REFERENCE_S / (kernel time): solve_s then reads in seconds of
# a host that runs the kernel in REFERENCE_S, a typical time for it on the
# reference machine in README.md.
REFERENCE_S = 0.04
KERNEL_REPS = 4000


def reference_kernel() -> float:
    """Seconds for a fixed mix of small numpy operations and Python-level
    loops, the mix that dominates an mmrd time step.  Uses no mmrd code."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 51)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(KERNEL_REPS):
        y = np.maximum(x * 1.0001 - 0.5, 0.0) ** 1.5
        acc += float(np.max(np.abs(y - x))) + sum(range(50))
    return time.perf_counter() - t0


def measure(workload, budget: float, on_round=None) -> dict:
    """Run whole rounds until the next one would end past ``budget`` seconds
    (at least one round).  Returns per-round wall times, the host-speed
    scaled times, and totals."""
    solve_times, scaled, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        k0 = reference_kernel()
        t0 = time.perf_counter()
        rnd = workload.solve()
        solve_times.append(time.perf_counter() - t0)
        scaled.append(solve_times[-1] * 2.0 * REFERENCE_S / (k0 + reference_kernel()))
        attempted += rnd.attempted
        failed += rnd.failed
        failures += workload.check(rnd)
        if on_round is not None:
            on_round()
        elapsed = time.perf_counter() - start
        if elapsed * (len(solve_times) + 1) / len(solve_times) > budget:
            break
    return {"solve_times": solve_times, "scaled_times": scaled, "attempted": attempted,
            "failed": failed, "failures": failures}


def merge(a: dict, b: dict) -> dict:
    """Sum of two tracer snapshots."""
    out = {"functions": {}, "edges": {}, "extra": dict(a["extra"]),
           "step_durations": a["step_durations"] + b["step_durations"]}
    for key in ("functions", "edges"):
        for src in (a, b):
            for name, vals in src[key].items():
                acc = out[key].setdefault(name, dict.fromkeys(vals, 0))
                for k, v in vals.items():
                    acc[k] += v
    for k, v in b["extra"].items():
        out["extra"][k] += v
    return out


def traced_metrics(setup_snap: dict, round_snaps: list[dict], overhead: float) -> dict:
    import numpy as np

    from tracer import layer_metrics

    per_round = [layer_metrics(merge(setup_snap, snap)) for snap in round_snaps]
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    durations = np.concatenate([snap["step_durations"] for snap in round_snaps] + [[]])
    p50, p99 = (float(np.percentile(durations, q)) * 1e3 if durations.size else 0.0 for q in (50, 99))
    metrics["stepper.step.p50_ms"] = p50
    metrics["stepper.step.p99_ms"] = p99
    metrics["trace.overhead_s"] = overhead
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mmrd" / "__init__.py").is_file():
        print(f"mmrd sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mmrd

    if Path(mmrd.__file__).resolve().parent != (src / "mmrd").resolve():
        print(f"imported mmrd from {mmrd.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.workdir = OUT_DIR
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            workload.setup()
            setup_wall = process_age()
            host = 2.0 * REFERENCE_S / (reference_kernel() + reference_kernel())
            run = measure(workload, args.seconds)
            metrics = {
                "setup_s": {"value": setup_wall * host, "unit": "s"},
                "solve_s": {"value": statistics.median(run["scaled_times"]), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
            detail = dict(run, setup_wall_s=setup_wall,
                          solve_wall_median_s=statistics.median(run["solve_times"]))
            print(f"wall clock: setup {setup_wall:.4g} s, median round "
                  f"{detail['solve_wall_median_s']:.4g} s", file=sys.stderr)
        else:
            tracer.install()
            workload.setup()
            setup_snap = tracer.snapshot()
            tracer.uninstall()
            plain = measure(workload, args.seconds / 2)
            snaps = []

            def next_round():
                snaps.append(tracer.snapshot())
                tracer.reset()

            tracer.reset()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, on_round=next_round)
            finally:
                tracer.uninstall()
            overhead = statistics.median(traced["scaled_times"]) - statistics.median(plain["scaled_times"])
            layer = traced_metrics(setup_snap, snaps, overhead)
            spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {k: {"value": float(layer[k]), "unit": units[k]} for k in units}
            run = {k: plain[k] + traced[k] for k in ("attempted", "failed", "failures")}
            if tracer.run_calls == 0:
                run["failures"].append("coverage: the tracer saw no run() or run_pair() call")
            run["failures"] += tracer.coverage_errors
            detail = {"untraced": plain, "traced": traced, "setup_spans": setup_snap,
                      "round_spans": [dict(s, step_durations=len(s["step_durations"])) for s in snaps]}
    finally:
        workload.close()

    correct = not run["failures"]
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}
    kind = "trace" if args.trace else "result"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": machine(), "result": result, "detail": detail}
    (OUT_DIR / f"{args.workload}-seed{args.seed}.{kind}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    for msg in run["failures"][:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"operations: {run['attempted']} attempted, {run['failed']} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
