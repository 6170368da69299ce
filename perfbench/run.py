"""Benchmark harness for proplab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports `src/proplab`).  Each
operation of a workload runs in a fresh worker process with BLAS and OpenMP
fixed at one thread.  The run repeats whole rounds of the workload's
operations (workloads.ROUNDS) while another round, at the mean round length
so far, still ends within S seconds (it runs at least one), and prints one
JSON object as its last line of standard output.

--trace 0 reports the end-to-end metrics, each the median over the run:
  setup_s      launch of a worker until its inputs are ready (every
               operation)
  wall_s       one round's summed operation wall time (first scenario call
               to the last output file)
  peak_rss_mb  the largest peak RSS among one round's workers
--trace 1 runs every operation once untraced and once traced, and reports
the per-layer metrics of tracing.py summed over a round, median over rounds.

An operation fails when its worker crashes, exits non-zero, or one of its
output checks fails.  Result files go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402  (numpy only; proplab is imported by workers)

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# A new round starts only if it should end by --seconds, and by
# LAST_ROUND_END_S at most; a worker still running at DEADLINE_S is killed:
# a run ends inside 180 s.
LAST_ROUND_END_S = 100.0
DEADLINE_S = 170.0
RUN_START = time.monotonic()

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
CALL_COUNTS = ("grid.dft", "tfa.mod_norm", "trotter.kernel_mod_norm",
               "trotter.trotter_kernel", "trotter.hamiltonian_matrix",
               "metaplectic.resolve_phase", "symplectic.flow")


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    prefixes = list(dict.fromkeys(entry[2] for entry in tracing.TRACED))
    out = [(f"{p}.s", "s") for p in prefixes]
    out += [(f"{p}.calls", "count") for p in CALL_COUNTS]
    out += [(f"{entry[2]}.{entry[3]}", "count" if entry[3] == "points" else "B")
            for entry in tracing.TRACED if entry[3]]
    out += [("setup.import.s", "s"), ("setup.import_scipy_signal.s", "s"),
            ("unattributed.s", "s"), ("trace.overhead.s", "s")]
    return out


def launch(workload, operation, variant, seed, flags):
    """Run one worker; returns its parsed report plus setup_s, or None."""
    tag = f"{operation}-{variant}" + ("-traced" if "--trace" in flags else "")
    out_dir = os.path.join(RESULTS, workload, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), operation,
           str(variant), str(seed), out_dir] + flags
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (launched - RUN_START)))
    except subprocess.TimeoutExpired:
        print(f"{tag}: worker timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{tag}: worker exited {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - launched
    for failure in report.get("failures", []):
        print(f"{tag}: FAILED {failure}", file=sys.stderr)
    return report


def run_round(workload, seed, trace):
    """One round; returns per-round figures and the operation tallies."""
    rnd = {"wall": 0.0, "rss": 0.0, "setups": [], "traced_wall": 0.0,
           "layers": {}, "imports": [], "attempted": 0, "failed": 0}
    for operation, variant in workloads.ROUNDS[workload]:
        for flags in ([], ["--trace"]) if trace else ([],):
            rnd["attempted"] += 1
            rep = launch(workload, operation, variant, seed, flags)
            if rep is None or rep["failures"]:
                rnd["failed"] += 1
            if rep is None:
                continue
            rnd["setups"].append(rep["setup_s"])
            if flags:
                rnd["traced_wall"] += rep["wall_s"]
                rnd["imports"].append((rep["import_s"], rep["import_scipy_signal_s"]))
                for key, value in rep["layers"].items():
                    rnd["layers"][key] = rnd["layers"].get(key, 0) + value
            else:
                rnd["wall"] += rep["wall_s"]
                rnd["rss"] = max(rnd["rss"], rep["peak_rss_mb"])
    return rnd


def summarize(rounds, trace):
    """Metric name -> value, medians over the run's rounds."""
    med = statistics.median
    if not trace:
        return {"setup_s": med(s for r in rounds for s in r["setups"]),
                "wall_s": med(r["wall"] for r in rounds),
                "peak_rss_mb": med(r["rss"] for r in rounds)}
    values = {}
    for name, _ in per_layer_metrics():
        values[name] = med(r["layers"].get(name, 0) for r in rounds)
    imports = [pair for r in rounds for pair in r["imports"]]
    values["setup.import.s"] = med(p[0] for p in imports)
    values["setup.import_scipy_signal.s"] = med(p[1] for p in imports)
    values["unattributed.s"] = med(
        r["traced_wall"] - sum(v for k, v in r["layers"].items() if k.endswith(".s"))
        for r in rounds)
    values["trace.overhead.s"] = med(r["traced_wall"] - r["wall"] for r in rounds)
    return values


def report(rounds, trace) -> dict:
    """The result object printed as the run's last line."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    units = dict(per_layer_metrics() if trace else END_TO_END)
    values = summarize(rounds, trace)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "proplab", "cli.py")):
        print(f"no proplab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    shutil.rmtree(os.path.join(RESULTS, args.workload), ignore_errors=True)

    rounds = []
    first_start = time.monotonic()
    while True:
        rnd = run_round(args.workload, args.seed, bool(args.trace))
        rounds.append(rnd)
        print(f"round {len(rounds)}: wall {rnd['wall']:.3f} s, "
              f"{rnd['failed']}/{rnd['attempted']} failed", file=sys.stderr)
        # another round only if, at the mean round length so far, it ends in time
        now = time.monotonic()
        mean_round = (now - first_start) / len(rounds)
        if now + mean_round - RUN_START > min(args.seconds, LAST_ROUND_END_S):
            break

    if all(r["failed"] == r["attempted"] for r in rounds):
        print("every operation failed; no result", file=sys.stderr)
        return 1
    print(json.dumps(report(rounds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
