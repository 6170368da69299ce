"""One operation of a workload in a fresh process.

    python3 perfbench/worker.py OPERATION VARIANT SEED OUT_DIR [--trace]

Prints one JSON line: the monotonic time at which set-up finished, the run's
wall time, peak RSS after the run, the import times, the check failures (a
non-zero exit code of the CLI is one) and, with --trace, the per-layer
summary.  run.py starts the
process and owns the clock reading taken just before the launch, so setup_s
covers interpreter start, imports, config generation and parsing.
"""

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    operation, variant, seed, out_dir = argv[:4]
    trace = "--trace" in argv
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed apart from scipy.signal)
    t1 = time.perf_counter()
    import scipy.signal  # noqa: F401  (metaplectic needs it for czt)
    t2 = time.perf_counter()
    import proplab.cli  # noqa: F401
    t3 = time.perf_counter()

    import workloads

    p = workloads.params(operation, int(seed), int(variant))
    op = workloads.OPERATIONS[operation](p, out_dir)
    result = {"ready": time.monotonic(), "import_s": t3 - t0,
              "import_scipy_signal_s": t2 - t1}

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = op.run()
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.dump(os.path.join(out_dir, "spans.json"))
    if rc != 0:
        result["failures"] = [f"exit code {rc}"]
    else:
        try:
            result["failures"] = op.check()
        except Exception as err:  # a check that cannot run is a failed check
            result["failures"] = [f"check raised {type(err).__name__}: {err}"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
