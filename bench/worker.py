"""One workload run in a fresh process; run.py starts it.

    python3 bench/worker.py --workload W --seed N --trace 0|1 [--spans PATH]

The worker builds the workload's inputs and notes the monotonic time at which
the timed section starts; run.py subtracts its spawn time to get setup_s. It
then runs the steps once and prints one JSON line: timings, outputs, step
errors, the SINR ceiling, provenance and, when traced, the per-layer metrics.
A traced worker writes its spans to PATH.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import fbmclink
from layers import Tracer, traced
from workloads import WORKLOADS


def run_steps(prepared):
    """Run every step; a step that raises leaves its keys in `errors`."""
    outputs, errors = {}, {}
    for step in prepared.steps:
        try:
            outputs.update(step.run())
        except Exception:     # the gate counts the failure; the run goes on
            msg = traceback.format_exc(limit=-3)
            for key in step.keys:
                errors[key] = msg
    return outputs, errors


def measure(prepared, tracer=None):
    """Run the steps once, traced if a tracer is given."""
    t_ready = time.monotonic()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is None:
        outputs, errors = run_steps(prepared)
    else:
        with traced(tracer), tracer.root():
            outputs, errors = run_steps(prepared)
    return {"t_ready": t_ready,
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
            "outputs": outputs, "errors": errors}


def provenance():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    src = os.path.realpath("src")
    if os.path.dirname(os.path.dirname(os.path.realpath(fbmclink.__file__))) != src:
        sys.exit(f"fbmclink imported from {fbmclink.__file__}, not from {src}")

    prepared = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    rec = measure(prepared, tracer)
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec["keys"] = [key for step in prepared.steps for key in step.keys]
    try:
        rec["ceiling_db"] = prepared.ceiling_db()
    except Exception:         # leaves the plausibility check failing
        rec["ceiling_db"] = float("nan")
    rec["provenance"] = provenance()
    if tracer is not None:
        rec["layers"] = tracer.summary()
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
