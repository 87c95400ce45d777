"""Benchmark entry point; run it from the root of a checkout.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Starts fresh worker processes (worker.py) one after another for about S
seconds: another worker starts only while that brings the run's end nearer
to S, judged by the median length of the workers so far. Each worker runs the workload's fixed work once, pinned to one
BLAS/OpenMP thread. Every worker's outputs go through the correctness gate.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics":

* --trace 0: the end-to-end metrics, each the median over the workers;
* --trace 1: workers alternate untraced and traced, and the metrics are the
  per-layer ones, each the median over the traced workers, plus
  trace.overhead (traced over untraced median wall time, minus one).

The line before it holds the provenance. The full record, with every
worker's outputs, goes to .bench_out/ and a traced worker's spans next to it.
Without src/fbmclink in the working directory, or when a worker cannot run,
the script exits non-zero and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
DEADLINE_S = 170.0      # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "metrics.measure.self_s": "s",
    "metrics.measure.calls": "count",
    "metrics.coeffs": "count",
    "metrics.trials": "count",
    "stage1.design_highrate.self_s": "s",
    "stage1.design_highrate.calls": "count",
    "stage1.single_tap.self_s": "s",
    "stage1.single_tap.calls": "count",
    "stage1.bins": "count",
    "stage2.build_bank.self_s": "s",
    "stage2.build_bank.calls": "count",
    "stage2.fits": "count",
    "stage2.equalize.self_s": "s",
    "stage2.recover.self_s": "s",
    "fbmc.afb.self_s": "s",
    "fbmc.afb.calls": "count",
    "fbmc.modulate.self_s": "s",
    "fbmc.demodulate.self_s": "s",
    "channel.draw_channel.self_s": "s",
    "channel.apply_channel.self_s": "s",
    "channel.add_awgn.self_s": "s",
    "channel.csi.self_s": "s",
    "theory.ratio_moments.self_s": "s",
    "theory.ratio_moments.calls": "count",
    "theory.ratio_moments.repeat_ratio": "ratio",
    "theory.error_stats.self_s": "s",
    "theory.average_power.self_s": "s",
    "theory.noise_power.self_s": "s",
    "theory.interference_table.self_s": "s",
    "theory.sir_upper_bound.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, traced, spans_path, timeout):
    """Run one worker process and return its record, with setup_s."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", spans_path]
    if timeout <= 0:
        raise WorkerError(f"no time left within {DEADLINE_S:.0f} s")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker still running after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}\n"
                          + proc.stderr[-4000:])
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("t_ready") - t_spawn
    rec["traced"] = traced
    return rec


def git_commit(root="."):
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(records, trace):
    """The result object of a run from its worker records."""
    attempted = sum(len(r["keys"]) for r in records)
    failed = sum(len(r["failed_keys"]) for r in records)
    if trace:
        plain = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        metrics = {name: _metric(statistics.median(
                       r["layers"].get(name, 0) for r in traced), unit)
                   for name, unit in PER_LAYER.items()}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain) - 1.0)
        metrics["trace.overhead"] = _metric(overhead, "ratio")
    else:
        metrics = {name: _metric(statistics.median(r[name] for r in records),
                                 unit)
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run(workload, seed, seconds, trace):
    reference = gate.reference_for(gate.load_references(), workload, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    start = time.monotonic()
    records, lengths = [], []
    while len(records) < 1 + trace or (time.monotonic() - start
                                       + statistics.median(lengths) / 2
                                       < seconds):
        traced = bool(trace) and len(records) % 2 == 1
        t0 = time.monotonic()
        rec = spawn(workload, seed, traced, f"{stem}-spans{len(records)}.json",
                    DEADLINE_S - (t0 - start))
        lengths.append(time.monotonic() - t0)
        rec["failed_keys"] = gate.check(rec["keys"], rec["outputs"],
                                        reference, rec["ceiling_db"])
        records.append(rec)
    result = summarize(records, trace)
    prov = dict(records[0]["provenance"], commit=git_commit(),
                workload=workload, seed=seed, seconds=seconds, trace=trace,
                workers=len(records), references=reference is not None)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, "workers": records},
                  fh, indent=1)
    return prov, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fbmclink", "__init__.py")):
        sys.exit("error: src/fbmclink not found; run from the root of a checkout")
    try:
        prov, result = run(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        sys.exit(f"error: {exc}")
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
