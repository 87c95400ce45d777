"""Correctness gate: a run's outputs against the references in
references.json, which record_references.py wrote from the package at the
commit that defined the benchmark.

The outputs repeat to about 12 digits across processes. The tolerances admit
FFT/BLAS reassociation, but not a changed seed, which moves a Monte Carlo
SINR by 1e-2 dB or more, nor a changed formula. On a seed without references
the outputs must instead be finite and physically bounded.
"""

import json
import math
import os

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")
TOL_DB = 1e-6       # absolute, on SINR and SIR values in dB
TOL_REL = 1e-6      # relative, on MSE values


def load_references(path=REFERENCES):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def reference_for(refs, workload, seed):
    """Reference outputs of (workload, seed), or None. The entry "*" holds
    outputs that do not depend on the seed."""
    table = refs.get(workload, {})
    return table.get(str(seed), table.get("*"))


def _kind(key):
    return key.split("/", 1)[0]      # sinr_db, mse or sir_bound_db


def _close(key, value, ref):
    if _kind(key) == "mse":
        return abs(value - ref) <= TOL_REL * abs(ref)
    return abs(value - ref) <= TOL_DB


def _plausible(key, value, ceiling_db):
    kind = _kind(key)
    if kind == "mse":
        # a receiver that outputs zeros has a normalized MSE of 1
        return 0.0 < value < 1.0
    if kind == "sinr_db":
        return value <= ceiling_db + TOL_DB
    return value > 0.0


def check(keys, outputs, reference=None, ceiling_db=math.inf):
    """The keys that fail: missing (their step raised), not finite, off the
    reference, or, when there is no reference, physically implausible."""
    failed = []
    for key in keys:
        value = outputs.get(key)
        if value is None or not math.isfinite(value):
            ok = False
        elif reference is not None:
            ok = key in reference and _close(key, value, reference[key])
        else:
            ok = _plausible(key, value, ceiling_db)
        if not ok:
            failed.append(key)
    return failed
