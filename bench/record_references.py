"""Record the gate's reference outputs from the package in this checkout.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/record_references.py

Runs each workload once per seed (0-63 and the presets' master seed 12345)
at the benchmark's shapes and writes references.json. theory_fig4 does not
depend on the seed and is recorded once, under "*". The references pin the
outputs of the commit that recorded them, so record again only on purpose,
and say why in the change.
"""

import json

from gate import REFERENCES
from run import git_commit
from workloads import WORKLOADS

DEFAULT_SEED = 12345        # the presets' master seed
SEEDS = [DEFAULT_SEED] + list(range(64))


def record(workload, seed):
    prepared = WORKLOADS[workload](seed)
    out = {}
    for step in prepared.steps:
        out.update(step.run())
    return out


def main():
    table = {"theory_fig4": {"*": record("theory_fig4", DEFAULT_SEED)}}
    for workload in ("mc_fig6", "chain_mse"):
        table[workload] = {str(s): record(workload, s) for s in SEEDS}
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"commit": git_commit(), "workloads": table}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
