"""CLI presets: CSV output and the emitted plot scripts."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fbmclink.cli import main

_TINY_FIG7 = """\
M = 16
kappa = 2
N_t = 1
N_r = 4
trials = 2
channels = PedA
"""


def test_fig7_orthogonal_bank_writes_infinite_bound(tmp_path, capsys):
    # kappa=2 has no finite SIR ceiling: the CSV carries inf, and the plot
    # script draws the bound line only for a finite value
    cfg = tmp_path / "kappa2.cfg"
    cfg.write_text(_TINY_FIG7, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "fig7", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "fig7.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(float(r["sir_upper_bound_db"]) == np.inf for r in rows)
    assert all(np.isfinite(float(r["sinr_db"])) for r in rows)
    script = (out / "fig7_plot.py").read_text(encoding="utf-8")
    compile(script, "fig7_plot.py", "exec")
    guard = script.index("if math.isfinite(bound):")
    assert script.index("ax.axhline(bound") > guard
    assert script.count("axhline") == 1
    assert "import math\n" in script


def test_python_m_fbmclink_starts_without_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fbmclink",
         "--help"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: fbmclink" in proc.stdout
