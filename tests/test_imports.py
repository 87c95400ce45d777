"""Import budget: the package starts on numpy alone and loads nothing later.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded for the oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path


def _run(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_loads_no_scipy():
    loaded = _run("import json, sys, fbmclink\n"
                  "print(json.dumps(sorted(sys.modules)))")
    assert "fbmclink.theory" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_simulation_calls_load_no_new_numpy_or_scipy_module():
    # numpy loads numpy.random and numpy.fft on first use; a load left to the
    # first simulation call lands in its timed work instead of start-up
    new = _run(
        "import json, sys\n"
        "import fbmclink\n"
        "before = set(sys.modules)\n"
        "from fbmclink.channel import load_pdp\n"
        "from fbmclink.config import SimConfig\n"
        "from fbmclink.fbmc import design_prototype\n"
        "from fbmclink.metrics import SchemeSpec, run_mse, sweep\n"
        "from fbmclink.theory import theoretical_sinr\n"
        "cfg = SimConfig(M=16, N_t=2, N_r=4, trials=1, master_seed=3,\n"
        "                criterion='mmse', gamma_db=15.0, N_d=24)\n"
        "sweep(cfg, 'N_r', [4], [SchemeSpec('single_tap'),\n"
        "                        SchemeSpec('two_stage', D1=4, Lg_prime=3)])\n"
        "run_mse(cfg, SchemeSpec('two_stage', D1=4, Lg_prime=3),\n"
        "        csi_mode='estimated')\n"
        "theoretical_sinr([load_pdp('PedA', cfg.sample_rate)],\n"
        "                 design_prototype(4, 32), 32, 8, 1, 16, 0, 0.1)\n"
        "theoretical_sinr([load_pdp(c, cfg.sample_rate) for c in\n"
        "                  ('PedA', 'EVA')], design_prototype(4, 64), 64, 8,\n"
        "                 1, 32, 0, 0.1)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert [m for m in new if m.split(".")[0] in ("numpy", "scipy")] == []
