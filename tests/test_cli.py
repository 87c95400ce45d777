"""CLI presets: CSV output and the emitted plot scripts."""

import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fbmclink import cli
from fbmclink.channel import load_pdp
from fbmclink.cli import main
from fbmclink.config import P_SYM, SimConfig
from fbmclink.fbmc import design_prototype
from fbmclink.metrics import SchemeSpec, sweep
from fbmclink.theory import theoretical_sinr

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


def test_plot_script_title_is_the_csv_stem(tmp_path):
    # fig7 and fig8 share one header, so the header cannot name the figure
    path = tmp_path / "fig8.csv"
    path.write_text("gamma_db,scheme,Lg_prime,sinr_db,sinr_se_db,"
                    "sir_upper_bound_db\n0.0,highrate,0,1.0,0.1,60.0\n",
                    encoding="utf-8")
    script = cli.emit_plot_script(str(path))
    compile(script, "fig8_plot.py", "exec")
    assert script.splitlines()[1] == (
        '"""Plot fig8 from fig8.csv (generated; requires matplotlib)."""')
    assert "fig7" not in script


def test_plot_script_out_to_a_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "fig8.csv"
    path.write_text("gamma_db,scheme,Lg_prime,sinr_db,sinr_se_db,"
                    "sir_upper_bound_db\n0.0,highrate,0,1.0,0.1,60.0\n",
                    encoding="utf-8")
    code = main(["plot-script", str(path), "--out", str(tmp_path)])
    _assert_config_error(code, capsys,
                         f"cannot write plot script {str(tmp_path)!r}")


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


def _run(tmp_path, preset, text):
    cfg = tmp_path / f"{preset}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", preset, "--config", str(cfg), "--out", str(out)])
    return code, out


def test_fig4_exit_0_and_theory_column(tmp_path, capsys):
    code, out = _run(tmp_path, "fig4", "M = 16\ntrials = 2\nchannels = PedA\n")
    assert code == 0
    assert capsys.readouterr().err == ""
    with open(out / "fig4.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 4                 # desk N_r in {4, 16} x 4 SNRs
    cfg = SimConfig(M=16, N_t=1, channels=("PedA",))
    pf = design_prototype(cfg.kappa, 16)
    profile = load_pdp("PedA", cfg.sample_rate)
    for r in rows:
        want = theoretical_sinr([profile], pf, 16, int(r["N_r"]), cfg.alpha,
                                cfg.subcarrier, 0,
                                cfg.noise_var(float(r["gamma_db"])), P_s=P_SYM)
        assert float(r["sinr_theory_db"]) == want


def test_fig3_lengths_start_where_the_delay_fits(tmp_path, capsys):
    # g-bar places the alpha M/2 delay only with more than alpha M/(2 D1)
    # low-rate taps, so each D1's axis starts one tap past that
    code, out = _run(tmp_path, "fig3",
                     "M = 16\nkappa = 2\nN_r = 4\ntrials = 2\n"
                     "channels = PedA\n")
    assert code == 0
    assert capsys.readouterr().err == ""
    with open(out / "fig3.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    lengths = {}
    for r in rows:
        lengths.setdefault(int(r["D1"]), []).append(int(r["Lg_prime"]))
    assert sorted(lengths) == [2, 4, 8]
    for D1, lg in lengths.items():
        assert all(x > 16 // (2 * D1) for x in lg)
        assert lg == list(range(16 // (2 * D1) + 1, 16 // (2 * D1) + 9))
    assert all(np.isfinite(float(r["sir_db"])) for r in rows)


def test_fig3_rows_equal_separate_sweeps_of_each_d1(tmp_path, monkeypatch):
    # one sweep per channel measures every D1's lengths and the high-rate
    # scheme on the trials that a sweep of each D1 alone draws
    channels = []
    real = cli.sweep
    monkeypatch.setattr(cli, "sweep", lambda c, *args, **kwargs: (
        channels.append(c.channels) or real(c, *args, **kwargs)))
    code, out = _run(tmp_path, "fig3", "M = 16\nN_r = 4\ntrials = 3\n"
                     "channels = PedA, EVA\n")
    assert code == 0 and channels == [("PedA",), ("EVA",)]
    with open(out / "fig3.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3 * 8
    cfg = SimConfig(**{**cli._preset_items("fig3", "desk"), "M": 16,
                       "N_r": 4, "trials": 3})
    groups = {}
    for r in rows:
        groups.setdefault((r["channel"], int(r["D1"])), []).append(r)
    assert list(groups) == [(ch, D1) for ch in ("PedA", "EVA")
                            for D1 in (8, 4, 2)]
    for (ch, D1), rs in groups.items():
        specs = [SchemeSpec("two_stage", D1=D1, Lg_prime=int(r["Lg_prime"]))
                 for r in rs]
        res = sweep(replace(cfg, channels=(ch,)), "N_r", [4],
                    specs + [SchemeSpec("highrate")])
        for r, sp in zip(rs, specs):
            rep = res.get(4, sp.label())
            assert float(r["sir_db"]) == rep.sir_db
            assert float(r["sir_se_db"]) == rep.sir_se_db
            assert float(r["highrate_sir_db"]) == res.get(4, "highrate").sir_db


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
def test_an_empty_channel_list_exits_2(tmp_path, capsys, preset):
    # both presets plot one curve per listed channel
    code, out = _run(tmp_path, preset, "M = 16\ntrials = 2\nchannels =\n")
    _assert_config_error(code, capsys, "channels is empty")
    assert not (out / f"{preset}.csv").exists()


def test_fig3_below_m_8_exits_2(tmp_path, capsys):
    # its smallest D1 is M/8
    code, out = _run(tmp_path, "fig3", "M = 4\ntrials = 2\nchannels = PedA\n")
    _assert_config_error(code, capsys, "fig3 needs M >= 8")
    assert not (out / "fig3.csv").exists()


def test_fig4_channel_longer_than_m_exits_2_before_the_sweep(
        tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        pytest.fail("the Monte Carlo sweep ran before the config check")
    monkeypatch.setattr(cli, "sweep", no_sweep)
    code, out = _run(tmp_path, "fig4", "M = 16\ntrials = 2\nchannels = ETU\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and err.count("\n") == 1
    assert "L_h-1 < M=16" in err
    assert not (out / "fig4.csv").exists()


def _assert_config_error(code, capsys, text):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and err.count("\n") == 1
    assert text in err


def test_unknown_channel_profile_exits_2(tmp_path, capsys):
    code, out = _run(tmp_path, "fig6", "M = 16\ntrials = 2\nchannels = Foo\n")
    _assert_config_error(code, capsys, "unknown profile 'Foo'")
    assert not (out / "fig6.csv").exists()


def test_malformed_custom_profile_exits_2(tmp_path, capsys):
    bad_value = "need a finite delay_ns >= 0 and a finite power_db, got"
    for row, text in (("30 loud", "non-numeric entry in"),
                      ("nan 0.0", bad_value), ("30 inf", bad_value),
                      ("-100 0", bad_value)):
        pdp = tmp_path / "bad.pdp"
        pdp.write_text(f"# delay_ns power_db\n0 0.0\n{row}\n", encoding="utf-8")
        code, out = _run(tmp_path, "fig6",
                         f"M = 16\ntrials = 2\nchannels = {pdp}\n")
        _assert_config_error(code, capsys, f"bad.pdp:3: {text} {row!r}")
        assert not (out / "fig6.csv").exists()
    binary = tmp_path / "binary.pdp"
    binary.write_bytes(b"0 0.0\n\xff 1\n")
    # a directory, and a file whose bytes are not UTF-8
    for path in (tmp_path, binary):
        code, out = _run(tmp_path, "fig6",
                         f"M = 16\ntrials = 2\nchannels = {path}\n")
        _assert_config_error(code, capsys,
                             f"cannot read profile file {str(path)!r}")
        assert not (out / "fig6.csv").exists()


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfe" + "M = 16\n".encode("utf-16-le"))
    code = main(["run", "fig7", "--config", str(cfg), "--out",
                 str(tmp_path / "out")])
    _assert_config_error(code, capsys, f"cannot read config file {str(cfg)!r}")
    assert not (tmp_path / "out" / "fig7.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exits_2(tmp_path, capsys, threads):
    cfg = tmp_path / "fig7.cfg"
    cfg.write_text(_TINY_FIG7, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "fig7", "--config", str(cfg), "--out", str(out),
                 "--threads", threads])
    _assert_config_error(code, capsys, "threads must be >= 1")
    assert not (out / "fig7.csv").exists()


def test_mse_threads_reach_every_run_mse_call(tmp_path, monkeypatch):
    seen = []

    def fake_run_mse(cfg, spec, csi_mode, threads=1):
        seen.append(threads)
        return 0.5
    monkeypatch.setattr(cli, "run_mse", fake_run_mse)
    cfg = tmp_path / "mse.cfg"
    cfg.write_text("M = 16\ntrials = 2\n", encoding="utf-8")
    code = main(["run", "mse", "--config", str(cfg), "--out",
                 str(tmp_path / "out"), "--threads", "2"])
    assert code == 0 and seen and set(seen) == {2}


def test_schemes_is_not_a_config_key(tmp_path, capsys):
    # every preset runs its own receiver schemes
    code, out = _run(tmp_path, "fig7", _TINY_FIG7 + "schemes = highrate\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "unknown config key" in err
    assert not (out / "fig7.csv").exists()


@pytest.mark.parametrize("line", ["L_g = M", "L_g = 64"])
def test_a_config_file_that_sets_l_g_exits_2(tmp_path, capsys, line):
    # the high-rate stage always has M taps
    code, out = _run(tmp_path, "fig4",
                     f"M = 16\ntrials = 2\nchannels = PedA\n{line}\n")
    _assert_config_error(code, capsys, "unknown config key 'L_g'")
    assert not (out / "fig4.csv").exists()


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    # two PedA users on the orthogonal kappa=2 bank: the leading-order
    # multi-user interference cancels to a negative round-off total
    def failing_preset(cfg, scale, out_dir, threads):
        peda = load_pdp("PedA", cfg.sample_rate)
        theoretical_sinr([peda, peda], design_prototype(2, 64), 64, 8, 1, 32,
                         0, 0.0, P_s=P_SYM)
        return []
    monkeypatch.setitem(cli._RUNNERS, "fig4", failing_preset)
    code, _ = _run(tmp_path, "fig4", "M = 16\n")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: ") and err.count("\n") == 1
