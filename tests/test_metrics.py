"""Coefficient measurement against a brute-force oracle and against the full
transmit/channel/receive chain that run_mse runs; the equalized channel's
ZF identity; sweeps independent of thread count and sharing one table;
run_mse's input checks and seeding."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import fftconvolve

from fbmclink import theory
from fbmclink.channel import apply_channel, draw_channel, freq_csi, make_rng
from fbmclink.config import SimConfig, fingerprint
from fbmclink.errors import ConfigError
from fbmclink.fbmc import design_prototype, modulate
from fbmclink.metrics import (SchemeSpec, _collect, _equalized_channel,
                              _jackknife_ratio_db, _measure_many, _receive,
                              _specs, _taps, run_mse, sweep)
from fbmclink.stage1 import (SingleTapEqualizer, alpha_bound, design_highrate,
                             single_tap)
from fbmclink.stage2 import (DecimationPlan, LowRateEqualizerBank,
                             build_lowrate_receiver)


def _oracle_kernel(scheme, pf, m, u):
    """Composite receive kernel per antenna, K^r = conj f_m conv flip g^r at
    the full rate (a two-stage g-bar upsampled by D1): (K (N_r, len), alpha).
    """
    fmc = np.conj(pf.subcarrier_filter(m))
    if isinstance(scheme, SingleTapEqualizer):
        return scheme.W[m, u][:, None] * fmc[None, :], 0
    if isinstance(scheme, LowRateEqualizerBank):
        gbar, D1 = scheme.taps_for(m)[u], scheme.plan.D1
        g = np.zeros((gbar.shape[0], (gbar.shape[1] - 1) * D1 + 1),
                     dtype=complex)
        g[:, ::D1] = gbar
    else:
        g = scheme.taps[u]
    return np.array([np.convolve(fmc, gr[::-1]) for gr in g]), scheme.alpha


def _oracle_measure(H, scheme, pf, m, u):
    """Brute force: every antenna's channel through the whole M x L_f filter
    matrix, then through the scheme's kernel at the full rate, keeping the
    lattice columns (dn + alpha) M/2 + L_f - 1. Returns (R, dn, noise_gain).
    """
    M, L_f = pf.M, pf.L_f
    K, a = _oracle_kernel(scheme, pf, m, u)
    t = np.arange(L_f)
    Fmat = pf.coeffs[None, :] * np.exp(
        2j * np.pi * np.arange(M)[:, None] * (t[None, :] - pf.centre) / M)
    C = 0
    for r in range(H.shape[0]):
        A_r = fftconvolve(Fmat[None, :, :], H[r][:, None, :], axes=2)
        C = C + fftconvolve(A_r, K[r, ::-1][None, None, :], axes=2)
    half, L_C = M // 2, C.shape[2]
    dns, cols = [], []
    for dn in range(-((L_f - 1) // half) - a, (L_C - L_f) // half - a + 1):
        i = (dn + a) * half + L_f - 1
        if 0 <= i < L_C:
            dns.append(dn)
            cols.append(i)
    dns = np.array(dns)
    ph = 1j ** ((np.arange(M)[:, None] - m - dns[None, :]) % 4)
    R = (C[:, :, cols] * ph[None, :, :]).real
    return R, dns, float(np.sum(np.abs(K) ** 2))


def _assert_matches(got, want, rel=1e-12):
    R, dn, noise_gain = want
    assert np.array_equal(got.dn, dn)
    assert np.abs(got.R - R).max() <= rel * np.abs(R).max()
    assert abs(got.noise_gain - noise_gain) <= rel * noise_gain


def _scheme(kind, csi, pf, alpha, subcarriers):
    M = pf.M
    if kind == "single_tap":
        return single_tap(csi)
    if kind == "highrate":
        return design_highrate(csi, L_g=M, alpha=alpha)
    return build_lowrate_receiver(csi, pf, DecimationPlan(M, M // 4),
                                  alpha=alpha, Lg_prime=3, L_g=M,
                                  subcarriers=subcarriers)


@pytest.mark.parametrize("kind, alpha", [("single_tap", 0), ("highrate", 0),
                                         ("highrate", 1), ("highrate", 2),
                                         ("two_stage", 0), ("two_stage", 1),
                                         ("two_stage", 2)])
@pytest.mark.parametrize("kappa", [2, 3, 4])
@pytest.mark.parametrize("M", [8, 16])
def test_measure_matches_brute_force_oracle(M, kappa, kind, alpha, eva, peda):
    pf = design_prototype(kappa, M)
    H = draw_channel([eva, peda], 5, 100 * M + kappa)
    assert alpha <= alpha_bound(H.shape[2], M, M)
    edges = [0, M // 2, M - 1]
    scheme = _scheme(kind, freq_csi(H, M), pf, alpha, edges)
    for m in edges:
        for u in range(H.shape[1]):
            got, = _measure_many(H, [scheme], pf, m, u)
            want = _oracle_measure(H, scheme, pf, m, u)
            _assert_matches(got, want)
            with pytest.raises(AssertionError):
                _assert_matches(replace(got, R=got.R * (1 + 1e-9)), want)


@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("N_t", [1, 2, 4])
def test_equalized_channel_of_zf_is_the_delay_modulo_m(N_t, alpha, eva, peda,
                                                        uni4):
    # perfect CSI, ZF, L_g = M: the taps invert the channel on the M bins, so
    # c_{u,u'} folded modulo M is delta_{uu'} delta[(l - alpha M/2) mod M]
    M = 16
    H = draw_channel([eva, peda, uni4, eva][:N_t], 3 * N_t, 10 * N_t + alpha)
    assert alpha <= alpha_bound(H.shape[2], M, M)
    scheme = design_highrate(freq_csi(H, M), L_g=M, alpha=alpha)
    for u in range(N_t):
        g, D1, a = _taps(scheme, M // 2, u)
        assert (D1, a) == (1, alpha)
        c = _equalized_channel(H, g, D1)
        assert c.shape == (N_t, M + H.shape[2] - 1)
        folded = np.zeros((N_t, M), dtype=complex)
        np.add.at(folded, (slice(None), np.arange(c.shape[1]) % M), c)
        want = np.zeros((N_t, M))
        want[u, (alpha * M // 2) % M] = 1.0
        assert np.abs(folded - want).max() <= 1e-12


# -------------------------------------------------------------- full chain

def _check_chain(kind, H, rng, pf, N_d, subcarriers):
    # noiseless burst: on every interior instant the receiver output is
    # sum_{u', m', dn} R[u', m', dn] s[u', m', n - dn]
    M, alpha = pf.M, 1
    s = rng.standard_normal((H.shape[1], M, N_d))
    y = apply_channel(modulate(s, pf), H)
    scheme = _scheme(kind, freq_csi(H, M), pf, alpha, None)
    shat = _receive(scheme, y, pf, N_d)
    for m in subcarriers:
        for u in range(H.shape[1]):
            c, = _measure_many(H, [scheme], pf, m, u)
            n = np.arange(c.dn.max(), N_d + c.dn.min())
            assert n.size >= 8
            pred = np.einsum("vmj,vmjn->n", c.R,
                             s[:, :, n[None, :] - c.dn[:, None]])
            got = shat[u, m, n]
            assert np.abs(got - pred).max() <= 1e-12 * np.abs(got).max()
    return y


@pytest.mark.parametrize("kind", ["single_tap", "highrate", "two_stage"])
def test_coefficients_reproduce_the_chain(kind, eva, peda, pf16):
    rng = make_rng(7)
    H = draw_channel([eva, peda], 6, rng)
    _check_chain(kind, H, rng, pf16, 48, range(16))


@pytest.mark.parametrize("kind", ["single_tap", "highrate", "two_stage"])
def test_coefficients_reproduce_a_multi_block_chain(kind, eva, peda, pf64):
    # a burst of over 2048 samples, so the channel and the high-rate filter
    # (results of at least twice the 1024-sample block) run as several
    # overlap-add blocks
    rng = make_rng(9)
    H = draw_channel([eva, peda], 4, rng)
    y = _check_chain(kind, H, rng, pf64, 64, (0, 32, 63))
    assert y.shape[1] >= 2048


# ----------------------------------------------------------- determinism

_SCHEMES = [SchemeSpec("single_tap"), SchemeSpec("two_stage"),
            SchemeSpec("highrate")]


def _small_cfg():
    return SimConfig(M=16, N_t=2, N_r=4, trials=5, master_seed=11,
                     criterion="mmse", gamma_db=15.0)


def test_sweep_does_not_depend_on_thread_count():
    cfg = _small_cfg()
    one = sweep(cfg, "N_r", [4, 6], _SCHEMES, csi_mode="estimated", threads=1)
    two = sweep(cfg, "N_r", [4, 6], _SCHEMES, csi_mode="estimated", threads=2)
    assert one.reports == two.reports


def test_perfect_zf_sweep_does_not_depend_on_thread_count():
    # every scheme of a trial reads the stage-1 solve held for its CSI
    cfg = replace(_small_cfg(), criterion="zf")
    one = sweep(cfg, "N_r", [4, 6], _SCHEMES, threads=1)
    two = sweep(cfg, "N_r", [4, 6], _SCHEMES, threads=2)
    assert one.reports == two.reports


def test_trial_coefficients_do_not_depend_on_trial_count():
    cfg = _small_cfg()
    specs = _specs(cfg, _SCHEMES)
    pf = design_prototype(cfg.kappa, cfg.M)
    few = _collect(replace(cfg, trials=2), specs, "estimated", 1, pf)
    many = _collect(cfg, specs, "estimated", 2, pf)
    for sp in specs:
        # desired power, interference power and noise gain of each trial
        assert few[sp].shape == (3, 2)
        assert np.array_equal(few[sp], many[sp][:, :2])


def test_one_trial_holding_the_whole_denominator_has_an_unbounded_error():
    # its leave-one-out denominator is 0; no divide-by-zero warning, no NaN
    est, se = _jackknife_ratio_db([1.0, 1.0, 1.0], [0.0, 0.0, 1.0])
    assert est == pytest.approx(10 * np.log10(3.0)) and se == np.inf
    assert _jackknife_ratio_db([0.0, 0.0, 2.0], [1.0, 1.0, 1.0])[1] == np.inf
    assert _jackknife_ratio_db([1.0, 2.0], [1.0, 3.0])[1] < np.inf


def test_no_interference_reads_inf_sir_with_zero_error(tmp_path):
    assert _jackknife_ratio_db([1.0, 2.0, 3.0], [0.0] * 3) == (np.inf, 0.0)
    # one flat tap on the orthogonal kappa=2 bank: every trial's
    # interference is exactly 0
    pdp = tmp_path / "flat.pdp"
    pdp.write_text("0 0\n", encoding="utf-8")
    cfg = SimConfig(M=64, kappa=2, N_t=1, N_r=4, trials=20,
                    channels=(str(pdp),), gamma_db=300)
    res = sweep(cfg, "N_r", [4, 8], [SchemeSpec("highrate")])
    for rep in res.reports.values():
        assert (rep.sir_db, rep.sir_se_db) == (np.inf, 0.0)
        assert np.isfinite(rep.sinr_db) and np.isfinite(rep.sinr_se_db)


def test_sweep_builds_one_transmultiplexer_table(monkeypatch):
    # one prototype per sweep, so every point and trial reads one table
    calls = []
    build = theory._transmux
    monkeypatch.setattr(theory, "_transmux",
                        lambda *args: calls.append(args[1]) or build(*args))
    cfg = replace(_small_cfg(), trials=2)
    sweep(cfg, "N_r", [4, 5, 6], _SCHEMES)
    assert len(calls) == 1


@pytest.mark.parametrize("criterion, axis, points, csi_mode", [
    ("zf", "gamma_db", [0.0, 20.0], "perfect"),      # trials shared
    ("mmse", "gamma_db", [0.0, 20.0], "perfect"),    # trials per point
    ("mmse", "Lg_prime", [3, 5], "estimated"),       # trials shared
])
def test_sweep_points_equal_single_point_sweeps(criterion, axis, points,
                                                csi_mode):
    cfg = replace(_small_cfg(), criterion=criterion, trials=3)
    res = sweep(cfg, axis, points, _SCHEMES, csi_mode=csi_mode)
    for pt in points:
        alone = sweep(cfg, axis, [pt], _SCHEMES, csi_mode=csi_mode)
        point_cfg = replace(cfg, gamma_db=pt) if axis == "gamma_db" else cfg
        for lab in res.labels:
            assert res.get(pt, lab) == alone.get(pt, lab)
            assert res.get(pt, lab).config_fingerprint == fingerprint(point_cfg)


@pytest.mark.parametrize("threads", [0, -4])
def test_sweep_rejects_threads_below_one(threads):
    with pytest.raises(ConfigError, match="threads"):
        sweep(_small_cfg(), "N_r", [4], _SCHEMES, threads=threads)


# ---------------------------------------------------------------- run_mse

def test_unknown_scheme_kind_is_a_config_error():
    cfg = _small_cfg()
    with pytest.raises(ConfigError, match="'highrat'"):
        run_mse(cfg, SchemeSpec("highrat"))
    with pytest.raises(ConfigError, match="'singletap'"):
        sweep(cfg, "N_r", [4], [SchemeSpec("singletap")])


def test_string_scheme_in_sweep_is_a_config_error():
    with pytest.raises(ConfigError, match="SchemeSpec"):
        sweep(_small_cfg(), "N_r", [4], ["single_tap"])


def test_string_scheme_in_run_mse_is_a_config_error():
    with pytest.raises(ConfigError, match="SchemeSpec"):
        run_mse(_small_cfg(), "two_stage")


def test_sweep_rejects_an_unknown_csi_mode():
    with pytest.raises(ConfigError, match="'estimatd'"):
        sweep(_small_cfg(), "N_r", [4], [SchemeSpec("single_tap")],
              csi_mode="estimatd")


def test_run_mse_rejects_bad_input():
    cfg = replace(_small_cfg(), trials=1)
    with pytest.raises(ConfigError, match="csi_mode"):
        run_mse(cfg, SchemeSpec("single_tap"), csi_mode="ideal")
    with pytest.raises(ConfigError, match="N_d=16"):
        run_mse(replace(cfg, N_d=4 * cfg.kappa), SchemeSpec("single_tap"))
    run_mse(replace(cfg, N_d=4 * cfg.kappa + 2), SchemeSpec("single_tap"))


@pytest.mark.parametrize("scheme", _SCHEMES, ids=lambda sp: sp.kind)
def test_run_mse_seed_is_the_master_seed(scheme):
    cfg = replace(_small_cfg(), trials=2, N_d=24)
    got = run_mse(replace(cfg, master_seed=5), scheme, csi_mode="estimated")
    assert got == run_mse(replace(cfg, master_seed=5), scheme,
                          csi_mode="estimated")
    assert got != run_mse(cfg, scheme, csi_mode="estimated")


@pytest.mark.parametrize("csi_mode", ["perfect", "estimated"])
def test_run_mse_does_not_depend_on_thread_count(csi_mode):
    cfg = replace(_small_cfg(), trials=3, N_d=24)
    spec = SchemeSpec("two_stage")
    assert (run_mse(cfg, spec, csi_mode=csi_mode, threads=2)
            == run_mse(cfg, spec, csi_mode=csi_mode, threads=1))


@pytest.mark.parametrize("threads", [0, -4])
def test_run_mse_rejects_threads_below_one(threads):
    with pytest.raises(ConfigError, match="threads"):
        run_mse(_small_cfg(), SchemeSpec("single_tap"), threads=threads)


def _stdout_on_one_and_two_blas_threads(code):
    """The words `code` prints in a fresh interpreter on 1 and 2 BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.split())
    return outs


def test_run_mse_does_not_depend_on_blas_threads():
    # the batched products give the same bits on one and two BLAS threads
    outs = _stdout_on_one_and_two_blas_threads(
        "from fbmclink.config import SimConfig\n"
        "from fbmclink.metrics import SchemeSpec, run_mse\n"
        "cfg = SimConfig(M=16, N_t=2, N_r=4, trials=2, master_seed=11,\n"
        "                criterion='mmse', gamma_db=15.0, N_d=24)\n"
        "for kind in ('single_tap', 'two_stage', 'highrate'):\n"
        "    print(run_mse(cfg, SchemeSpec(kind), csi_mode='estimated').hex())\n")
    assert len(outs[0]) == 3
    assert outs[0] == outs[1]


def test_sweep_does_not_depend_on_blas_threads():
    # the coefficient path's batched products (the equalized channel's
    # per-bin matmul among them) give the same bits on one and two threads
    outs = _stdout_on_one_and_two_blas_threads(
        "from fbmclink.config import SimConfig\n"
        "from fbmclink.metrics import SchemeSpec, sweep\n"
        "cfg = SimConfig(M=16, N_t=2, N_r=4, trials=2, master_seed=11,\n"
        "                criterion='mmse', gamma_db=15.0)\n"
        "res = sweep(cfg, 'N_r', [4, 16], [SchemeSpec(k) for k in\n"
        "            ('single_tap', 'two_stage', 'highrate')], 'estimated')\n"
        "for key in sorted(res.reports):\n"
        "    print(res.reports[key].sinr_db.hex())\n")
    assert len(outs[0]) == 6
    assert outs[0] == outs[1]
