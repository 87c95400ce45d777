"""Coefficient measurement against a brute-force oracle and against the full
transmit/channel/receive chain that run_mse runs; sweeps independent of
thread count; run_mse's input checks and seeding."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import fftconvolve

from fbmclink.channel import apply_channel, draw_channel, freq_csi, make_rng
from fbmclink.config import SimConfig
from fbmclink.errors import ConfigError
from fbmclink.fbmc import OqamGrid, design_prototype, modulate
from fbmclink.metrics import (SchemeSpec, _collect, _kernel, _measure_many,
                              _receive, _specs, run_mse, sweep)
from fbmclink.stage1 import alpha_bound, design_highrate, single_tap
from fbmclink.stage2 import DecimationPlan, build_lowrate_receiver


def _oracle_measure(H, scheme, pf, m, u):
    """Brute force: every antenna's channel through the whole M x L_f filter
    matrix, then through the scheme's kernel at the full rate, keeping the
    lattice columns (dn + alpha) M/2 + L_f - 1. Returns (R, dn, noise_gain).
    """
    M, L_f = pf.M, pf.L_f
    K, a = _kernel(scheme, pf, m, u)
    t = np.arange(L_f)
    Fmat = pf.coeffs[None, :] * np.exp(
        2j * np.pi * np.arange(M)[:, None] * (t[None, :] - pf.centre) / M)
    C = 0
    for r in range(H.N_r):
        A_r = fftconvolve(Fmat[None, :, :], H.taps[r][:, None, :], axes=2)
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
    assert alpha <= alpha_bound(H.L_h, M, M)
    edges = [0, M // 2, M - 1]
    scheme = _scheme(kind, freq_csi(H, M), pf, alpha, edges)
    for m in edges:
        for u in range(H.N_t):
            got, = _measure_many(H, [scheme], pf, m, u)
            want = _oracle_measure(H, scheme, pf, m, u)
            _assert_matches(got, want)
            with pytest.raises(AssertionError):
                _assert_matches(replace(got, R=got.R * (1 + 1e-9)), want)


# -------------------------------------------------------------- full chain

@pytest.mark.parametrize("kind", ["single_tap", "highrate", "two_stage"])
def test_coefficients_reproduce_the_chain(kind, eva, peda, pf16):
    # noiseless burst: on every interior instant the receiver output is
    # sum_{u', m', dn} R[u', m', dn] s[u', m', n - dn]
    M, N_d, alpha = 16, 48, 1
    rng = make_rng(7)
    H = draw_channel([eva, peda], 6, rng)
    s = rng.standard_normal((H.N_t, M, N_d))
    y = apply_channel(modulate(OqamGrid(s, 0.5), pf16), H)
    scheme = _scheme(kind, freq_csi(H, M), pf16, alpha, None)
    shat = _receive(scheme, y, pf16, N_d)
    for m in range(M):
        for u in range(H.N_t):
            c, = _measure_many(H, [scheme], pf16, m, u)
            n = np.arange(c.dn.max(), N_d + c.dn.min())
            assert n.size >= 8
            pred = np.einsum("vmj,vmjn->n", c.R,
                             s[:, :, n[None, :] - c.dn[:, None]])
            got = shat[u, m, n]
            assert np.abs(got - pred).max() <= 1e-12 * np.abs(got).max()


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


def test_trial_coefficients_do_not_depend_on_trial_count():
    cfg = _small_cfg()
    specs = _specs(cfg, _SCHEMES)
    few, _ = _collect(replace(cfg, trials=2), specs, "estimated", 1)
    many, _ = _collect(cfg, specs, "estimated", 2)
    for sp in specs:
        for a, b in zip(few[sp], many[sp][:2]):
            assert np.array_equal(a.R, b.R) and np.array_equal(a.dn, b.dn)
            assert a.noise_gain == b.noise_gain


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
    got = run_mse(cfg, scheme, csi_mode="estimated", seed=5)
    assert got == run_mse(replace(cfg, master_seed=5), scheme,
                          csi_mode="estimated")
    assert got != run_mse(cfg, scheme, csi_mode="estimated")
