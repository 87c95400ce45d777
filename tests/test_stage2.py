"""Two-step decimation, reference band constructions, LS fits, polyphase."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fbmclink.channel import (ChannelRealization, draw_channel, freq_csi,
                              make_rng)
from fbmclink.errors import ConfigError
from fbmclink.fbmc import design_prototype, modulate, qam_to_oqam
from fbmclink.stage1 import design_highrate, single_tap
from fbmclink.stage2 import (DecimationPlan, LowRateEqualizerBank,
                             build_lowrate_receiver, decimate,
                             equalize_lowrate, ls_fit, method1_bandpass,
                             method2_periodize, polyphase_split,
                             recover_symbols)


# ---------------------------------------------------------------- plan

def test_decimation_plan():
    p = DecimationPlan(64, 16)
    assert (p.M, p.D1, p.D2) == (64, 16, 2)
    assert DecimationPlan(64, 32).D2 == 1
    assert p == DecimationPlan(64, 16, 2)
    assert p != DecimationPlan(64, 32)
    assert repr(p) == "DecimationPlan(M=64, D1=16, D2=2)"


@pytest.mark.parametrize("D1", [0, 3, 48, 64, 12])
def test_decimation_plan_rejects(D1):
    with pytest.raises(ConfigError, match="D1"):
        DecimationPlan(64, D1)


def test_decimation_plan_bad_d2():
    with pytest.raises(ConfigError, match="!= M/2"):
        DecimationPlan(64, 16, 4)


def test_decimate():
    x = np.arange(10)
    np.testing.assert_array_equal(decimate(x, 3), [0, 3, 6, 9])
    np.testing.assert_array_equal(decimate(x, 3, phase=2), [2, 5, 8])
    np.testing.assert_array_equal(decimate(x, 1), x)
    with pytest.raises(ValueError, match="phase"):
        decimate(x, 3, phase=3)
    with pytest.raises(ValueError, match="D must be"):
        decimate(x, 0)


def test_noble_identity():
    # (h conv x) decimated by D == sum of branch convolutions at the low rate
    rng = make_rng(6)
    h = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    D = 3
    lhs = decimate(np.convolve(h, x), D)
    parts = [np.convolve(h[l::D],
                         decimate(np.concatenate([np.zeros(l), x]), D))
             for l in range(D)]
    n = min(len(lhs), *(len(p) for p in parts))
    rhs = sum(p[:n] for p in parts)
    np.testing.assert_allclose(lhs[:n], rhs, atol=1e-12)


# ---------------------------------------------------------------- method 1/2

def test_method1_band_response():
    # impulse response of the projection kernel: ~1 in band, ~0 outside
    M, m = 8, 3
    kern = method1_bandpass(np.array([1.0]), m, M)
    x = np.arange(kern.size) - (kern.size - 1) // 2
    resp = lambda w: abs(np.sum(kern * np.exp(-1j * w * x)))
    for off in (0.0, 0.5, -0.5):
        assert abs(resp(2 * np.pi * (m + off) / M) - 1.0) < 1e-3
    for off in (1.5, 2.0, -2.5):
        assert resp(2 * np.pi * (m + off) / M) < 1e-3
    assert abs(resp(2 * np.pi * (m + 1) / M) - 0.5) < 1e-3  # band edge
    with pytest.raises(ValueError, match="odd"):
        method1_bandpass(np.ones(4), m, M, bp_len=10)


def test_method1_length_and_alignment():
    g = np.ones(5)
    out = method1_bandpass(g, 0, 8, bp_len=33)
    assert out.size == 5 + 33 - 1
    # DC subcarrier, low-pass kernel: centre of the output tracks g
    assert abs(out[16 + 2]) > abs(out[0])


def test_method2_periodization():
    rng = make_rng(1)
    M, m = 8, 3
    g = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    out = method2_periodize(g, m, M)
    assert out.size == 32
    G, O = np.fft.fft(g), np.fft.fft(out)
    bpm = 32 // M
    band = ((m - 1) * bpm + np.arange(2 * bpm)) % 32
    for p in range(M // 2):
        np.testing.assert_allclose(O[(band + p * 2 * bpm) % 32], G[band],
                                   atol=1e-12)
    # non-multiple length gets zero-padded up to the next multiple of M
    assert method2_periodize(np.ones(10), 0, 8).size == 16


@pytest.mark.parametrize("m", [0, 3, 7])
def test_methods_agree_after_decimation(m):
    # on the DFT grid both constructions give the same D1-decimated filter
    rng = make_rng(2)
    M, D1 = 8, 4
    g = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    N, bpm = 32, 32 // M
    mask = np.zeros(N, bool)
    mask[((m - 1) * bpm + np.arange(2 * bpm)) % N] = True
    g_bp = np.fft.ifft(np.where(mask, np.fft.fft(g), 0))
    gbar1 = D1 * decimate(g_bp, D1)
    gbar2 = decimate(method2_periodize(g, m, M), D1)
    np.testing.assert_allclose(gbar1, gbar2, atol=1e-12)


# ---------------------------------------------------------------- LS fit

def test_ls_fit_normal_equations(pf16):
    rng = make_rng(3)
    plan = DecimationPlan(16, 4)
    b = np.conj(pf16.subcarrier_filter(5)[::-1])
    for Lgp in (1, 3, 5):
        g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        gbar = ls_fit(g, pf16, 5, plan, Lgp)
        assert gbar.size == Lgp
        # residual of the fitted sequence is orthogonal to the regressors
        e = np.convolve(g, b)[plan.D1 - 1::plan.D1]
        bq = np.conj(pf16.subcarrier_filter(5)[(pf16.L_f // plan.D1 - 1
                                                - np.arange(pf16.L_f // plan.D1))
                                               * plan.D1])
        fit = np.convolve(bq, gbar)
        n = min(e.size, fit.size)
        r = np.zeros(max(e.size, fit.size), dtype=complex)
        r[:e.size] += e
        r[:fit.size] -= fit
        # project the residual back onto every shifted regressor
        for k in range(gbar.size):
            col = np.zeros_like(r)
            col[k:k + bq.size] = bq
            assert abs(np.vdot(col, r)) <= 1e-9 * max(np.linalg.norm(e), 1e-30)


def test_ls_fit_residual_monotone(pf16):
    rng = make_rng(9)
    plan = DecimationPlan(16, 4)
    g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    b = np.conj(pf16.subcarrier_filter(2)[::-1])
    e = np.convolve(g, b)[plan.D1 - 1::plan.D1]
    prev = np.inf
    for Lgp in range(1, 9):
        gbar = ls_fit(g, pf16, 2, plan, Lgp)
        bq = _dec_analysis(pf16, 2, plan.D1)
        fit = np.convolve(bq, gbar)
        r = np.zeros(max(e.size, fit.size), dtype=complex)
        r[:e.size] += e
        r[:fit.size] -= fit
        res = np.linalg.norm(r)
        assert res <= prev + 1e-12
        prev = res


def _dec_analysis(pf, m, D1):
    f_m = pf.subcarrier_filter(m)
    N_f = pf.L_f // D1
    return np.conj(f_m[(N_f - 1 - np.arange(N_f)) * D1])


def test_ls_fit_recovers_upsampled_filter(pf16):
    # a g that lives on the D1 grid is matched exactly
    rng = make_rng(4)
    plan = DecimationPlan(16, 4)
    truth = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    g = np.zeros(4 * 4 + 1, dtype=complex)
    g[::4] = truth
    gbar = ls_fit(g, pf16, 3, plan, 5)
    np.testing.assert_allclose(gbar, truth, atol=1e-12)


def test_ls_fit_errors(pf16):
    with pytest.raises(ConfigError, match="Lg_prime"):
        ls_fit(np.ones(4), pf16, 0, DecimationPlan(16, 4), 0)
    with pytest.raises(ConfigError, match="does not divide"):
        ls_fit(np.ones(4), pf16, 0, DecimationPlan(12, 6), 5)


def _oracle_fit(g, pf, m, D1, Lgp):
    """Brute-force LS fit of one stream: subcarrier m's own Toeplitz matrix,
    a full convolution, truncated or zero-padded to the fit's rows."""
    b = _dec_analysis(pf, m, D1)
    F = toeplitz(np.concatenate([b, np.zeros(Lgp - 1)]),
                 np.concatenate([b[:1], np.zeros(Lgp - 1)]))
    e_full = np.convolve(g, np.conj(pf.subcarrier_filter(m)[::-1]))[D1 - 1::D1]
    e = np.zeros(F.shape[0], dtype=complex)
    n = min(e.size, e_full.size)
    e[:n] = e_full[:n]
    return np.linalg.lstsq(F, e, rcond=None)[0]


def _assert_rel_close(got, want, rel=1e-10):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("M, D1", [(16, 8), (16, 2), (64, 32), (64, 8)])
@pytest.mark.parametrize("Lgp", [1, 3, 5, 9])
def test_fit_matches_brute_force_oracle(M, D1, Lgp, eva):
    # stage-1 taps of length M and random streams, each both shorter and
    # longer than D1*Lgp for some Lgp
    pf = design_prototype(4, M)
    plan = DecimationPlan(M, D1)
    csi = freq_csi(draw_channel([eva, eva], 3, 21), M)
    taps = design_highrate(csi, L_g=M).taps
    edges = [0, M // 2, M - 1]
    subset = [M - 1, 3, M // 2]
    full = build_lowrate_receiver(csi, pf, plan, Lg_prime=Lgp, L_g=M)
    sub = build_lowrate_receiver(csi, pf, plan, Lg_prime=Lgp, L_g=M,
                                 subcarriers=subset)
    for bank, ms in ((full, edges), (sub, subset)):
        for m in ms:
            want = np.array([[_oracle_fit(taps[u, r], pf, m, D1, Lgp)
                              for r in range(3)] for u in range(2)])
            _assert_rel_close(bank.taps_for(m), want)
    rng = make_rng(Lgp)
    for L in (3, D1 * Lgp + 7):
        g = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        for m in edges + [3]:
            _assert_rel_close(ls_fit(g, pf, m, plan, Lgp),
                              _oracle_fit(g, pf, m, D1, Lgp))


def test_bank_rejects_bad_lg_prime(eva, pf16):
    csi = freq_csi(draw_channel(eva, 2, 1), 16)
    with pytest.raises(ConfigError, match="Lg_prime"):
        build_lowrate_receiver(csi, pf16, DecimationPlan(16, 4), Lg_prime=0)


# ---------------------------------------------------------------- polyphase

def test_polyphase_split_round_trip():
    g = np.arange(7.0)
    br = polyphase_split(g, 3)
    assert [list(b) for b in br] == [[0, 3, 6], [1, 4], [2, 5]]
    rebuilt = np.zeros(7)
    for l, b in enumerate(br):
        rebuilt[l::3] = b
    np.testing.assert_array_equal(rebuilt, g)


def test_bank_branches_match_split(eva, pf32):
    csi = freq_csi(draw_channel(eva, 4, 7), 32)
    bank = build_lowrate_receiver(csi, pf32, DecimationPlan(32, 8),
                                  Lg_prime=5)
    assert bank.Lg_prime == 5
    assert bank.gbar.shape == (32, 1, 4, 5)
    for l, br in enumerate(bank.branches):
        np.testing.assert_array_equal(br, bank.gbar[..., l::bank.plan.D2])
    np.testing.assert_array_equal(bank.taps_for(11), bank.gbar[11])


def test_bank_subcarrier_subset(eva, pf32):
    csi = freq_csi(draw_channel(eva, 4, 7), 32)
    full = build_lowrate_receiver(csi, pf32, DecimationPlan(32, 8), Lg_prime=4)
    sub = build_lowrate_receiver(csi, pf32, DecimationPlan(32, 8), Lg_prime=4,
                                 subcarriers=[3, 17])
    assert sub.gbar.shape[0] == 2
    np.testing.assert_allclose(sub.taps_for(17), full.taps_for(17), atol=1e-13)


def test_flat_channel_alpha0_reduces_to_single_tap():
    # with a one-tap channel and no delay the LS fit returns the bin combiner
    rng = make_rng(8)
    taps = rng.standard_normal((2, 1, 1)) + 1j * rng.standard_normal((2, 1, 1))
    csi = freq_csi(ChannelRealization(taps, [None]), 16)
    pf = design_prototype(4, 16)
    bank = build_lowrate_receiver(csi, pf, DecimationPlan(16, 8), alpha=0,
                                  Lg_prime=3)
    st = single_tap(csi)
    np.testing.assert_allclose(bank.gbar[..., 0], st.W, atol=1e-12)
    np.testing.assert_allclose(bank.gbar[..., 1:], 0, atol=1e-12)


# ---------------------------------------------------------------- receiver

def test_lowrate_loopback(pf16):
    rng = make_rng(0)
    N_d = 12
    qam = ((rng.integers(0, 2, (16, N_d // 2)) * 2 - 1)
           + 1j * (rng.integers(0, 2, (16, N_d // 2)) * 2 - 1)) * np.sqrt(0.25)
    grid = qam_to_oqam(qam, 0.5)
    s = modulate(grid, pf16)
    csi = freq_csi(ChannelRealization(np.ones((1, 1, 1)), [None]), 16)
    bank = build_lowrate_receiver(csi, pf16, DecimationPlan(16, 4), alpha=1,
                                  Lg_prime=5)
    out = equalize_lowrate(s, bank, pf16)
    est = recover_symbols(out, 1, N_d)
    # residual sits at the intrinsic filter-bank floor, way below symbol scale
    assert np.abs(est[0] - grid.symbols[0]).max() < 5e-3


def test_equalize_lowrate_sums_antennas(pf16, eva):
    # the N_r-antenna receiver is the sum of single-antenna receivers
    csi = freq_csi(draw_channel([eva, eva], 4, 3), 16)
    plan = DecimationPlan(16, 4)
    bank = build_lowrate_receiver(csi, pf16, plan, Lg_prime=5,
                                  subcarriers=[0, 7, 15])
    rng = make_rng(13)
    y = rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
    out = equalize_lowrate(y, bank, pf16)
    assert out.shape == (2, 3, (300 - 1) // 8 + 1)
    parts = [equalize_lowrate(
        y[r:r + 1], LowRateEqualizerBank(bank.gbar[:, :, r:r + 1],
                                         bank.subcarriers, plan, 1, "zf"),
        pf16) for r in range(4)]
    np.testing.assert_allclose(out, sum(parts), rtol=0, atol=1e-12)


def test_equalize_lowrate_errors(pf16, eva):
    csi = freq_csi(draw_channel(eva, 2, 1), 16)
    bank = build_lowrate_receiver(csi, pf16, DecimationPlan(16, 4))
    with pytest.raises(ValueError, match="antenna streams"):
        equalize_lowrate(np.zeros((3, 200)), bank, pf16)
    with pytest.raises(ValueError, match="too short"):
        equalize_lowrate(np.zeros((2, 10)), bank, pf16)


def test_recover_symbols_mapping():
    rng = make_rng(5)
    M, N_d, alpha = 8, 6, 1
    a = rng.standard_normal((M, N_d))
    m = np.arange(M)[:, None]
    n = np.arange(N_d)[None, :]
    dgrid = np.zeros((M, N_d + alpha + 2), dtype=complex)
    dgrid[:, alpha:alpha + N_d] = a * np.exp(1j * np.pi * (m + n) / 2)
    np.testing.assert_allclose(recover_symbols(dgrid, alpha, N_d), a,
                               atol=1e-14)


def test_recover_symbols_phases_are_exact():
    # on a unit grid the output is Re(j^{-(m+n)}) (or Im for a j grid): 0, +-1
    M, N_d = 64, 9
    k = np.arange(M)[:, None] + np.arange(N_d)[None, :]
    ones = np.ones((M, N_d + 1), dtype=complex)
    np.testing.assert_array_equal(recover_symbols(ones, 1, N_d),
                                  np.array([1.0, 0.0, -1.0, 0.0])[k % 4])
    np.testing.assert_array_equal(recover_symbols(1j * ones, 0, N_d),
                                  np.array([0.0, 1.0, 0.0, -1.0])[k % 4])
