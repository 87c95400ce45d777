"""Two-step decimation, reference band constructions, LS fits, polyphase.

Decimation, the two reference band constructions of g-bar and the polyphase
split are oracles defined here; the receiver itself uses `stage2._fit`.
"""

import contextlib
import gc
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fbmclink import stage2
from fbmclink.channel import draw_channel, freq_csi, make_rng
from fbmclink.errors import ConfigError
from fbmclink.fbmc import design_prototype, modulate, qam_to_oqam
from fbmclink.stage1 import design_highrate, single_tap
from fbmclink.stage2 import (DecimationPlan, LowRateEqualizerBank, _fit,
                             build_lowrate_receiver, equalize_lowrate,
                             recover_symbols)


def decimate(x, D, phase=0):
    """Keep every D-th sample starting at `phase`."""
    if D < 1:
        raise ValueError("D must be >= 1")
    if not 0 <= phase < D:
        raise ValueError(f"phase must be in [0, {D}), got {phase}")
    return np.asarray(x)[phase::D]


def method1_bandpass(g, m, M, bp_len=None):
    """Reference Method 1: band-pass projection of g onto subcarrier m's band.

    Convolves g with a truncated, raised-cosine-windowed kernel
    (2/M) sinc(2l/M) e^{j 2 pi m l / M}. Returns the full convolution of length
    len(g) + bp_len - 1; the kernel centre sits at offset (bp_len-1)/2, so
    output[i + (bp_len-1)/2] aligns with g[i].
    """
    if bp_len is None:
        bp_len = 16 * M + 1
    if bp_len % 2 == 0:
        raise ValueError("bp_len must be odd")
    c = (bp_len - 1) // 2
    x = np.arange(bp_len) - c
    win = 0.5 * (1.0 + np.cos(np.pi * x / (c + 1)))
    kern = (2.0 / M) * np.sinc(2.0 * x / M) * np.exp(2j * np.pi * m * x / M) * win
    return np.convolve(np.asarray(g, dtype=complex), kern)


def method2_periodize(g, m, M):
    """Reference Method 2: replicate the in-band spectrum with period 4 pi / M.

    The DFT bins in [2 pi (m-1)/M, 2 pi (m+1)/M) are copied onto the whole
    circle with step 4 pi / M. Input is zero-padded to a multiple of M so the
    band boundaries land on bins; output has the padded length.
    """
    g = np.asarray(g, dtype=complex)
    N = ((g.size + M - 1) // M) * M
    G = np.fft.fft(g, n=N)
    bpm = N // M                     # bins per subcarrier spacing
    out = np.zeros(N, dtype=complex)
    start = (m - 1) * bpm
    src = (start + np.arange(2 * bpm)) % N
    for p in range(M // 2):
        dst = (start + np.arange(2 * bpm) + p * 2 * bpm) % N
        out[dst] = G[src]
    return np.fft.ifft(out)


def ls_fit(g, pf, m, plan, Lg_prime):
    """The bank's least-squares fit of one stream g at one subcarrier m."""
    return _fit(g, pf, [m], plan.D1, Lg_prime)[0]


def polyphase_split(gbar, D2):
    """Branch decomposition G_l[n] = g-bar[..., D2 n + l], l = 0..D2-1."""
    gbar = np.asarray(gbar)
    return [gbar[..., l::D2] for l in range(D2)]


# ---------------------------------------------------------------- plan

def test_decimation_plan():
    p = DecimationPlan(64, 16)
    assert (p.M, p.D1, p.D2) == (64, 16, 2)
    assert DecimationPlan(64, 32).D2 == 1
    assert p == DecimationPlan(64, 16)
    assert p != DecimationPlan(64, 32)
    assert repr(p) == "DecimationPlan(M=64, D1=16, D2=2)"


@pytest.mark.parametrize("D1", [0, 3, 48, 64, 12])
def test_decimation_plan_rejects(D1):
    with pytest.raises(ConfigError, match="D1"):
        DecimationPlan(64, D1)


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


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _assert_rel_close(got, want, rel=1e-10):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def _bumped(x):
    """x with its largest entry moved by 1e-9 of its size."""
    x = np.array(x)
    i = np.unravel_index(np.argmax(np.abs(x)), x.shape)
    x[i] += 1e-9 * abs(x[i])
    return x


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


@pytest.mark.parametrize("D1, N_f", [(8, 8), (4, 16), (2, 32)])
@pytest.mark.parametrize("Lgp", [1, 5, 9])
def test_fit_regression_matrix_is_scipy_toeplitz(D1, N_f, Lgp, monkeypatch):
    # the F0 that `_fit` pseudo-inverts, exactly scipy's Toeplitz matrix of
    # the D1-decimated window; a fresh prototype, since its map is held
    pf = design_prototype(4, 16)
    seen = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(stage2.np.linalg, "pinv",
                        lambda a: seen.append(a) or pinv(a))
    _fit(np.ones(7), pf, [0], D1, Lgp)
    p = pf.coeffs[(N_f - 1 - np.arange(N_f)) * D1]
    want = toeplitz(np.concatenate([p, np.zeros(Lgp - 1)]), np.zeros(Lgp))
    assert len(seen) == 1
    assert seen[0].dtype == want.dtype
    assert np.array_equal(seen[0], want)


def test_one_subcarrier_bank_is_a_row_of_the_all_m_bank(eva, monkeypatch):
    # the fit reads the stage-1 taps by one matrix product, not through the
    # analysis bank, and the banks after the first read its held map
    def no_afb(*args, **kwargs):
        raise AssertionError("the fit called _afb")
    monkeypatch.setattr(stage2, "_afb", no_afb)
    pinvs = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(stage2.np.linalg, "pinv",
                        lambda a: pinvs.append(a.shape) or pinv(a))
    M = 64
    pf = design_prototype(4, M)
    plan = DecimationPlan(M, 16)
    csi = freq_csi(draw_channel([eva, eva], 3, 8), M)
    full = build_lowrate_receiver(csi, pf, plan, Lg_prime=5)
    for m in (0, M // 2, M - 1):
        one = build_lowrate_receiver(csi, pf, plan, Lg_prime=5,
                                     subcarriers=[m])
        assert one.gbar.shape == (1, 2, 3, 5)
        _assert_rel_close(one.gbar[0], full.taps_for(m), rel=1e-12)
        assert _rel_err(_bumped(one.gbar[0]), full.taps_for(m)) > 1e-12
    assert len(pinvs) == 1 and len(stage2._MAPS[pf]) == 1


def test_held_fit_map_gives_the_fresh_bits(eva):
    M, D1, Lgp = 32, 8, 5
    pf = design_prototype(4, M)
    taps = design_highrate(freq_csi(draw_channel([eva, eva], 3, 4), M)).taps
    ms = [0, 5, M - 1]
    first = _fit(taps, pf, ms, D1, Lgp)
    (Q,) = stage2._MAPS[pf].values()
    assert Q.shape == (M, Lgp) and Q.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        Q[0, 0] = 1.0
    again = _fit(taps, pf, ms, D1, Lgp)
    fresh = _fit(taps, design_prototype(4, M), ms, D1, Lgp)
    assert np.array_equal(again, first) and np.array_equal(fresh, first)
    held = stage2._MAPS[pf]
    del pf
    gc.collect()
    assert all(v is not held for v in stage2._MAPS.values())


@pytest.mark.parametrize("kappa", [2, 3, 4])
@pytest.mark.parametrize("L_g", [8, 32, 29])
def test_fit_of_any_stage1_length_matches_oracle(kappa, L_g, eva):
    # M=16: L_g = M/2 (below the sampling count, so it warns), 2M, and a
    # length that is not a multiple of M
    M, D1, Lgp = 16, 4, 5
    pf = design_prototype(kappa, M)
    plan = DecimationPlan(M, D1)
    csi = freq_csi(draw_channel([eva, eva], 3, 30 + kappa), M)
    warns = (pytest.warns(UserWarning, match="minimum sampling count")
             if L_g < M else contextlib.nullcontext())
    with warns:
        taps = design_highrate(csi, L_g=L_g).taps
        bank = build_lowrate_receiver(csi, pf, plan, Lg_prime=Lgp, L_g=L_g)
    for m in (0, 5, M - 1):
        want = np.array([[_oracle_fit(taps[u, r], pf, m, D1, Lgp)
                          for r in range(3)] for u in range(2)])
        _assert_rel_close(bank.taps_for(m), want)
        assert _rel_err(_bumped(bank.taps_for(m)), want) > 1e-10


def test_bank_rejects_bad_lg_prime(eva, pf16):
    csi = freq_csi(draw_channel([eva], 2, 1), 16)
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
    csi = freq_csi(draw_channel([eva], 4, 7), 32)
    bank = build_lowrate_receiver(csi, pf32, DecimationPlan(32, 8),
                                  Lg_prime=5)
    assert bank.gbar.shape == (32, 1, 4, 5)
    rebuilt = np.zeros_like(bank.gbar)
    for l, br in enumerate(polyphase_split(bank.gbar, bank.plan.D2)):
        rebuilt[..., l::bank.plan.D2] = br
    np.testing.assert_array_equal(rebuilt, bank.gbar)
    np.testing.assert_array_equal(bank.taps_for(11), bank.gbar[11])


def test_bank_subcarrier_subset(eva, pf32):
    csi = freq_csi(draw_channel([eva], 4, 7), 32)
    full = build_lowrate_receiver(csi, pf32, DecimationPlan(32, 8), Lg_prime=4)
    sub = build_lowrate_receiver(csi, pf32, DecimationPlan(32, 8), Lg_prime=4,
                                 subcarriers=[3, 17])
    assert sub.gbar.shape[0] == 2
    np.testing.assert_allclose(sub.taps_for(17), full.taps_for(17), atol=1e-13)


def test_flat_channel_alpha0_reduces_to_single_tap():
    # with a one-tap channel and no delay the LS fit returns the bin combiner
    rng = make_rng(8)
    taps = rng.standard_normal((2, 1, 1)) + 1j * rng.standard_normal((2, 1, 1))
    csi = freq_csi(taps, 16)
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
    grid = qam_to_oqam(qam[None])
    s = modulate(grid, pf16)
    csi = freq_csi(np.ones((1, 1, 1)), 16)
    bank = build_lowrate_receiver(csi, pf16, DecimationPlan(16, 4), alpha=1,
                                  Lg_prime=5)
    out = equalize_lowrate(s, bank, pf16)
    est = recover_symbols(out, 1, N_d)
    # residual sits at the intrinsic filter-bank floor, way below symbol scale
    assert np.abs(est[0] - grid[0]).max() < 5e-3


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
                                         bank.subcarriers, plan, 1),
        pf16) for r in range(4)]
    np.testing.assert_allclose(out, sum(parts), rtol=0, atol=1e-12)


def _lowrate_oracle(y, bank, pf):
    """Brute force per (m, r): the full analysis-filter convolution decimated
    by D1 (low-rate index k from -(N_f-1)), then the D2 polyphase branches of
    g-bar, branch l on the stream delayed by l and decimated by D2, summed
    over branches and antennas."""
    D1, D2 = bank.plan.D1, bank.plan.D2
    N_f = pf.L_f // D1
    n_inst = (y.shape[1] - 1) // (pf.M // 2) + 1
    P = -(-(N_f - 1) // D2) + 1          # front pad to the origin -P D2
    out = np.zeros((bank.gbar.shape[1], len(bank.subcarriers), n_inst),
                   dtype=complex)
    for s, m in enumerate(bank.subcarriers):
        f = np.conj(pf.subcarrier_filter(m)[::-1])
        for r in range(y.shape[0]):
            v = decimate(np.convolve(y[r], f), D1, phase=(pf.L_f - 1) % D1)
            v = np.concatenate([np.zeros(P * D2 - (N_f - 1)), v])
            for u in range(bank.gbar.shape[1]):
                w = np.zeros(P + n_inst, dtype=complex)
                for l, G_l in enumerate(polyphase_split(bank.gbar[s, u, r], D2)):
                    if G_l.size == 0:        # L'_g < D2 leaves empty branches
                        continue
                    x_l = decimate(np.concatenate([np.zeros(l), v]), D2)
                    y_l = np.convolve(x_l, G_l)[:P + n_inst]
                    w[:y_l.size] += y_l
                out[u, s] += w[P:]
    return out


@pytest.mark.parametrize("M, D1", [(16, 8), (16, 4), (16, 2), (64, 32),
                                   (64, 16), (64, 8)])
@pytest.mark.parametrize("Lgp", [1, 2, 5, 9])
def test_equalize_lowrate_matches_polyphase_oracle(M, D1, Lgp, eva):
    pf = design_prototype(4, M)
    plan = DecimationPlan(M, D1)
    csi = freq_csi(draw_channel([eva, eva], 3, M + D1), M)
    full = build_lowrate_receiver(csi, pf, plan, Lg_prime=Lgp)
    subset = [M - 1, 0, M // 2 + 1]
    rows = LowRateEqualizerBank(full.gbar[subset], subset, plan, 1)
    rng = make_rng(Lgp)
    for L in (pf.L_f + 3, 5 * M + M // 4 + 1):
        y = rng.standard_normal((3, L)) + 1j * rng.standard_normal((3, L))
        got = equalize_lowrate(y, full, pf)
        want = _lowrate_oracle(y, full, pf)
        assert got.shape == want.shape
        _assert_rel_close(got, want, rel=1e-12)
        with pytest.raises(AssertionError):
            _assert_rel_close(_bumped(got), want, rel=1e-12)
        # a bank of rows of the all-M g-bar gives the same rows, bit for bit
        sub = equalize_lowrate(y, rows, pf)
        _assert_rel_close(sub, _lowrate_oracle(y, rows, pf), rel=1e-12)
        assert np.array_equal(sub, got[:, subset])


@pytest.mark.parametrize("M, D1", [(16, 8), (16, 4), (16, 2), (64, 32),
                                   (64, 16), (64, 8)])
@pytest.mark.parametrize("Lgp", [1, 2, 5, 9])
def test_equalize_lowrate_peak_memory(M, D1, Lgp, eva, monkeypatch):
    # no (N_r, n_sub, n_instants, L'_g) window copy: once the analysis bank
    # returns, the receiver allocates at most one copy of the bank output
    # (the subcarrier selection), the result and one tap product
    pf = design_prototype(4, M)
    csi = freq_csi(draw_channel([eva, eva, eva], 3, 3), M)
    bank = build_lowrate_receiver(csi, pf, DecimationPlan(M, D1), Lg_prime=Lgp)
    y = make_rng(5).standard_normal((3, 40 * M + 7)) + 0j
    real_afb, seen = stage2._afb, {}

    def afb(*args):
        out = real_afb(*args)
        seen["current"] = tracemalloc.get_traced_memory()[0]
        seen["bytes"] = out.nbytes
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(stage2, "_afb", afb)
    tracemalloc.start()
    try:
        out = equalize_lowrate(y, bank, pf)
        extra = tracemalloc.get_traced_memory()[1] - seen["current"]
    finally:
        tracemalloc.stop()
    assert extra <= seen["bytes"] + 2 * out.nbytes


@pytest.mark.parametrize("D1", [32, 16, 8])
def test_equalize_lowrate_peak_memory_does_not_grow_with_the_burst(D1, eva):
    # bursts of several bank chunks: doubling N_d grows the receiver's peak
    # by no more than it grows the output (up to a few kB of interpreter
    # objects), so the bank and the equalizer buffers stay the same size
    M, N_r = 64, 3
    pf = design_prototype(4, M)
    plan = DecimationPlan(M, D1)
    bank = build_lowrate_receiver(freq_csi(draw_channel([eva] * 3, N_r, 3), M),
                                  pf, plan, Lg_prime=5)
    step = stage2._BANK_BYTES // (16 * N_r * M * plan.D2)
    peak, size = [], []
    for N_d in (3 * step, 6 * step):
        y = make_rng(N_d).standard_normal((N_r, N_d * M // 2)) + 0j
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = equalize_lowrate(y, bank, pf)
            peak.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        size.append(out.nbytes)
    assert peak[1] - peak[0] <= size[1] - size[0] + 16384


def test_equalize_lowrate_errors(pf16, eva):
    csi = freq_csi(draw_channel([eva], 2, 1), 16)
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
