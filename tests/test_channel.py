"""Power-delay profiles, channel draws, AWGN, and frequency-domain CSI."""

import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len

from fbmclink.channel import (PdpProfile, load_pdp, make_rng, trial_rng,
                              draw_channel, apply_channel, add_awgn,
                              bin_response, freq_csi,
                              estimate_csi_mmse, _STANDARD_PDPS, _fir,
                              _fast_len, _place_anchors)

RATE = 7.68e6


# ---------------------------------------------------------------- profiles

def test_standard_profile_lengths():
    # lengths on the 7.68 MHz grid, including the placement-kernel skirts
    want = {"EVA": 28, "ETU": 47, "PedA": 12, "PedB": 37}
    for name, L in want.items():
        prof = load_pdp(name, RATE)
        assert prof.L_h == L
        assert abs(prof.taps.sum() - 1.0) < 1e-12
        assert np.all(prof.taps >= 0)


def test_profile_normalization_and_repr():
    prof = PdpProfile("x", [2.0, 1.0, 1.0], RATE)
    np.testing.assert_allclose(prof.taps, [0.5, 0.25, 0.25])
    assert prof.L_h == 3
    assert repr(prof) == "PdpProfile('x', L_h=3)"


def test_profile_validation():
    with pytest.raises(ValueError, match="1-D"):
        PdpProfile("bad", np.ones((2, 2)), RATE)
    with pytest.raises(ValueError, match="1-D"):
        PdpProfile("bad", [], RATE)
    with pytest.raises(ValueError, match="nonnegative"):
        PdpProfile("bad", [1.0, -0.1], RATE)
    with pytest.raises(ValueError, match="zero total power"):
        PdpProfile("bad", [0.0, 0.0], RATE)


def test_load_pdp_custom_file(tmp_path):
    f = tmp_path / "two_path.pdp"
    f.write_text("# delay_ns power_db\n0 0\n\n520.8333 -3  # second path\n")
    prof = load_pdp(str(f), RATE)
    assert prof.name == "two_path.pdp"
    # 520.8333 ns is exactly 4 samples at 7.68 MHz: kernel hits the grid point
    assert prof.L_h == int(np.floor(520.8333e-9 * RATE)) + 9
    assert abs(prof.taps.sum() - 1.0) < 1e-12
    peak = np.argsort(prof.taps)[-2:]
    assert set(peak) == {4, 8}  # kernel half-width shifts both paths by 4


def _place_anchors_oracle(delays_ns, powers_db, sample_rate):
    """The anchor placement one path and one grid point at a time."""
    t = np.asarray(delays_ns, dtype=float) * 1e-9 * sample_rate
    p_lin = 10.0 ** (np.asarray(powers_db, dtype=float) / 10.0)
    q = np.zeros(int(np.floor(t.max())) + 9)
    for ti, pi in zip(t, p_lin):
        base = int(np.floor(ti))
        for k in range(base - 4, base + 5):
            x = k - ti
            if abs(x) >= 5.0:
                continue
            w = 0.5 * (1.0 + np.cos(np.pi * x / 5.0))
            q[k + 4] += pi * (np.sinc(x) * w) ** 2
    return q


@pytest.mark.parametrize("rate", [1.92e6, 7.68e6, 30.72e6])
def test_place_anchors_matches_the_scalar_loop(rate, tmp_path):
    # close anchors share grid points: the order of the sums must match too
    f = tmp_path / "close.pdp"
    f.write_text("0 0\n20.5 -1\n40 -3\n45 -2.5\n520.8333 -6\n")
    anchors = dict(_STANDARD_PDPS)
    anchors[str(f)] = ((0, 20.5, 40, 45, 520.8333), (0, -1, -3, -2.5, -6))
    for name, (delays, powers) in anchors.items():
        want = _place_anchors_oracle(delays, powers, rate)
        assert np.all(_place_anchors(delays, powers, rate) == want), name
        assert np.all(load_pdp(name, rate).taps == want / want.sum()), name


def test_load_pdp_file_errors(tmp_path):
    bad = tmp_path / "bad.pdp"
    bad.write_text("0 0 extra\n")
    with pytest.raises(ValueError, match="expected 'delay_ns power_db'"):
        load_pdp(str(bad), RATE)
    bad.write_text("0 zero\n")
    with pytest.raises(ValueError, match="non-numeric entry"):
        load_pdp(str(bad), RATE)
    bad.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="no anchor rows"):
        load_pdp(str(bad), RATE)
    with pytest.raises(ValueError, match="unknown profile"):
        load_pdp("EPA", RATE)


# ---------------------------------------------------------------- rng plumbing

def test_make_rng_determinism():
    a = make_rng(1234).standard_normal(8)
    b = make_rng(1234).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    gen = make_rng(0)
    assert make_rng(gen) is gen


def test_trial_rng_streams():
    a = trial_rng(7, 0).standard_normal(4)
    b = trial_rng(7, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = trial_rng(7, 1).standard_normal(4)
    d = trial_rng(8, 0).standard_normal(4)
    assert np.all(a != c) and np.all(a != d)


# ---------------------------------------------------------------- draws

def test_draw_channel_shapes(eva, uni4):
    H = draw_channel([eva, uni4], 3, 0)
    assert H.shape == (3, 2, eva.L_h)
    # the shorter user is zero-padded beyond its own length
    assert np.all(H[:, 1, uni4.L_h:] == 0)
    assert np.any(H[:, 1, :uni4.L_h] != 0)
    with pytest.raises(ValueError, match="N_r"):
        draw_channel([eva], 0, 0)


def test_draw_channel_determinism(eva):
    H1 = draw_channel([eva], 4, 42)
    H2 = draw_channel([eva], 4, 42)
    np.testing.assert_array_equal(H1, H2)
    H3 = draw_channel([eva], 4, trial_rng(9, 3))
    H4 = draw_channel([eva], 4, trial_rng(9, 3))
    np.testing.assert_array_equal(H3, H4)
    assert np.any(H1 != H3)


def test_draw_channel_statistics(uni4):
    # one wide draw gives 20000 i.i.d. samples per lag
    h = draw_channel([uni4], 20000, 2024)[:, 0, :]
    var = np.mean(np.abs(h) ** 2, axis=0)
    np.testing.assert_allclose(var, uni4.taps, rtol=0.05)
    assert np.all(np.abs(h.mean(axis=0)) < 0.02)
    # circularity: pseudo-variance E[h^2] vanishes
    assert np.all(np.abs(np.mean(h ** 2, axis=0)) < 0.02)
    # lags are mutually independent
    cross = np.mean(h[:, 0] * np.conj(h[:, 1]))
    assert abs(cross) < 0.02


# ---------------------------------------------------------------- convolution

def _convolve_oracle(a, b):
    a, b = np.broadcast_arrays(a[..., None, :], b[..., :, None])
    lead = a.shape[:-2]
    out = np.zeros(lead + (a.shape[-1] + b.shape[-2] - 1,), dtype=complex)
    for i in np.ndindex(lead):
        out[i] = np.convolve(a[i][0], b[i][:, 0])
    return out


def _assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def _fir_cases():
    """(P, Q, L, T) of filters h (P, Q, L) on streams x (Q, T)."""
    cases = []
    # streams around one block of B, around the switch to blocks at a
    # result length n of 2B, about five blocks, and shorter than the filters
    for L in (1, 13, 47, 256):
        B = next_fast_len(max(8 * L, 1024))
        for kind, T in (("B-1", B - 1), ("B", B), ("B+1", B + 1),
                        ("n=2B-1", 2 * B - L), ("n=2B", 2 * B - L + 1),
                        ("5 blocks", 5 * (B - L + 1) - 3), ("T<L", L // 2)):
            if T >= 1:
                cases.append(pytest.param(3, 4, L, T, id=f"{kind}-{L}"))
    # recorded sweep shapes, desk fig6 (M=64, N_t=4, ETU-length taps) and the
    # full-scale fig3/fig4/fig6/fig7 sweeps (M=256, L_f=1024): N_t x N_r
    # channel filters on streams of 256-1280 samples (results just over one
    # block of 1024 at full scale), then the coefficient measurement's
    # equalized channel, the channel on g^r upsampled by D1, up to N_r = 1024
    recorded = [(4, N_r, 47, T) for N_r in (8, 16, 32, 64)
                for T in (256, 288, 320)] + \
               [(8, N_r, 47, T) for N_r in (16, 64)
                for T in (1024, 1152, 1279, 1280)] + \
               [(1, 16, 28, T) for T in (1279, 1280)] + \
               [(4, N_r, 47, T) for N_r in (8, 16, 32, 64) for T in (1, 33, 65)] + \
               [(8, N_r, 47, T) for N_r in (16, 64, 1024)
                for T in (1, 129, 256, 257)]
    cases += [pytest.param(*shape, id="fig6-{}x{}x{}-T{}".format(*shape))
              for shape in recorded]
    return cases


@pytest.mark.parametrize("P, Q, L, T", _fir_cases())
def test_convolve_overlap_add_matches_oracle(P, Q, L, T):
    rng = make_rng(P + Q + L + T)
    h = rng.standard_normal((P, Q, L)) + 1j * rng.standard_normal((P, Q, L))
    x = rng.standard_normal((Q, T)) + 1j * rng.standard_normal((Q, T))
    want = _convolve_oracle(h, x[None]).sum(axis=1)
    got = _fir(h, x)
    _assert_rel_close(got, want)
    got[:, got.shape[-1] // 2] += 1e-9 * np.abs(want).max()
    with pytest.raises(AssertionError):
        _assert_rel_close(got, want)


def test_convolve_blocks_never_hold_the_user_product():
    # apply_channel's block path sums the users per frequency bin, so its
    # whole transient stays below one (N_r, N_t, n_blk, n_fft) product
    N_r, N_t, L_h, L = 16, 16, 20, 4000
    rng = make_rng(41)
    taps = rng.standard_normal((N_r, N_t, L_h)) + 0j
    x = rng.standard_normal((N_t, L)) + 0j
    B = next_fast_len(max(8 * L_h, 1024))
    n_blk = -(-L // (B - L_h + 1))
    assert L + L_h - 1 >= 2 * B                  # the block path
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = apply_channel(x, taps)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert extra < N_r * N_t * n_blk * B * 16
    want = _convolve_oracle(x[None, :, :], taps).sum(axis=1)
    _assert_rel_close(y, want)


def test_fast_len_is_scipy_next_fast_len():
    # the complex-transform rule: smallest 2^a 3^b 5^c 7^d 11^e >= n
    ns = list(range(1, 20001)) + [n + d for n in (10 ** 5, 10 ** 6)
                                  for d in range(-3, 4)]
    assert [_fast_len(n) for n in ns] == [next_fast_len(n) for n in ns]


# ---------------------------------------------------------------- application

def test_apply_channel_impulse(eva, uni4):
    H = draw_channel([eva, uni4], 2, 5)
    x = np.zeros((2, 1), dtype=complex)
    x[0, 0] = 1.0
    np.testing.assert_allclose(apply_channel(x, H), H[:, 0, :], atol=1e-14)


def test_apply_channel_delay():
    taps = np.zeros((1, 1, 6), dtype=complex)
    taps[0, 0, 5] = 2.0
    x = np.arange(1.0, 9.0)[None]
    y = apply_channel(x, taps)
    assert y.shape == (1, 13)
    np.testing.assert_allclose(y[0, 5:], 2.0 * x[0], atol=1e-12)
    np.testing.assert_allclose(y[0, :5], 0.0, atol=1e-12)


def test_apply_channel_brute_force(eva, uni4):
    rng = make_rng(17)
    H = draw_channel([eva, uni4], 3, rng)
    x = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
    y = apply_channel(x, H)
    assert y.shape == (3, 50 + eva.L_h - 1)
    for r in range(3):
        want = sum(np.convolve(x[u], H[r, u]) for u in range(2))
        np.testing.assert_allclose(y[r], want, atol=1e-12)


def test_apply_channel_stream_mismatch(eva):
    H = draw_channel([eva, eva], 2, 0)
    with pytest.raises(ValueError, match="streams for"):
        apply_channel(np.zeros((3, 10)), H)


def test_add_awgn():
    y = np.zeros(100000, dtype=complex)
    out = add_awgn(y, 0.25, 11)
    assert abs(np.mean(np.abs(out) ** 2) - 0.25) < 0.0125
    same = add_awgn(y, 0.0, 11)
    np.testing.assert_array_equal(same, y)
    assert same is not y
    with pytest.raises(ValueError, match="nonnegative"):
        add_awgn(y, -1.0, 11)


def test_add_awgn_is_the_complex_draw_formula():
    # real parts, then imaginary parts, from one stream: the bits of
    # y + sqrt(sigma_z2/2) (a + jb), and y itself is left as it was
    rng = make_rng(3)
    y = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
    before = y.copy()
    rng = make_rng(11)
    a, b = rng.standard_normal(y.shape), rng.standard_normal(y.shape)
    assert np.array_equal(add_awgn(y, 0.3, 11), y + np.sqrt(0.15) * (a + 1j * b))
    assert np.array_equal(y, before)
    real = np.arange(6.0)
    assert np.array_equal(add_awgn(real, 0.3, 11), add_awgn(real + 0j, 0.3, 11))


# ---------------------------------------------------------------- CSI

def test_freq_csi_matches_dft(eva, uni4):
    M = 32
    H = draw_channel([eva, uni4], 2, 3)
    csi = freq_csi(H, M)
    assert (csi.M, csi.time_taps.shape[:2]) == (M, (2, 2))
    l = np.arange(H.shape[2])
    bins = bin_response(csi.time_taps, csi.M)
    for m in (0, 1, 17, 31):
        want = (H * np.exp(-2j * np.pi * m * l / M)).sum(axis=2)
        np.testing.assert_allclose(bins[m], want, atol=1e-12)


@pytest.mark.parametrize("name", ["EVA", "ETU"])
def test_freq_csi_longer_channel_than_bins(name):
    # L_h = 28 (EVA) and 47 (ETU) exceed M = 16: every tap still counts
    M = 16
    H = draw_channel([load_pdp(name, RATE)], 3, 5)
    assert H.shape[2] > M
    l = np.arange(H.shape[2])
    want = np.stack([(H * np.exp(-2j * np.pi * m * l / M)).sum(axis=2)
                     for m in range(M)])
    got = bin_response(freq_csi(H, M).time_taps, M)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 5, 16, 28, 40])
def test_bin_response_is_the_dtft_on_the_grid(eva, n):
    taps = draw_channel([eva], 2, 9)                   # (2, 1, 28)
    l = np.arange(taps.shape[2])
    want = np.stack([(taps * np.exp(-2j * np.pi * k * l / n)).sum(axis=2)
                     for k in range(n)])
    got = bin_response(taps, n)
    assert got.shape == (n, 2, 1)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _bin_response_padded(taps, n):
    """Every tap length padded to a multiple of n and folded, then one
    length-n DFT; shape (n, ...)."""
    taps = np.asarray(taps, dtype=complex)
    folded = np.pad(taps, [(0, 0)] * (taps.ndim - 1) + [(0, -taps.shape[-1] % n)])
    folded = folded.reshape(taps.shape[:-1] + (-1, n)).sum(axis=-2)
    return np.moveaxis(np.fft.fft(folded, axis=-1), -1, 0)


@pytest.mark.parametrize("L", [9, 16, 17, 35])
def test_bin_response_is_the_padded_fold(L):
    # n = 16: shorter, as long, one tap longer and more than twice as long
    rng = make_rng(L)
    taps = rng.standard_normal((3, 2, L)) + 1j * rng.standard_normal((3, 2, L))
    assert np.array_equal(bin_response(taps, 16), _bin_response_padded(taps, 16))


def test_estimate_csi_noiseless(eva):
    csi = freq_csi(draw_channel([eva], 4, 8), 64)
    est = estimate_csi_mmse(csi, 16.0, 0.0, 1)
    est_bins = bin_response(est.time_taps, est.M)
    np.testing.assert_allclose(est_bins, bin_response(csi.time_taps, csi.M),
                               atol=1e-12)
    # with L_h < M the noiseless estimate's taps are the true taps, zero-padded
    taps = csi.time_taps
    assert taps.shape[2] < csi.M
    padded = np.zeros(taps.shape[:2] + (csi.M,), dtype=complex)
    padded[..., :taps.shape[2]] = taps
    np.testing.assert_allclose(est.time_taps, padded, rtol=0, atol=1e-12)


def test_estimate_csi_error_statistics(eva):
    csi = freq_csi(draw_channel([eva, eva], 8, 8), 64)
    P_p, s2 = 8.0, 2.0
    bins = bin_response(csi.time_taps, csi.M)
    zs = []
    for seed in range(20):
        est = estimate_csi_mmse(csi, P_p, s2, seed)
        zs.append(bin_response(est.time_taps, est.M) * (P_p + s2)
                  - P_p * bins)
    z = np.concatenate([z.ravel() for z in zs])
    assert abs(np.mean(np.abs(z) ** 2) / (P_p * s2) - 1.0) < 0.05
    assert abs(z.mean()) < 0.05
    with pytest.raises(ValueError, match="P_p must be positive"):
        estimate_csi_mmse(csi, 0.0, s2, 0)
