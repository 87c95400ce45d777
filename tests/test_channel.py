"""Power-delay profiles, channel draws, AWGN, and frequency-domain CSI."""

import tracemalloc

import numpy as np
import pytest
from scipy.fft import fft, ifft, next_fast_len

from fbmclink.channel import (PdpProfile, load_pdp, make_rng, trial_rng,
                              ChannelRealization, draw_channel, apply_channel,
                              add_awgn, bin_response, freq_csi,
                              estimate_csi_mmse, _STANDARD_PDPS, _convolve,
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


def test_load_pdp_passthrough(uni4):
    # already-built profiles go straight through (used for on-grid taps)
    assert load_pdp(uni4, RATE) is uni4


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
    assert (H.N_r, H.N_t, H.L_h) == (3, 2, eva.L_h)
    # the shorter user is zero-padded beyond its own length
    assert np.all(H.taps[:, 1, uni4.L_h:] == 0)
    assert np.any(H.taps[:, 1, :uni4.L_h] != 0)
    # single profile promotes to one user
    H1 = draw_channel(eva, 2, 0)
    assert H1.N_t == 1
    with pytest.raises(ValueError, match="N_r"):
        draw_channel(eva, 0, 0)


def test_draw_channel_determinism(eva):
    H1 = draw_channel(eva, 4, 42)
    H2 = draw_channel(eva, 4, 42)
    np.testing.assert_array_equal(H1.taps, H2.taps)
    H3 = draw_channel(eva, 4, trial_rng(9, 3))
    H4 = draw_channel(eva, 4, trial_rng(9, 3))
    np.testing.assert_array_equal(H3.taps, H4.taps)
    assert np.any(H1.taps != H3.taps)


def test_draw_channel_statistics(uni4):
    # one wide draw gives 20000 i.i.d. samples per lag
    H = draw_channel(uni4, 20000, 2024)
    h = H.taps[:, 0, :]
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


@pytest.mark.parametrize("a_shape, b_shape, sum_axis, want_shape", [
    ((3, 1, 17), (4, 6), None, (3, 4, 22)),
    ((3, 1, 17), (4, 6), 0, (4, 22)),
    ((3, 1, 17), (4, 6), 1, (3, 22)),
    ((3, 1, 17), (4, 6), -2, (3, 22)),
    ((17,), (4, 6), None, (4, 22)),
])
def test_convolve_matches_np_convolve(a_shape, b_shape, sum_axis, want_shape):
    rng = make_rng(31)
    a = rng.standard_normal(a_shape) + 1j * rng.standard_normal(a_shape)
    b = rng.standard_normal(b_shape) + 1j * rng.standard_normal(b_shape)
    want = _convolve_oracle(a, b)
    if sum_axis is not None:
        want = want.sum(axis=sum_axis)
    got = _convolve(a, b, sum_axis=sum_axis)
    assert got.shape == want.shape == want_shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("short", [1, 13, 47, 256])
@pytest.mark.parametrize("long_kind", ["B-1", "B", "B+1", "n=2B-1", "n=2B",
                                       "5 blocks"])
def test_convolve_overlap_add_matches_oracle(short, long_kind):
    # long operands around one block of B, around the switch to blocks at a
    # result length n of 2B, and about five blocks
    B = next_fast_len(max(8 * short, 1024))
    L = {"B-1": B - 1, "B": B, "B+1": B + 1, "n=2B-1": 2 * B - short,
         "n=2B": 2 * B - short + 1, "5 blocks": 5 * (B - short + 1) - 3
         }[long_kind]
    rng = make_rng(short + L)
    x = rng.standard_normal((3, 1, L)) + 1j * rng.standard_normal((3, 1, L))
    h = rng.standard_normal((4, short)) + 1j * rng.standard_normal((4, short))
    for a, b in ((x, h), (h, x)):
        full = _convolve_oracle(a, b)
        for sum_axis in (None, 0, 1, -2):
            want = full if sum_axis is None else full.sum(axis=sum_axis)
            got = _convolve(a, b, sum_axis=sum_axis)
            _assert_rel_close(got, want)
            got[..., got.shape[-1] // 2] += 1e-9 * np.abs(want).max()
            with pytest.raises(AssertionError):
                _assert_rel_close(got, want)


def _one_fft_convolve(a, b, sum_axis=None):
    """The single-block form: one FFT of each operand at next_fast_len(n)."""
    n = np.shape(a)[-1] + np.shape(b)[-1] - 1
    n_fft = next_fast_len(n)
    prod = fft(a, n_fft) * fft(b, n_fft)
    if sum_axis is not None:
        prod = prod.sum(axis=sum_axis)
    return ifft(prod)[..., :n]


# recorded sweep shapes, desk fig6 (M=64, N_t=4, ETU-length taps) and then
# the full-scale fig3/fig4/fig6/fig7 sweeps (M=256, L_f=1024): channel times
# composite receive kernel conj f_m * flip g^r (results of 1070-1331 samples
# at full scale, just over one block of 1024) and analysis filter times
# equalizer; then the equalized-channel shapes g^r * h^{r,u'} (g upsampled
# by D1) of the coefficient measurement, up to N_r = 1024
_FIG6_SHAPES = [((N_r, 4, 47), (N_r, 1, L), 0)
                for N_r in (8, 16, 32, 64) for L in (256, 288, 320)] + \
               [((256,), (N_r, L), None)
                for N_r in (8, 16, 32, 64) for L in (33, 65)] + \
               [((N_r, 8, 47), (N_r, 1, L), 0)
                for N_r in (16, 64) for L in (1024, 1152, 1279, 1280)] + \
               [((16, 1, 28), (16, 1, L), 0) for L in (1279, 1280)] + \
               [((1024,), (N_r, L), None)
                for N_r in (16, 64) for L in (129, 256, 257)] + \
               [((N_r, 1, L), (N_r, 4, 47), 0)
                for N_r in (8, 16, 32, 64) for L in (1, 33, 65)] + \
               [((N_r, 1, L), (N_r, 8, 47), 0)
                for N_r in (16, 64, 1024) for L in (1, 129, 256, 257)]


@pytest.mark.parametrize("a_shape, b_shape, sum_axis", _FIG6_SHAPES)
def test_convolve_fig6_shapes_take_the_single_block_path(a_shape, b_shape,
                                                         sum_axis):
    rng = make_rng(len(b_shape) + b_shape[-1])
    a = rng.standard_normal(a_shape) + 1j * rng.standard_normal(a_shape)
    b = rng.standard_normal(b_shape) + 1j * rng.standard_normal(b_shape)
    assert np.array_equal(_convolve(a, b, sum_axis=sum_axis),
                          _one_fft_convolve(a, b, sum_axis=sum_axis))


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
    H = ChannelRealization(taps, [None] * N_t)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = apply_channel(x, H)
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
    np.testing.assert_allclose(apply_channel(x, H), H.taps[:, 0, :], atol=1e-14)


def test_apply_channel_delay():
    taps = np.zeros((1, 1, 6), dtype=complex)
    taps[0, 0, 5] = 2.0
    H = ChannelRealization(taps, [None])
    x = np.arange(1.0, 9.0)
    y = apply_channel(x, H)
    assert y.shape == (1, 13)
    np.testing.assert_allclose(y[0, 5:], 2.0 * x, atol=1e-12)
    np.testing.assert_allclose(y[0, :5], 0.0, atol=1e-12)


def test_apply_channel_brute_force(eva, uni4):
    rng = make_rng(17)
    H = draw_channel([eva, uni4], 3, rng)
    x = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
    y = apply_channel(x, H)
    assert y.shape == (3, 50 + eva.L_h - 1)
    for r in range(3):
        want = sum(np.convolve(x[u], H.taps[r, u]) for u in range(2))
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


# ---------------------------------------------------------------- CSI

def test_freq_csi_matches_dft(eva, uni4):
    M = 32
    H = draw_channel([eva, uni4], 2, 3)
    csi = freq_csi(H, M)
    assert (csi.M, csi.N_r, csi.N_t) == (M, 2, 2)
    l = np.arange(H.L_h)
    bins = bin_response(csi.time_taps, csi.M)
    for m in (0, 1, 17, 31):
        want = (H.taps * np.exp(-2j * np.pi * m * l / M)).sum(axis=2)
        np.testing.assert_allclose(bins[m], want, atol=1e-12)


@pytest.mark.parametrize("name", ["EVA", "ETU"])
def test_freq_csi_longer_channel_than_bins(name):
    # L_h = 28 (EVA) and 47 (ETU) exceed M = 16: every tap still counts
    M = 16
    H = draw_channel(load_pdp(name, RATE), 3, 5)
    assert H.L_h > M
    l = np.arange(H.L_h)
    want = np.stack([(H.taps * np.exp(-2j * np.pi * m * l / M)).sum(axis=2)
                     for m in range(M)])
    got = bin_response(freq_csi(H, M).time_taps, M)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 5, 16, 28, 40])
def test_bin_response_is_the_dtft_on_the_grid(eva, n):
    taps = draw_channel(eva, 2, 9).taps                # (2, 1, 28)
    l = np.arange(taps.shape[2])
    want = np.stack([(taps * np.exp(-2j * np.pi * k * l / n)).sum(axis=2)
                     for k in range(n)])
    got = bin_response(taps, n)
    assert got.shape == (n, 2, 1)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_estimate_csi_noiseless(eva):
    csi = freq_csi(draw_channel(eva, 4, 8), 64)
    est = estimate_csi_mmse(csi, 16.0, 0.0, 1)
    est_bins = bin_response(est.time_taps, est.M)
    np.testing.assert_allclose(est_bins, bin_response(csi.time_taps, csi.M),
                               atol=1e-12)
    # the time representation always reproduces the bins exactly
    back = np.moveaxis(np.fft.fft(est.time_taps, axis=2), 2, 0)
    np.testing.assert_allclose(back, est_bins, atol=1e-12)


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
