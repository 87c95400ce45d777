"""Power-delay profiles, channel draws, AWGN, and frequency-domain CSI."""

import numpy as np
import pytest

from fbmclink.channel import (PdpProfile, load_pdp, make_rng, trial_rng,
                              ChannelRealization, draw_channel, apply_channel,
                              add_awgn, bin_response, freq_csi,
                              estimate_csi_mmse)

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
    assert csi.flag == "perfect"
    assert (csi.M, csi.N_r, csi.N_t) == (M, 2, 2)
    l = np.arange(H.L_h)
    for m in (0, 1, 17, 31):
        want = (H.taps * np.exp(-2j * np.pi * m * l / M)).sum(axis=2)
        np.testing.assert_allclose(csi.H_tilde[m], want, atol=1e-12)


@pytest.mark.parametrize("name", ["EVA", "ETU"])
def test_freq_csi_longer_channel_than_bins(name):
    # L_h = 28 (EVA) and 47 (ETU) exceed M = 16: every tap still counts
    M = 16
    H = draw_channel(load_pdp(name, RATE), 3, 5)
    assert H.L_h > M
    l = np.arange(H.L_h)
    want = np.stack([(H.taps * np.exp(-2j * np.pi * m * l / M)).sum(axis=2)
                     for m in range(M)])
    got = freq_csi(H, M).H_tilde
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
    assert est.flag == "estimated"
    np.testing.assert_allclose(est.H_tilde, csi.H_tilde, atol=1e-12)
    # the time representation always reproduces the bins exactly
    back = np.moveaxis(np.fft.fft(est.time_taps, axis=2), 2, 0)
    np.testing.assert_allclose(back, est.H_tilde, atol=1e-12)


def test_estimate_csi_error_statistics(eva):
    csi = freq_csi(draw_channel([eva, eva], 8, 8), 64)
    P_p, s2 = 8.0, 2.0
    zs = []
    for seed in range(20):
        est = estimate_csi_mmse(csi, P_p, s2, seed)
        zs.append(est.H_tilde * (P_p + s2) - P_p * csi.H_tilde)
    z = np.concatenate([z.ravel() for z in zs])
    assert abs(np.mean(np.abs(z) ** 2) / (P_p * s2) - 1.0) < 0.05
    assert abs(z.mean()) < 0.05
    with pytest.raises(ValueError, match="P_p must be positive"):
        estimate_csi_mmse(csi, 0.0, s2, 0)
