"""High-rate ZF/MMSE equalizer design and the single-tap baseline."""

import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy.signal import fftconvolve

from fbmclink import stage1
from fbmclink.channel import (bin_response, draw_channel, estimate_csi_mmse,
                              freq_csi, make_rng)
from fbmclink.errors import ConfigError, SingularChannelError
from fbmclink.stage1 import (HighRateEqualizer, alpha_bound, apply_highrate,
                             design_highrate, single_tap)


def _csi(profiles, N_r, M, seed=3):
    return freq_csi(draw_channel(profiles, N_r, seed), M)


# ------------------------------------------- per-bin oracles (one solve per bin)

def response_at(csi, omega):
    """H_tilde(omega) = sum_l time_taps[l] e^{-j omega l}, (N_r, N_t)."""
    ph = np.exp(-1j * omega * np.arange(csi.time_taps.shape[2]))
    return csi.time_taps @ ph


def _regularized_solve(A, lam):
    """(A^H A + lam I)^{-1} A^H via stacked least squares; shape (N_t, N_r)."""
    N_r, N_t = A.shape
    if lam == 0:
        s = np.linalg.svd(A, compute_uv=False)
        if N_r < N_t or s[-1] == 0 or (s[0] / s[-1]) ** 2 > stage1._COND_CUTOFF:
            raise SingularChannelError("rank-deficient channel matrix")
        return np.linalg.lstsq(A, np.eye(N_r, dtype=complex), rcond=None)[0]
    B = np.vstack([A, np.sqrt(lam) * np.eye(N_t, dtype=complex)])
    C = np.vstack([np.eye(N_r, dtype=complex), np.zeros((N_t, N_r), dtype=complex)])
    return np.linalg.lstsq(B, C, rcond=None)[0]


def zf_freq_response(csi, omega_k, alpha):
    """G~(omega) = (H~^H H~)^{-1} H~^H e^{-j omega alpha M/2}."""
    X = _regularized_solve(response_at(csi, omega_k), 0.0)
    return X * np.exp(-1j * omega_k * alpha * csi.M / 2)


def mmse_freq_response(csi, omega_k, alpha, sigma_z2, P_s):
    """ZF with a (sigma_z2/P_s) I ridge; sigma_z2 = 0 is the ZF formula."""
    if sigma_z2 == 0:
        return zf_freq_response(csi, omega_k, alpha)
    X = _regularized_solve(response_at(csi, omega_k), sigma_z2 / P_s)
    return X * np.exp(-1j * omega_k * alpha * csi.M / 2)


def _designer(csi, alpha, criterion, sigma_z2, P_s):
    if criterion == "zf":
        return lambda w: zf_freq_response(csi, w, alpha)
    return lambda w: mmse_freq_response(csi, w, alpha, sigma_z2, P_s)


def frequency_sample(designer, L_g):
    """G[l] = (1/L_g) sum_k G~(2 pi k/L_g) e^{j 2 pi l k/L_g}, (N_t, N_r, L_g)."""
    samples = [designer(2 * np.pi * k / L_g) for k in range(L_g)]
    return np.moveaxis(np.fft.ifft(np.stack(samples, axis=0), axis=0), 0, 2)


def oracle_highrate(csi, L_g, alpha, criterion, sigma_z2, P_s):
    return frequency_sample(_designer(csi, alpha, criterion, sigma_z2, P_s), L_g)


def oracle_single_tap(csi, criterion, sigma_z2, P_s):
    designer = _designer(csi, 0, criterion, sigma_z2, P_s)
    return np.stack([designer(2 * np.pi * m / csi.M) for m in range(csi.M)])


def equivalent_channel(eq, H):
    """H_eq[l] = (G conv H)[l], shape (N_t, N_t_users, L_g + L_h - 1)."""
    G = eq.taps[:, None, :, :]                       # (N_t, 1, N_r, L_g)
    Hm = np.moveaxis(H, 0, 1)[None, :, :, :]         # (1, N_t', N_r, L_h)
    return fftconvolve(G, Hm, axes=3).sum(axis=2)


def _close(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


# ------------------------------------------------------------ bin responses

def test_zf_scalar_channel(uni4):
    csi = _csi([uni4], 1, 16)
    h = bin_response(csi.time_taps, csi.M)[:, 0, 0]
    st = single_tap(csi)
    np.testing.assert_allclose(st.W[:, 0, 0], 1.0 / h, atol=1e-12)
    # alpha only multiplies the delay phase on top of the alpha=0 solution
    w = 2 * np.pi * np.arange(16) / 16
    bins = lambda eq: np.fft.fft(eq.taps[0, 0])
    np.testing.assert_allclose(bins(design_highrate(csi, alpha=1)),
                               bins(design_highrate(csi, alpha=0))
                               * np.exp(-1j * w * 8), atol=1e-12)


def test_zf_matches_pinv(eva, uni4):
    csi = _csi([eva, uni4], 8, 64)
    st = single_tap(csi)
    for m in (0, 13, 40):
        A = bin_response(csi.time_taps, csi.M)[m]
        assert st.W[m].shape == (2, 8)
        np.testing.assert_allclose(st.W[m], np.linalg.pinv(A), atol=1e-10)
        # left inverse property
        np.testing.assert_allclose(st.W[m] @ A, np.eye(2), atol=1e-10)


def _assert_singular_at_bin_0(csi):
    # every design, MMSE without noise included, names the bin and its omega
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way
        for design in (single_tap, design_highrate,
                       lambda c: design_highrate(c, criterion="mmse")):
            with pytest.raises(SingularChannelError, match=r"bin 0\b.*omega=0"):
                design(csi)


def test_zf_singular_channel(uni4):
    csi = _csi([uni4], 2, 16)
    csi.time_taps = np.zeros_like(csi.time_taps)
    _assert_singular_at_bin_0(csi)


def test_mmse_limits(eva):
    csi = _csi([eva, eva], 8, 64)
    # sigma_z2 = 0 collapses to ZF
    np.testing.assert_allclose(single_tap(csi, "mmse", 0.0, 0.5).W,
                               single_tap(csi).W, atol=1e-14)
    np.testing.assert_allclose(design_highrate(csi, 1, "mmse", 0.0, 0.5).taps,
                               design_highrate(csi, 1).taps, atol=1e-14)
    # closed form (H^H H + lam I)^{-1} H^H == P_s H^H (P_s H H^H + s2 I)^{-1}
    m, s2, P_s = 9, 0.3, 0.5
    A = bin_response(csi.time_taps, csi.M)[m]
    want = P_s * A.conj().T @ np.linalg.inv(P_s * A @ A.conj().T
                                            + s2 * np.eye(8))
    np.testing.assert_allclose(single_tap(csi, "mmse", s2, P_s).W[m], want,
                               atol=1e-12)
    # heavy noise: ridge dominates, response -> (P_s/s2) H^H
    big = 1e8
    approx = single_tap(csi, "mmse", big, P_s).W[m]
    np.testing.assert_allclose(approx, (P_s / big) * A.conj().T, rtol=1e-6)


def test_mmse_scalar_formula(uni4):
    csi = _csi([uni4], 1, 16)
    s2, P_s = 0.2, 0.5
    h = bin_response(csi.time_taps, csi.M)[:, 0, 0]
    want = np.conj(h) / (abs(h) ** 2 + s2 / P_s)
    got = single_tap(csi, "mmse", s2, P_s).W[:, 0, 0]
    np.testing.assert_allclose(got, want, atol=1e-12)


# --------------------------------------------- batched solve against the oracle

_CASES = [("zf", 0.0), ("mmse", 0.3), ("mmse", 0.0)]


def _oracle_csi(profiles, est, N_r, M=16, seed=11):
    # with EVA (L_h = 28) among the users the taps fold at M = 8 and 16
    csi = freq_csi(draw_channel(profiles, N_r, seed), M)
    return estimate_csi_mmse(csi, 8.0, 0.5, seed + 1) if est else csi


@pytest.mark.parametrize("N_r", [2, 5])
@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("M", [8, 16, 32])
@pytest.mark.parametrize("est", [False, True], ids=["perfect", "estimated"])
@pytest.mark.parametrize("criterion,s2", _CASES, ids=["zf", "mmse", "mmse0"])
def test_highrate_matches_per_bin_oracle(criterion, s2, est, M, alpha, N_r,
                                         eva, peda):
    csi = _oracle_csi([eva, peda], est, N_r, M)
    got = design_highrate(csi, alpha, criterion, s2, 0.5)
    assert (got.taps.shape[2], got.alpha) == (M, alpha)
    assert _close(got.taps, oracle_highrate(csi, M, alpha, criterion, s2, 0.5))


@pytest.mark.parametrize("N_r", [2, 5])
@pytest.mark.parametrize("est", [False, True], ids=["perfect", "estimated"])
@pytest.mark.parametrize("criterion,s2", _CASES, ids=["zf", "mmse", "mmse0"])
def test_single_tap_matches_per_bin_oracle(criterion, s2, est, N_r, eva, peda):
    csi = _oracle_csi([eva, peda], est, N_r)
    got = single_tap(csi, criterion, s2, 0.5)
    assert _close(got.W, oracle_single_tap(csi, criterion, s2, 0.5))


def test_mmse_with_fewer_antennas_than_users_matches_oracle(eva, peda):
    # the ridge keeps the bins solvable where ZF is rank-deficient
    csi = _oracle_csi([eva, peda], False, 1)
    assert _close(single_tap(csi, "mmse", 0.3, 0.5).W,
                  oracle_single_tap(csi, "mmse", 0.3, 0.5))
    assert _close(design_highrate(csi, 1, "mmse", 0.3, 0.5).taps,
                  oracle_highrate(csi, 16, 1, "mmse", 0.3, 0.5))


def test_oracle_comparison_catches_a_bump(monkeypatch, eva, peda):
    solve = stage1._solve_bins

    def bumped(A, lam):
        X = solve(A, lam)
        X.flat[np.abs(X).argmax()] *= 1 + 1e-9
        return X

    monkeypatch.setattr(stage1, "_solve_bins", bumped)
    for est in (False, True):
        csi = _oracle_csi([eva, peda], est, 5)
        for criterion, s2 in _CASES:
            assert not _close(design_highrate(csi, 1, criterion, s2, 0.5).taps,
                              oracle_highrate(csi, 16, 1, criterion, s2, 0.5))
            assert not _close(single_tap(csi, criterion, s2, 0.5).W,
                              oracle_single_tap(csi, criterion, s2, 0.5))


def test_singular_bin_is_the_first_failing_one(uni4):
    # a first-tap change makes user 1's column equal user 0's at bin k only
    csi = _csi([uni4, uni4], 3, 16)
    k = 5
    A = response_at(csi, 2 * np.pi * k / 16)
    csi.time_taps[:, 1, 0] += A[:, 0] - A[:, 1]
    with pytest.raises(SingularChannelError, match=f"bin {k}:.*omega=1.9635"):
        single_tap(csi)


# ------------------------------------------------------------ FIR realization

def test_alpha_bound_values():
    assert alpha_bound(28, 64) == 2
    assert alpha_bound(1, 64) == 1
    assert alpha_bound(12, 64) == 2
    assert alpha_bound(65, 64) == 3


def test_design_rejects_bad_alpha(eva):
    csi = _csi([eva], 4, 64)
    with pytest.raises(ConfigError, match="outside the admissible range"):
        design_highrate(csi, alpha=3)
    with pytest.raises(ConfigError, match="outside the admissible range"):
        design_highrate(csi, alpha=-1)
    with pytest.raises(ConfigError, match="zf|mmse"):
        design_highrate(csi, criterion="dfe")


def test_flat_channel_gives_pure_delay():
    taps = np.ones((2, 1, 1), dtype=complex)
    csi = freq_csi(taps, 16)
    eq = design_highrate(csi, alpha=1)
    assert (eq.taps.shape[2], eq.alpha) == (16, 1)
    want = np.zeros(16)
    want[8] = 0.5  # 1/N_r from the left inverse of the all-ones column
    np.testing.assert_allclose(eq.taps[0, 0], want, atol=1e-12)
    np.testing.assert_allclose(eq.taps[0, 1], want, atol=1e-12)


def test_fir_interpolates_design_bins(eva, uni4):
    # the realized FIR agrees with the target response on the sampling grid
    csi = _csi([eva, uni4], 8, 64)
    eq = design_highrate(csi, alpha=1)
    L_g = eq.taps.shape[2]
    l = np.arange(L_g)
    for k in (0, 1, 31, 40):
        w = 2 * np.pi * k / L_g
        dtft = (eq.taps * np.exp(-1j * w * l)).sum(axis=2)
        np.testing.assert_allclose(dtft, zf_freq_response(csi, w, 1),
                                   atol=1e-10)


def test_design_underdetermined_bin(eva):
    csi = _csi([eva] * 3, 2, 64)   # more users than antennas
    with pytest.raises(SingularChannelError, match="bin"):
        design_highrate(csi, alpha=1)
    _assert_singular_at_bin_0(csi)


def test_equivalent_channel_window(uni4):
    # with L_g = M >= L_h the cascade is an exact delta on l in [L_h-1, M-1]
    M, alpha = 16, 1
    H = draw_channel([uni4, uni4], 4, 21)
    eq = design_highrate(freq_csi(H, M), alpha=alpha)
    Heq = equivalent_channel(eq, H)
    assert Heq.shape == (2, 2, M + uni4.L_h - 1)
    want = np.zeros((2, 2, M + uni4.L_h - 1), dtype=complex)
    want[0, 0, alpha * M // 2] = 1.0
    want[1, 1, alpha * M // 2] = 1.0
    window = slice(uni4.L_h - 1, M)
    err = np.abs(Heq - want)[:, :, window].max()
    assert err < 1e-10


def test_apply_highrate(eva):
    rng = make_rng(4)
    H = draw_channel([eva, eva], 4, rng)
    eq = design_highrate(freq_csi(H, 64), alpha=1)
    y = rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30))
    out = apply_highrate(y, eq)
    assert out.shape == (2, 30 + eq.taps.shape[2] - 1)
    for t in range(2):
        want = sum(np.convolve(eq.taps[t, r], y[r]) for r in range(4))
        np.testing.assert_allclose(out[t], want, atol=1e-10)
    with pytest.raises(ValueError, match="antenna streams"):
        apply_highrate(np.zeros((3, 10)), eq)
    # identity equalizer passes the signal through
    ident = HighRateEqualizer(np.eye(4, dtype=complex)[:, :, None], 0)
    np.testing.assert_allclose(apply_highrate(y, ident), y, atol=1e-14)


# ------------------------------------------------------------ single tap

def test_single_tap_zf_inverts_bins(eva, uni4):
    csi = _csi([eva, uni4], 8, 64)
    st = single_tap(csi)
    assert st.W.shape == (64, 2, 8)
    bins = bin_response(csi.time_taps, csi.M)
    for m in (0, 5, 33, 63):
        np.testing.assert_allclose(st.W[m] @ bins[m], np.eye(2), atol=1e-10)


def test_single_tap_mmse(eva):
    csi = _csi([eva], 4, 32)
    s2, P_s = 0.4, 0.5
    st = single_tap(csi, criterion="mmse", sigma_z2=s2, P_s=P_s)
    for m in (0, 9):
        A = bin_response(csi.time_taps, csi.M)[m]
        want = P_s * A.conj().T @ np.linalg.inv(P_s * A @ A.conj().T
                                                + s2 * np.eye(4))
        np.testing.assert_allclose(st.W[m], want, atol=1e-12)
    with pytest.raises(ConfigError, match="zf|mmse"):
        single_tap(csi, criterion="ml")


# ------------------------------------------------------ the held bin solve

def _count_solves(monkeypatch):
    calls = []
    solve = stage1._solve_bins

    def counted(A, lam):
        calls.append((A.shape[0], lam))
        return solve(A, lam)
    monkeypatch.setattr(stage1, "_solve_bins", counted)
    return calls


def test_single_tap_and_highrate_share_one_solve(monkeypatch, eva, peda):
    calls = _count_solves(monkeypatch)
    csi = _csi([eva, peda], 6, 32)
    st = single_tap(csi)
    design_highrate(csi, alpha=1)
    design_highrate(csi, alpha=2)
    assert calls == [(32, 0.0)]
    # another ridge is another solve, which the designs share too
    single_tap(csi, "mmse", 0.3, 0.5)
    design_highrate(csi, alpha=1, criterion="mmse", sigma_z2=0.3, P_s=0.5)
    assert calls == [(32, 0.0), (32, 0.6)]
    # another CSI object with the same taps is solved again
    single_tap(freq_csi(csi.time_taps, 32))
    assert len(calls) == 3
    # the held solve is single_tap's W, and it rejects writes
    assert st.W is single_tap(csi).W
    with pytest.raises(ValueError, match="read-only"):
        st.W[0, 0, 0] = 1.0


def test_designs_of_one_key_share_one_inverse_fft(monkeypatch, eva, peda):
    calls = []
    ifft = np.fft.ifft
    monkeypatch.setattr(stage1.np.fft, "ifft",
                        lambda *a, **k: calls.append(1) or ifft(*a, **k))
    csi = _csi([eva, peda], 6, 32)
    first = design_highrate(csi, alpha=1)
    again = design_highrate(csi, alpha=1)
    assert len(calls) == 1 and again.taps is first.taps
    # another delay or ridge is another inverse transform
    design_highrate(csi, alpha=2)
    assert len(calls) == 2
    design_highrate(csi, alpha=1, criterion="mmse", sigma_z2=0.3)
    assert len(calls) == 3
    with pytest.raises(ValueError, match="read-only"):
        first.taps[0, 0, 0] = 1.0
    fresh = design_highrate(freq_csi(csi.time_taps, 32), alpha=1)
    assert np.array_equal(fresh.taps, first.taps)


def test_held_solve_is_dropped_with_its_csi(eva):
    csi = _csi([eva], 4, 16)
    held = weakref.ref(single_tap(csi).W)
    assert held() is csi.held[("solve", 0.0)]
    del csi
    gc.collect()
    assert held() is None


@pytest.mark.parametrize("criterion,s2", _CASES, ids=["zf", "mmse", "mmse0"])
def test_solve_order_does_not_change_the_bits(criterion, s2, eva, peda):
    first, second = (_oracle_csi([eva, peda], True, 5) for _ in range(2))
    st = single_tap(first, criterion, s2, 0.5)
    hr = design_highrate(first, 1, criterion, s2, 0.5)
    hr2 = design_highrate(second, 1, criterion, s2, 0.5)
    st2 = single_tap(second, criterion, s2, 0.5)
    assert np.array_equal(st.W, st2.W)
    assert np.array_equal(hr.taps, hr2.taps)


# ------------------------------------------- the Gram solve and its SVD path

def _spy_svd(monkeypatch):
    """Record the grid indices of every bin that `_svd_solve` gets."""
    seen = []
    svd_solve = stage1._svd_solve

    def spied(A, lam, k, n):
        seen.extend(int(i) for i in k)
        return svd_solve(A, lam, k, n)
    monkeypatch.setattr(stage1, "_svd_solve", spied)
    return seen


def _bin_with_gram_bound(bound, lam, rng, N_r=4):
    """An (N_r, 2) bin whose Gram A^H A + lam I has the Frobenius condition
    bound ||G|| ||G^{-1}|| = bound: eigenvalues e and t e with t + 1/t =
    bound, so singular values 1 and sqrt((1 + lam) t - lam)."""
    t = (bound + np.sqrt(bound ** 2 - 4)) / 2
    s = np.array([1.0, np.sqrt((1 + lam) * t - lam)])
    Z = rng.standard_normal((N_r + 2, 2)) + 1j * rng.standard_normal((N_r + 2, 2))
    U, V = np.linalg.qr(Z[:N_r])[0], np.linalg.qr(Z[N_r:])[0]
    return (U * s) @ V.conj().T


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_a_bin_past_the_gram_bound_is_solved_by_svd(monkeypatch, lam):
    rng = make_rng(5)
    c = stage1._GRAM_COND
    A = np.stack([_bin_with_gram_bound(b, lam, rng)
                  for b in (0.99 * c, 1.01 * c, 2.0)])
    seen = _spy_svd(monkeypatch)
    X = stage1._solve_bins(A, lam)
    assert seen == [1]
    for k in range(3):
        assert _close(X[k], _regularized_solve(A[k], lam))


@pytest.mark.parametrize("cond", [1e14, np.inf], ids=["near", "exact"])
def test_a_singular_bin_after_an_ill_conditioned_one_is_named(monkeypatch,
                                                              cond):
    # bin 2 leaves the Gram path but is solvable; bin 5 is singular, nearly
    # (the Gram test sends bins 2 and 5 to the SVD) or exactly (the batched
    # inverse fails and every bin goes)
    rng = make_rng(8)
    n = 8
    A = np.stack([_bin_with_gram_bound(3.0, 0.0, rng) for _ in range(n)])
    A[2] = _bin_with_gram_bound(1e6, 0.0, rng)
    A[5] = _bin_with_gram_bound(cond, 0.0, rng) if np.isfinite(cond) else 0
    seen = _spy_svd(monkeypatch)
    with pytest.raises(SingularChannelError,
                       match=r"bin 5: .*omega=3\.92699"):
        stage1._solve_bins(A, 0.0)
    assert seen == ([2, 5] if np.isfinite(cond) else list(range(n)))
    A[5] = A[4]
    assert _close(stage1._solve_bins(A, 0.0)[2], _regularized_solve(A[2], 0.0))


@pytest.mark.parametrize("criterion,s2", _CASES, ids=["zf", "mmse", "mmse0"])
def test_a_subset_of_bins_solves_to_the_same_bits(monkeypatch, criterion, s2,
                                                  eva, peda):
    lam = stage1._ridge(criterion, s2, 0.5)
    csi = _oracle_csi([eva, peda], True, 3, M=64)
    A = bin_response(csi.time_taps, 64)
    A[7] = _bin_with_gram_bound(1e5, lam, make_rng(2), N_r=3)
    seen = _spy_svd(monkeypatch)
    full = stage1._solve_bins(A, lam)
    assert 7 in seen and len(seen) < 64            # both paths ran
    for idx in (np.arange(1, 64, 3), [7], [7, 0, 63], np.arange(64)[::-1]):
        assert np.array_equal(stage1._solve_bins(A[idx], lam), full[idx])
