"""Closed-form error statistics, interference powers, noise power, SINR."""

import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy.signal import fftconvolve
from numpy.polynomial.hermite import hermgauss
from scipy.special import roots_hermite

from fbmclink.channel import (PdpProfile, draw_channel, freq_csi, load_pdp,
                              make_rng, trial_rng)
from fbmclink.errors import ConfigError, NumericalError
from fbmclink.fbmc import demodulate, design_prototype
from fbmclink.stage1 import apply_highrate, design_highrate
from fbmclink import theory
from fbmclink.config import P_SYM, SimConfig, channel_assignment
from fbmclink.metrics import SchemeSpec, sweep
from fbmclink.theory import (_dn_range, _ratio_moments,
                             _roundoff_floor, _support, _transmux,
                             average_power, error_stats, interference_table,
                             noise_power, sir_upper_bound, theoretical_sinr)

from oracles import (_gauss_gamma, afb_reference, tau, transmux_response,
                     window)

RATE = 7.68e6


def equivalent_channel(eq, H):
    """Cascade H_eq[l] = (G conv H)[l], shape (N_t, N_t_users, L_g + L_h - 1)."""
    G = eq.taps[:, None, :, :]                       # (N_t, 1, N_r, L_g)
    Hm = np.moveaxis(H, 0, 1)[None, :, :, :]         # (1, N_t', N_r, L_h)
    return fftconvolve(G, Hm, axes=3).sum(axis=2)


# ---------------------------------------------------------------- tau

def test_tau_against_naive_dft(uni4):
    M = 16
    got = tau(uni4, M)
    q = uni4.taps
    want = np.empty((M, M), dtype=complex)
    for m in range(M):
        for mp in range(M):
            want[m, mp] = sum(q[l] * np.exp(2j * np.pi * (m - mp) * l / M)
                              for l in range(q.size))
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(got, got.conj().T, atol=1e-14)
    np.testing.assert_allclose(np.diag(got), 1.0, atol=1e-14)


def test_tau_flat_profile():
    flat = PdpProfile("flat", [1.0], RATE)
    np.testing.assert_allclose(tau(flat, 8), np.ones((8, 8)), atol=1e-15)


# ----------------------------------------------- leading-order statistics

def _wick_oracle(q_src, q_eq, M, N_r, alpha, own):
    """Independent evaluation of the leading-order psi statistics.

    Enumerates the Gaussian pairings of psi[l] = mu[l] + (1/(M N_r)) *
    sum_{m,r} conj(h~_m[r]) b_m(l)[r] e^{j2pi m(l-A)/M} by brute force over
    the (m, m') double sum, without collapsing to the bin-difference domain.
    """
    q_src = np.asarray(q_src, float) / np.sum(q_src)
    q_eq = np.asarray(q_eq, float) / np.sum(q_eq)
    L_h = q_src.size
    A = alpha * M // 2
    n = M + L_h - 1
    ll = np.arange(n)
    lo = np.maximum(0, ll - (M - 1))
    hi = np.minimum(ll, L_h - 1)
    mask = np.zeros((n, L_h))
    for l in range(n):
        mask[l, lo[l]:hi[l] + 1] = 1.0
    Q = mask @ q_src
    lh = np.arange(L_h)
    lhe = np.arange(q_eq.size)

    def t_eq(m, mp):                      # E{conj(h~_m) h~_m'}, equalized user
        return np.sum(q_eq * np.exp(-2j * np.pi * (mp - m) * lhe / M))

    def c_bb(m, mp, l, lp):               # E{b_m(l) conj(b_m'(l'))}
        w = (mask[l] - Q[l]) * (mask[lp] - Q[lp])
        return np.sum(q_src * w * np.exp(-2j * np.pi * (m - mp) * lh / M))

    def c_hb(m, mp, lp):                  # E{conj(h~_m) b_m'(l')}, own user
        w = mask[lp] - Q[lp]
        return np.sum(q_src * w * np.exp(2j * np.pi * (m - mp) * lh / M))

    eps = np.zeros((n, n), complex)
    chk = np.zeros((n, n), complex)
    for l in range(n):
        for lp in range(n):
            se = sc = 0.0
            for m in range(M):
                phl = np.exp(2j * np.pi * m * (l - A) / M)
                for mp in range(M):
                    phlp = np.exp(2j * np.pi * mp * (lp - A) / M)
                    se += phl * np.conj(phlp) * t_eq(m, mp) * c_bb(m, mp, l, lp)
                    if own:
                        sc += phl * phlp * c_hb(m, mp, lp) * c_hb(mp, m, l)
            eps[l, lp] = se / (M * M * N_r)
            chk[l, lp] = sc / (M * M * N_r)
    mu = np.zeros(n, complex)
    sel = (ll - A) % M == 0
    mu[sel] = Q[sel]
    mu[A] -= 1.0
    return eps, chk, mu


def test_leading_stats_own_pair_oracle():
    q = [0.5, 0.3, 0.15, 0.05]
    p = PdpProfile("q4", q, RATE)
    st = error_stats([p, p], 8, 6, 1, (0, 0))       # 1/(N_r - N_t) = 1/4
    eps, chk, mu = _wick_oracle(q, q, 8, 4, 1, own=True)
    assert np.abs(eps).max() > 1e-4            # non-vacuous comparison
    np.testing.assert_allclose(st.eps, eps, atol=1e-12)
    np.testing.assert_allclose(st.eps_check, chk, atol=1e-12)
    np.testing.assert_allclose(st.mu, mu, atol=1e-12)


@pytest.mark.parametrize("alpha", [0, 1])
def test_leading_stats_spilling_pdp_oracle(alpha):
    # support past M/2 turns on the pseudo-covariance and the alias rays of mu
    q = [0.35, 0.0, 0.25, 0.2, 0.1, 0.1]
    p = PdpProfile("q6", q, RATE)
    st = error_stats([p, p], 8, 6, alpha, (0, 0))
    eps, chk, mu = _wick_oracle(q, q, 8, 4, alpha, own=True)
    assert np.abs(chk).max() > 1e-3 and np.abs(mu).max() > 0.05
    np.testing.assert_allclose(st.eps, eps, atol=1e-12)
    np.testing.assert_allclose(st.eps_check, chk, atol=1e-12)
    np.testing.assert_allclose(st.mu, mu, atol=1e-12)


def test_leading_stats_cross_pair_oracle():
    qa = [0.5, 0.3, 0.15, 0.05]
    qb = [0.6, 0.25, 0.1, 0.05]
    pa, pb = PdpProfile("a", qa, RATE), PdpProfile("b", qb, RATE)
    st = error_stats([pa, pb], 8, 6, 1, (0, 1))
    eps, _, _ = _wick_oracle(qb, qa, 8, 4, 1, own=False)
    assert np.abs(eps).max() > 1e-4
    np.testing.assert_allclose(st.eps, eps, atol=1e-12)
    # no pseudo-covariance and no mean across independent users
    assert np.abs(st.eps_check).max() == 0.0
    assert np.abs(st.mu).max() == 0.0


def test_leading_own_pair_cancellation(uni4):
    # when the support stays within M/2 the O(1/N_r) own-pair terms cancel;
    # the surviving error is the O(1/N_r^2) part carried by the exact kernels
    st = error_stats([uni4, uni4], 16, 10, 1, (0, 0))
    assert np.abs(st.eps).max() < 1e-15
    assert np.abs(st.eps_check).max() < 1e-15
    ex = error_stats([uni4], 16, 8, 1, (0, 0))
    assert np.abs(ex.eps).max() > 1e-6


def test_case1_window_zeros(uni4):
    # full-range lags have b = 0: no error mass on l in [L_h-1, M-1]
    M, L_h = 16, uni4.L_h
    for users in (2, 1):    # the leading order, then the exact kernels
        st = error_stats([uni4] * users, M, 8, 1, (0, 0))
        win = slice(L_h - 1, M)
        assert np.abs(st.eps[win, win]).max() < 1e-14
        assert np.abs(st.mu[win]).max() < 1e-14


def test_alias_identities(uni4):
    # psi[l] = -psi[l + M] ties the wrap lags to the leading-edge lags
    M = 16
    st = error_stats([uni4], M, 8, 1, (0, 0))
    for l in range(uni4.L_h - 1):
        assert abs(st.eps[l, l] - st.eps[l + M, l + M]) < 1e-15
        assert abs(st.eps[l + M, l] + st.eps[l, l]) < 1e-15


def test_error_stats_validation(uni4, eva):
    with pytest.raises(ValueError, match="L_h-1 < M"):
        error_stats([eva], 16, 8, 1, (0, 0))
    with pytest.raises(ValueError, match="need N_r > N_t"):
        error_stats([uni4, uni4], 16, 2, 1, (0, 1))
    with pytest.raises(ValueError, match="need N_r > N_t"):
        error_stats([uni4], 16, 1, 1, (0, 0))
    with pytest.raises(ValueError, match="N_r >= 2"):
        _ratio_moments([0.5], 1)


def test_leading_scale_factors():
    # leading kernels carry the explicit 1/(M (N_r - N_t)) normalization
    qa = [0.5, 0.3, 0.15, 0.05]
    qb = [0.6, 0.25, 0.1, 0.05]
    pro = [PdpProfile("a", qa, RATE), PdpProfile("b", qb, RATE)]
    e8 = error_stats(pro, 8, 8, 1, (0, 1)).eps
    e16 = error_stats(pro, 8, 16, 1, (0, 1)).eps
    np.testing.assert_allclose(e16 * 14, e8 * 6, atol=1e-15)
    e3 = error_stats(pro + pro[:1], 8, 15, 1, (0, 1)).eps     # three users
    np.testing.assert_allclose(e3 * 12, e8 * 6, atol=1e-15)


def _psi_cov(stats):
    """Real covariance of the stacked [Re psi; Im psi]."""
    xi, xic = stats.eps, stats.eps_check
    return 0.5 * np.block([
        [(xi + xic).real, (xic - xi).imag],
        [(xi + xic).imag, (xi - xic).real],
    ])


def test_psi_cov_positive_semidefinite(uni4, peda):
    for st in (error_stats([uni4], 16, 8, 1, (0, 0)),
               error_stats([peda], 32, 8, 1, (0, 0))):
        cov = _psi_cov(st)
        ev = np.linalg.eigvalsh(cov)
        assert np.allclose(cov, cov.T, atol=1e-15)
        # nonnegative up to the ~1e-18 kernel-evaluation noise floor
        assert ev.min() >= -(1e-12 * ev.max() + 1e-17)


# ---------------------------------------------------------------- moments

def _moments(bvals, N_r):
    """(g1, g2, g3) from `_ratio_moments`' (g1, k2, k3): g2 = b^2 + s^2 k2,
    g3 = b^2 + s^4 k3 with s^2 = 1 - b^2."""
    b = np.asarray(bvals, dtype=float)
    g1, k2, k3 = _ratio_moments(b, N_r)
    s2 = (1.0 - b) * (1.0 + b)
    return g1, b * b + s2 * k2, b * b + s2 * s2 * k3


def test_ratio_moments_limits():
    # fully correlated vectors: Z = X = Y, closed form is exact
    g1, g2, g3 = _moments([1.0], 8)
    assert (g1[0], g2[0], g3[0]) == (1.0 / 7, 1.0, 1.0)
    # independent vectors: only |Z|^2 survives, E{cos^2} = 1/N_r
    g1, g2, g3 = _moments([0.0], 8)
    assert abs(g1[0]) < 1e-12 and abs(g2[0]) < 1e-12
    assert abs(g3[0] - 1.0 / 8) < 1e-7


def test_ratio_moments_against_simulation():
    rng = make_rng(1)
    N_r, b, T = 4, 0.6, 400000
    x = (rng.standard_normal((T, N_r))
         + 1j * rng.standard_normal((T, N_r))) * np.sqrt(0.5)
    w = (rng.standard_normal((T, N_r))
         + 1j * rng.standard_normal((T, N_r))) * np.sqrt(0.5)
    y = b * x + np.sqrt(1 - b * b) * w
    X = np.sum(np.abs(x) ** 2, 1)
    Y = np.sum(np.abs(y) ** 2, 1)
    Z = np.sum(np.conj(x) * y, 1)
    g1, g2, g3 = _moments([b], N_r)
    assert abs(np.mean(Z / (X * Y)) - g1[0]) < 3e-3
    assert abs(np.mean(Z ** 2 / (X * Y)) - g2[0]) < 3e-3
    assert abs(np.mean(np.abs(Z) ** 2 / (X * Y)) - g3[0]) < 3e-3


def test_ratio_moments_large_array_asymptotics():
    # the moments stay finite at large N_r and approach N_r g1 -> b,
    # g2 -> b^2, g3 -> b^2
    b = 0.6
    for N_r in (128, 256, 512):
        g1, g2, g3 = _moments([b], N_r)
        assert np.isfinite([g1[0], g2[0], g3[0]]).all()
        assert abs(N_r * g1[0] - b) < 0.3 / N_r
        assert abs(g2[0] - b * b) < 0.3 / N_r
        assert abs(g3[0] - b * b) < 0.5 / N_r


def test_gauss_gamma_matches_reference():
    from scipy.special import roots_genlaguerre
    x1, w1 = _gauss_gamma(48, 7.0)
    x2, w2 = roots_genlaguerre(48, 7.0)
    np.testing.assert_allclose(x1, x2, atol=1e-10)
    np.testing.assert_allclose(w1, w2 / w2.sum(), atol=1e-13)


@pytest.mark.parametrize("a", [0.5, 6.5])
def test_gauss_gamma_matches_reference_at_half_integer_shape(a):
    # the T ~ Gamma(N_r - 1/2) rule of the 3-D reference at N_r = 2 and 8
    from scipy.special import roots_genlaguerre
    x1, w1 = _gauss_gamma(80, a)
    x2, w2 = roots_genlaguerre(80, a)
    np.testing.assert_allclose(x1, x2, atol=1e-10)
    np.testing.assert_allclose(w1, w2 / w2.sum(), atol=1e-13)


@pytest.mark.parametrize("nh", [5, 24, 48])
def test_hermite_rule_matches_reference(nh):
    # numpy's Hermite rule, as a w_r rule would use it unfolded: symmetric,
    # with an exact zero node at odd orders
    x1, w1 = hermgauss(nh)
    x2, w2 = roots_hermite(nh)
    np.testing.assert_allclose(x1, x2, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w1, w2, rtol=0, atol=1e-14)
    assert np.array_equal(x1, -x1[::-1])
    assert np.count_nonzero(x1 == 0.0) == nh % 2


def _hypergeometric_oracle(bvals, N_r, mpmath):
    """(g1, k2, k3) from J = 2F1(1,1;N_r+1;z)/N_r at 50 digits, z = b^2:
    g1 = b J, k2 = 1 - N_r J, k3 = (1 - (N_r-1) J)/(1 - z)."""
    out = []
    with mpmath.workdps(50):
        for b in bvals:
            b = mpmath.mpf(float(b))
            J = mpmath.hyp2f1(1, 1, N_r + 1, b * b) / N_r
            out.append((b * J, 1 - N_r * J, (1 - (N_r - 1) * J) / (1 - b * b)))
    return np.array(out, dtype=float).T


@pytest.mark.parametrize("N_r", [2, 3, 4, 8, 16, 64, 256, 1024])
def test_ratio_moments_match_hypergeometric_oracle(N_r):
    # both sides of z = 1/2 (b = 0.7071...), where the series hands over to
    # the recurrence below N_r = 16, and up to b = 1 - 1e-12
    mpmath = pytest.importorskip("mpmath")
    b = np.concatenate([np.linspace(0.0, 0.99, 12),
                        [1e-8, 0.7071067, 0.7071068, 0.9, 0.999, 1 - 1e-6,
                         1 - 1e-9, 1 - 1e-12]])
    got = np.array(_ratio_moments(b, N_r))
    np.testing.assert_allclose(got, _hypergeometric_oracle(b, N_r, mpmath),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("N_r", [2, 3, 64])
def test_ratio_moments_finite_and_continuous_at_full_correlation(N_r):
    # b = 1 and b = 1 + 2^-52 (|t|/t0 rounded up) read the b = 1 limits
    # g1 = 1/(N_r-1), k2 = -1/(N_r-1), k3 = 1/(N_r-2); at N_r = 2, k3
    # diverges like -log(1 - b^2), and b = 1 reads a finite value
    edge = np.array(_ratio_moments([1.0, 1.0 + 2.0 ** -52], N_r))
    assert np.isfinite(edge).all()
    assert np.array_equal(edge[:, 0], edge[:, 1])
    limits = [1 / (N_r - 1), -1 / (N_r - 1)] + ([1 / (N_r - 2)] if N_r > 2
                                                else [])
    np.testing.assert_allclose(edge[:len(limits), 0], limits, rtol=1e-14)
    near = np.array(_ratio_moments([1 - 1e-9, 1 - 1e-12], N_r))
    np.testing.assert_allclose(near[:len(limits), 1], limits, rtol=1e-9)
    err = np.abs(near[:len(limits)] - edge[:len(limits), :1])
    assert np.all(err[:, 1] < err[:, 0])    # closer at the nearer point


# ------------------------------------------------------ physical validation

def test_exact_stats_match_channel_simulation(eva):
    # mean |psi[l]|^2 of the real frequency-sampled ZF chain
    M, N_r, alpha, T = 64, 16, 1, 600
    A = alpha * M // 2
    st = error_stats([eva], M, N_r, alpha, (0, 0))
    th = np.real(np.diag(st.eps)) + np.abs(st.mu) ** 2
    acc = np.zeros(st.n)
    for tr in range(T):
        H = draw_channel([eva], N_r, trial_rng(777, tr))
        eq = design_highrate(freq_csi(H, M), alpha=alpha)
        psi = equivalent_channel(eq, H)[0, 0]
        psi[A] -= 1.0
        acc += np.abs(psi) ** 2
    mc = acc / T
    sel = th > 1e-2 * th.max()
    rel = np.abs(mc[sel] - th[sel]) / th[sel]
    assert sel.sum() > 20
    assert np.median(rel) < 0.15
    assert rel.max() < 0.35


def test_single_user_sinr_matches_monte_carlo(peda):
    # one fig4 point at its smallest N_r, where the exact kernels matter
    # most: the high-rate Monte Carlo SINR against the closed form, within
    # three jackknife standard errors
    cfg = SimConfig(M=64, N_t=1, N_r=4, channels=("PedA",), gamma_db=30.0,
                    trials=1500)
    rep = sweep(cfg, "gamma_db", [30.0],
                [SchemeSpec("highrate")]).get(30.0, "highrate")
    th = theoretical_sinr([peda], design_prototype(cfg.kappa, 64), 64, 4,
                          cfg.alpha, cfg.subcarrier, 0, cfg.noise_var(),
                          P_s=P_SYM)
    assert rep.sinr_se_db > 0
    assert abs(rep.sinr_db - th) <= 3 * rep.sinr_se_db, (rep.sinr_db, th)


# ---------------------------------------------------------------- noise

def test_noise_power_zero_and_flat(pf32):
    flat = PdpProfile("flat", [1.0], RATE)
    assert noise_power(flat, pf32, 32, 8, 0.0) == 0.0
    # flat channel: every bin combiner is the same MRC row, power s2/(2(N_r-1))
    for N_r in (4, 8):
        got = noise_power(flat, pf32, 32, N_r, 0.3)
        assert abs(got - 0.3 / (2 * (N_r - 1))) < 1e-12
    with pytest.raises(ValueError, match="N_r > N_t"):
        noise_power(flat, pf32, 32, 4, 0.3, N_t=4)


def test_noise_power_against_simulation(eva, pf32):
    s2 = 0.4
    want = noise_power(eva, pf32, 32, 8, s2)
    vals = []
    for tr in range(60):
        rng = trial_rng(55, tr)
        H = draw_channel([eva], 8, rng)
        eq = design_highrate(freq_csi(H, 32), alpha=1)
        zlen = pf32.L_f + 160 * 16
        z = np.sqrt(s2 / 2) * (rng.standard_normal((8, zlen))
                               + 1j * rng.standard_normal((8, zlen)))
        D = demodulate(apply_highrate(z, eq)[0], pf32)
        ks = np.arange(8, D.shape[1] - 8, 4)
        vals.append(0.5 * np.mean(np.abs(D[16, ks]) ** 2))
    assert abs(np.mean(vals) - want) / want < 0.10


# ------------------------------------------------------ interference table

def test_interference_table_geometry(pf64, peda):
    tab = interference_table(pf64, 32)
    # the own-lattice peak F_{mm}[0], read at lag alpha M/2 of the window
    assert window(tab, 32, 1, 0, peda.L_h)[32, 32].real == pytest.approx(
        1.0, abs=1e-12)
    assert window(tab, 32, 1, 1, peda.L_h).shape == (64 + peda.L_h - 1, 64)
    dns = _dn_range(64, pf64.L_f, 1, 64 + peda.L_h - 1).tolist()
    assert 0 in dns and max(dns) >= 2 * pf64.kappa


@pytest.mark.parametrize("kappa", [2, 3, 4])
@pytest.mark.parametrize("M", [4, 8, 16, 64])
def test_dn_range_matches_window_oracle(M, kappa):
    # every dn for which some lag l in [0, n) has |(dn+alpha) M/2 - l| < L_f,
    # over alpha up to alpha_bound = 3 and every L_h in [1, M]
    L_f = kappa * M
    search = np.arange(-4 * kappa - 8, 4 * kappa + 9)
    for alpha in range(4):
        for L_h in range(1, M + 1):
            n = M + L_h - 1
            lags = (search[:, None] + alpha) * (M // 2) - np.arange(n)
            want = search[np.any(np.abs(lags) < L_f, axis=1)]
            assert search[0] < want[0] and want[-1] < search[-1]
            np.testing.assert_array_equal(_dn_range(M, L_f, alpha, n), want)


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_lattice_matches_triple_sum_oracle(alpha):
    # R[k, m', j] = Re{j^((m'-m-dn) mod 4) sum_l F[m', i0 - l] c[k, l]},
    # summed term by term with F zero beyond the table
    M, kappa, m, L = 16, 4, 5, 40
    pf = design_prototype(kappa, M)
    F, W = interference_table(pf, m), 2 * pf.L_f - 1
    rng = np.random.default_rng(alpha)
    c = rng.standard_normal((2, L)) + 1j * rng.standard_normal((2, L))
    c[:, [0, -1]] = 0.0             # the read span is lags 1 .. L-2
    gapped = c.copy()               # two runs: a gap of over M/2 lags
    gapped[:, 6:30] = 0.0
    gapped[1, 30:] = 0.0
    for c in (c, gapped):
        dns, R = theory._lattice(F, m, alpha, c)
        np.testing.assert_array_equal(dns, _dn_range(M, pf.L_f, alpha, L))
        i0s = ((dns + alpha) * (M // 2) + pf.L_f - 1).tolist()
        assert i0s[0] - (L - 2) < 0 and i0s[-1] - 1 >= W   # clipped at both ends
        want = np.zeros((2, M, dns.size))
        for k in range(2):
            for mp in range(M):
                for j, (dn, i0) in enumerate(zip(dns.tolist(), i0s)):
                    acc = sum(F[mp, i0 - l] * c[k, l] for l in range(L)
                              if 0 <= i0 - l < W)
                    want[k, mp, j] = (1j ** ((mp - m - dn) % 4) * acc).real
        np.testing.assert_allclose(R, want, rtol=0,
                                   atol=1e-13 * abs(want).max())
    zero = theory._lattice(F, m, alpha, np.zeros((2, L), dtype=complex))
    assert np.array_equal(zero[0], dns) and zero[1].shape == R.shape
    assert not zero[1].any()
    if alpha == 0:      # the unit impulse reads the loopback columns exactly
        dns, R = theory._lattice(F, m, 0, np.ones(1))
        np.testing.assert_array_equal(dns, np.arange(1 - 2 * kappa, 2 * kappa))
        ph = np.array([1, 1j, -1, -1j])[(np.arange(M)[:, None] - m - dns) % 4]
        assert np.array_equal(R, (F[:, dns * (M // 2) + pf.L_f - 1] * ph).real)


@pytest.mark.parametrize("M", [4, 8, 16, 64, 256])
def test_support_matches_mask_oracle(M):
    for alpha in (0, 1, 2):
        A = alpha * M // 2
        for L_h in sorted({1, 2, M // 2, M}):
            n = M + L_h - 1
            ll = np.arange(n)
            want = (np.nonzero((ll[:, None] - ll) % M == 0),
                    np.nonzero((ll[:, None] + ll - 2 * A) % M == 0))
            for got_band, want_band in zip(_support(n, M, A), want):
                for g, w in zip(got_band, want_band):
                    np.testing.assert_array_equal(g, w)


def _counting_afb(monkeypatch):
    calls = []
    real = theory._afb

    def afb(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(theory, "_afb", afb)
    return calls


_SNRS = (1.0, 0.1, 0.01, 1e-3, 0.0)


def test_sweep_and_bound_build_one_table_per_prototype(monkeypatch, peda):
    calls = _counting_afb(monkeypatch)
    pf = design_prototype(4, 32)
    for s2 in _SNRS:
        theoretical_sinr([peda], pf, 32, 8, 1, 16, 0, s2, P_s=0.5)
    sir_upper_bound(pf, 32, 1, 16)
    assert len(calls) == 1
    # an equal but distinct prototype object gets its own table
    theoretical_sinr([peda], design_prototype(4, 32), 32, 8, 1, 16, 0, 0.1,
                     P_s=0.5)
    assert len(calls) == 2
    F = interference_table(pf, 16)
    assert not F.flags.writeable
    with pytest.raises(ValueError):
        F[0, 0] = 0.0
    # one subcarrier per prototype: asking for another one replaces it
    interference_table(pf, 3)
    assert len(calls) == 3 and theory._TABLES[pf][0] == 3


def test_held_table_is_freed_with_its_prototype():
    pf = design_prototype(4, 16)
    held = weakref.ref(interference_table(pf, 8))
    assert held() is not None
    del pf
    gc.collect()
    assert held() is None


def test_sweep_equals_fresh_prototypes(peda, eva):
    pf = design_prototype(4, 32)
    for prof in (peda, eva):
        held = [theoretical_sinr([prof], pf, 32, 8, 1, 16, 0, s2, P_s=0.5)
                for s2 in _SNRS]
        fresh = [theoretical_sinr([prof], design_prototype(4, 32), 32, 8, 1,
                                  16, 0, s2, P_s=0.5) for s2 in _SNRS]
        assert held == fresh


def _clear_holds():
    theory._GEOMETRY[0] = None
    theory._TABLES.clear()


def test_held_terms_equal_evaluations_with_holds_cleared(peda, eva):
    pf = design_prototype(4, 64)
    # one PDP's N_r and gamma axes at two symbol powers (exact statistics),
    # then a two-user leading-order point for each user
    calls = [([peda], N_r, 0, s2, P_s) for P_s in (0.5, 1.0)
             for N_r in (8, 16) for s2 in _SNRS]
    calls += [([peda, eva], 16, u, 0.01, 0.5) for u in (0, 1, 0)]
    _clear_holds()
    held = [theoretical_sinr(pro, pf, 64, N_r, 1, 32, u, s2, P_s=P_s)
            for pro, N_r, u, s2, P_s in calls]
    fresh = []
    for pro, N_r, u, s2, P_s in calls:
        _clear_holds()
        fresh.append(theoretical_sinr(pro, pf, 64, N_r, 1, 32, u, s2,
                                      P_s=P_s))
    assert held == fresh


def test_error_stats_sequence_equals_evaluations_with_holds_cleared(peda,
                                                                   eva):
    # each call differs from the one before in one part of the geometry's
    # key: the equalized PDP of a cross pair, own pair against a twin,
    # exact (one user), alpha, M
    calls = [([peda, eva], 64, 1, (0, 1)),
             ([eva, eva], 64, 1, (0, 1)),
             ([eva, eva], 64, 1, (0, 0)),
             ([eva], 64, 1, (0, 0)),
             ([eva], 64, 0, (0, 0)),
             ([eva], 128, 0, (0, 0))]

    def run(pro, M, alpha, pair):
        st = error_stats(pro, M, 16, alpha, pair)
        return st.eps_band, st.check_band, st.mu

    _clear_holds()
    held = [run(*c) for c in calls]
    for c, got in zip(calls, held):
        _clear_holds()
        for g, w in zip(got, run(*c)):
            assert np.array_equal(g, w)


def test_pdp_changed_in_place_gives_the_fresh_result(pf32):
    prof = PdpProfile("q", [0.5, 0.3, 0.2], RATE)
    before = theoretical_sinr([prof], pf32, 32, 8, 1, 16, 0, 0.01)
    prof.taps[:] = [0.2, 0.3, 0.5]
    after = theoretical_sinr([prof], pf32, 32, 8, 1, 16, 0, 0.01)
    _clear_holds()
    want = theoretical_sinr([PdpProfile("r", [0.2, 0.3, 0.5], RATE)], pf32,
                            32, 8, 1, 16, 0, 0.01)
    assert after == want != before


def _held_weights(pf):
    """The arrays held with the table of pf: the Gram bands first."""
    held = dict(theory._TABLES[pf][2])
    return [held.pop("gram")] + [w for ws in held.values() for w in ws]


def test_held_gram_bands_are_read_only(peda, eva):
    pf = design_prototype(4, 32)
    F = interference_table(pf, 16)
    for prof in (peda, eva):    # two n: own-pair weights for each
        st = error_stats([prof], 32, 8, 1, (0, 0))
        want = average_power(st, F.copy("K"), 16, 0.5)      # nothing held
        for _ in range(2):      # the weights built, then read
            assert average_power(st, F, 16, 0.5) == want
    held = _held_weights(pf)
    assert len(held) == 1 + 2 * 4
    for w in held:
        with pytest.raises(ValueError):
            w[0] = 0.0


def test_held_gram_bands_are_freed_with_their_prototype(peda):
    pf = design_prototype(4, 16)
    st = error_stats([peda], 16, 8, 1, (0, 0))
    average_power(st, interference_table(pf, 8), 8, 1.0)
    held = [weakref.ref(w) for w in _held_weights(pf)]
    assert len(held) == 5 and all(h() is not None for h in held)
    del pf
    gc.collect()
    assert all(h() is None for h in held)


def test_nr_points_of_one_pdp_build_one_geometry(monkeypatch, eva, pf64):
    calls = []
    build = theory._geometry
    monkeypatch.setattr(theory, "_geometry",
                        lambda *args: calls.append(1) or build(*args))
    _clear_holds()
    for N_r in (16, 64):
        for s2 in _SNRS:
            theoretical_sinr([eva], pf64, 64, N_r, 1, 32, 0, s2)
    assert len(calls) == 1


@pytest.mark.parametrize("M", [16, 64, 256])
def test_bound_reads_the_held_table_bit_for_bit(M):
    for kappa in (2, 3, 4):
        dns = np.arange(1 - 2 * kappa, 2 * kappa)
        for m in (0, M // 2, M - 1):
            pf = design_prototype(kappa, M)
            alone = sir_upper_bound(pf, M, 1, m)        # nothing held yet
            F = interference_table(pf, m)
            np.testing.assert_array_equal(
                F[:, dns * (M // 2) + pf.L_f - 1],
                _transmux(pf, m, dns * (M // 2)))
            assert sir_upper_bound(pf, M, 1, m) == alone


def test_table_is_the_reference_fold_bit_for_bit():
    pf = design_prototype(4, 256)
    lags = np.arange(1 - pf.L_f, pf.L_f)
    want = np.conj(afb_reference(pf.subcarrier_filter(128), pf, -lags))
    assert np.array_equal(interference_table(pf, 128), want)


def _sinr_per_user_oracle(profiles, pf, M, N_r, alpha, m, u, sigma_z2, P_s):
    """theoretical_sinr with error_stats and average_power run for every
    user pair, one after another."""
    F = interference_table(pf, m)
    N_t = len(profiles)
    interference, exact_eq = 0.0, True
    for up in range(N_t):
        stats = error_stats(profiles, M, N_r, alpha, (u, up))
        exact_eq &= not (stats.eps.any() or stats.eps_check.any()
                         or stats.mu.any())
        rest, entry = average_power(stats, F, m, P_s)
        if up == u:
            desired = entry
            n_bank = M * _dn_range(M, pf.L_f, alpha, stats.n).size - 1
        else:
            rest += entry
        interference += rest
    if exact_eq and interference <= _roundoff_floor(n_bank, pf.L_f) * desired:
        interference = 0.0
    total = interference + noise_power(profiles[u], pf, M, N_r, sigma_z2,
                                       N_t=N_t)
    return 10.0 * np.log10(desired / total)


def test_multiuser_sinr_evaluates_each_source_pdp_once(monkeypatch):
    names = channel_assignment(SimConfig(M=64, N_t=8, N_r=32))
    assert len(set(names)) == 4
    first = {nm: load_pdp(nm, RATE) for nm in set(names)}
    shared = [first[nm] for nm in names]
    distinct = [load_pdp(nm, RATE) for nm in names]
    pf = design_prototype(4, 64)
    calls = []
    real = theory.error_stats

    def counted(*args, **kwargs):
        calls.append(args[4])
        return real(*args, **kwargs)
    for u in (0, 3, 6):
        want = _sinr_per_user_oracle(shared, pf, 64, 32, 1, 32, u, 0.01, 0.5)
        monkeypatch.setattr(theory, "error_stats", counted)
        for profiles in (shared, distinct):
            calls.clear()
            assert theoretical_sinr(profiles, pf, 64, 32, 1, 32, u, 0.01,
                                    P_s=0.5) == want
            # the own pair, its twin's PDP as a cross pair, and three others
            assert len(calls) == 5 and (u, u) in calls
        monkeypatch.undo()


def test_interference_confined_to_adjacent_ring(pf64, peda):
    # outside |dm| <= 1, |dn| <= 2 kappa the average power is negligible
    tab = interference_table(pf64, 32)
    st = error_stats([peda], 64, 8, 1, (0, 0))
    dns = _dn_range(64, pf64.L_f, 1, st.n).tolist()
    powers = _average_power_oracle(st, tab, 64, 32, 1, dns, 1.0)
    j0 = dns.index(0)
    _, entry = average_power(st, tab, 32, 1.0)
    for desired in (entry, powers[32, j0]):     # desired entry carries P_s
        assert abs(desired - 1.0) < 1e-12
    outside = 0.0
    for j, dn in enumerate(dns):
        for mp in range(64):
            dm = min((mp - 32) % 64, (32 - mp) % 64)
            if dm > 1 or abs(dn) > 2 * pf64.kappa:
                outside = max(outside, powers[mp, j])
    assert outside < 1e-6


# ---------------------------------------------------------------- SINR

def test_flat_channel_sinr_equals_bound():
    # kappa=2 covers the orthogonal bank, where both sides are +inf
    flat = PdpProfile("flat", [1.0], RATE)
    for kappa in (2, 4):
        pf = design_prototype(kappa, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = theoretical_sinr([flat], pf, 64, 8, 1, 32, 0, 0.0, P_s=0.5)
        b = sir_upper_bound(pf, 64, 1, 32)
        if np.isinf(b):
            assert a == b
        else:
            assert abs(a - b) < 1e-9


def test_flat_channels_orthogonal_bank_with_noise():
    # the round-off loopback of the kappa=2 bank counts as zero interference,
    # so a flat channel leaves the desired-over-noise ratio, and two flat
    # users (exact multi-user ZF) are still interference-free without noise
    flat = PdpProfile("flat", [1.0], RATE)
    pf = design_prototype(2, 64)
    noise = noise_power(flat, pf, 64, 8, 0.01)
    got = theoretical_sinr([flat], pf, 64, 8, 1, 32, 0, 0.01, P_s=0.5)
    assert np.isfinite(got)
    _, desired = average_power(
        error_stats([flat], 64, 8, 1, (0, 0)),
        interference_table(pf, 32), 32, 0.5)
    assert abs(got - 10 * np.log10(desired / noise)) < 1e-12
    assert theoretical_sinr([flat, flat], pf, 64, 8, 1, 32, 0, 0.0,
                            P_s=0.5) == np.inf


def test_multiuser_cancellation_is_not_reported_as_orthogonal(peda):
    # two PedA users on kappa=2: the leading-order multi-user statistics are
    # nonzero but their own-pair powers cancel analytically, which is not
    # float64 round-off of the bank, so the +inf rule must not apply (the
    # single-user exact kernel gives ~108 dB for the same channel); the
    # total is then negative round-off, a NumericalError rather than a NaN
    pf = design_prototype(2, 64)
    with pytest.raises(NumericalError):
        theoretical_sinr([peda, peda], pf, 64, 8, 1, 32, 0, 0.0, P_s=0.5)


def test_sir_upper_bound_reference_values(pf64):
    # kappa=3/4 references: the same loopback sum recomputed at 50 digits in
    # mpmath from the published PHYDYAS coefficients (43.4330726180 and
    # 65.2038957990 dB); see test_sir_upper_bound_high_precision_oracle
    assert abs(sir_upper_bound(pf64, 64, 1, 32) - 65.203895799) < 1e-6
    assert abs(sir_upper_bound(design_prototype(3, 64), 64, 1, 32)
               - 43.433072618) < 1e-6
    # kappa=2 is exactly orthogonal (the 50-digit interference energy is
    # ~1e-101), so there is no finite ceiling on any subcarrier, edges included
    for M in (4, 16, 64, 256):
        pf2 = design_prototype(2, M)
        for m in (0, M // 2, M - 1):
            assert sir_upper_bound(pf2, M, 1, m) == np.inf
    # largest float64 round-off seen for kappa=2 (M <= 1024)
    assert sir_upper_bound(design_prototype(2, 1024), 1024, 1, 1023) == np.inf
    # interior subcarriers all see the same floor
    assert abs(sir_upper_bound(pf64, 64, 1, 16)
               - sir_upper_bound(pf64, 64, 1, 32)) < 1e-9


# published PHYDYAS sideband coefficients H_1..H_{kappa-1} (H_0 = 1)
_PHYDYAS_DIGITS = {2: ("sqrt2/2",),
                   3: ("0.91143783", "0.41143783"),
                   4: ("0.97195983", "sqrt2/2", "0.23514695")}


def _mp_loopback_energy(mp, kappa, M, m):
    """Loopback interference energy of the PHYDYAS bank at mpmath precision.

    Builds the prototype and the subcarrier filters from their definitions
    and sums Re{F_{mm'}[dn M/2] j^{m'-m-dn}}^2 over (m', dn) != (m, 0), with
    F_{mm'}[l] = sum_k f_m'[k] conj(f_m[k-l]).  Returns (energy, n_terms).
    """
    L = kappa * M
    H = [mp.sqrt(2) / 2 if h == "sqrt2/2" else mp.mpf(h)
         for h in _PHYDYAS_DIGITS[kappa]]
    p = [1 + sum(2 * (-1) ** k * h * mp.cos(2 * mp.pi * k * (l + 0.5) / L)
                 for k, h in enumerate(H, start=1)) for l in range(L)]
    norm = mp.sqrt(mp.fsum(v * v for v in p))
    c = mp.mpf(L - 1) / 2

    def filt(k):
        return [p[t] / norm * mp.expjpi(2 * k * (t - c) / M) for t in range(L)]

    f_m = [mp.conj(v) for v in filt(m)]
    energy, n_terms = mp.mpf(0), 0
    for mp_ in range(M):
        f_mp = filt(mp_)
        for dn in range(-2 * kappa + 1, 2 * kappa):
            if mp_ == m and dn == 0:
                continue
            lag = dn * M // 2
            F = mp.fsum(f_mp[k] * f_m[k - lag]
                        for k in range(max(0, lag), min(L, L + lag)))
            coef = mp.re(F * (1, 1j, -1, -1j)[(mp_ - m - dn) % 4])
            energy += coef * coef
            n_terms += 1
    return energy, n_terms


@pytest.mark.parametrize("M", [8, 16])
def test_sir_upper_bound_high_precision_oracle(M):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for m in (0, M // 2, M - 1):
            for kappa in (3, 4):
                energy, _ = _mp_loopback_energy(mpmath, kappa, M, m)
                want = float(10 * mpmath.log10(1 / energy))
                got = sir_upper_bound(design_prototype(kappa, M), M, 1, m)
                assert abs(got - want) < 1e-9
            energy, n_terms = _mp_loopback_energy(mpmath, 2, M, m)
            # zero to working precision: below the rounding model
            # n_terms * (L_f eps)^2 of sir_upper_bound at mpmath's eps
            assert energy <= n_terms * (2 * M * mpmath.eps) ** 2
            assert sir_upper_bound(design_prototype(2, M), M, 1, m) == np.inf


def test_sinr_trends(peda, pf32):
    vals = [theoretical_sinr([peda], pf32, 32, nr, 1, 16, 0, 0.05, P_s=0.5)
            for nr in (4, 8, 16)]
    assert vals[0] < vals[1] < vals[2]
    # in the noise-limited regime doubling the noise costs 3.01 dB
    hi = [theoretical_sinr([peda], pf32, 32, 8, 1, 16, 0, s2, P_s=0.5)
          for s2 in (50.0, 100.0)]
    assert abs(hi[0] - hi[1] - 3.0103) < 0.01


# ------------------------------------------------ brute-force kernel oracles
# Straightforward per-lag, per-row, per-m' and 4-D evaluations of the closed
# form. The module evaluates the same sums on the band support of eps and
# eps_check, from one analysis-bank pass, and the ratio moments as one
# hypergeometric function; both must agree to 1e-12 of the maximum.

def _assert_close(got, want, rel=1e-12):
    """|got - want| <= rel max|want|, and a 1e-9 relative bump of the largest
    entry of got must break that (the comparison is not vacuous)."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.abs(want).max()
    assert scale > 0
    assert np.abs(got - want).max() <= rel * scale
    bumped = got.astype(complex)
    bumped.flat[np.argmax(np.abs(want))] *= 1 + 1e-9
    assert np.abs(bumped - want).max() > rel * scale


def _ratio_moments_oracle(bvals, N_r, nx=48, ng=48, nh=24):
    """The former rule: the full 4-D (X, G, w_r, w_i) grid."""
    xg, xw = _gauss_gamma(nx, N_r - 1)
    gg, gw = _gauss_gamma(ng, N_r - 2)
    hr, hw = roots_hermite(nh)
    hw = hw / hw.sum()
    X = xg[:, None, None, None]
    G = gg[None, :, None, None]
    wr = hr[None, None, :, None]
    wi = hr[None, None, None, :]
    W = (xw[:, None, None, None] * gw[None, :, None, None]
         * hw[None, None, :, None] * hw[None, None, None, :])
    sqX = np.sqrt(X)
    out = []
    for b in bvals:
        if b >= 1.0 - 1e-12:
            out.append((1.0 / (N_r - 1), 1.0, 1.0))
            continue
        s = np.sqrt(1.0 - b * b)
        Zr = b * X + s * sqX * wr
        Zi = s * sqX * wi
        Y = b * b * X + 2 * b * s * sqX * wr + s * s * (wr * wr + wi * wi + G)
        inv_xy = W / (X * Y)
        out.append((np.sum(Zr * inv_xy), np.sum((Zr * Zr - Zi * Zi) * inv_xy),
                    np.sum((Zr * Zr + Zi * Zi) * inv_xy)))
    return np.array(out).T


def _ratio_moments_reference(bvals, N_r, nx, nt, nh):
    """The 3-D rule at high order, its T sum one product per block of X
    nodes, in bounded memory."""
    xg, xw = _gauss_gamma(nx, N_r - 1)
    tg, tw = _gauss_gamma(nt, N_r - 1.5)
    hr, hw = roots_hermite(nh)
    hw = hw / hw.sum()
    beta = 1.0 / (2 * N_r - 1)
    out = []
    for b in bvals:
        s2 = 1.0 - b * b
        g1 = A2 = 0.0
        for k in range(0, nx, 16):
            sqX = np.sqrt(xg[k:k + 16])[:, None]
            a = b * sqX + np.sqrt(s2) * hr
            W = xw[k:k + 16, None] * hw * ((1.0 / (a[..., None] ** 2
                                                  + s2 * tg)) @ tw)
            g1 += np.sum(W * a / sqX)
            A2 += np.sum(W * a * a)
        out.append((g1, A2 - (1 - A2) * beta, A2 + (1 - A2) * beta))
    return np.array(out).T


def _error_stats_oracle(profiles, M, N_r, alpha, pair, exact, n_eff):
    """(eps, eps_check, mu) from the per-lag loops over every l and the lags
    l' = l, l +- M (eps) and l' = 2A - l (mod M) (eps_check); the exact
    kernels (g1, k2, k3) come from `_ratio_moments`, which has its own
    oracles above and below, and the leading order is scaled by
    1/(M n_eff)."""
    u, up = pair
    q = np.asarray(profiles[up].taps, dtype=float)
    q = q / q.sum()
    L_h = q.size
    tau_u = tau(profiles[u], M)
    t = (tau_u / tau_u[0, 0].real)[:, 0]
    A = alpha * M // 2
    n = M + L_h - 1
    ll = np.arange(n)
    lo = np.maximum(0, ll - (M - 1))
    hi = np.minimum(ll, L_h - 1)
    qc = np.concatenate([[0.0], np.cumsum(q)])
    Q = qc[hi + 1] - qc[lo]
    dgrid = np.arange(M)
    # phase arguments reduced modulo M, as in the module
    Wd = np.exp(-2j * np.pi * (np.outer(dgrid, np.arange(L_h)) % M) / M) * q
    pre = np.concatenate([np.zeros((M, 1), dtype=complex),
                          np.cumsum(Wd, axis=1)], axis=1)
    S = pre[:, hi + 1] - pre[:, lo]
    full = pre[:, L_h]
    ph = np.exp(2j * np.pi * (np.outer(dgrid, ll - A) % M) / M)
    U = np.conj(S) - Q[None, :] * t[:, None]
    V = S - Q[None, :] * np.conj(t)[:, None]
    if exact:
        babs = np.abs(t)
        g1, k2, k3 = _ratio_moments(babs, N_r)
        ph1 = t / np.where(babs < 1e-300, 1.0, babs)
        s2 = 1.0 - babs * babs
        inv_s2 = np.where(s2 < 1e-8, 0.0, 1.0 / np.where(s2 == 0, 1.0, s2))
        k_eps2 = np.where(s2 < 1e-8, 0.0, k2) * ph1 * ph1
        k_chk = np.where(s2 < 1e-8, 0.0, k3)
        k_j1 = ph1 * g1
    else:
        scale = 1.0 / (M * n_eff)
    eps = np.zeros((n, n), dtype=complex)
    for l in range(n):
        for lp in (l - M, l, l + M):
            if not 0 <= lp < n:
                continue
            a, b = max(lo[l], lo[lp]), min(hi[l], hi[lp])
            inter = pre[:, b + 1] - pre[:, a] if b >= a else 0.0
            C = inter - Q[l] * S[:, lp] - Q[lp] * S[:, l] + Q[l] * Q[lp] * full
            if exact:
                gg = V[:, l] * np.conj(U[:, lp]) * inv_s2
                T = gg * k_eps2 + (C + t * gg) * k_j1
                eps[l, lp] = np.sum(T * ph[:, lp]) / M
            else:
                eps[l, lp] = scale * np.sum(t * C * ph[:, lp])
    eps_check = np.zeros((n, n), dtype=complex)
    mu = np.zeros(n, dtype=complex)
    if u == up:
        for l in range(n):
            for lp in range((2 * A - l) % M, n, M):
                if exact:
                    Tc = V[:, l] * U[:, lp] * k_chk
                    eps_check[l, lp] = np.sum(Tc * np.conj(ph[:, lp])) / M
                else:
                    eps_check[l, lp] = scale * np.sum(
                        U[:, lp] * V[:, l] * np.conj(ph[:, lp]))
        peaks = (ll - A) % M == 0
        mu[peaks] = Q[peaks]
        mu[A] -= 1.0
    return eps, eps_check, mu


def _table_oracle(pf, M, m):
    """F_{mm'}[l] for every m' by direct convolution."""
    return np.stack([transmux_response(pf, m, mp) for mp in range(M)])


def _average_power_oracle(stats, F, M, m, alpha, dns, P_s):
    """Per-row [Re v; -Im v] vectors through the dense real covariance."""
    n, L_f = stats.n, (F.shape[1] + 1) // 2
    own = stats.pair[0] == stats.pair[1]
    vecs, peaks = [], []
    for mp in range(M):
        for dn in dns:
            ph = 1j ** ((mp - m - dn) % 4)
            i = (dn + alpha) * (M // 2) - np.arange(n) + L_f - 1
            ok = (i >= 0) & (i < F.shape[1])
            v = np.zeros(n, dtype=complex)
            v[ok] = F[mp, i[ok]] * ph
            vecs.append(np.concatenate([v.real, -v.imag]))
            i0 = dn * (M // 2) + L_f - 1
            peaks.append((F[mp, i0] * ph).real if 0 <= i0 < F.shape[1]
                         else 0.0)
    vecs = np.array(vecs)
    quad = np.einsum("ij,jk,ik->i", vecs, _psi_cov(stats), vecs)
    amp = np.zeros(len(vecs))
    if own:
        amp = vecs @ np.concatenate([stats.mu.real, stats.mu.imag])
        amp += np.array(peaks)
    return ((quad + amp * amp) * P_s).reshape(M, len(dns))


def _noise_power_oracle(profile, pf, M, N_r, alpha, sigma_z2, m, N_t):
    """Dense form: the M bin responses through f_m, weighted by the combiner
    cross moments of every bin pair."""
    tmat = tau(profile, M)
    c0 = tmat[0, 0].real
    tmat = tmat / c0
    ll = np.arange(M)
    E = np.exp(2j * np.pi * ll[:, None] * (ll[None, :] - alpha * M // 2) / M)
    Amat = fftconvolve(E, pf.subcarrier_filter(m)[::-1][None, :], axes=1)
    B = Amat @ Amat.conj().T
    if N_t == 1:
        t = tmat[:, 0]
        babs = np.abs(t)
        g1 = _ratio_moments(babs, N_r)[0]
        j1 = t / np.where(babs < 1e-300, 1.0, babs) * g1
        K = j1[(ll[None, :] - ll[:, None]) % M]
    else:
        K = tmat.T / (N_r - N_t)
    return (sigma_z2 / (2 * M * M * c0) * np.sum(B * K)).real


def _loopback_energy_oracle(pf, M, m):
    """Sum of squared loopback coefficients, one transmux_response per m'."""
    half, L_f = M // 2, pf.L_f
    den, n_terms = 0.0, 0
    for mp in range(M):
        F = transmux_response(pf, m, mp)
        for dn in range(-2 * pf.kappa, 2 * pf.kappa + 1):
            i = dn * half + L_f - 1
            if i < 0 or i >= F.size or (mp == m and dn == 0):
                continue
            c = (F[i] * 1j ** ((mp - m - dn) % 4)).real
            den += c * c
            n_terms += 1
    return den, n_terms


# spilling PDPs (support past M/2 + 1 taps), so the own-pair leading terms
# and eps_check do not cancel; a second PDP for the cross pairs
_ORACLE_PDPS = {8: ([0.35, 0.0, 0.25, 0.2, 0.1, 0.1], [0.5, 0.3, 0.15, 0.05]),
                16: ("PedA", [0.4, 0.3, 0.2, 0.1]),
                32: ("EVA", "PedA")}


def _oracle_profiles(M):
    return [load_pdp(q, RATE) if isinstance(q, str)
            else PdpProfile("q", q, RATE) for q in _ORACLE_PDPS[M]]


# (pair, users, N_r): one user gets the exact kernels, more users the
# leading order at n_eff = N_r - users (6, or 3 for three users)
_KINDS = {"own": ((0, 0), 2, 8), "own-exact": ((0, 0), 1, 6),
          "cross": ((1, 0), 2, 8), "cross-n_eff": ((0, 1), 3, 6)}


def _kind_args(M, kind):
    """(profiles, N_r, pair) of an oracle case; the third user repeats the
    first, the two PDPs of `_ORACLE_PDPS` serve every pair."""
    pair, users, N_r = _KINDS[kind]
    return (_oracle_profiles(M) * 2)[:users], N_r, pair


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("alpha", [0, 1])
@pytest.mark.parametrize("M", [8, 16, 32])
def test_error_stats_matches_lag_loop_oracle(M, alpha, kind):
    profiles, N_r, pair = _kind_args(M, kind)
    st = error_stats(profiles, M, N_r, alpha, pair)
    users = len(profiles)
    eps, chk, mu = _error_stats_oracle(profiles, M, N_r, alpha, pair,
                                       exact=users == 1, n_eff=N_r - users)
    _assert_close(st.eps, eps)
    if pair[0] == pair[1]:
        _assert_close(st.eps_check, chk)
        _assert_close(st.mu, mu)
    else:
        assert not (st.eps_check.any() or st.mu.any())


@pytest.mark.parametrize("kappa", [2, 3, 4])
@pytest.mark.parametrize("M", [8, 16, 32])
def test_interference_table_matches_transmux_oracle(M, kappa):
    pf = design_prototype(kappa, M)
    for m in (0, M // 2, M - 1):
        _assert_close(interference_table(pf, m),
                      _table_oracle(pf, M, m))


@pytest.mark.parametrize("kind", ["own", "own-exact", "cross"])
@pytest.mark.parametrize("alpha", [0, 1])
@pytest.mark.parametrize("kappa", [2, 3, 4])
@pytest.mark.parametrize("M", [8, 16, 32])
def test_average_power_matches_row_oracle(M, kappa, alpha, kind):
    profiles, N_r, pair = _kind_args(M, kind)
    pf = design_prototype(kappa, M)
    st = error_stats(profiles, M, N_r, alpha, pair)
    dns = _dn_range(M, pf.L_f, alpha, st.n).tolist()
    for m in (0, M // 2, M - 1):
        rest, entry = average_power(st, interference_table(pf, m), m, 0.5)
        want = _average_power_oracle(st, _table_oracle(pf, M, m), M, m,
                                     alpha, dns, 0.5)
        _assert_close(entry, want[m, dns.index(0)])
        want[m, dns.index(0)] = 0.0             # every other lattice offset
        _assert_close(rest, want.sum())


def test_eps_weights_match_brute_force_sum_on_complex_table():
    # K_eps[l, l'] = sum_dn sum_m' F[m', i0 - l] conj(F[m', i0 - l']). The
    # PHYDYAS tables' +-M Gram bands are real to round-off, so only a table
    # with complex bands shows a lost conjugate there.
    M, L_f, alpha, n, m = 8, 32, 1, 12, 3
    rng = np.random.default_rng(21)
    F = (rng.standard_normal((M, 2 * L_f - 1))
         + 1j * rng.standard_normal((M, 2 * L_f - 1)))

    def col(i):                 # zero beyond the table
        return F[:, i] if 0 <= i < F.shape[1] else np.zeros(M)
    i0s = [(dn + alpha) * (M // 2) + L_f - 1 for dn in range(-20, 21)]
    (el, elp), _ = _support(n, M, alpha * M // 2)
    want = [sum(np.sum(col(i0 - l) * np.conj(col(i0 - lp))) for i0 in i0s)
            for l, lp in zip(el.tolist(), elp.tolist())]
    got = theory._weights(F, m, alpha, n, False)[0]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("N_r", [2, 3, 5, 8, 64])
def test_ratio_moments_match_4d_oracle(N_r):
    if N_r >= 16:
        # both rules converge: the 4-D one is an independent reference
        b = np.concatenate([np.linspace(0.0, 0.999, 12), [1.0]])
        got = np.array(_moments(b, N_r))
        for g, w in zip(got, _ratio_moments_oracle(b, N_r)):
            _assert_close(g, w)
        return
    # at small N_r the 4-D rule has not converged (it differs by up to 2e-3
    # at N_r=2); against a high-order evaluation the closed form's error is
    # no larger, per moment, up to round-off
    b = [0.3, 0.6, 0.9, 0.99]
    n = 500 if N_r <= 3 else 200           # slowest convergence at small N_r
    ref = _ratio_moments_reference(b, N_r, n, n, 150)
    err_cf = np.abs(np.array(_moments(b, N_r)) - ref).max(axis=1)
    err_4d = np.abs(_ratio_moments_oracle(b, N_r) - ref).max(axis=1)
    assert np.all(err_cf <= err_4d + 1e-15), (err_cf, err_4d)


@pytest.mark.parametrize("N_t", [1, 3])
@pytest.mark.parametrize("kappa", [2, 4])
@pytest.mark.parametrize("M", [8, 16, 32])
def test_noise_power_matches_dense_oracle(M, kappa, N_t):
    pf = design_prototype(kappa, M)
    profile = _oracle_profiles(M)[0]
    for alpha in (0, 1):
        for m in (0, M // 2, M - 1):
            _assert_close(noise_power(profile, pf, M, 6, 0.3, N_t=N_t),
                          _noise_power_oracle(profile, pf, M, 6, alpha, 0.3,
                                              m, N_t))


@pytest.mark.parametrize("kappa", [2, 3, 4])
@pytest.mark.parametrize("M", [8, 16, 32])
def test_sir_upper_bound_matches_loop_oracle(M, kappa):
    pf = design_prototype(kappa, M)
    for m in (0, M // 2, M - 1):
        den, n_terms = _loopback_energy_oracle(pf, M, m)
        got = sir_upper_bound(pf, M, 1, m)
        if kappa == 2:
            assert den <= n_terms * (pf.L_f * np.finfo(float).eps) ** 2
            assert got == np.inf
        else:
            _assert_close(10 ** (-got / 10), den)


def test_sir_upper_bound_orthogonal_bank_every_size():
    for M in 2 ** np.arange(2, 11):
        pf = design_prototype(2, int(M))
        for m in (0, M // 2, M - 1):
            assert sir_upper_bound(pf, int(M), 1, int(m)) == np.inf


def test_theory_input_errors_are_config_errors(uni4, eva, pf32):
    # ConfigError is a ValueError, so older callers still catch these
    cases = [lambda: error_stats([eva], 16, 8, 1, (0, 0)),
             lambda: error_stats([uni4, uni4], 16, 2, 1, (0, 1)),
             lambda: _ratio_moments([0.5], 1),
             lambda: noise_power(uni4, pf32, 32, 4, 0.3, N_t=4),
             lambda: theoretical_sinr([uni4] * 4, pf32, 32, 4, 1, 16, 0, 0.1)]
    for call in cases:
        with pytest.raises(ConfigError):
            call()


@pytest.mark.parametrize("M, m, u", [(32, -1, 0), (32, 32, 0), (16, 8, 0),
                                     (64, 16, 0), (32, 16, 1), (32, 16, -1)])
def test_bad_lattice_point_or_user_is_a_config_error(peda, pf32, M, m, u):
    with pytest.raises(ConfigError):
        theoretical_sinr([peda], pf32, M, 8, 1, m, u, 0.01)
    if u == 0:
        with pytest.raises(ConfigError):
            sir_upper_bound(pf32, M, 1, m)
