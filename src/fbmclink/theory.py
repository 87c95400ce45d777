"""Closed-form performance machinery: equalization-error statistics, average
interference powers, demodulated noise power, theoretical SINR, and the SIR
upper bound of the ideal (unit-impulse channel) system.

Notation mirrors the implementation of the rest of the package:
* q[l]: PDP of a user; tau[m,m'] = sum_l q[l] e^{j 2 pi (m-m') l / M} is the
  per-antenna correlation E{h~_m^r (h~_m'^r)^*} of the channel DFT bins;
* psi[l] = H_eq[l] - delta[l - alpha M/2], l = 0..M+L_h-2, the equivalent-channel
  error of the frequency-sampled ZF equalizer (L_g = M);
* eps[l,l'] ~ E{psi[l] psi[l']^*}, eps_check[l,l'] ~ E{psi[l] psi[l']} after
  mean removal (per receive-antenna scaling 1/N_r explicit);
* the interference coefficient seen by lattice point (m,n) from (m',n') is
  R = Re{v^T psi} + Re{F_peak} delta with v[l] = F_{mm'}[(dn+alpha) M/2 - l]
  j^{m'-m-dn}, whose mean square is
  (1/2) Re{v^T eps v^* + v^T eps_check v} P_s + (Re{F_peak + v^T mu})^2 P_s.

Both covariances are banded: the error is a sum over bins of terms
e^{j2pi m(l-A)/M} (A = alpha M/2) with statistics that depend only on the bin
difference, so eps lives on l'-l in {0, +-M} (l' = l mod M; n = M+L_h-1 < 2M)
and eps_check on l + l' = 2A (mod M).  `error_stats` and `average_power` work
on that support only (at M=256, EVA: 337 and 311 of 80,089 entries), and an
`ErrorStats` holds only those band values; its dense `eps` and `eps_check`
are built when read.

The statistics come in two flavours.  The leading-order closed form uses the
channel-hardening limit of the ZF combiner moments: with w_m the combiner row
at bin m, E{w_m^H w_m'} ~ tau[m,m']/N_r, and the partial-sum decomposition
h-partial = Q h~ + b with b independent of h~ makes every numerator moment an
exact Gaussian pairing, so the closed form carries an explicit 1/N_r factor.
For a single transmit stream the ZF combiner is w_m = h~_m / ||h~_m||^2 and
every moment reduces exactly to ratio moments of a 2x2 complex Wishart
matrix: with X = ||h~_m||^2, Y = ||h~_m'||^2, Z = h~_m^H h~_m' and per-antenna
correlation rho,

  E{w_m^H b b'^H w_m'} = gamma1 gamma2^* (K2 - rho^2)/(1-|rho|^2)^2 + ctil J1,
  E{(w_m^H b)(w_m'^H b')} = gamma1 gamma2 (g3 - |rho|^2)/(1-|rho|^2)^2,

where gamma1 = E{h~_m'^* b}, gamma2 = E{h~_m^* b'}, ctil = c + rho gamma1
gamma2^*/(1-|rho|^2), c = E{b b'^*} (all per antenna), J1 = E{Z/(XY)},
K2 = E{Z^2/(XY)}, g3 = E{|Z|^2/(XY)}.  The three scalar ratio moments depend
only on (|rho|, N_r), and their large-N_r limits reproduce the leading-order
kernels.  Given X and the in-line component w_r, Y reaches the remaining
Gaussian w_i and the Gamma(N_r-1) remainder G only through
T = w_i^2 + G ~ Gamma(N_r-1/2), and w_i^2/T ~ Beta(1/2, N_r-1) is
independent of T, so the Beta axis folds into its mean 1/(2N_r-1):
`_ratio_moments` is a 3-D Gauss quadrature over (X, w_r, T) of
48 x 64 x 80 nodes, with the T axis one matrix-vector product per |rho|.
At |rho| = 0, where g2 is exactly 0, it reads below 1e-12 at N_r = 8; at
N_r >= 16 it agrees with the former 4-D (X, G, w_r, w_i) rule within
4e-12, and at smaller N_r it is the closer of the two to a high-order
evaluation.  The Gamma rules are Golub-Welsch, numpy.linalg.eigh of the
dense Jacobi matrix (`_gauss_gamma`); the Hermite rule is numpy's
hermgauss.  For N_t > 1 the combiner rows of the multi-user ZF are treated
like single-user ones at leading order with the inverse-Wishart
normalization 1/(N_r - N_t), the exact mean E{[(H~^H H~)^{-1}]_{uu}} on the
diagonal.

Held between calls: the read-only transmultiplexer table of one subcarrier
per live PrototypeFilter (`interference_table`, kept in `_TABLES`, weakly
keyed; 8.4 MB at M=256), read by every SNR point of a sweep, by
`sir_upper_bound` and by every Monte Carlo trial of `metrics`.  Error
statistics depend on PDP contents and N_r that callers may change in place,
so they are rebuilt per call, and their `_ratio_moments` calls (and
noise_power's) hit `_MOMENT_CACHE` instead.
"""

import weakref

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import ConfigError, NumericalError
from .fbmc import _J_POW, _afb

_MOMENT_CACHE = {}
_TABLES = weakref.WeakKeyDictionary()   # PrototypeFilter -> (m, F), see above
_J = np.array(_J_POW)


def _gauss_gamma(n, a):
    """Nodes and unit-sum weights for averages over Gamma(a+1) variables.

    Golub-Welsch on the generalized-Laguerre Jacobi matrix; the first
    eigenvector components give the weights up to the common Gamma(a+1)
    factor, which drops out after normalization.  Stays finite for shape
    parameters far beyond where the textbook weight formula overflows.
    """
    i = np.arange(n)
    off = np.diag(np.sqrt(i[1:] * (i[1:] + a)), 1)
    x, v = np.linalg.eigh(np.diag(2.0 * i + 1 + a) + off + off.T)
    w = v[0] ** 2
    return x, w / w.sum()


def _ratio_moments(bvals, N_r, nx=48, nt=80, nh=64):
    """Wishart ratio moments (g1, g2, g3) for |correlation| values bvals.

    g1 = E{Z/(XY)} e^{-j phi}, g2 = E{Z^2/(XY)} e^{-2j phi},
    g3 = E{|Z|^2/(XY)} with X = ||x||^2, Y = ||y||^2, Z = x^H y for iid
    CN(0,1) N_r-vectors with per-antenna correlation b = |E{x^* y}| (the
    phase separates out).  X ~ Gamma(N_r); y splits into a CN(0,1) scalar
    w_r + j w_i along x and a Gamma(N_r-1) remainder G.  With s^2 = 1 - b^2
    and a = b sqrt(X) + s w_r, Z/sqrt(X) = a + j s w_i and
    Y = a^2 + s^2 T, T = w_i^2 + G ~ Gamma(N_r-1/2).  The terms odd in w_i
    vanish, and w_i^2/T ~ Beta(1/2, N_r-1) is independent of T with mean
    1/(2N_r-1), so with A2 = E{a^2/Y} (and 1 - A2 = E{s^2 T/Y})

      g1 = E{a/(sqrt(X) Y)},  g2 = A2 - (1-A2)/(2N_r-1),
      g3 = A2 + (1-A2)/(2N_r-1),

    a 3-D Gauss quadrature over (X, w_r, T): Gamma rules of nx and nt nodes
    and a Hermite rule of nh nodes, with T reached only through 1/Y.  At the
    default nodes g2(b=0), exactly 0, reads below 1e-12 at N_r=8.  Requires
    N_r >= 2.
    """
    if N_r < 2:
        raise ConfigError(f"ratio moments need N_r >= 2, got N_r={N_r}")
    bvals = np.atleast_1d(np.asarray(bvals, dtype=float))
    ub, inv = np.unique(np.round(bvals, 14), return_inverse=True)
    key = (N_r, nx, nt, nh, ub.tobytes())
    if key in _MOMENT_CACHE:
        return tuple(_MOMENT_CACHE[key][inv].T)
    xg, xw = _gauss_gamma(nx, N_r - 1)
    tg, tw = _gauss_gamma(nt, N_r - 1.5)
    hr, hw = hermgauss(nh)
    sqX = np.sqrt(xg)[:, None]
    W = xw[:, None] * (hw / hw.sum())
    beta = 1.0 / (2 * N_r - 1)                  # E{w_i^2 / T}
    Y = np.empty((nt, nx, nh))
    out = np.empty((ub.size, 3))
    for i, b in enumerate(ub):
        if b >= 1.0 - 1e-12:
            out[i] = (1.0 / (N_r - 1), 1.0, 1.0)
            continue
        s2 = 1.0 - b * b
        a = b * sqX + np.sqrt(s2) * hr
        a2 = a * a
        np.add.outer(s2 * tg, a2, out=Y)
        R = W * np.tensordot(tw, np.reciprocal(Y, out=Y), 1)   # W E_T{1/Y}
        A2 = np.sum(a2 * R)
        out[i] = (np.sum(a / sqX * R), A2 - (1.0 - A2) * beta,
                  A2 + (1.0 - A2) * beta)
    if len(_MOMENT_CACHE) > 64:
        _MOMENT_CACHE.clear()
    _MOMENT_CACHE[key] = out
    return tuple(out[inv].T)


def tau(profile, M):
    """Subcarrier correlation matrix tau[m,m'] = sum_l q[l] e^{j2pi(m-m')l/M}."""
    t = np.conj(np.fft.fft(profile.taps, M))    # sum_l q[l] e^{+j2pi dl/M}
    return t[(np.arange(M)[:, None] - np.arange(M)) % M]


def _support(n, M, A):
    """Row-major pairs (l, l') of the eps band l' in {l, l +- M} and the
    eps_check band l' in (2A - l) mod M + {0, M}, within [0, n < 2M)."""
    ll = np.arange(n)[:, None]
    return [(np.broadcast_to(ll, c.shape)[(c >= 0) & (c < n)],
             c[(c >= 0) & (c < n)])
            for c in (ll + [-M, 0, M], (2 * A - ll) % M + [0, M])]


class ErrorStats:
    """Second-order statistics of the equalization error for one user pair.

    Only the band values are held: `eps_band` on the eps support pairs and
    `check_band` on the eps_check support pairs of `_support(n, M, A)`, in
    its order, with the mean `mu` (length n = M + L_h - 1). The dense (n, n)
    matrices `eps` and `eps_check` are built when read.
    """

    def __init__(self, pair, alpha, M, eps_band, check_band, mu):
        self.pair, self.alpha, self.M = pair, alpha, M
        self.eps_band, self.check_band, self.mu = eps_band, check_band, mu

    @property
    def n(self):
        return self.mu.size

    def _dense(self, band, which):
        out = np.zeros((self.n, self.n), dtype=complex)
        out[_support(self.n, self.M, self.alpha * self.M // 2)[which]] = band
        return out

    @property
    def eps(self):
        return self._dense(self.eps_band, 0)

    @property
    def eps_check(self):
        return self._dense(self.check_band, 1)


def error_stats(profiles, M, N_r, alpha, pair, exact=False, n_eff=None):
    """Closed-form eps / eps-check / Psi-check / mean for user pair (u, u').

    profiles: sequence of PdpProfile (one per user). The equalized user u
    supplies the bin correlations; the source user u' supplies the PDP and
    the lag ranges R(l) = [max(0, l-M+1), min(l, L_h-1)].

    With the bin-domain partial sums h-hat_m(l) = sum_{ell in R(l)} h[ell]
    e^{-j2pi m ell/M} split as Q(l) h~_m + b_m(l) (b independent of h~), the
    error is psi[l] = mean(l) + (1/M) sum_m w_m^H b_m(l) e^{j2pi m(l-A)/M},
    and Gaussian pairings give, with t[d] the correlation of user u at bin
    offset d and all partial spectra S taken over user u',

      eps[l,l']  = d[(l-l') mod M] / (M N_r) *
                   sum_d t[d] C_d(l,l') e^{+j2pi d(l'-A)/M},
      C_d(l,l') = S_d(R(l) ^ R(l')) - Q(l) S_d(l') - Q(l') S_d(l)
                   + Q(l) Q(l') S_d(full),
      eps_check[l,l'] = d[(l+l'-2A) mod M] / (M N_r) *
                   sum_d U_d(l') V_d(l) e^{-j2pi d(l'-A)/M}   (u = u' only),
      U_d(l') = conj(S_d(l')) - Q(l') t[d],  V_d(l) = S_d(l) - Q(l) conj(t[d]).

    Each covariance is one block over its support pairs.  The default kernel
    is this leading-order closed form, exact to O(1/N_r) with an explicit
    1/N_r factor (n_eff substitutes another normalization, e.g. N_r - N_t).
    exact=True (own pair, single stream) replaces the kernels t[d]/N_r and
    1/N_r by the exact Wishart ratio-moment expressions, which pick up the
    O(1/N_r^2) residue that dominates once the leading sums cancel.

    Lags with a full range R(l) (l in [L_h-1, M-1]) have b = 0, so the
    Case-1 exactness of the bin-sampled ZF design holds structurally, as do
    the aliasing identities psi[l] = -psi[l +- M].
    """
    u, up = pair
    q = np.asarray(profiles[up].taps, dtype=float) / np.sum(profiles[up].taps)
    L_h = q.size
    if not L_h - 1 < M:
        raise ConfigError(f"need L_h-1 < M, got L_h={L_h}, M={M}")
    if exact and u != up:
        raise ValueError("exact statistics cover the own-user pair only")
    t = np.conj(np.fft.fft(profiles[u].taps, M))  # sum_l q_u[l] e^{+j2pi dl/M}
    t = t / t[0].real                        # column 0 of the normalized tau
    A = alpha * M // 2
    n = M + L_h - 1
    ll = np.arange(n)
    lo = np.maximum(0, ll - (M - 1))
    hi = np.minimum(ll, L_h - 1)
    qc = np.concatenate([[0.0], np.cumsum(q)])
    Q = qc[hi + 1] - qc[lo]

    # arrays are lag-major, (lags, M) over the bin offset d; every phase is
    # read from e^{j2pi k/M} at an exactly reduced k
    root = np.exp(2j * np.pi * np.arange(M) / M)
    dgrid = np.arange(M)
    # prefix spectra of the source PDP: pre[k, d] = sum_{ell < k} q[ell] e^{-j..}
    Wd = np.conj(root[np.outer(np.arange(L_h), dgrid) % M]) * q[:, None]
    pre = np.concatenate([np.zeros((1, M), dtype=complex),
                          np.cumsum(Wd, axis=0)])
    S = pre[hi + 1] - pre[lo]                # (n, M): S_d(l)
    full = pre[L_h]                          # S_d over the whole support

    ph = root[np.outer(ll - A, dgrid) % M]                  # e^{+j2pi d(l'-A)/M}
    U = np.conj(S) - Q[:, None] * t                         # (n, M): U_d(l')
    V = S - Q[:, None] * np.conj(t)                         # (n, M): V_d(l)

    # one block over the support pairs of each covariance
    (el, elp), (cl, clp) = _support(n, M, A)
    a, b = np.maximum(lo[el], lo[elp]), np.minimum(hi[el], hi[elp])
    inter = np.where((b >= a)[:, None], pre[b + 1] - pre[a], 0.0)
    C = (inter - Q[el, None] * S[elp] - Q[elp, None] * S[el]
         + (Q[el] * Q[elp])[:, None] * full)                # (pairs, M)
    check_band = np.zeros(cl.size, dtype=complex)
    mu = np.zeros(n, dtype=complex)
    own = u == up
    if exact:
        babs = np.abs(t)
        g1, g2, g3 = _ratio_moments(babs, N_r)
        ph1 = t / np.where(babs < 1e-300, 1.0, babs)        # unit phase of rho
        s2 = 1.0 - babs * babs
        inv_s2 = np.where(s2 < 1e-8, 0.0, 1.0 / np.where(s2 == 0, 1.0, s2))
        k_eps2 = (g2 - babs * babs) * ph1 * ph1 * inv_s2    # (K2 - rho^2)/s2
        k_chk = (g3 - babs * babs) * inv_s2 * inv_s2
        k_j1 = ph1 * g1
        gg = V[el] * np.conj(U[elp]) * inv_s2
        T = gg * k_eps2 + (C + t * gg) * k_j1
        eps_band = np.sum(T * ph[elp], axis=1) / M
        if own:
            check_band = np.sum(V[cl] * U[clp] * k_chk * np.conj(ph[clp]),
                                axis=1) / M
    else:
        if n_eff is not None and n_eff < 1:
            raise ConfigError(f"need a positive combiner normalization, "
                              f"got n_eff={n_eff}")
        scale = 1.0 / (M * (N_r if n_eff is None else n_eff))
        eps_band = scale * np.sum(t * C * ph[elp], axis=1)
        if own:
            check_band = scale * np.sum(U[clp] * V[cl] * np.conj(ph[clp]),
                                        axis=1)
    if own:
        # deterministic part: E{H_eq[l]} = Q(l) at lags = A (mod M); the lag-A
        # entry is the wanted peak, the aliases are residual rays (nonzero only
        # when the PDP spills past M/2 + 1 taps).
        peaks = (ll - A) % M == 0
        mu[peaks] = Q[peaks]
        mu[A] -= 1.0
    return ErrorStats(pair, alpha, M, eps_band, check_band, mu)


def _transmux(pf, m, lags):
    """F_{mm'}[lag], (m', lag), from one analysis-bank pass over f_m:
    `_afb(f_m, offsets=o)[m']` is F_{m'm}[o] = conj(F_{mm'}[-o])."""
    return np.conj(_afb(pf.subcarrier_filter(m), pf, -np.asarray(lags)))


def interference_table(pf, m):
    """The read-only table F held for (pf, m), built on a miss: row m' is
    the full sequence F_{mm'}[l], entry i at lag i - (L_f - 1), shape
    (M, 2 L_f - 1).  The phase e^{j(theta'-theta)} = j^{m'-m-dn} is applied
    when powers are formed."""
    m_held, F = _TABLES.get(pf, (None, None))
    if m_held != m:
        F = _transmux(pf, m, np.arange(1 - pf.L_f, pf.L_f))
        F.flags.writeable = False
        _TABLES[pf] = (m, F)
    return F


def _dn_range(M, L_f, alpha, n):
    """Every lattice offset dn whose table window reaches a lag l in [0, n):
    |(dn + alpha) M/2 - l| < L_f for some l."""
    half = M // 2
    return np.arange(-((L_f - 1) // half), (L_f + n - 2) // half + 1) - alpha


def _rows(Ft, i):
    """Rows i of a lag-major table, zero where i falls outside it: the
    scattered reads (mean peaks, the noise-gain Toeplitz form).  Runs of
    lags are read through `_windows`."""
    X = np.take(Ft, i, axis=0, mode="clip")
    X[(i < 0) | (i >= len(Ft))] = 0.0
    return X


def _windows(F, lo, hi, *i0s):
    """Table columns i0 - l for l in [lo, hi], one view per i0 in i0s.

    Returns (a, b, views): [a, b] is the part of [lo, hi] at which every
    column i0 - l lies in the table (a = b + 1 when none does), and each
    view is the contiguous slice F[:, i0 - b : i0 - a + 1], whose column j
    holds l = b - j.  Beyond the table F is zero, so sums over l need only
    [a, b].
    """
    a = max(lo, max(i0s) - F.shape[1] + 1)
    b = max(min(hi, min(i0s)), a - 1)
    return a, b, [F[:, i0 - b:i0 - a + 1] for i0 in i0s]


def _runs(key, l, band):
    """Split a band in row-major order by key into runs of l: (lo, hi, key,
    values for l = hi, hi-1, ..., lo) per key value."""
    runs = []
    for k in sorted(set(key.tolist())):
        sel = key == k
        runs.append((l[sel][0], l[sel][-1], k, band[sel][::-1].copy()))
    return runs


def average_power(stats, F, m, P_s):
    """Average interference powers: variance plus squared-mean parts.

    F is the `interference_table` of receive subcarrier m; M and L_f come
    from its shape and alpha from `stats`.  Returns (powers, dn_values):
    powers[m', j] is the mean-square interference coefficient from lattice
    offset (m', dn_values[j]) for the user pair of `stats`. The deterministic
    amplitude combines the filter-bank peak (own user only) with the mean
    equalization-error rays.  The variance
    (1/2) Re{v^T eps v^* + v^T eps_check v} is summed over the band support
    of the covariances, for all m' of one dn at a time: the phase of v
    cancels in eps, squares to +-1 in eps_check.  Each eps offset l' - l in
    {0, +-M} and each eps_check sum l + l' = S covers one run of l, so each
    is one product of contiguous table windows (`_windows`); an eps_check
    run is symmetric about S/2, so its second factor is its first reversed.
    """
    own = stats.pair[0] == stats.pair[1]
    M, L_f, alpha = F.shape[0], (F.shape[1] + 1) // 2, stats.alpha
    dns = _dn_range(M, L_f, alpha, stats.n).tolist()
    A = alpha * M // 2
    (el, elp), (cl, clp) = _support(stats.n, M, A)
    eps_runs = _runs(elp - el, el, stats.eps_band)
    chk_runs = _runs(cl + clp, cl, stats.check_band)
    peaks = np.flatnonzero(stats.mu)
    Ft = F.T
    jm = np.arange(M) - m
    powers = np.empty((M, len(dns)))
    for j, dn in enumerate(dns):
        i0 = (dn + alpha) * (M // 2) + L_f - 1          # l = 0
        e = np.zeros(M, dtype=complex)
        for lo, hi, d, v in eps_runs:
            a, b, (X, Xd) = _windows(F, lo, hi, i0, i0 - d)
            e += (X * np.conj(Xd)) @ v[hi - b:hi - a + 1]
        c = np.zeros(M, dtype=complex)
        for lo, hi, S, v in chk_runs:     # column i0 - (S - l) in F too
            a, b, (X,) = _windows(F, max(lo, S - i0),
                                  min(hi, S - i0 + F.shape[1] - 1), i0)
            c += (X * X[:, ::-1]) @ v[hi - b:hi - a + 1]
        quad = 0.5 * (e + c * _J[2 * (jm - dn) % 4]).real
        amp = ((stats.mu[peaks] @ _rows(Ft, i0 - peaks) + _rows(Ft, i0 - A))
               * _J[(jm - dn) % 4]).real if own else 0.0
        powers[:, j] = quad + amp * amp
    return powers * P_s, dns


def noise_power(profile, pf, M, N_r, sigma_z2, N_t=1):
    """Average demodulated-noise power of the two-stage/high-rate ZF receiver.

    For a single stream the bin-m'/bin-m'' combiner cross moment
    E{w_m''^H w_m'} is the exact Wishart ratio moment J1 evaluated at the
    bin correlation; for N_t > 1 it is approximated by
    tau[m'', m'] / (N_r - N_t), exact (inverse-Wishart mean) on the diagonal
    that carries nearly all the weight.  `profile` is the equalized user's
    PDP.  That moment K depends only on m'' - m' (mod M), so the equalizer
    taps are uncorrelated with sum_l E{|g[l]|^2} = K[0], and the power is
    sigma_z2 K[0] ||p||^2 / (2 c0) for every delay and subcarrier.
    """
    if sigma_z2 == 0:
        return 0.0
    if N_r - N_t < 1:
        raise ConfigError(f"need N_r > N_t for ZF noise statistics, "
                          f"got N_r={N_r}, N_t={N_t}")
    t = np.conj(np.fft.fft(profile.taps, M))     # column 0 of tau
    c0 = t[0].real
    if N_t == 1:    # J1 at rho = 1; the whole vector reuses error_stats' key
        k0 = _ratio_moments(np.abs(t / c0), N_r)[0][0]
    else:
        k0 = 1.0 / (N_r - N_t)
    return float(sigma_z2 * k0 * np.dot(pf.coeffs, pf.coeffs) / (2 * c0))


def _roundoff_floor(n_terms, L_f):
    """Largest loopback interference energy that float64 round-off can fake.

    Each loopback coefficient is a length-L_f inner product of two
    unit-energy subcarrier filters, so its rounding error is at most about
    L_f * eps (the dot-product bound n * eps * ||a|| ||b||).  A sum of
    n_terms squared coefficients that vanish in exact arithmetic therefore
    stays below n_terms * (L_f * eps)^2.  For the PHYDYAS banks at M = 4 ..
    1024 (m in {0, M/2, M-1}) the kappa=2 energy measures 2.2 .. 3.5e5 eps^2
    and the bound is >= 2.4e2 times it (tightest at M=4, 7.1 against 1.7e3),
    while the genuine kappa=3/4 interference (>= 3.3e24 eps^2) stays >= 2e13
    times above the bound.
    """
    return n_terms * (L_f * np.finfo(float).eps) ** 2


def sir_upper_bound(pf, M, alpha, m):
    """Distortion-free ceiling: loopback SIR of the filter bank itself, in dB.

    The interference energy is the sum of the squared real loopback
    coefficients Re{F_{mm'}[dn M/2] j^{m'-m-dn}} over every lattice
    neighbour (m', dn) != (m, 0).  When that sum is at or below the
    round-off bound n_terms * (L_f * eps)^2 of `_roundoff_floor` (n_terms
    summed coefficients), the bank is orthogonal to within float64 precision
    and the bound is +inf; this is the case for kappa=2, whose PHYDYAS pulse
    reconstructs exactly.  The coefficients are columns of the table held for
    (pf, m).
    """
    dns = np.arange(1 - 2 * pf.kappa, 2 * pf.kappa)    # |dn| M/2 < L_f
    F = interference_table(pf, m)[:, dns * (M // 2) + pf.L_f - 1]
    c = (F * _J[(np.arange(M)[:, None] - m - dns) % 4]).real
    c[m, dns == 0] = 0.0
    den = np.sum(c * c)
    if den <= _roundoff_floor(c.size - 1, pf.L_f):
        return np.inf
    return 10.0 * np.log10(1.0 / den)


def theoretical_sinr(profiles, pf, M, N_r, alpha, m, u, sigma_z2, P_s=1.0):
    """Closed-form output SINR in dB at subcarrier m for user u.

    Sums the closed-form average powers of the own-stream interference, the
    inter-user interference, and the demodulated noise power.  When the
    equalization error vanishes identically (zero error covariance and mean
    for every user pair, e.g. flat channels), the interference is the filter
    bank's own loopback; if that is at or below the round-off bound of
    `sir_upper_bound` (scaled by the desired power), as on the kappa=2 bank,
    it is zero, and with no noise the SINR is +inf.  A negative total (the
    leading-order multi-user terms can cancel below round-off) raises
    NumericalError.  The table is the one held for (pf, m); the statistics
    are rebuilt on each call, once per distinct (own pair, source PDP).
    """
    F = interference_table(pf, m)
    N_t = len(profiles)
    interference, exact_eq, seen = 0.0, True, {}
    for up in range(N_t):
        key = (up == u, np.asarray(profiles[up].taps, dtype=float).tobytes())
        if key not in seen:
            stats = error_stats(profiles, M, N_r, alpha, (u, up),
                                exact=(N_t == 1),
                                n_eff=None if N_t == 1 else N_r - N_t)
            powers, dns = average_power(stats, F, m, P_s)
            if up == u:
                j0 = dns.index(0)
                desired = powers[m, j0]
                powers[m, j0] = 0.0     # sum around the desired entry
                n_bank = powers.size - 1
            seen[key] = (stats.eps_band.any() or stats.check_band.any()
                         or stats.mu.any(), powers.sum())
        exact_eq &= not seen[key][0]
        interference += seen[key][1]
    if exact_eq and interference <= _roundoff_floor(n_bank, pf.L_f) * desired:
        interference = 0.0
    total = interference + noise_power(profiles[u], pf, M, N_r, sigma_z2,
                                       N_t=N_t)
    if total == 0.0:
        return np.inf
    if not total > 0.0:
        raise NumericalError(f"interference plus noise is {total:.3g} at "
                             f"m={m}, u={u}: cancelled below round-off")
    return 10.0 * np.log10(desired / total)
