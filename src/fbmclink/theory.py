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
`ErrorStats` holds only those band values.

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
only on (|rho|, N_r), their large-N_r limits reproduce the leading-order
kernels, and all are closed forms in one hypergeometric function of |rho|^2
(`_ratio_moments`, within 1e-12 relative of a 50-digit evaluation).  For
N_t > 1 the combiner rows of the multi-user ZF are treated like single-user
ones at leading order with the inverse-Wishart normalization 1/(N_r - N_t),
the exact mean E{[(H~^H H~)^{-1}]_{uu}} on the diagonal.

Held between calls, per live PrototypeFilter (`_TABLES`, weakly keyed): the
read-only table of one subcarrier (`interference_table`; 8.4 MB at M=256),
read by every SNR point of a sweep, by `sir_upper_bound` and by every Monte
Carlo trial of `metrics`, and with it `average_power`'s table-only weights
(`_weights`: Gram bands of 150 KB at M=256, then per alpha, n, m, own pair).
One `error_stats` geometry (`_GEOMETRY`, keyed by the bytes of both PDPs'
taps, M, alpha, own pair and user count) is held and dropped before a miss builds
the next, so an N_r or SNR axis of one PDP builds it once.
"""

import weakref

import numpy as np

from .errors import ConfigError, NumericalError
from .fbmc import _J_POW, _afb

_GEOMETRY = [None]                      # (key, geometry) of the last error_stats
_TABLES = weakref.WeakKeyDictionary()   # PrototypeFilter -> (m, F, held)
_J = np.array(_J_POW)


def _ratio_moments(bvals, N_r):
    """Wishart ratio moments and kernels (g1, k2, k3) for |correlation| bvals.

    g1 = E{Z/(XY)} e^{-j phi}, g2 = E{Z^2/(XY)} e^{-2j phi} and
    g3 = E{|Z|^2/(XY)} with X = ||x||^2, Y = ||y||^2, Z = x^H y for iid
    CN(0,1) N_r-vectors with per-antenna correlation b = |E{x^* y}| (the
    phase separates out); k2 = (g2 - b^2)/s^2 and k3 = (g3 - b^2)/s^4 with
    s^2 = 1 - b^2 are the kernels that `error_stats` weights.

    Write 1/Y = int_0^inf e^{-uY} du.  y = b x + s w, and w splits into a
    CN(0,1) component along x and a remainder of squared norm
    G ~ Gamma(N_r-1); the averages over G, the in-line component and
    X ~ Gamma(N_r) are Gamma and Gaussian Laplace transforms, and
    u = v/(1-v) leaves, with z = b^2 and
    I_n = int_0^1 (1-v)^n/(1-zv) dv, J = I_{N_r-1} = 2F1(1,1;N_r+1;z)/N_r:

      g1 = b J,  g2 = 1 - N_r s^2 J,  g3 = 1 - (N_r-1) s^2 J,
      k2 = 1 - N_r J,  k3 = (1 - (N_r-1) J)/s^2 = ((N_r-1) I_{N_r-2} - 1)/z,

    the last from z I_n = 1/n - s^2 I_{n-1}.  Term by term in z,
    k2 = -z sum_{k>=1} z^{k-1} k! N_r!/(N_r+k)! and
    k3 = sum_{k>=1} z^{k-1} k! (N_r-1)!/(N_r-1+k)!, series of positive terms
    with ratios below z and below (k+1)/(k+N_r): 64 terms reach round-off
    where z < 1/2 or N_r >= 16.  Elsewhere the upward recurrence
    I_j = (1/j - s^2 I_{j-1})/z from I_0 = -log(s^2)/z is stable
    (s^2/z <= 1); its error grows about as N_r^2 eps through k2 = 1 - N_r J,
    which is why the series serves every z from N_r = 16.  b is clamped to
    [0, 1] and s^2 floored at the smallest normal float: at b = 1 that gives
    the limits I_j = 1/j (j >= 1), and a finite k3 at N_r = 2, where it
    diverges like -log(s^2).  Requires N_r >= 2.
    """
    if N_r < 2:
        raise ConfigError(f"ratio moments need N_r >= 2, got N_r={N_r}")
    b = np.clip(np.atleast_1d(np.asarray(bvals, dtype=float)), 0.0, 1.0)
    z = b * b
    s2 = np.maximum((1.0 - b) * (1.0 + b), np.finfo(float).tiny)
    J, k2, k3 = np.empty((3,) + b.shape)
    series = (z < 0.5) | (N_r >= 16)
    k = np.arange(1, 65)
    P = z[series][:, None] ** (k - 1)
    S = z[series] * (P @ np.cumprod(k / (N_r + k)))      # N_r J - 1
    J[series], k2[series] = (1.0 + S) / N_r, -S
    k3[series] = P @ np.cumprod(k / (N_r - 1 + k))
    rec = ~series
    if rec.any():                                       # N_r < 16 only
        zr, sr = z[rec], s2[rec]
        I = -np.log(sr) / zr
        for j in range(1, N_r):
            I, I_prev = (1.0 / j - sr * I) / zr, I
        J[rec], k2[rec] = I, 1.0 - N_r * I
        k3[rec] = ((N_r - 1) * I_prev - 1.0) / zr
    return b * J, k2, k3


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
        self.pair, self.alpha, self.M, self.n = pair, alpha, M, mu.size
        self.eps_band, self.check_band, self.mu = eps_band, check_band, mu

    def _dense(self, band, which):
        out = np.zeros((self.n, self.n), dtype=complex)
        out[_support(self.n, self.M, self.alpha * self.M // 2)[which]] = band
        return out

    eps = property(lambda self: self._dense(self.eps_band, 0))
    eps_check = property(lambda self: self._dense(self.check_band, 1))


def error_stats(profiles, M, N_r, alpha, pair):
    """Closed-form eps / eps-check / Psi-check / mean for user pair (u, u').

    profiles: sequence of PdpProfile, one per user (N_t of them; N_r <= N_t
    raises ConfigError). The equalized user u supplies the bin
    correlations; the source user u' supplies the PDP and the lag ranges
    R(l) = [max(0, l-M+1), min(l, L_h-1)].

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

    Each covariance is one block over its support pairs.  The user count
    selects the kernels.  For N_t > 1 they are this leading-order closed
    form, exact to O(1/N_r), with the normalization 1/(N_r - N_t) in place
    of 1/N_r.  For a single stream the kernels t[d]/N_r and 1/N_r are the
    exact Wishart ratio moments, which pick up the O(1/N_r^2) residue that
    dominates once the leading sums cancel; the divided differences
    (K2 - rho^2)/s^2 and (g3 - |rho|^2)/s^4 come from `_ratio_moments` in
    closed form, so nothing cancels as |rho| -> 1, and bins with
    s^2 = 1 - |rho|^2 < 1e-8 are left out.  All but the kernels
    (`_geometry`) is held for the last key (see the module docstring).

    Lags with a full range R(l) (l in [L_h-1, M-1]) have b = 0, so the
    Case-1 exactness of the bin-sampled ZF design holds structurally, as do
    the aliasing identities psi[l] = -psi[l +- M].
    """
    u, up = pair
    N_t = len(profiles)
    if N_r <= N_t:
        raise ConfigError(f"need N_r > N_t for ZF error statistics, "
                          f"got N_r={N_r}, N_t={N_t}")
    exact = N_t == 1
    key = (M, alpha, u == up, exact) + tuple(
        np.asarray(profiles[i].taps, dtype=float).tobytes() for i in pair)
    entry = _GEOMETRY[0]                    # one read: threads may swap it
    if entry is None or entry[0] != key:
        entry = _GEOMETRY[0] = None         # freed before the next is built
        entry = _GEOMETRY[0] = key, _geometry(profiles, M, alpha, pair, exact)
    mu, held = entry[1]
    if exact:           # own pair: kernels per bin offset d, as matvecs
        babs, ph1, keep, Gp, Cp, Vp = held
        g1, k2, k3 = _ratio_moments(babs, N_r)
        eps_band = (Gp @ (k2 * ph1 * ph1 * keep) + Cp @ (ph1 * g1)) / M
        check_band = Vp @ (k3 * keep) / M
    else:
        scale = 1.0 / (M * (N_r - N_t))
        eps_band, check_band = scale * held[0], scale * held[1]
    return ErrorStats(pair, alpha, M, eps_band, check_band, mu.copy())


def _geometry(profiles, M, alpha, pair, exact):
    """(mu, held): the N_r-free part of `error_stats`, bin phases folded in:
    for the exact kernels |rho|, its unit phase, the s^2 mask and the
    (pairs, M) products that they weight; for the leading order its sums."""
    u, up = pair
    q = np.asarray(profiles[up].taps, dtype=float) / np.sum(profiles[up].taps)
    L_h = q.size
    if not L_h - 1 < M:
        raise ConfigError(f"need L_h-1 < M, got L_h={L_h}, M={M}")
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
    C = (np.where((b >= a)[:, None], pre[b + 1] - pre[a], 0.0)  # (pairs, M)
         - Q[el, None] * S[elp] - Q[elp, None] * S[el]
         + (Q[el] * Q[elp])[:, None] * full)
    own = u == up
    mu = np.zeros(n, dtype=complex)
    if own:
        # deterministic part: E{H_eq[l]} = Q(l) at lags = A (mod M); the lag-A
        # entry is the wanted peak, the aliases are residual rays (nonzero only
        # when the PDP spills past M/2 + 1 taps).
        peaks = (ll - A) % M == 0
        mu[peaks] = Q[peaks]
        mu[A] -= 1.0
    if not exact:
        return mu, (np.sum(t * C * ph[elp], axis=1),
                    np.sum(U[clp] * V[cl] * np.conj(ph[clp]), axis=1) if own
                    else np.zeros(cl.size, dtype=complex))
    babs = np.abs(t)
    ph1 = t / np.where(babs < 1e-300, 1.0, babs)            # unit phase of rho
    s2 = 1.0 - babs * babs
    keep = s2 >= 1e-8
    inv_s2 = np.where(keep, 1.0 / np.where(s2 == 0, 1.0, s2), 0.0)
    gg = V[el] * np.conj(U[elp]) * inv_s2
    C += t * gg
    gg *= ph[elp]                       # the phases folded in, in place
    C *= ph[elp]
    VU = V[cl] * U[clp]
    VU *= np.conj(ph[clp])
    return mu, (babs, ph1, keep, gg, C, VU)


def _transmux(pf, m, lags):
    """F_{mm'}[lag], (m', lag), from one analysis-bank pass over f_m:
    `_afb(f_m, offsets=o)[m']` is F_{m'm}[o] = conj(F_{mm'}[-o])."""
    return np.conj(_afb(pf.subcarrier_filter(m), pf, -np.asarray(lags)))


def interference_table(pf, m):
    """The read-only table F held for (pf, m), built on a miss: row m' is
    the full sequence F_{mm'}[l], entry i at lag i - (L_f - 1), shape
    (M, 2 L_f - 1); ConfigError for m outside [0, M).  The phase
    e^{j(theta'-theta)} = j^{m'-m-dn} is applied when powers are formed."""
    m_held, F, _ = _TABLES.get(pf, (None, None, None))
    if m_held != m:
        if not 0 <= m < pf.M:
            raise ConfigError(f"need a subcarrier in [0, {pf.M}), got m={m}")
        F = _transmux(pf, m, np.arange(1 - pf.L_f, pf.L_f))
        F.flags.writeable = False
        _TABLES[pf] = (m, F, {})    # weights held with F, see average_power
    return F


def _dn_range(M, L_f, alpha, n):
    """Every lattice offset dn whose table window reaches a lag l in [0, n):
    |(dn + alpha) M/2 - l| < L_f for some l."""
    half = M // 2
    return np.arange(-((L_f - 1) // half), (L_f + n - 2) // half + 1) - alpha


def _rows(Ft, i):
    """Rows i of a lag-major table, zero where i falls outside it: the
    scattered reads (row m of the (m, 0) weights, the noise-gain Toeplitz
    form, the stage-2 fit matrices).  Runs of lags go through `_windows`."""
    X = np.take(Ft, i, axis=0, mode="clip")
    X[(i < 0) | (i >= len(Ft))] = 0.0
    return X


def _windows(F, lo, hi, i0):
    """Table columns i0 - l for l in [lo, hi]: (a, b, view), [a, b] the part
    of [lo, hi] whose columns lie in the table (a = b + 1 when none does)
    and the view the contiguous slice F[:, i0 - b : i0 - a + 1], whose
    column j holds l = b - j.  Beyond the table F is zero, so sums over l
    need only [a, b]."""
    a = max(lo, i0 - F.shape[1] + 1)
    b = max(min(hi, i0), a - 1)
    return a, b, F[:, i0 - b:i0 - a + 1]


def _lattice(F, m, alpha, c):
    """(dns, R), dns = `_dn_range`: the coefficient R (..., M, dns.size) with
    which s_{m', n - dn} reaches the phase-compensated output (m, n) through
    the equalized channel c (..., L), lag 0 first; F the table of m:

      R[..., m', j] = Re{j^((m'-m-dn) mod 4) sum_l F[m', i0 - l] c[..., l]},
      i0 = (dn + alpha) M/2 + L_f - 1,      dn = dns[j].

    Per dn, one product of the reversed c with the `_windows` view for each
    run of lags where c is nonzero, runs split only at gaps of over M/2
    lags (E{H_eq} at alpha = 0 has two rays, M lags apart); an all-zero c
    gives zeros without reading F.
    """
    M, L, L_f = F.shape[0], c.shape[-1], (F.shape[1] + 1) // 2
    dns = _dn_range(M, L_f, alpha, L)
    Z = np.zeros((dns.size,) + c.shape[:-1] + (M,), dtype=complex)
    nz = np.flatnonzero(c.reshape(-1, L).any(axis=0))
    # runs of nonzero lags, split where a gap of over M/2 zero lags would
    # cost more to read than a product of its own
    cut = (np.flatnonzero(np.diff(nz) > M // 2) + 1).tolist()
    runs = [(int(nz[a]), int(nz[b - 1]))
            for a, b in zip([0] + cut, cut + [nz.size])] if nz.size else []
    cr = c[..., ::-1].copy()        # BLAS takes no negative strides
    for j, dn in enumerate(dns.tolist()):
        i0 = (dn + alpha) * (M // 2) + L_f - 1
        for lo, hi in runs:
            a, b, W = _windows(F, lo, hi, i0)
            if a <= b:                  # the run reaches the table
                Z[j] += np.dot(cr[..., L - 1 - b:L - a], W.T)
    # C-contiguous (..., M, dns) again, so that sums over R keep their order
    Z = np.ascontiguousarray(np.moveaxis(Z, 0, -1))
    return dns, (Z * _J[(np.arange(M)[:, None] - m - dns) & 3]).real  # mod 4


def _weights(F, m, alpha, n, own):
    """`average_power`'s weights for (alpha, n, m, own), held read-only with
    F when it is a held table: (K_eps, v[l] conj(v[l']), K_chk or 0 for a
    cross pair, v[l] v[l']), v of (m, 0); before them the Gram bands g_d[c]
    = sum_m' F[m', c] conj(F[m', c-d]), row d/M + 1, column c + 2M, 0 off F."""
    key, (M, W), P = (alpha, n, m, own), F.shape, 2 * F.shape[0]
    held = next((h for _, G, h in _TABLES.values() if G is F), {})
    if "gram" not in held:                      # views: no table-sized copy
        X, Y, G = F.real, F.imag, np.zeros((3, W + 2 * P), dtype=complex)
        Xa, Xb, Ya, Yb = X[:, M:], X[:, :-M], Y[:, M:], Y[:, :-M]
        dot = lambda a, b: np.einsum("ij,ij->j", a, b)      # column sums
        G[1, P:P + W] = dot(X, X) + dot(Y, Y)
        G[2, P + M:P + W] = (dot(Xa, Xb) + dot(Ya, Yb)
                             + 1j * (dot(Ya, Xb) - dot(Xa, Yb)))
        G[0, P:P + W - M] = G[2, P + M:P + W].conj()
        held["gram"], G.flags.writeable = G, False
    if key not in held:
        dns = _dn_range(M, (W + 1) // 2, alpha, n)
        i0 = (dns + alpha) * (M // 2) + (W - 1) // 2
        (el, elp), (cl, clp) = _support(n, M, alpha * M // 2)
        v = _rows(F[m], i0[-dns[0]] - np.arange(n))     # (m, 0); dns[0] <= 0
        out = [held["gram"][(elp - el) // M + 1, i0[:, None] - el + P]
               .sum(axis=0), v[el] * np.conj(v[elp]),
               np.zeros(cl.size, dtype=complex), v[cl] * v[clp]]
        if own:     # one run of l per S = l + l', symmetric about S/2
            sign = np.where((np.arange(M) - m) % 2, -1.0, 1.0)
            for S in sorted(set((cl + clp).tolist())):
                sel = np.flatnonzero(cl + clp == S)
                lo, hi = cl[sel[0]], cl[sel[-1]]
                for dn, i in zip(dns.tolist(), i0.tolist()):
                    a, b, Z = _windows(F, max(lo, S - i),
                                       min(hi, S - i + W - 1), i)
                    h = (b - a + 2) // 2        # the product is symmetric
                    p = (-1) ** dn * (sign @ (Z[:, :h] * Z[:, ::-1][:, :h]))
                    out[2][sel[a - lo:b - lo + 1]] += np.r_[
                        p, p[:b - a + 1 - h][::-1]]
        for w in out:
            w.flags.writeable = False
        held[key] = tuple(out)
    return held[key]


def average_power(stats, F, m, P_s):
    """Average interference power at (m, 0), summed over the lattice.

    F is the `interference_table` of subcarrier m.  Returns (rest, entry)
    for the user pair of `stats`: the mean-square interference coefficient
    summed over every lattice offset (m', dn) != (m, 0), and the (m, 0)
    entry (for the own pair, the desired power).  An entry is the variance
    (1/2) Re{v^T eps v^* + v^T eps_check v}, v[l] = F[m', i0 - l] j^(m'-m-dn)
    and i0 = (dn + alpha) M/2 + L_f - 1, plus the squared mean amplitude:
    `_lattice` of E{H_eq} = mu + delta[l - alpha M/2] (the filter-bank peak
    and error rays), zero for a cross pair.  Linear in the bands,
    the variance sums to (1/2) Re{<eps_band, K_eps> + <check_band, K_chk>}:
    the phase of v cancels in eps, so K_eps[l, l'] = sum_dn g_{l'-l}[i0 - l]
    (column Gram bands g_d), and squares to (-1)^(m'-m-dn) in eps_check, so
    K_chk[l, l'] = sum_dn (-1)^dn sum_m' (-1)^(m'-m) F[m', i0-l] F[m', i0-l'].
    The (m, 0) variance is formed from row m and leaves the sum; amplitudes
    stay per entry, (m, 0) zeroed before squaring, so the peak's square is
    never cancelled.  `_weights` holds the weights with a held table.
    """
    M, alpha, n = F.shape[0], stats.alpha, stats.n
    own = stats.pair[0] == stats.pair[1]
    w = _weights(F, m, alpha, n, own)
    quad = 0.5 * (stats.eps_band @ w[0] + stats.check_band @ w[2]).real
    quad0 = 0.5 * (stats.eps_band @ w[1] + stats.check_band @ w[3]).real
    mean = stats.mu + own * (np.arange(n) == alpha * M // 2)      # E{H_eq}
    dns, amp = _lattice(F, m, alpha, mean)
    amp0, amp[m, -dns[0]] = amp[m, -dns[0]], 0.0      # dns[-dns[0]] = 0
    return (P_s * (quad - quad0 + np.sum(amp * amp)),
            P_s * (quad0 + amp0 * amp0))


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
    reconstructs exactly.  The coefficients are `_lattice` of the unit
    impulse on the table held for (pf, m).
    """
    if M != pf.M:
        raise ConfigError(f"need the prototype's M={pf.M}, got M={M}")
    dns, c = _lattice(interference_table(pf, m), m, 0, np.ones(1))
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
    NumericalError, and M, m or u off the prototype's grid ConfigError.
    Statistics and powers are formed once per (own pair, source PDP).
    """
    if M != pf.M or not 0 <= u < len(profiles):
        raise ConfigError(f"need the prototype's M={pf.M} and a user in "
                          f"[0, {len(profiles)}), got M={M}, u={u}")
    F, N_t = interference_table(pf, m), len(profiles)
    interference, exact_eq, seen = 0.0, True, {}
    for up in range(N_t):
        key = (up == u, np.asarray(profiles[up].taps, dtype=float).tobytes())
        if key not in seen:
            stats = error_stats(profiles, M, N_r, alpha, (u, up))
            rest, entry = average_power(stats, F, m, P_s)
            if up == u:     # another user's (m, 0) entry is interference
                desired, entry = entry, 0.0
                n_bank = M * _dn_range(M, pf.L_f, alpha, stats.n).size - 1
            seen[key] = (stats.eps_band.any() or stats.check_band.any()
                         or stats.mu.any(), rest + entry)
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
