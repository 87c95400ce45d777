"""Reference constructions shared by several test files."""

import numpy as np

from fbmclink.fbmc import _tx_phases
from fbmclink.theory import _support


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


def phase_factor(m, n):
    """OQAM phase e^{j pi (m+n)/2}, exact (unit modulus, no rounding)."""
    return (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)[(m + n) % 4]


def tau(profile, M):
    """Subcarrier correlation matrix tau[m,m'] = sum_l q[l] e^{j2pi(m-m')l/M}."""
    t = np.conj(np.fft.fft(profile.taps, M))    # sum_l q[l] e^{+j2pi dl/M}
    return t[(np.arange(M)[:, None] - np.arange(M)) % M]


def _dense(stats, band, which):
    out = np.zeros((stats.n, stats.n), dtype=complex)
    out[_support(stats.n, stats.M, stats.alpha * stats.M // 2)[which]] = band
    return out


def dense_eps(stats):
    """The dense (n, n) eps of an `ErrorStats`, zero off its band."""
    return _dense(stats, stats.eps_band, 0)


def dense_check(stats):
    """The dense (n, n) eps_check of an `ErrorStats`, zero off its band."""
    return _dense(stats, stats.check_band, 1)


def afb_reference(y, pf, offsets):
    """The analysis bank as one fold of whole (offsets, M) index gathers: a
    zero-padded copy of the streams, and each of the kappa prototype blocks
    taken at every offset with `np.take` before the length-M FFT. Same
    contract as `fbmc._afb`: D[..., m, k] = sum_t y[..., offsets[k] + t]
    f_m^*[t], shape (..., M, len(offsets)), zero outside the support."""
    y = np.asarray(y)
    M, L_f = pf.M, pf.L_f
    offsets = np.asarray(offsets, dtype=int)
    pad_front = max(0, -int(offsets.min()))
    pad_back = max(0, int(offsets.max()) + L_f - y.shape[-1])
    ypad = np.pad(y, [(0, 0)] * (y.ndim - 1) + [(pad_front, pad_back)])
    idx = (offsets[:, None] + pad_front) + np.arange(M)
    p = pf.coeffs.reshape(pf.kappa, M)
    folded = np.take(ypad, idx, axis=-1) * p[0]
    for q in range(1, pf.kappa):
        folded += np.take(ypad, idx + q * M, axis=-1) * p[q]
    D = np.fft.fft(folded, axis=-1)
    D *= np.exp(1j * np.pi * (np.arange(M) * (L_f - 1) % (2 * M)) / M)
    return np.swapaxes(D, -1, -2)


def modulate_reference(grid, pf):
    """The synthesis bank with whole-burst temporaries: the phased grid, M
    times numpy's normalized IFFT, and one product per pulse block. Same
    contract as `fbmc.modulate`, and the same sums in the same order."""
    M, half, n_blk = pf.M, pf.M // 2, 2 * pf.kappa
    N_t, _, N_d = grid.shape
    c = np.swapaxes(grid * _tx_phases(M, N_d, pf), 1, 2)
    b = (M * np.fft.ifft(c, axis=-1)).reshape(N_t, N_d, 2, half)
    p = pf.coeffs.reshape(n_blk, half)
    out = np.zeros((N_t, N_d - 1 + n_blk, half), dtype=complex)
    for j in range(n_blk - 1, -1, -1):
        out[:, j:j + N_d] += b[:, :, j % 2] * p[j]
    return out.reshape(N_t, -1)


def transmux_response(pf, m, m_prime):
    """Transmultiplexer response F_{m m'}[l] = (f_{m'} conv f_m^*[-.])[l] by
    direct convolution.

    Returns the full sequence of length 2*L_f-1; entry i corresponds to lag
    l = i - (L_f-1). F_{mm}[0] equals 1 by normalization.
    """
    f_mp = pf.subcarrier_filter(m_prime)
    f_m = pf.subcarrier_filter(m)
    return np.convolve(f_mp, np.conj(f_m[::-1]))


def window(F, m, alpha, dn, L_h):
    """V[l, m'] = F_{mm'}[(dn+alpha) M/2 - l] j^{m'-m-dn} for every m' of a
    table F of subcarrier m (`interference_table` is that of m = 0),
    l = 0..M+L_h-2 (zero outside the table), shape (M+L_h-1, M)."""
    M, width = F.shape
    n, L_f = M + L_h - 1, (width + 1) // 2
    i0 = (dn + alpha) * (M // 2) + L_f - 1              # at l = 0
    l0, l1 = max(0, i0 - width + 1), min(n, i0 + 1)
    V = np.zeros((n, M), dtype=complex)
    if l0 < l1:
        V[l0:l1] = F[:, i0 - l1 + 1:i0 - l0 + 1][:, ::-1].T
    V *= np.array([1, 1j, -1, -1j])[(np.arange(M) - m - dn) % 4]
    return V


def oqam_to_qam(grid):
    """Inverse of `qam_to_oqam` (exact round trip)."""
    s = np.asarray(grid)
    return s[..., 0::2] + 1j * s[..., 1::2]
