"""FBMC/OQAM core: prototype filter, OQAM mapping, synthesis and analysis banks.

Conventions used throughout the package:

* prototype p[l], l = 0..L_f-1, L_f = kappa*M, symmetric and unit energy;
* subcarrier filter f_m[t] = p[t] * exp(j*2*pi*m*(t - (L_f-1)/2)/M); the phase is
  referenced to the prototype's symmetry centre so that the lattice is orthogonal
  in the real domain (see module tests for the measured residual floor);
* transmit atom F_{m,n}[l] = f_m[l - n*M/2] * j^{m+n};
* the analysis bank output for instant n is the matched-filter output
  (y conv f_m^*[-.]) sampled at lag n*M/2, i.e. sum_t y[n*M/2 + t] f_m^*[t];
  `_afb` lays it out subcarrier-major, (M, offsets, streams...), and
  `demodulate` views that as (streams..., M, instants).

A burst of N_d symbol instants occupies (N_d-1)*M/2 + L_f samples.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError

# Frequency-sampling sideband coefficients of the PHYDYAS pulse for
# overlapping factors 2..4 (H_0 = 1 implicit).
_PHYDYAS = {
    2: (np.sqrt(2.0) / 2.0,),
    3: (0.91143783, 0.41143783),
    4: (0.97195983, np.sqrt(2.0) / 2.0, 0.23514695),
}

_J_POW = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)

# bytes of folded analysis windows per chunk of `_afb` offsets: the fold, its
# FFT and at most a padded span of samples are live at once besides the
# output, whatever the offset count
_CHUNK_BYTES = 1 << 20


class Holder:
    """Base of `PrototypeFilter` and `channel.FreqCsi`: read-only arrays
    derived from the object, held in its dict `held` and freed with it.
    The object is not to be changed once one is held."""

    def hold(self, key, build):
        """held[key], from build() on the first read: an array or a tuple of
        arrays, made read-only. Threads that miss at once each build one."""
        held = self.__dict__.setdefault("held", {})
        out = held.get(key)
        if out is None:
            out = build()
            for a in out if isinstance(out, tuple) else (out,):
                a.flags.writeable = False
            held[key] = out
        return out


class PrototypeFilter(Holder):
    """Designed prototype pulse plus the lattice geometry it implies.

    Attributes
    ----------
    coeffs : ndarray
        p[l], real, length L_f, unit energy.
    M : int
        Number of subcarriers.
    kappa : int
        Overlapping factor; L_f = kappa*M.
    """

    def __init__(self, coeffs, M, kappa):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.M = int(M)
        self.kappa = int(kappa)

    @property
    def L_f(self):
        return self.coeffs.size

    @property
    def centre(self):
        """Symmetry centre (L_f-1)/2, a half-integer for even L_f."""
        return (self.L_f - 1) / 2.0

    def subcarrier_filter(self, m):
        """f_m[t] = p[t] e^{j 2 pi m (t - centre) / M}, length L_f; the phase
        argument pi m (2t - L_f + 1) / M is reduced exactly modulo 2 pi."""
        M, t = self.M, np.arange(self.L_f)
        return self.coeffs * np.exp(
            1j * np.pi * (m * (2 * t - self.L_f + 1) % (2 * M)) / M)

    def __repr__(self):
        return f"PrototypeFilter(kappa={self.kappa}, M={self.M})"


def design_prototype(kappa, M):
    """Design the PHYDYAS prototype via frequency sampling.

    Parameters
    ----------
    kappa : int
        Overlapping factor, one of {2, 3, 4}.
    M : int
        Number of subcarriers (power of two, >= 4).

    Returns
    -------
    PrototypeFilter
        Symmetric, unit-energy pulse of length kappa*M.
    """
    if kappa not in _PHYDYAS:
        raise ConfigError(f"unsupported kappa={kappa}; supported: {sorted(_PHYDYAS)}")
    if M < 4 or (M & (M - 1)) != 0:
        raise ConfigError(f"M must be a power of two >= 4, got {M}")
    L_f = kappa * M
    l = np.arange(L_f)
    # Frequency-sampling synthesis; the (l + 0.5) argument centres the pulse on
    # the discrete grid so p[l] == p[L_f-1-l] holds exactly.
    p = np.ones(L_f)
    for k, hk in enumerate(_PHYDYAS[kappa], start=1):
        p += 2.0 * (-1) ** k * hk * np.cos(2 * np.pi * k * (l + 0.5) / L_f)
    p /= np.sqrt(np.sum(p * p))
    return PrototypeFilter(p, M, kappa)


def qam_to_oqam(qam):
    """Stagger complex QAM symbols (N_t, M, K) into the real OQAM symbols
    s_{m,n}, shape (N_t, M, 2K).

    Each complex symbol at instant k becomes (real part at n=2k, imaginary part
    at n=2k+1), on every subcarrier.
    """
    qam = np.asarray(qam, dtype=complex)
    s = np.empty(qam.shape[:-1] + (2 * qam.shape[-1],), dtype=float)
    s[..., 0::2] = qam.real
    s[..., 1::2] = qam.imag
    return s


def _tx_phases(M, N_d, pf):
    """Per-(m,n) transmit phase j^{m+n} e^{-j 2 pi m centre / M}; the centre
    phase argument pi m (L_f - 1) / M is reduced exactly modulo 2 pi."""
    m = np.arange(M)[:, None]
    n = np.arange(N_d)[None, :]
    theta = np.asarray(_J_POW)[(m + n) % 4]
    centre_ph = np.exp(-1j * np.pi * (m * (pf.L_f - 1) % (2 * M)) / M)
    return theta * centre_ph


def modulate(grid, pf):
    """Synthesis filter bank: real OQAM symbols -> per-user sample streams.

    The adjoint of `_afb` at offsets n*M/2: one IFFT over every (user,
    instant) column, the kappa-fold periodic extension under the pulse, then
    an overlap-add of the 2*kappa blocks of M/2 samples that each instant
    spans, as one einsum over a strided float view of the zero-padded IFFT
    output.

    Parameters
    ----------
    grid : ndarray, real, shape (N_t, M, N_d)
        s_{m,n} of each user.
    pf : PrototypeFilter

    Returns
    -------
    ndarray, complex, shape (N_t, (N_d-1)*M/2 + L_f)
    """
    M = pf.M
    N_t, M_grid, N_d = grid.shape
    if M_grid != M:
        raise ConfigError(f"grid has M={M_grid} but prototype has M={M}")
    half, kappa, P = M // 2, pf.kappa, 2 * pf.kappa - 1
    # P zero instants at each end, whose IFFT is zero, pad the overlap-add
    b = np.zeros((N_t, N_d + 2 * P, M), dtype=complex)
    np.multiply(np.swapaxes(grid, 1, 2), _tx_phases(M, N_d, pf).T,
                out=b[:, P:P + N_d])
    # the unnormalized inverse DFT, M times numpy's default
    f = np.fft.ifft(b, axis=-1, norm="forward").view(float)
    # pulse block j = 2 kappa - 1 - 2a - e of output block i is half 1 - e
    # of padded instant i + 2a + e; the sum runs a, then e, upward, so every
    # output block sums its pulse blocks j downward (its instants upward)
    win = as_strided(f[:, :, M:], (N_t, N_d + P, kappa, 2, M),
                     (f.strides[0], 16 * M, 32 * M, 8 * M, 8), writeable=False)
    p = np.repeat(pf.coeffs.reshape(2 * kappa, half)[::-1], 2, axis=-1)
    out = np.einsum("tiaec,aec->tic", win, p.reshape(kappa, 2, M))
    return out.view(complex).reshape(N_t, -1)


def _afb(y, pf, offsets):
    """Analysis bank at a `range` of sample offsets (any step, negative
    offsets included), over any leading stream axes.

    Returns D[m, k, ...] = sum_t y[..., offsets[k] + t] f_m^*[t], shape
    (M, len(offsets)) + lead: subcarrier-major, each subcarrier's block one
    contiguous matrix. The streams are zero outside their support. The
    offsets go in chunks of about _CHUNK_BYTES of folded windows; a chunk
    reads only the span of samples it covers (a view of y, or a zero-padded
    copy), prototype block q of its windows is one strided float view of
    that span, and the fold is one einsum, summed in q order. Besides the
    output, only chunk-sized buffers are live.
    """
    y = np.asarray(y)
    c = 2 if np.iscomplexobj(y) else 1          # floats per sample
    y = np.ascontiguousarray(y, dtype=complex if c == 2 else float)
    M, L_f, n, lead = pf.M, pf.L_f, y.shape[-1], y.shape[:-1]
    w = np.repeat(pf.coeffs.reshape(pf.kappa, M), c, axis=1)
    # e^{j 2 pi m centre / M}, argument reduced exactly (2 centre = L_f - 1)
    phase = np.exp(1j * np.pi * (np.arange(M) * (L_f - 1) % (2 * M)) / M)
    D = np.empty((M, len(offsets)) + lead, dtype=complex)
    rows = max(1, _CHUNK_BYTES // (16 * M * max(1, math.prod(lead))))
    for k0 in range(0, len(offsets), rows):
        o = offsets[k0:k0 + rows]
        lo, hi = min(o[0], o[-1]), max(o[0], o[-1]) + L_f
        if lo >= 0 and hi <= n:
            span = y[..., lo:hi]
        else:
            span = np.zeros(lead + (hi - lo,), dtype=y.dtype)
            a, b = max(lo, 0), min(hi, n)
            if a < b:
                span[..., a - lo:b - lo] = y[..., a:b]
        f = span.view(float)[..., (o[0] - lo) * c:]     # from window 0 on
        win = as_strided(f, lead + (len(o), pf.kappa, c * M),
                         f.strides[:-1] + (8 * c * o.step, 8 * c * M, 8),
                         writeable=False)
        fold = np.fft.fft(np.einsum("...kqc,qc->...kc", win, w).view(y.dtype))
        fold *= phase
        D[:, k0:k0 + len(o)] = np.moveaxis(fold, (-1, -2), (0, 1))
    return D


def demodulate(stream, pf, n_out=None):
    """Analysis filter bank: sample streams -> complex grids d_{m,n}.

    The matched-filter outputs are taken at lags n*M/2 (n = 0, 1, ...), the
    alignment under which a loopback burst puts symbol n of the grid at
    instant n. No phase compensation is applied here.

    Parameters
    ----------
    stream : ndarray, complex, shape (..., n_samples)
        Leading axes (antennas, users) are independent streams, as in `_afb`.
    pf : PrototypeFilter
    n_out : int, optional
        Number of instants to produce; default: as many full windows as fit.

    Returns
    -------
    ndarray, complex, shape (..., M, n_out): a view of `_afb`'s
    subcarrier-major (M, n_out, ...) output.
    """
    y = np.asarray(stream)
    M, L_f = pf.M, pf.L_f
    if y.shape[-1] < L_f:
        raise ConfigError(f"stream too short: {y.shape[-1]} < L_f={L_f}")
    if n_out is None:
        n_out = (y.shape[-1] - L_f) // (M // 2) + 1
    D = _afb(y, pf, range(0, n_out * (M // 2), M // 2))
    return np.moveaxis(D, (0, 1), (-2, -1))
