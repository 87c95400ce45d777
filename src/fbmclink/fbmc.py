"""FBMC/OQAM core: prototype filter, OQAM mapping, synthesis and analysis banks.

Conventions used throughout the package:

* prototype p[l], l = 0..L_f-1, L_f = kappa*M, symmetric and unit energy;
* subcarrier filter f_m[t] = p[t] * exp(j*2*pi*m*(t - (L_f-1)/2)/M); the phase is
  referenced to the prototype's symmetry centre so that the lattice is orthogonal
  in the real domain (see module tests for the measured residual floor);
* transmit atom F_{m,n}[l] = f_m[l - n*M/2] * phase_factor(m, n);
* the analysis bank output for instant n is the matched-filter output
  (y conv f_m^*[-.]) sampled at lag n*M/2, i.e. sum_t y[n*M/2 + t] f_m^*[t].

A burst of N_d symbol instants occupies (N_d-1)*M/2 + L_f samples.
"""

import numpy as np

# Frequency-sampling sideband coefficients of the PHYDYAS pulse for
# overlapping factors 2..4 (H_0 = 1 implicit).
_PHYDYAS = {
    2: (np.sqrt(2.0) / 2.0,),
    3: (0.91143783, 0.41143783),
    4: (0.97195983, np.sqrt(2.0) / 2.0, 0.23514695),
}

_J_POW = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)


class PrototypeFilter:
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
        raise ValueError(f"unsupported kappa={kappa}; supported: {sorted(_PHYDYAS)}")
    if M < 4 or (M & (M - 1)) != 0:
        raise ValueError(f"M must be a power of two >= 4, got {M}")
    L_f = kappa * M
    l = np.arange(L_f)
    # Frequency-sampling synthesis; the (l + 0.5) argument centres the pulse on
    # the discrete grid so p[l] == p[L_f-1-l] holds exactly.
    p = np.ones(L_f)
    for k, hk in enumerate(_PHYDYAS[kappa], start=1):
        p += 2.0 * (-1) ** k * hk * np.cos(2 * np.pi * k * (l + 0.5) / L_f)
    p /= np.sqrt(np.sum(p * p))
    return PrototypeFilter(p, M, kappa)


def phase_factor(m, n):
    """OQAM phase e^{j pi (m+n)/2}, exact (unit modulus, no rounding)."""
    return _J_POW[(m + n) % 4]


class OqamGrid:
    """Real OQAM symbols s_{m,n} per user: array (N_t, M, N_d) plus symbol power."""

    def __init__(self, symbols, P_s):
        symbols = np.asarray(symbols, dtype=float)
        if symbols.ndim == 2:
            symbols = symbols[None]
        self.symbols = symbols
        self.P_s = float(P_s)

    @property
    def shape(self):
        return self.symbols.shape


def qam_to_oqam(qam, P_s):
    """Stagger complex QAM symbols into a real OQAM grid.

    Each complex symbol at instant k becomes (real part at n=2k, imaginary part
    at n=2k+1), on every subcarrier. P_s is the per-real-symbol power carried as
    grid metadata (half the QAM symbol power for a unit-power constellation).
    """
    qam = np.asarray(qam, dtype=complex)
    if qam.ndim == 2:
        qam = qam[None]
    s = np.empty(qam.shape[:-1] + (2 * qam.shape[-1],), dtype=float)
    s[..., 0::2] = qam.real
    s[..., 1::2] = qam.imag
    return OqamGrid(s, P_s)


def _tx_phases(M, N_d, pf):
    """Per-(m,n) transmit phase j^{m+n} e^{-j 2 pi m centre / M}; the centre
    phase argument pi m (L_f - 1) / M is reduced exactly modulo 2 pi."""
    m = np.arange(M)[:, None]
    n = np.arange(N_d)[None, :]
    theta = np.asarray(_J_POW)[(m + n) % 4]
    centre_ph = np.exp(-1j * np.pi * (m * (pf.L_f - 1) % (2 * M)) / M)
    return theta * centre_ph


def modulate(grid, pf):
    """Synthesis filter bank: OQAM grid -> per-user sample streams.

    The adjoint of `_afb` at offsets n*M/2: one IFFT over every (user,
    instant) column, the kappa-fold periodic extension under the pulse, then
    an overlap-add of the 2*kappa blocks of M/2 samples that each instant
    spans.

    Parameters
    ----------
    grid : OqamGrid
    pf : PrototypeFilter

    Returns
    -------
    ndarray, complex, shape (N_t, (N_d-1)*M/2 + L_f)
    """
    M = pf.M
    if grid.symbols.shape[1] != M:
        raise ValueError(
            f"grid has M={grid.symbols.shape[1]} but prototype has M={M}")
    N_t, _, N_d = grid.symbols.shape
    half, n_blk = M // 2, 2 * pf.kappa
    c = np.swapaxes(grid.symbols * _tx_phases(M, N_d, pf), 1, 2)
    b = (M * np.fft.ifft(c, axis=-1)).reshape(N_t, N_d, 2, half)
    p = pf.coeffs.reshape(n_blk, half)
    out = np.zeros((N_t, N_d - 1 + n_blk, half), dtype=complex)
    # pulse block j (the periodic IFFT's half j mod 2) of instant n lands on
    # output block n + j; running j downward sums every output block's
    # instants in increasing n
    for j in range(n_blk - 1, -1, -1):
        out[:, j:j + N_d] += b[:, :, j % 2] * p[j]
    return out.reshape(N_t, -1)


def _afb(y, pf, offsets):
    """Analysis bank at arbitrary sample offsets, over any leading stream axes.

    Returns D[..., m, k] = sum_t y[..., offsets[k] + t] f_m^*[t], shape
    (..., M, len(offsets)); offsets may be negative, the streams are zero
    outside their support. The kappa prototype blocks are folded one at a
    time, so no whole L_f window per offset is held.
    """
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
    # e^{j 2 pi m centre / M}, argument reduced exactly (2 centre = L_f - 1)
    D *= np.exp(1j * np.pi * (np.arange(M) * (L_f - 1) % (2 * M)) / M)
    return np.swapaxes(D, -1, -2)


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
    ndarray, complex, shape (..., M, n_out)
    """
    y = np.asarray(stream)
    M, L_f = pf.M, pf.L_f
    if y.shape[-1] < L_f:
        raise ValueError(f"stream too short: {y.shape[-1]} < L_f={L_f}")
    if n_out is None:
        n_out = (y.shape[-1] - L_f) // (M // 2) + 1
    offsets = np.arange(n_out) * (M // 2)
    return _afb(y, pf, offsets)
