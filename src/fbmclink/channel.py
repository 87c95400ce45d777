"""Power-delay profiles, Rayleigh channel draws, AWGN, and frequency-domain CSI."""

import os

import numpy as np
# numpy loads numpy.fft and numpy.random on first use; importing them here
# keeps those loads in start-up, out of the first simulation call
from numpy.fft import fft, ifft
from numpy.random import Generator, Philox

from .errors import ConfigError
from .fbmc import Holder

# Standard profiles as (delay ns, average power dB) anchor lists (3GPP TS 36.101
# annex B for EVA/ETU, ITU-R M.1225 for the pedestrian profiles).
_STANDARD_PDPS = {
    "EVA": (
        (0, 30, 150, 310, 370, 710, 1090, 1730, 2510),
        (0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9),
    ),
    "ETU": (
        (0, 50, 120, 200, 230, 500, 1600, 2300, 5000),
        (-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, -3.0, -5.0, -7.0),
    ),
    "PedA": (
        (0, 110, 190, 410),
        (0.0, -9.7, -19.2, -22.8),
    ),
    "PedB": (
        (0, 200, 800, 1200, 2300, 3700),
        (0.0, -0.9, -4.9, -8.0, -7.8, -23.9),
    ),
}

# Fractional-delay placement kernel: windowed sinc, half-width 5 samples
# (9 nonzero taps per path), applied in power so relative path powers are kept.
_KERNEL_HALF = 4
_KERNEL_WIDTH = 5.0


class PdpProfile:
    """Normalized power-delay profile q[l] on the simulation sample grid."""

    def __init__(self, name, taps, sample_rate):
        taps = np.asarray(taps, dtype=float)
        if taps.ndim != 1 or taps.size == 0:
            raise ConfigError("profile taps must be a nonempty 1-D sequence")
        if np.any(taps < 0):
            raise ConfigError("profile taps must be nonnegative")
        total = taps.sum()
        if total <= 0:
            raise ConfigError("profile has zero total power")
        self.name = name
        self.taps = taps / total
        self.sample_rate = float(sample_rate)

    @property
    def L_h(self):
        return self.taps.size

    def __repr__(self):
        return f"PdpProfile({self.name!r}, L_h={self.L_h})"


def _place_anchors(delays_ns, powers_db, sample_rate):
    """Spread anchor paths onto the sample grid with a fractional-delay kernel.

    Each anchor covers the 2 _KERNEL_HALF + 1 grid points around it; the
    contributions are added in anchor order, so the profile does not depend
    on how the anchor-by-offset table is evaluated.
    """
    t = np.asarray(delays_ns, dtype=float) * 1e-9 * sample_rate
    p_lin = 10.0 ** (np.asarray(powers_db, dtype=float) / 10.0)
    L_h = int(np.floor(t.max())) + 2 * _KERNEL_HALF + 1
    k = np.floor(t).astype(int)[:, None] + np.arange(-_KERNEL_HALF,
                                                     _KERNEL_HALF + 1)
    x = k - t[:, None]
    w = 0.5 * (1.0 + np.cos(np.pi * x / _KERNEL_WIDTH))
    contrib = np.where(np.abs(x) < _KERNEL_WIDTH,
                       p_lin[:, None] * (np.sinc(x) * w) ** 2, 0.0)
    q = np.zeros(L_h)
    np.add.at(q, k + _KERNEL_HALF, contrib)
    return q


def load_pdp(name, sample_rate):
    """Load a standard profile by name, or a custom one from a text file.

    Custom files contain two columns ``delay_ns power_db`` with ``#`` comments;
    every value must be finite and every delay nonnegative.
    Anchors are placed on the 1/sample_rate grid with a band-limited
    fractional-delay kernel and normalized to unit total power.  A file
    that cannot be read as UTF-8 text raises ConfigError naming it.
    """
    if name in _STANDARD_PDPS:
        delays, powers = _STANDARD_PDPS[name]
        return PdpProfile(name, _place_anchors(delays, powers, sample_rate),
                          sample_rate)
    if os.path.exists(name):
        try:
            with open(name, encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read profile file {name!r}: {e}") from None
        rows = []
        for lineno, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(
                    f"{name}:{lineno}: expected 'delay_ns power_db', got {line!r}")
            try:
                row = float(parts[0]), float(parts[1])
            except ValueError:
                raise ConfigError(
                    f"{name}:{lineno}: non-numeric entry in {line!r}") from None
            if not (np.isfinite(row).all() and row[0] >= 0):
                raise ConfigError(
                    f"{name}:{lineno}: need a finite delay_ns >= 0 and a "
                    f"finite power_db, got {line!r}")
            rows.append(row)
        if not rows:
            raise ConfigError(f"{name}: no anchor rows found")
        delays, powers = zip(*rows)
        return PdpProfile(os.path.basename(name),
                          _place_anchors(delays, powers, sample_rate), sample_rate)
    raise ConfigError(
        f"unknown profile {name!r}: expected one of {sorted(_STANDARD_PDPS)} "
        "or a readable custom file path")


def make_rng(seed):
    """Counter-based generator (Philox) from an integer seed, or pass through."""
    if isinstance(seed, Generator):
        return seed
    return Generator(Philox(key=int(seed) % (1 << 128)))


def trial_rng(master_seed, trial):
    """Independent per-trial stream keyed by (master seed, trial index)."""
    key = ((int(master_seed) % (1 << 64)) << 64) | (int(trial) % (1 << 64))
    return Generator(Philox(key=key))


def draw_channel(profiles, N_r, seed):
    """Draw i.i.d. Rayleigh taps h^{r,u}[l] ~ CN(0, q^u[l]).

    Parameters
    ----------
    profiles : sequence of PdpProfile (one per user)
    N_r : int
    seed : int or numpy Generator

    Returns
    -------
    ndarray, complex, shape (N_r, N_t, max L_h)
        One block-fading draw; user u's taps past its own L_h are zero.
    """
    if N_r < 1:
        raise ConfigError("N_r must be >= 1")
    rng = make_rng(seed)
    N_t = len(profiles)
    L_max = max(p.L_h for p in profiles)
    taps = np.zeros((N_r, N_t, L_max), dtype=complex)
    for u, prof in enumerate(profiles):
        scale = np.sqrt(prof.taps / 2.0)
        shape = (N_r, prof.L_h)
        taps[:, u, :prof.L_h] = scale * (rng.standard_normal(shape)
                                         + 1j * rng.standard_normal(shape))
    return taps


def _fast_len(n):
    """Smallest 11-smooth integer >= n."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _fir(h, x):
    """y[p] = sum_q h[p, q] * x[q] (linear convolution) for filters h (P, Q,
    L) and streams x (Q, T); shape (P, T + L - 1).

    By FFTs in overlap-add blocks of B - L + 1 samples, B = _fast_len(max(8
    L, 1024)) (pocketfft's fast sizes), or, when the result is shorter than
    2B, in one block of B = _fast_len(T + L - 1). The filters are transformed
    once, and each frequency bin sums its Q products in one batched matmul,
    so the blocks never hold the product whole; the L - 1 sample tails of
    the inverse FFTs are overlap-added.
    """
    (P, Q, L), T = h.shape, x.shape[-1]
    n = T + L - 1
    B = _fast_len(max(8 * L, 1024))
    hop = B - L + 1
    if n < 2 * B:
        B = hop = _fast_len(n)      # one block, nothing overlaps
    n_blk = -(-T // hop)
    xb = np.zeros((Q, n_blk, hop), dtype=complex)
    xb.reshape(Q, -1)[:, :T] = x    # np.pad costs more than a one-block FFT
    Y = fft(h, B).transpose(2, 0, 1) @ fft(xb, B).transpose(2, 0, 1)
    blocks = ifft(Y.transpose(1, 2, 0))             # (P, n_blk, B)
    y = np.zeros((P, n_blk + 1, hop), dtype=complex)
    y[:, :-1] = blocks[..., :hop]
    y[:, 1:, :B - hop] += blocks[..., hop:]
    return y.reshape(P, -1)[:, :n]


def apply_channel(x, h):
    """y^r = sum_u x^u conv h^{r,u} for streams x (N_t, T) and taps h (N_r,
    N_t, L_h); shape (N_r, T + L_h - 1)."""
    x = np.asarray(x, dtype=complex)
    if x.shape[0] != h.shape[1]:
        raise ConfigError(f"{x.shape[0]} streams for {h.shape[1]} users")
    return _fir(h, x)


def add_awgn(y, sigma_z2, seed):
    """Add circular complex white Gaussian noise of total variance sigma_z2."""
    if sigma_z2 < 0:
        raise ConfigError("noise variance must be nonnegative")
    y = np.asarray(y, dtype=complex)
    if sigma_z2 == 0:
        return y.copy()
    rng, scale = make_rng(seed), np.sqrt(sigma_z2 / 2.0)
    # the real parts, then the imaginary parts, drawn into one real buffer
    out, z = y.copy(), rng.standard_normal(y.shape)
    z *= scale
    out.real += z
    rng.standard_normal(out=z)
    z *= scale
    out.imag += z
    return out


def bin_response(taps, n):
    """H_tilde(2 pi k/n) = sum_l taps[..., l] e^{-j 2 pi k l/n}, shape (n, ...).

    Taps longer than n are folded modulo n before a length-n DFT, which is
    the exact DTFT on that grid for any tap length (``np.fft.fft(taps, n=n)``
    would drop the taps past n); shorter ones are zero-padded by the DFT.
    """
    taps = np.asarray(taps, dtype=complex)
    if taps.shape[-1] > n:
        taps = np.pad(taps, [(0, 0)] * (taps.ndim - 1) + [(0, -taps.shape[-1] % n)])
        taps = taps.reshape(taps.shape[:-1] + (-1, n)).sum(axis=-2)
    return np.moveaxis(fft(taps, n, axis=-1), -1, 0)


class FreqCsi(Holder):
    """Channel state on the M DFT bins, held as time taps.

    time_taps, shape (N_r, N_t, L), is what the equalizer designers read:
    they take its M bins with ``bin_response(time_taps, M)``, which folds
    the taps modulo M. It holds the true taps for perfect CSI and the
    length-M IDFT of the estimated bins for estimated CSI.
    """

    def __init__(self, time_taps, M):
        self.time_taps = np.asarray(time_taps, dtype=complex)
        self.M = M


def freq_csi(h, M):
    """Perfect CSI on M bins from the taps h (N_r, N_t, L_h): the true taps,
    whose bins are H_tilde_m = sum_l h[..., l] e^{-j 2 pi m l / M}."""
    return FreqCsi(h, M)


def estimate_csi_mmse(csi, P_p, sigma_z2, seed):
    """Training-based linear-MMSE CSI estimate on every bin.

    hat(H_tilde)_m = (P_p H_tilde_m + Z_m) / (P_p + sigma_z2) with
    Z_m i.i.d. CN(0, P_p sigma_z2); P_p = 2 P_s L_p for L_p training symbols.
    """
    if P_p <= 0:
        raise ConfigError("P_p must be positive")
    rng = make_rng(seed)
    H_tilde = bin_response(csi.time_taps, csi.M)
    Z = np.sqrt(P_p * sigma_z2 / 2.0) * (rng.standard_normal(H_tilde.shape)
                                         + 1j * rng.standard_normal(H_tilde.shape))
    H_hat = (P_p * H_tilde + Z) / (P_p + sigma_z2)
    # bin-exact time-domain representation (length M)
    time_taps = np.fft.ifft(np.moveaxis(H_hat, 0, 2), axis=2)
    return FreqCsi(time_taps, csi.M)
