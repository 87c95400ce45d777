"""Power-delay profiles, Rayleigh channel draws, AWGN, and frequency-domain CSI."""

import os

import numpy as np
# numpy loads numpy.fft and numpy.random on first use; importing them here
# keeps those loads in start-up, out of the first simulation call
from numpy.fft import fft, ifft
from numpy.random import Generator, Philox

from .errors import ConfigError

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

    Custom files contain two columns ``delay_ns power_db`` with ``#`` comments.
    Anchors are placed on the 1/sample_rate grid with a band-limited
    fractional-delay kernel and normalized to unit total power.  An
    already-constructed PdpProfile passes through unchanged, so tap
    sequences defined directly on the sample grid can be used anywhere a
    profile name is accepted.
    """
    if isinstance(name, PdpProfile):
        return name
    if name in _STANDARD_PDPS:
        delays, powers = _STANDARD_PDPS[name]
        return PdpProfile(name, _place_anchors(delays, powers, sample_rate),
                          sample_rate)
    if os.path.exists(name):
        rows = []
        with open(name) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ConfigError(
                        f"{name}:{lineno}: expected 'delay_ns power_db', got {line!r}")
                try:
                    rows.append((float(parts[0]), float(parts[1])))
                except ValueError:
                    raise ConfigError(
                        f"{name}:{lineno}: non-numeric entry in {line!r}") from None
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


class ChannelRealization:
    """One block-fading draw: taps (N_r, N_t, L_h_max) plus per-user profiles."""

    def __init__(self, taps, profiles):
        self.taps = np.asarray(taps, dtype=complex)
        self.profiles = list(profiles)

    @property
    def N_r(self):
        return self.taps.shape[0]

    @property
    def N_t(self):
        return self.taps.shape[1]

    @property
    def L_h(self):
        return self.taps.shape[2]


def draw_channel(profiles, N_r, seed):
    """Draw i.i.d. Rayleigh taps h^{r,u}[l] ~ CN(0, q^u[l]).

    Parameters
    ----------
    profiles : PdpProfile or sequence of PdpProfile (one per user)
    N_r : int
    seed : int or numpy Generator

    Returns
    -------
    ChannelRealization
    """
    if isinstance(profiles, PdpProfile):
        profiles = [profiles]
    if N_r < 1:
        raise ValueError("N_r must be >= 1")
    rng = make_rng(seed)
    N_t = len(profiles)
    L_max = max(p.L_h for p in profiles)
    taps = np.zeros((N_r, N_t, L_max), dtype=complex)
    for u, prof in enumerate(profiles):
        scale = np.sqrt(prof.taps / 2.0)
        shape = (N_r, prof.L_h)
        taps[:, u, :prof.L_h] = scale * (rng.standard_normal(shape)
                                         + 1j * rng.standard_normal(shape))
    return ChannelRealization(taps, profiles)


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


def _bin_sum(fa, fb, sum_axis):
    """Sum over the leading axis `sum_axis` of the broadcast product fa * fb,
    for spectra fa (..., n_blk, n_fft) and fb (..., 1, n_fft), as one
    batched matmul over the frequency bins: fb's leading axes where fa has
    length 1 become matrix rows, the blocks are the columns, and the other
    leading axes batch with the bins. Returns (..., n_blk, n_fft) without
    `sum_axis`, a view with the bins last."""
    nd = max(fa.ndim, fb.ndim) - 2
    fa = fa.reshape((1,) * (nd + 2 - fa.ndim) + fa.shape)
    fb = fb.reshape((1,) * (nd + 2 - fb.ndim) + fb.shape)
    s = sum_axis % (nd + 1)     # counted on the one-block product (..., n)
    # a side that is constant along the sum is summed alone first
    if fa.shape[s] == 1:
        fb = fb.sum(axis=s, keepdims=True)
    elif fb.shape[s] == 1:
        fa = fa.sum(axis=s, keepdims=True)
    rows = [i for i in range(nd) if i != s and fa.shape[i] == 1]
    rest = [i for i in range(nd) if i != s and fa.shape[i] > 1]
    # bins and the other axes batch; fa's rows are all of length 1
    A, B = (x.transpose([nd + 1, *rest, *rows, s, nd]) for x in (fa, fb))
    k = len(rest) + 1
    Y = (B.reshape(B.shape[:k] + (-1, B.shape[-2]))
         @ A.reshape(A.shape[:k] + A.shape[-2:]))   # (bins, *rest, rows, blk)
    lead = rest + rows
    Y = Y.reshape(Y.shape[:k] + tuple(fb.shape[i] for i in rows)
                  + Y.shape[-1:])
    return Y.transpose([1 + lead.index(i) for i in sorted(lead)]
                       + [Y.ndim - 1, 0])


def _convolve(a, b, sum_axis=None):
    """Linear convolution of a and b along the last axis, broadcasting the
    leading axes, by FFTs, in overlap-add blocks once the result is long.

    For n the (complex) result's length and L_s the shorter length, let B =
    _fast_len(max(8 L_s, 1024)), the next 11-smooth length 2^a 3^b 5^c 7^d
    11^e (pocketfft's fast sizes). Below n = 2B, where blocks cost more,
    this is one FFT of each operand at _fast_len(n) and one inverse FFT;
    otherwise the shorter operand is transformed once at B, and the L_s - 1
    sample tails of the inverse FFTs of the longer one's B - L_s + 1 sample
    blocks are overlap-added. `sum_axis` (if given) of the broadcast product
    is summed in the frequency domain, before the inverse FFT: in one block
    by summing the product, in blocks per frequency bin by one batched
    matmul (`_bin_sum`), so the blocks never hold the product whole.
    """
    short, long = sorted((np.shape(a)[-1], np.shape(b)[-1]))
    n = short + long - 1
    n_fft = _fast_len(max(8 * short, 1024))
    if n < 2 * n_fft:
        n_fft = _fast_len(n)
        prod = fft(a, n_fft) * fft(b, n_fft)
        if sum_axis is not None:
            prod = prod.sum(axis=sum_axis)
        return ifft(prod)[..., :n]
    a, b = (a, b) if np.shape(a)[-1] == long else (b, a)
    step = n_fft - short + 1
    n_blk = -(-long // step)
    a = np.pad(a, [(0, 0)] * (np.ndim(a) - 1) + [(0, n_blk * step - long)])
    a = a.reshape(a.shape[:-1] + (n_blk, step))      # block axis before time
    fa, fb = fft(a, n_fft), fft(b, n_fft)[..., None, :]
    blocks = ifft(fa * fb if sum_axis is None else _bin_sum(fa, fb, sum_axis))
    out = np.zeros(blocks.shape[:-2] + (n_blk + 1, step), dtype=blocks.dtype)
    out[..., :-1, :] = blocks[..., :step]
    out[..., 1:, :short - 1] += blocks[..., step:]
    return out.reshape(out.shape[:-2] + (-1,))[..., :n]


def apply_channel(x, H):
    """y^r = sum_u x^u conv h^{r,u}; output length = input length + L_h - 1."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        x = x[None]
    if x.shape[0] != H.N_t:
        raise ValueError(f"{x.shape[0]} streams for {H.N_t} users")
    # batched convolution over (N_r, N_t, time), summing the user axis
    return _convolve(x[None, :, :], H.taps, sum_axis=1)


def add_awgn(y, sigma_z2, seed):
    """Add circular complex white Gaussian noise of total variance sigma_z2."""
    if sigma_z2 < 0:
        raise ValueError("noise variance must be nonnegative")
    y = np.asarray(y, dtype=complex)
    if sigma_z2 == 0:
        return y.copy()
    rng = make_rng(seed)
    z = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    return y + np.sqrt(sigma_z2 / 2.0) * z


def bin_response(taps, n):
    """H_tilde(2 pi k/n) = sum_l taps[..., l] e^{-j 2 pi k l/n}, shape (n, ...).

    The taps are folded modulo n before a length-n DFT, which is the exact
    DTFT on that grid for any tap length (``np.fft.fft(taps, n=n)`` would
    drop the taps past n).
    """
    taps = np.asarray(taps, dtype=complex)
    folded = np.pad(taps, [(0, 0)] * (taps.ndim - 1) + [(0, -taps.shape[-1] % n)])
    folded = folded.reshape(taps.shape[:-1] + (-1, n)).sum(axis=-2)
    return np.moveaxis(np.fft.fft(folded, axis=-1), -1, 0)


class FreqCsi:
    """Channel state on the M DFT bins, held as time taps.

    time_taps, shape (N_r, N_t, L), is what the equalizer designers read:
    they take its bins at any grid size n with ``bin_response(time_taps,
    n)``, which folds the taps modulo n. It holds the true taps for perfect
    CSI and the length-M IDFT of the estimated bins for estimated CSI.
    """

    def __init__(self, time_taps, M):
        self.time_taps = np.asarray(time_taps, dtype=complex)
        self.M = M

    @property
    def N_r(self):
        return self.time_taps.shape[0]

    @property
    def N_t(self):
        return self.time_taps.shape[1]


def freq_csi(H, M):
    """Perfect CSI on M bins: the true taps, whose bins are
    H_tilde_m = sum_l H[l] e^{-j 2 pi m l / M}."""
    return FreqCsi(H.taps, M)


def estimate_csi_mmse(csi, P_p, sigma_z2, seed):
    """Training-based linear-MMSE CSI estimate on every bin.

    hat(H_tilde)_m = (P_p H_tilde_m + Z_m) / (P_p + sigma_z2) with
    Z_m i.i.d. CN(0, P_p sigma_z2); P_p = 2 P_s L_p for L_p training symbols.
    """
    if P_p <= 0:
        raise ValueError("P_p must be positive")
    rng = make_rng(seed)
    H_tilde = bin_response(csi.time_taps, csi.M)
    Z = np.sqrt(P_p * sigma_z2 / 2.0) * (rng.standard_normal(H_tilde.shape)
                                         + 1j * rng.standard_normal(H_tilde.shape))
    H_hat = (P_p * H_tilde + Z) / (P_p + sigma_z2)
    # bin-exact time-domain representation (length M)
    time_taps = np.fft.ifft(np.moveaxis(H_hat, 0, 2), axis=2)
    return FreqCsi(time_taps, csi.M)
