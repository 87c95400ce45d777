"""Stage 1: high-rate ZF/MMSE equalizers via frequency sampling, plus the
single-tap per-subcarrier baseline.

Both designs are one batched solve over frequency bins. The CSI is read at
omega_k = 2 pi k/n (``channel.bin_response``), every bin is factored by one
batched SVD H~ = U diag(s) V^H, and the combiner is

    G~_k = V diag(s / (s^2 + lam)) U^H = (H~^H H~ + lam I)^{-1} H~^H,

with lam = sigma_z2/P_s for MMSE and lam = 0 for ZF (and for MMSE without
noise). No explicit inverse or normal matrix is formed. A ZF bin is singular
when N_r < N_t, when its smallest singular value is zero, or when the
condition number of H~^H H~, (s_max/s_min)^2, exceeds ``_COND_CUTOFF``; the
error names the first such bin and its omega.
"""

import warnings

import numpy as np

from .channel import _fir, bin_response
from .errors import ConfigError, SingularChannelError

_COND_CUTOFF = 1e12  # condition number of H~^H H~ beyond which a bin is singular


class HighRateEqualizer:
    """Matrix FIR equalizer G[l], shape (N_t, N_r, L_g), with target delay alpha*M/2."""

    def __init__(self, taps, alpha):
        self.taps = np.asarray(taps, dtype=complex)
        self.alpha = int(alpha)


class SingleTapEqualizer:
    """Per-subcarrier combining matrices W_m, shape (M, N_t, N_r)."""

    def __init__(self, W):
        self.W = np.asarray(W, dtype=complex)


def _ridge(criterion, sigma_z2, P_s):
    """The lam of the bin solve: sigma_z2/P_s for MMSE, 0 for ZF."""
    if criterion == "zf":
        return 0.0
    if criterion == "mmse":
        return sigma_z2 / P_s
    raise ConfigError(f"unknown criterion {criterion!r} (zf|mmse)")


def _solve_bins(A, lam):
    """V diag(s/(s^2+lam)) U^H for every bin A[k] = H~(2 pi k/n).

    A has shape (n, N_r, N_t); the result has shape (n, N_t, N_r).
    """
    n, N_r, N_t = A.shape
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if lam == 0:
        # H~^H H~ is N_t x N_t; fewer rows than columns leaves it rank-deficient
        bad = ((N_r < N_t) | (s[:, -1] == 0)
               | (s[:, 0] ** 2 > _COND_CUTOFF * s[:, -1] ** 2))
        if bad.any():
            k = int(np.argmax(bad))
            raise SingularChannelError(
                f"bin {k}: channel matrix singular at omega={2 * np.pi * k / n:.6g}")
        d = 1.0 / s
    else:
        d = s / (s ** 2 + lam)
    return (Vh.conj().swapaxes(1, 2) * d[:, None, :]) @ U.conj().swapaxes(1, 2)


def alpha_bound(L_h, L_g, M):
    """Largest admissible delay index: ceil(2(L_h+L_g-1)/M) - 1."""
    return int(np.ceil(2 * (L_h + L_g - 1) / M)) - 1


def design_highrate(csi, L_g=None, alpha=1, criterion="zf", sigma_z2=0.0, P_s=1.0):
    """Frequency-sampled high-rate equalizer with L_g taps and delay alpha*M/2.

    G[l] = (1/L_g) sum_k G~_k e^{-j omega_k alpha M/2} e^{j 2 pi l k/L_g} with
    omega_k = 2 pi k/L_g; the delay phase is reduced exactly modulo 2 pi.
    """
    M = csi.M
    if L_g is None:
        L_g = M
    L_h = csi.time_taps.shape[2]
    bound = alpha_bound(L_h, L_g, M)
    if not 0 <= alpha <= bound:
        raise ConfigError(f"alpha={alpha} outside the admissible range [0, {bound}]")
    lam = _ridge(criterion, sigma_z2, P_s)
    if L_g < M:
        warnings.warn(f"L_g={L_g} below the minimum sampling count M={M}")
    G = _solve_bins(bin_response(csi.time_taps, L_g), lam)
    delay = np.arange(L_g) * (alpha * M // 2) % L_g
    G *= np.exp(-2j * np.pi * delay / L_g)[:, None, None]
    G = np.fft.ifft(G, axis=0)                          # (L_g, N_t, N_r)
    return HighRateEqualizer(np.moveaxis(G, 0, 2), alpha)


def apply_highrate(y, eq):
    """x-hat[l] = (G conv y)[l] for antenna streams y (N_r, T); shape (N_t,
    T + L_g - 1)."""
    y = np.asarray(y, dtype=complex)
    if y.shape[0] != eq.taps.shape[1]:
        raise ConfigError(f"{y.shape[0]} antenna streams for N_r={eq.taps.shape[1]}")
    return _fir(eq.taps, y)


def single_tap(csi, criterion="zf", sigma_z2=0.0, P_s=1.0):
    """Per-subcarrier one-tap ZF/MMSE combining at omega = 2 pi m/M.

    No delay phase is applied (the baseline demodulates first and combines
    bins, so alpha = 0 for this scheme).
    """
    lam = _ridge(criterion, sigma_z2, P_s)
    return SingleTapEqualizer(_solve_bins(bin_response(csi.time_taps, csi.M), lam))
