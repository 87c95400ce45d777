"""Stage 1: high-rate ZF/MMSE equalizers via frequency sampling, plus the
single-tap per-subcarrier baseline.

Both designs are one batched solve over the M DFT bins. The CSI is read at
omega_k = 2 pi k/M (``channel.bin_response``), and the combiner of every bin
is the normal-equation solve

    G~_k = (H~^H H~ + lam I)^{-1} H~^H = V diag(s / (s^2 + lam)) U^H,

with lam = sigma_z2/P_s for MMSE and lam = 0 for ZF (and for MMSE without
noise). The N_t x N_t Gram H~^H H~ + lam I of every bin is formed and
inverted by one batched call each. The inverse loses accuracy as
cond(Gram) eps, so a bin whose Gram condition may reach ``_GRAM_COND`` (its
Frobenius bound ||Gram|| ||Gram^{-1}||, which is at least cond_2), or whose
Gram is not finite or not invertible, is solved instead from the SVD
H~ = U diag(s) V^H. Only that path decides singularity: a ZF bin is singular
when N_r < N_t, when its smallest singular value is zero, or when the
condition number of H~^H H~, (s_max/s_min)^2, exceeds ``_COND_CUTOFF``; the
error names the first such bin of the grid and its omega. A bin that passes
the Gram test is never singular, since _GRAM_COND is far below the cutoff.

Held on the ``FreqCsi`` (``fbmc.Holder``): the solve of each lam, so
`single_tap` and every `design_highrate` of one trial share one batched
solve, and the taps of each (lam, alpha), so the two-stage specs of one
trial that share a delay run one inverse FFT. The taps are as large as the
solve, so they double a trial's held bytes while its CSI lives.
"""

import numpy as np

from .channel import _fir, bin_response
from .errors import ConfigError, SingularChannelError

_COND_CUTOFF = 1e12  # condition number of H~^H H~ beyond which a bin is singular
# bound on cond(Gram) from which a bin is solved by SVD: the Gram inverse's
# error grows as cond(Gram) eps, so below it the error stays near 1e-13
_GRAM_COND = 1e3


class HighRateEqualizer:
    """Matrix FIR equalizer G[l], shape (N_t, N_r, L), with target delay alpha*M/2.

    From `design_highrate`, L = M and taps are the read-only taps held for
    its CSI (see the module docstring), shared by every design of one key.
    """

    def __init__(self, taps, alpha):
        self.taps = np.asarray(taps, dtype=complex)
        self.alpha = int(alpha)


class SingleTapEqualizer:
    """Per-subcarrier combining matrices W_m, shape (M, N_t, N_r).

    From `single_tap`, W is the read-only solve held for its CSI (see the
    module docstring), shared with the high-rate designs of that CSI.
    """

    def __init__(self, W):
        self.W = np.asarray(W, dtype=complex)


def _ridge(criterion, sigma_z2, P_s):
    """The lam of the bin solve: sigma_z2/P_s for MMSE, 0 for ZF."""
    if criterion == "zf":
        return 0.0
    if criterion == "mmse":
        return sigma_z2 / P_s
    raise ConfigError(f"unknown criterion {criterion!r} (zf|mmse)")


def _svd_solve(A, lam, k, n):
    """V diag(s/(s^2+lam)) U^H for the bins A (b, N_r, N_t) at indices k of
    the n-point grid; a singular ZF bin raises, named by its grid index."""
    N_r, N_t = A.shape[1:]
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if lam == 0:
        # H~^H H~ is N_t x N_t; fewer rows than columns leaves it rank-deficient
        bad = ((N_r < N_t) | (s[:, -1] == 0)
               | (s[:, 0] ** 2 > _COND_CUTOFF * s[:, -1] ** 2))
        if bad.any():
            b = int(k[np.argmax(bad)])
            raise SingularChannelError(
                f"bin {b}: channel matrix singular at omega={2 * np.pi * b / n:.6g}")
        d = 1.0 / s
    else:
        d = s / (s ** 2 + lam)
    return (Vh.conj().swapaxes(1, 2) * d[:, None, :]) @ U.conj().swapaxes(1, 2)


def _solve_bins(A, lam):
    """(A^H A + lam I)^{-1} A^H for every bin A[k] = H~(2 pi k/n), through
    the Gram inverse, or `_svd_solve` where the Gram test fails.

    A has shape (n, N_r, N_t); the result has shape (n, N_t, N_r). Each bin
    is solved on its own, so a subset of the bins gives the same rows.
    """
    n, N_r, N_t = A.shape
    Ah = A.conj().swapaxes(1, 2)
    G = Ah @ A + lam * np.eye(N_t)
    try:
        Gi = np.linalg.inv(G)
    except np.linalg.LinAlgError:       # one singular Gram fails the batch
        return _svd_solve(A, lam, np.arange(n), n)
    with np.errstate(invalid="ignore", over="ignore"):
        X = Gi @ Ah
        ok = (np.linalg.norm(G, axis=(1, 2)) * np.linalg.norm(Gi, axis=(1, 2))
              < _GRAM_COND)             # False for NaN
    if not ok.all():
        k = np.flatnonzero(~ok)
        X[k] = _svd_solve(A[k], lam, k, n)
    return X


def _held_solve(csi, lam):
    """`_solve_bins` on the M-point grid, held on csi; (M, N_t, N_r)."""
    return csi.hold(("solve", lam), lambda: _solve_bins(
        bin_response(csi.time_taps, csi.M), lam))


def alpha_bound(L_h, M):
    """Largest admissible delay index: ceil(2(L_h+M-1)/M) - 1."""
    return int(np.ceil(2 * (L_h + M - 1) / M)) - 1


def design_highrate(csi, alpha=1, criterion="zf", sigma_z2=0.0, P_s=1.0):
    """Frequency-sampled high-rate equalizer with M taps and delay alpha*M/2.

    G[l] = (1/M) sum_k G~_k e^{-j omega_k alpha M/2} e^{j 2 pi l k/M} with
    omega_k = 2 pi k/M; the delay phase is reduced exactly modulo 2 pi.
    """
    M = csi.M
    bound = alpha_bound(csi.time_taps.shape[2], M)
    if not 0 <= alpha <= bound:
        raise ConfigError(f"alpha={alpha} outside the admissible range [0, {bound}]")
    lam = _ridge(criterion, sigma_z2, P_s)

    def taps():
        delay = np.arange(M) * (alpha * M // 2) % M
        phase = np.exp(-2j * np.pi * delay / M)[:, None, None]
        G = np.fft.ifft(_held_solve(csi, lam) * phase, axis=0)
        return np.moveaxis(G, 0, 2)
    return HighRateEqualizer(csi.hold(("taps", lam, alpha), taps), alpha)


def apply_highrate(y, eq):
    """x-hat[l] = (G conv y)[l] for antenna streams y (N_r, T); shape (N_t,
    T + L - 1) for L taps, M from `design_highrate`."""
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
    return SingleTapEqualizer(_held_solve(csi, lam))
