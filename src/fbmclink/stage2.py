"""Stage 2: turn the high-rate equalizer into low-rate per-subcarrier
equalizers.

The production path is the two-step decimation: the analysis filter output is
decimated by D1, a short equalizer g-bar (least-squares fit, length L'_g) runs
at the intermediate rate, and a final D2-fold decimation brings the stream to
the symbol rate (D1*D2 = M/2). g-bar is realized as D2 polyphase branches so
every multiplication happens at the lowest possible rate.

The least-squares fit is one path for every subcarrier. The D1-decimated
analysis filter of subcarrier m is the real m = 0 filter times a unit-modulus
phase ramp,

    b_m[k] = f_m^*[(N_f-1-k) D1] = c_m p[(N_f-1-k) D1] w_m^k,
    c_m = e^{-j 2 pi m ((N_f-1) D1 - centre) / M},  w_m = e^{j 2 pi m D1 / M},

so its Toeplitz regression matrix is F_m = c_m D_w F_0 D_w^{-1} with the
unit-modulus diagonal D_w = diag(w_m^k). One real pseudo-inverse of F_0
therefore serves every subcarrier, and the right-hand sides of all (m, u, r)
come from one analysis-bank call.

method1_bandpass / method2_periodize are the two reference constructions of
g-bar; the least-squares fit is what build_lowrate_receiver uses.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import toeplitz

from .errors import ConfigError
from .fbmc import _J_POW, _afb
from .stage1 import design_highrate


class DecimationPlan:
    """Two-step decimation factors: D1 = M/2^eta, D1*D2 = M/2."""

    def __init__(self, M, D1, D2=None):
        M, D1 = int(M), int(D1)
        if D1 < 1 or M % D1 != 0 or (M // D1) & (M // D1 - 1) != 0 or D1 > M // 2:
            raise ConfigError(
                f"D1={D1} invalid: need D1 = M/2^eta with eta in 1..log2(M), M={M}")
        if D2 is None:
            D2 = (M // 2) // D1
        if D1 * D2 != M // 2:
            raise ConfigError(f"D1*D2 = {D1 * D2} != M/2 = {M // 2}")
        self.M, self.D1, self.D2 = M, D1, int(D2)

    def __repr__(self):
        return f"DecimationPlan(M={self.M}, D1={self.D1}, D2={self.D2})"

    def __eq__(self, other):
        return (isinstance(other, DecimationPlan)
                and (self.M, self.D1, self.D2) == (other.M, other.D1, other.D2))


def decimate(x, D, phase=0):
    """Keep every D-th sample starting at `phase`."""
    if D < 1:
        raise ValueError("D must be >= 1")
    if not 0 <= phase < D:
        raise ValueError(f"phase must be in [0, {D}), got {phase}")
    return np.asarray(x)[phase::D]


def method1_bandpass(g, m, M, bp_len=None):
    """Reference Method 1: band-pass projection of g onto subcarrier m's band.

    Convolves g with a truncated, raised-cosine-windowed kernel
    (2/M) sinc(2l/M) e^{j 2 pi m l / M}. Returns the full convolution of length
    len(g) + bp_len - 1; the kernel centre sits at offset (bp_len-1)/2, so
    output[i + (bp_len-1)/2] aligns with g[i].
    """
    if bp_len is None:
        bp_len = 16 * M + 1
    if bp_len % 2 == 0:
        raise ValueError("bp_len must be odd")
    c = (bp_len - 1) // 2
    x = np.arange(bp_len) - c
    win = 0.5 * (1.0 + np.cos(np.pi * x / (c + 1)))
    kern = (2.0 / M) * np.sinc(2.0 * x / M) * np.exp(2j * np.pi * m * x / M) * win
    return np.convolve(np.asarray(g, dtype=complex), kern)


def method2_periodize(g, m, M):
    """Reference Method 2: replicate the in-band spectrum with period 4 pi / M.

    The DFT bins in [2 pi (m-1)/M, 2 pi (m+1)/M) are copied onto the whole
    circle with step 4 pi / M. Input is zero-padded to a multiple of M so the
    band boundaries land on bins; output has the padded length.
    """
    g = np.asarray(g, dtype=complex)
    N = ((g.size + M - 1) // M) * M
    G = np.fft.fft(g, n=N)
    bpm = N // M                     # bins per subcarrier spacing
    out = np.zeros(N, dtype=complex)
    start = (m - 1) * bpm
    src = (start + np.arange(2 * bpm)) % N
    for p in range(M // 2):
        dst = (start + np.arange(2 * bpm) + p * 2 * bpm) % N
        out[dst] = G[src]
    return np.fft.ifft(out)


def _fit(g, pf, subcarriers, D1, Lg_prime):
    """Least-squares low-rate equalizers of the streams g (..., L) for every m
    in `subcarriers`; returns shape (len(subcarriers), ..., Lg_prime).

    Row k of the fit is low-rate lag k - (N_f-1), N_f = L_f/D1: the target
    e[k] = (g conv f_m^*[-.])[D1-1 + k D1] is the analysis bank of g at offset
    (k+1) D1 - L_f, and the solution of F_m x = e is
    x = D_w pinv(F_0) conj(c_m) D_w^{-1} e (see the module docstring).
    """
    if Lg_prime < 1:
        raise ConfigError(f"Lg_prime must be >= 1, got {Lg_prime}")
    if pf.L_f % D1 != 0:
        raise ConfigError(f"D1={D1} does not divide L_f={pf.L_f}")
    M, N_f = pf.M, pf.L_f // D1
    rows = N_f + Lg_prime - 1
    p = pf.coeffs[(N_f - 1 - np.arange(N_f)) * D1]
    F0 = toeplitz(np.concatenate([p, np.zeros(Lg_prime - 1)]),
                  np.zeros(Lg_prime))
    k = np.arange(rows)
    E = _afb(g, pf, (k + 1) * D1 - pf.L_f)[..., subcarriers, :]
    # w_m^k and c_m with their arguments reduced exactly (2 centre = L_f - 1)
    m = np.asarray(subcarriers)[:, None]
    ramp = np.exp(2j * np.pi * (m * k * D1 % M) / M)
    c = np.exp(-1j * np.pi * (m * (2 * (N_f - 1) * D1 - pf.L_f + 1) % (2 * M)) / M)
    x = (E * np.conj(c * ramp)) @ np.linalg.pinv(F0).T
    x *= ramp[:, :Lg_prime]
    return np.moveaxis(x, -2, 0)


def ls_fit(g, pf, m, plan, Lg_prime):
    """Least-squares low-rate equalizer for one (subcarrier, scalar g) pair.

    Minimizes sum_n |E_(a)[n] - E_(c)[n]|^2 where E_(a) = (g conv f_m^*[-.])
    decimated by D1 and E_(c) = (f_m^*[-.])_{down D1} conv g-bar, both indexed
    causally from low-rate lag -(L_f/D1 - 1). It is the bank's fit on one
    stream: F_m = c_m D_w F_0 D_w^{-1}, one pseudo-inverse of F_0 for all m.
    """
    return _fit(g, pf, [m], plan.D1, Lg_prime)[0]


def polyphase_split(gbar, D2):
    """Branch decomposition G_l[n] = g-bar[..., D2 n + l], l = 0..D2-1."""
    gbar = np.asarray(gbar)
    return [gbar[..., l::D2] for l in range(D2)]


class LowRateEqualizerBank:
    """Per-(m, r, u) low-rate equalizers with their polyphase branches.

    gbar has shape (n_subcarriers, N_t, N_r, L'_g); `subcarriers` lists the m
    value of each leading index (all M of them by default). branches[l] is
    gbar[..., l::D2].
    """

    def __init__(self, gbar, subcarriers, plan, alpha, criterion):
        self.gbar = np.asarray(gbar, dtype=complex)
        self.subcarriers = list(subcarriers)
        self.plan = plan
        self.alpha = int(alpha)
        self.criterion = criterion
        self.branches = polyphase_split(self.gbar, plan.D2)

    @property
    def Lg_prime(self):
        return self.gbar.shape[-1]

    def taps_for(self, m):
        return self.gbar[self.subcarriers.index(m)]


def build_lowrate_receiver(csi, pf, plan, criterion="zf", alpha=1, Lg_prime=5,
                           sigma_z2=0.0, P_s=1.0, L_g=None, subcarriers=None):
    """Full two-stage design: Stage-1 filter, then the per-(m,r,u) LS fits.

    `subcarriers` restricts the bank to a subset of m values (default: all M).
    All N_t*N_r stage-1 taps go through one analysis-bank call, and since
    F_m = c_m D_w F_0 D_w^{-1}, one factorization of F_0 fits every subcarrier.
    """
    eq = design_highrate(csi, L_g=L_g, alpha=alpha, criterion=criterion,
                         sigma_z2=sigma_z2, P_s=P_s)
    if subcarriers is None:
        subcarriers = list(range(pf.M))
    gbar = _fit(eq.taps, pf, subcarriers, plan.D1, Lg_prime)
    return LowRateEqualizerBank(gbar, subcarriers, plan, alpha, criterion)


def equalize_lowrate(y, bank, pf):
    """Run the low-rate receiver: AFB at rate 1/D1, polyphase branches, sum.

    Parameters
    ----------
    y : ndarray (N_r, n_samples) or (n_samples,)
    bank : LowRateEqualizerBank
    pf : PrototypeFilter

    Returns
    -------
    ndarray, complex, shape (N_t, n_subcarriers, n_instants): raw symbol-rate
    estimates at receive instants nu = 0, 1, ...; symbol n of the transmit grid
    appears at nu = n + alpha and needs Re{. e^{-j theta_{m,n}}}.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim == 1:
        y = y[None]
    D1, D2, M = bank.plan.D1, bank.plan.D2, bank.plan.M
    N_f = pf.L_f // D1
    N_r, Lgp = bank.gbar.shape[2:]
    if y.shape[0] != N_r:
        raise ValueError(f"{y.shape[0]} antenna streams for N_r={N_r}")
    if y.shape[1] < pf.L_f:
        raise ValueError("stream too short for one analysis window")
    nu_max = (y.shape[1] - 1) // (M // 2)
    v_lo = -(N_f - 1) - (Lgp - 1)        # lowest low-rate index ever touched
    n1 = np.arange(v_lo, nu_max * D2 + 1)
    V = _afb(y, pf, n1 * D1)[:, bank.subcarriers, :]   # (N_r, n_sub, len(n1))
    # Tap j = l + i D2 (tap i of branch l) meets low-rate index nu D2 - j, so
    # the D2 branch outputs summed at instant nu are one window of V per nu.
    win = sliding_window_view(V, Lgp, axis=-1)[:, :, N_f - 1::D2, ::-1]
    return np.einsum("rsnj,surj->usn", win, bank.gbar)


def recover_symbols(dgrid, alpha, N_d):
    """Phase-compensate a raw receive grid and extract transmit instants.

    dgrid: (..., M, n_instants) raw estimates with symbol n at index n+alpha.
    Returns the real OQAM estimates, shape (..., M, N_d).
    """
    dgrid = np.asarray(dgrid)
    M = dgrid.shape[-2]
    n = np.arange(N_d)
    m = np.arange(M)[:, None]
    comp = np.conj(np.asarray(_J_POW)[(m + n[None, :]) % 4])    # e^{-j pi (m+n)/2}
    return (dgrid[..., alpha:alpha + N_d] * comp).real
