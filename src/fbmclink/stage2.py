"""Stage 2: turn the high-rate equalizer into low-rate per-subcarrier
equalizers.

The production path is the two-step decimation: the analysis filter output is
decimated by D1, a short equalizer g-bar (least-squares fit, length L'_g) runs
at the intermediate rate, and a final D2-fold decimation brings the stream to
the symbol rate (D1*D2 = M/2). g-bar runs at symbol instants only, the
lowest possible rate: the taps of an instant read one contiguous run of each
subcarrier's rows of the subcarrier-major bank (see `equalize_lowrate`).

The least-squares fits of all subcarriers share one factorization. The
D1-decimated analysis filter of subcarrier m is the real m = 0 filter times
a unit-modulus phase ramp,

    b_m[k] = f_m^*[(N_f-1-k) D1] = c_m p[(N_f-1-k) D1] w_m^k,
    c_m = e^{-j 2 pi m ((N_f-1) D1 - centre) / M},  w_m = e^{j 2 pi m D1 / M},

so its Toeplitz regression matrix is F_m = c_m D_w F_0 D_w^{-1} with the
unit-modulus diagonal D_w = diag(w_m^k), and one real pseudo-inverse of F_0
serves every subcarrier. The target row k, at sample offset
o_k = (k+1) D1 - L_f, is e[k] = sum_t g[t] f_m^*[t - o_k]. Writing out f_m^*
shows that c_m and D_w^{-1} cancel against its phase,

    conj(c_m) D_w^{-1} e = g @ A_m,
    A_m[t, k] = p[t + L_f - (k+1) D1] e^{-j 2 pi (m t mod M) / M},

with p zero outside [0, L_f). Only the final D_w ramp remains, so every
(m, u, r) fit is g @ B_m, B_m = A_m pinv(F_0)^T D_w. A_m is the real window
P[t, k] = p[t + L_f - (k+1) D1] under a row phase, so the (L_g, L'_g) matrix
B_m is the real map Q = P pinv(F_0)^T with that row phase and the column
ramp D_w:

    x_m[k] = w_m^k sum_t g[t] Q[t, k] e^{-j 2 pi (m t mod M) / M},

the M-point DFT over t (folded modulo M) of the real-weighted taps g Q,
under the ramp. A bank of all M subcarriers in order, as `run_mse` builds,
is that DFT: one length-M FFT of g Q along t. A bank of a few
subcarriers, as a sweep builds, is one product of the taps with their B_m.

Held on the PrototypeFilter (``fbmc.Holder``): the real (L, L'_g) map Q of
each (D1, L'_g, L), so every fit of a sweep builds it once. The row phase
and the D_w ramp are formed per call: the complex B_m of all M subcarriers
would hold M times as much.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError
from .fbmc import _J_POW, _afb
from .stage1 import design_highrate
from .theory import _rows

# bytes of analysis-bank output per chunk of `equalize_lowrate`: each chunk
# costs one bank call and one batched product, so chunks much smaller than
# this spend more time in set-up than they save in memory
_BANK_BYTES = 1 << 21


class DecimationPlan:
    """Two-step decimation factors: D1 = M/2^eta, D2 = M/(2 D1)."""

    def __init__(self, M, D1):
        M, D1 = int(M), int(D1)
        if D1 < 1 or M % D1 != 0 or (M // D1) & (M // D1 - 1) != 0 or D1 > M // 2:
            raise ConfigError(
                f"D1={D1} invalid: need D1 = M/2^eta with eta in 1..log2(M), M={M}")
        self.M, self.D1, self.D2 = M, D1, (M // 2) // D1

    def __repr__(self):
        return f"DecimationPlan(M={self.M}, D1={self.D1}, D2={self.D2})"


def _held_map(pf, D1, Lg_prime, L):
    """The real (L, Lg_prime) map P pinv(F_0)^T of `_fit`, held on pf."""
    def build():
        L_f = pf.L_f
        N_f = L_f // D1
        rows = N_f + Lg_prime - 1
        p = pf.coeffs[(N_f - 1 - np.arange(N_f)) * D1]
        # Toeplitz F0[i, k] = p[i - k], zero off the window's support
        F0 = _rows(p, np.arange(rows)[:, None] - np.arange(Lg_prime))
        # P[t, k] = p[t + L_f - (k+1) D1], zero off the prototype's support
        P = _rows(pf.coeffs, np.arange(L)[:, None] + L_f
                  - (np.arange(rows) + 1) * D1)
        return P @ np.linalg.pinv(F0).T
    return pf.hold(("map", D1, Lg_prime, L), build)


def _fit(g, pf, subcarriers, D1, Lg_prime):
    """Least-squares low-rate equalizers of the streams g (..., L) for every m
    in `subcarriers`; returns shape (len(subcarriers), ..., Lg_prime).

    Row k of the fit is low-rate lag k - (N_f-1), N_f = L_f/D1: the target
    e[k] = (g conv f_m^*[-.])[D1-1 + k D1], and the solution of F_m x = e is
    x = D_w pinv(F_0) conj(c_m) D_w^{-1} e = D_w pinv(F_0) (g @ A_m) (see the
    module docstring), that is x_m = ramp_m * (DFT over t of g Q at m).

    When `subcarriers` lists all M in order, the real-weighted taps g Q are
    formed once as (..., Lg_prime, M), contiguous along the DFT axis and
    folded modulo M (or zero-padded) when L != M, and one FFT over that axis
    gives every subcarrier. Any other list goes through one product of g
    with the listed subcarriers' B_m = A_m pinv(F_0)^T D_w: the FFT path
    holds g Q whole, N_t N_r L'_g M entries, however few rows it keeps.
    """
    if Lg_prime < 1:
        raise ConfigError(f"Lg_prime must be >= 1, got {Lg_prime}")
    if pf.L_f % D1 != 0:
        raise ConfigError(f"D1={D1} does not divide L_f={pf.L_f}")
    g = np.asarray(g)
    M, L = pf.M, g.shape[-1]
    Q = _held_map(pf, D1, Lg_prime, L)
    m = np.asarray(subcarriers)[:, None]
    # D_w ramp, argument reduced exactly
    ramp = np.exp(2j * np.pi * (m * np.arange(Lg_prime) * D1 % M) / M)
    if np.array_equal(m[:, 0], np.arange(M)):
        Qt = Q.T
        W = np.empty(g.shape[:-1] + (Lg_prime, M), dtype=complex)
        n = min(L, M)
        np.multiply(g[..., None, :n], Qt[:, :n], out=W[..., :n])
        W[..., n:] = 0
        for t0 in range(M, L, M):           # fold the taps past M
            n = min(M, L - t0)
            W[..., :n] += g[..., None, t0:t0 + n] * Qt[:, t0:t0 + n]
        x = np.fft.fft(W, axis=-1)
        x *= ramp.T
        return np.moveaxis(x, -1, 0)
    # row phase of A_m, argument reduced exactly
    phase = np.exp(-2j * np.pi * (m * np.arange(L) % M) / M)
    B = phase[:, :, None] * Q * ramp[:, None, :]
    x = g.reshape(-1, L) @ np.moveaxis(B, 0, 1).reshape(L, -1)
    x = x.reshape(g.shape[:-1] + (len(m), Lg_prime))
    return np.moveaxis(x, -2, 0)


class LowRateEqualizerBank:
    """Per-(m, r, u) low-rate equalizers.

    gbar has shape (n_subcarriers, N_t, N_r, L'_g); `subcarriers` lists the m
    value of each leading index (all M of them by default).
    """

    def __init__(self, gbar, subcarriers, plan, alpha):
        self.gbar = np.asarray(gbar, dtype=complex)
        self.subcarriers = list(subcarriers)
        self.plan = plan
        self.alpha = int(alpha)

    def taps_for(self, m):
        return self.gbar[self.subcarriers.index(m)]


def build_lowrate_receiver(csi, pf, plan, criterion="zf", alpha=1, Lg_prime=5,
                           sigma_z2=0.0, P_s=1.0, L_g=None, subcarriers=None):
    """Full two-stage design: Stage-1 filter, then the per-(m,r,u) LS fits.

    `subcarriers` restricts the bank to a subset of m values (default: all M).
    Since F_m = c_m D_w F_0 D_w^{-1}, one factorization of F_0 fits every
    subcarrier: the default bank is one length-M FFT of the real-weighted
    stage-1 taps, a subset one matrix product of all N_t*N_r taps with the
    listed subcarriers' B_m (see `_fit`).
    """
    eq = design_highrate(csi, L_g=L_g, alpha=alpha, criterion=criterion,
                         sigma_z2=sigma_z2, P_s=P_s)
    if subcarriers is None:
        subcarriers = list(range(pf.M))
    gbar = _fit(eq.taps, pf, subcarriers, plan.D1, Lg_prime)
    return LowRateEqualizerBank(gbar, subcarriers, plan, alpha)


def equalize_lowrate(y, bank, pf):
    """Run the low-rate receiver: AFB at rate 1/D1, the g-bar taps, sum.

    Tap j of instant nu reads the bank output at low-rate index nu D2 - j
    (sample offset (nu D2 - j) D1). With the taps reversed into G (n_sub,
    N_t, L'_g N_r), (j', r) fastest for j' = L'_g - 1 - j, instant nu reads
    rows nu D2 - L'_g + 1 ... nu D2 of the subcarrier-major bank, one
    contiguous run per subcarrier. The runs of a chunk of instants are one
    strided view, and the product one matrix-vector product per (subcarrier,
    instant), so no output depends on the chunking. Chunks are sized from
    `_BANK_BYTES` of bank output and recompute the rows they share, so the
    buffers stay the same size whatever the burst length.

    Parameters
    ----------
    y : ndarray (N_r, n_samples)
    bank : LowRateEqualizerBank
    pf : PrototypeFilter

    Returns
    -------
    ndarray, complex, shape (N_t, n_subcarriers, n_instants): raw symbol-rate
    estimates at receive instants nu = 0, 1, ...; symbol n of the transmit grid
    appears at nu = n + alpha and needs Re{. e^{-j theta_{m,n}}}.
    """
    y = np.asarray(y, dtype=complex)
    D1, D2, M = bank.plan.D1, bank.plan.D2, bank.plan.M
    n_sub, N_t, N_r, Lgp = bank.gbar.shape
    if y.shape[0] != N_r:
        raise ConfigError(f"{y.shape[0]} antenna streams for N_r={N_r}")
    if y.shape[1] < pf.L_f:
        raise ConfigError("stream too short for one analysis window")
    n_inst = (y.shape[1] - 1) // (M // 2) + 1
    G = np.ascontiguousarray(bank.gbar[..., ::-1].transpose(0, 1, 3, 2))
    G = G.reshape(n_sub, N_t, Lgp * N_r)
    step = max(1, _BANK_BYTES // (16 * N_r * M * D2))
    every = bank.subcarriers == list(range(M))      # no gather of rows
    out = np.empty((n_sub, n_inst, N_t, 1), dtype=complex)
    for v0 in range(0, n_inst, step):
        v1 = min(v0 + step, n_inst)
        k0 = v0 * D2 - Lgp + 1                      # first row the chunk reads
        B = _afb(y, pf, range(k0 * D1, ((v1 - 1) * D2 + 1) * D1, D1))
        if not every:
            B = B[bank.subcarriers]
        X = as_strided(B, (n_sub, v1 - v0, Lgp * N_r, 1),
                       (B.strides[0], D2 * N_r * 16, 16, 16), writeable=False)
        np.matmul(G[:, None], X, out=out[:, v0:v1])
    return out[..., 0].transpose(2, 0, 1)


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
