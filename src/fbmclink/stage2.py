"""Stage 2: turn the high-rate equalizer into low-rate per-subcarrier
equalizers.

The production path is the two-step decimation: the analysis filter output is
decimated by D1, a short equalizer g-bar (least-squares fit, length L'_g) runs
at the intermediate rate, and a final D2-fold decimation brings the stream to
the symbol rate (D1*D2 = M/2). g-bar is realized as D2 polyphase branches so
every multiplication happens at the lowest possible rate; with the D1-rate
bank outputs taken phase-major, the g-bar taps that read one block of them
form one batched product.

The least-squares fit is one path for every subcarrier. The D1-decimated
analysis filter of subcarrier m is the real m = 0 filter times a unit-modulus
phase ramp,

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
B_m is the real P pinv(F_0)^T with that row phase and the column ramp D_w,
and the stage-1 taps meet all listed subcarriers in one matrix product.

Held between calls, per live PrototypeFilter (`_MAPS`, weakly keyed): the
real (L, L'_g) map P pinv(F_0)^T of each (D1, L'_g, L), read-only, so every
fit of a sweep builds it once. The row phase and the D_w ramp are formed per
call: the complex B_m of all M subcarriers would hold M times as much.
"""

import weakref

import numpy as np

from .errors import ConfigError
from .fbmc import _J_POW, _afb
from .stage1 import design_highrate
from .theory import _rows

# bytes of analysis-bank output per chunk of `equalize_lowrate`: each chunk
# costs a few batched products per subcarrier, so chunks much smaller than
# this spend more time in product set-up than they save in memory
_BANK_BYTES = 1 << 21
_MAPS = weakref.WeakKeyDictionary()     # PrototypeFilter -> {(D1, L'_g, L): Q}


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

    def __eq__(self, other):
        return (isinstance(other, DecimationPlan)
                and (self.M, self.D1) == (other.M, other.D1))


def _held_map(pf, D1, Lg_prime, L):
    """The real (L, Lg_prime) map P pinv(F_0)^T of `_fit`, held read-only
    for (pf, D1, Lg_prime, L) while pf lives."""
    held = _MAPS.setdefault(pf, {})
    Q = held.get((D1, Lg_prime, L))
    if Q is None:
        L_f = pf.L_f
        N_f = L_f // D1
        rows = N_f + Lg_prime - 1
        p = pf.coeffs[(N_f - 1 - np.arange(N_f)) * D1]
        # Toeplitz F0[i, k] = p[i - k], zero off the window's support
        F0 = _rows(p, np.arange(rows)[:, None] - np.arange(Lg_prime))
        # P[t, k] = p[t + L_f - (k+1) D1], zero off the prototype's support
        P = _rows(pf.coeffs, np.arange(L)[:, None] + L_f
                  - (np.arange(rows) + 1) * D1)
        Q = P @ np.linalg.pinv(F0).T
        Q.flags.writeable = False
        held[(D1, Lg_prime, L)] = Q
    return Q


def _fit(g, pf, subcarriers, D1, Lg_prime):
    """Least-squares low-rate equalizers of the streams g (..., L) for every m
    in `subcarriers`; returns shape (len(subcarriers), ..., Lg_prime).

    Row k of the fit is low-rate lag k - (N_f-1), N_f = L_f/D1: the target
    e[k] = (g conv f_m^*[-.])[D1-1 + k D1], and the solution of F_m x = e is
    x = D_w pinv(F_0) conj(c_m) D_w^{-1} e = D_w pinv(F_0) (g @ A_m) (see the
    module docstring). All of it is one product g @ B_m per subcarrier, with
    B_m = A_m pinv(F_0)^T D_w built from the real P pinv(F_0)^T.
    """
    if Lg_prime < 1:
        raise ConfigError(f"Lg_prime must be >= 1, got {Lg_prime}")
    if pf.L_f % D1 != 0:
        raise ConfigError(f"D1={D1} does not divide L_f={pf.L_f}")
    g = np.asarray(g)
    M, L = pf.M, g.shape[-1]
    # row phase of A_m and the D_w ramp, arguments reduced exactly
    m, t = np.asarray(subcarriers)[:, None], np.arange(L)
    phase = np.exp(-2j * np.pi * (m * t % M) / M)
    ramp = np.exp(2j * np.pi * (m * np.arange(Lg_prime) * D1 % M) / M)
    B = phase[:, :, None] * _held_map(pf, D1, Lg_prime, L) * ramp[:, None, :]
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
    All N_t*N_r stage-1 taps go through one matrix product with the listed
    subcarriers' B_m, and since F_m = c_m D_w F_0 D_w^{-1}, one factorization
    of F_0 fits every subcarrier.
    """
    eq = design_highrate(csi, L_g=L_g, alpha=alpha, criterion=criterion,
                         sigma_z2=sigma_z2, P_s=P_s)
    if subcarriers is None:
        subcarriers = list(range(pf.M))
    gbar = _fit(eq.taps, pf, subcarriers, plan.D1, Lg_prime)
    return LowRateEqualizerBank(gbar, subcarriers, plan, alpha)


def equalize_lowrate(y, bank, pf):
    """Run the low-rate receiver: AFB at rate 1/D1, polyphase branches, sum.

    Tap j of instant nu reads the bank output at low-rate index nu D2 - j
    (sample offset (nu D2 - j) D1). With the bank outputs taken phase-major,
    low-rate index c D2 + p at phase p of block c, tap j = a D2 - p reads
    phase p of block nu - a, so the taps of one a read one contiguous
    (n_sub, phases x N_r, instants) slice and meet their g-bar columns in
    one batched product. The bank runs over chunks of blocks, sized from
    `_BANK_BYTES` of bank output and written straight into a (n_sub, D2,
    N_r, chunk) buffer; each chunk's blocks are added into every instant
    that reads them, so no chunk is held past its own products and the
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
    # taps j = a D2 - p, phases p in [p0, p1), as (n_sub, N_t, phases x N_r)
    a_max = (Lgp + D2 - 2) // D2
    groups = []
    for a in range(a_max + 1):
        p0, p1 = max(0, a * D2 - Lgp + 1), min(a * D2, D2 - 1) + 1
        G = np.concatenate([bank.gbar[..., a * D2 - p] for p in range(p0, p1)],
                           axis=-1)
        groups.append((a, p0, p1, G))
    step = min(n_inst + a_max, max(1, _BANK_BYTES // (16 * N_r * M * D2)))
    every = bank.subcarriers == list(range(M))      # no gather of rows
    V = np.empty((n_sub, D2, N_r, step), dtype=complex)
    out = np.zeros((n_sub, N_t, n_inst), dtype=complex)
    for c0 in range(-a_max, n_inst, step):
        c1 = min(c0 + step, n_inst)
        k = np.arange(D2)[:, None] + np.arange(c0, c1) * D2
        B = _afb(y, pf, k.ravel() * D1).reshape(N_r, M, D2, c1 - c0)
        B = B.transpose(1, 2, 0, 3)
        V[..., :c1 - c0] = B if every else B[bank.subcarriers]
        for a, p0, p1, G in groups:
            lo, hi = max(c0 + a, 0), min(c1 + a, n_inst)
            if lo < hi:
                X = V[:, p0:p1, :, lo - a - c0:hi - a - c0]
                out[..., lo:hi] += G @ X.reshape(n_sub, -1, hi - lo)
    return np.moveaxis(out, 1, 0)


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
