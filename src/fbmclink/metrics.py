"""Monte Carlo measurement: interference coefficients per receiver scheme,
SIR/SINR reports with jackknife standard errors, symbol-level MSE runs, and
parameter sweeps.

The coefficient path runs no sample streams. At the full rate, a scheme's
equalizer of user u at subcarrier m is L taps g^r per antenna at stride D1:
one tap W[m, u] (single-tap, alpha = 0), the L_g high-rate taps (D1 = 1) or
the two-stage g-bar of subcarrier m. `_equalized_channel` sums the antennas
into each user's equalized channel c_{u'} = sum_r g^r * h^{r,u'} with one
antenna contraction and shifted adds, no FFT, and the real symbol
s_{m',n-dn} of user u' reaches the phase-compensated output (m, n) with
the coefficient R[u', (m' - m) mod M, dn] that `theory._lattice` reads from
c_{u'} and the table F = `theory.interference_table(pf)` of subcarrier 0
(entry i at lag i - (L_f - 1)): the closed form's Re{v^T psi} with c in
place of psi. It is exact (a full transmit/receive chain gives the same
numbers, without edge effects), so SIR/SINR estimates need no symbol
averaging, and a trial keeps only its desired and interference powers and
noise gain. The noise power is sigma_z^2 / 2 times sum_r ||conj f_m * flip
g^r||^2, a quadratic form in the autocorrelation of f_m: row 0 of F, with
f_m's lag phase on the taps, g_m^r[a] = g^r[a] e^{-j2pi m a D1/M}:

    sum_r sum_{a,b} conj(g_m^r[a]) F[0, L_f - 1 + (a - b) D1] g_m^r[b].

`run_mse` runs the sample streams instead. Sweeps and MSE runs build their
receivers with `_build_scheme`, and `_receive` is the one receive path that
turns the received streams into real symbol estimates: single-tap
demodulates all antennas in one call and combines the bins in one batched
product over the subcarrier-major bank, high-rate filters at the full rate
(the overlap-add `_fir`) and demodulates all users in one call, and the
two-stage bank runs `equalize_lowrate`, one batched product per chunk of
instants.

A trial's schemes share its stage-1 solve, held on the CSI object
(``fbmc.Holder``), so a sweep trial solves its bins once for the single-tap
and every two-stage or high-rate scheme at L_g = M; the fit maps and the
table are held on the prototype. `run_mse` drops its CSI once the receiver
is built, which frees the held solve before the receive pass.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import (draw_channel, apply_channel, add_awgn,
                      freq_csi, estimate_csi_mmse, trial_rng, load_pdp)
from .config import P_SYM, channel_assignment, fingerprint
from .errors import ConfigError
from .fbmc import design_prototype, qam_to_oqam, modulate, demodulate
from .stage1 import (HighRateEqualizer, SingleTapEqualizer, design_highrate,
                     single_tap, apply_highrate)
from .stage2 import (DecimationPlan, LowRateEqualizerBank,
                     build_lowrate_receiver, equalize_lowrate, recover_symbols)
from . import theory    # where bench/layers.py wraps interference_table
from .theory import _rows

log = logging.getLogger(__name__)


_KINDS = ("single_tap", "two_stage", "highrate")


@dataclass(frozen=True)
class SchemeSpec:
    """One receiver scheme to measure; 0 fields fall back to the config."""

    kind: str               # 'single_tap' | 'two_stage' | 'highrate'
    D1: int = 0
    Lg_prime: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown scheme kind {self.kind!r}; known: {_KINDS}")

    def label(self):
        if self.kind == "two_stage":
            return f"two_stage_D1_{self.D1}_Lgp_{self.Lg_prime}"
        return self.kind


def _specs(cfg, schemes):
    """The specs with a two-stage scheme's 0 fields taken from the config."""
    if not all(isinstance(s, SchemeSpec) for s in schemes):
        raise ConfigError(f"schemes must be SchemeSpec objects: {schemes!r}")
    return [replace(s, D1=s.D1 or cfg.D1, Lg_prime=s.Lg_prime or cfg.Lg_prime)
            if s.kind == "two_stage" else s for s in schemes]


def _build_scheme(spec, csi, pf, cfg, sigma_z2, subcarriers):
    """The receiver of one spec; a two-stage bank covers `subcarriers`
    (None: all M)."""
    if spec.kind == "single_tap":
        return single_tap(csi, cfg.criterion, sigma_z2, P_SYM)
    if spec.kind == "highrate":
        return design_highrate(csi, cfg.L_g, cfg.alpha, cfg.criterion,
                               sigma_z2, P_SYM)
    plan = DecimationPlan(cfg.M, spec.D1)
    return build_lowrate_receiver(csi, pf, plan, cfg.criterion, cfg.alpha,
                                  spec.Lg_prime, sigma_z2, P_SYM,
                                  L_g=cfg.L_g, subcarriers=subcarriers)


def _receive(scheme, y, pf, N_d):
    """Real (N_t, M, N_d) symbol estimates of a built receiver on the
    received streams y (N_r, n_samples)."""
    if isinstance(scheme, LowRateEqualizerBank):
        return recover_symbols(equalize_lowrate(y, scheme, pf), scheme.alpha,
                               N_d)
    if isinstance(scheme, SingleTapEqualizer):
        D = np.moveaxis(demodulate(y, pf, N_d), 0, 1)       # (M, N_r, N_d)
        return recover_symbols(np.moveaxis(scheme.W @ D, 0, 1), 0, N_d)
    if isinstance(scheme, HighRateEqualizer):
        D = demodulate(apply_highrate(y, scheme), pf, N_d + scheme.alpha)
        return recover_symbols(D, scheme.alpha, N_d)
    raise TypeError(f"unsupported scheme object {type(scheme).__name__}")


def _taps(scheme, m, u):
    """User u's equalizer at subcarrier m as full-rate taps: (g (N_r, L), D1,
    alpha), tap k at sample k D1."""
    if isinstance(scheme, SingleTapEqualizer):
        return scheme.W[m, u][:, None], 1, 0
    if isinstance(scheme, HighRateEqualizer):
        return scheme.taps[u], 1, scheme.alpha
    if isinstance(scheme, LowRateEqualizerBank):
        return scheme.taps_for(m)[u], scheme.plan.D1, scheme.alpha
    raise TypeError(f"unsupported scheme object {type(scheme).__name__}")


def _equalized_channel(h, g, D1):
    """c_{u'} = sum_r g^r * h^{r,u'} for channel taps h (N_r, N_t, L_h) and
    equalizer taps g (N_r, K) at stride D1; shape (N_t, W), W = (K-1) D1 +
    L_h.

    c_{u'}[k D1 + l] sums P[k, u', l] = sum_r g^r[k] h^{r,u'}[l], one antenna
    contraction, written into a zeroed (N_t, R, W + s) buffer as R rows
    along the shorter of k and l: rows k of L_h taps (s = D1) when K <= L_h,
    else rows l of K taps at stride D1 (s = 1). Read flat as rows of length
    W, row i moves right by i s, so one sum over the R rows adds the shifted
    copies.
    """
    (N_r, N_t, L_h), K = h.shape, g.shape[1]
    W = (K - 1) * D1 + L_h
    if K <= L_h:
        A, B, s, step = g.T, h.transpose(1, 0, 2), D1, 1
    else:
        A, B, s, step = h.transpose(1, 2, 0), g, 1, D1
    R, n = A.shape[-2], B.shape[-1]
    Y = np.zeros((N_t, R, W + s), dtype=complex)
    np.matmul(A, B, out=Y[..., :(n - 1) * step + 1:step])
    return Y.reshape(N_t, -1)[:, :R * W].reshape(N_t, R, W).sum(axis=1)


@dataclass
class CoeffSet:
    """Measured real interference coefficients of one scheme on one trial."""

    R: np.ndarray           # (N_t, M, n_dn), row k for m' = (m + k) mod M
    dn: np.ndarray          # lattice time offsets, dn[j] = n - n'
    m: int
    u: int
    alpha: int
    noise_gain: float       # sum_r ||conj f_m * flip g^r||^2
    P_s: float = P_SYM

    def desired_power(self):
        j0 = int(np.nonzero(self.dn == 0)[0][0])
        return self.P_s * float(self.R[self.u, 0, j0]) ** 2

    def interference_power(self):
        return self.P_s * float(np.sum(self.R ** 2)) - self.desired_power()


def _measure_many(h, schemes, pf, m, u):
    """CoeffSets of several scheme objects on one channel draw h (N_r, N_t,
    L_h): `theory._lattice` of each user's c_{u'}, and the noise gain."""
    F = theory.interference_table(pf)
    out = []
    for scheme in schemes:
        g, D1, a_s = _taps(scheme, m, u)
        dns, R = theory._lattice(F, m, a_s, _equalized_channel(h, g, D1))
        pos = np.arange(g.shape[1]) * D1
        T = _rows(F[0], pf.L_f - 1 + pos[:, None] - pos)   # noise-gain form
        if pos.size > 1 and m * D1 % pf.M:     # else every tap phase is 1
            g = g * np.exp(-2j * np.pi * (m * pos % pf.M) / pf.M)
        out.append(CoeffSet(R=R, dn=dns, m=m, u=u, alpha=a_s,
                            noise_gain=float(np.vdot(g, g @ T.T).real)))
    return out


def _jackknife_ratio_db(num, den):
    """10 log10(sum num / sum den) and its leave-one-out standard error; the
    error is +inf when leaving out one trial empties either sum."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    T = num.size
    if not den.any():       # zero on every trial: +inf, with no spread
        return np.inf, 0.0
    est = 10.0 * np.log10(num.sum() / den.sum())
    if T < 2:
        return float(est), 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        loo = 10.0 * np.log10((num.sum() - num) / (den.sum() - den))
    if not np.isfinite(loo).all():  # one trial holds a whole sum: unbounded
        return float(est), np.inf
    se = np.sqrt((T - 1) / T * np.sum((loo - loo.mean()) ** 2))
    return float(est), float(se)


@dataclass
class SinrReport:
    """Aggregated link metrics for one (scheme, config point)."""

    scheme: str
    kind: str
    D1: int
    Lg_prime: int
    m: int
    u: int
    gamma_db: float
    sir_db: float
    sir_se_db: float
    sinr_db: float
    sinr_se_db: float
    trials: int
    seed: int
    config_fingerprint: str
    csi: str = "perfect"


def _check_csi_mode(csi_mode):
    if csi_mode not in ("perfect", "estimated"):
        raise ConfigError(f"csi_mode must be 'perfect' or 'estimated', got {csi_mode!r}")


def _map_trials(fn, trials, threads):
    """[fn(t) for t in range(trials)], on `threads` worker threads if > 1."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, range(trials)))
    return [fn(t) for t in range(trials)]


def _collect(cfg, specs, csi_mode, threads, pf, profiles):
    """{spec: (3, trials)}: desired, interference power, noise gain per trial,
    with each user's channel drawn from its PdpProfile in `profiles`."""
    m, u = cfg.subcarrier, cfg.user
    theory.interference_table(pf)     # held before the trials read it
    sigma_d = cfg.noise_var()
    P_p = 2.0 * P_SYM * cfg.L_p

    def one_trial(t):
        rng = trial_rng(cfg.master_seed, t)
        h = draw_channel(profiles, cfg.N_r, rng)
        csi = freq_csi(h, cfg.M)
        if csi_mode == "estimated":
            csi = estimate_csi_mmse(csi, P_p, sigma_d, rng)
        built = [_build_scheme(sp, csi, pf, cfg, sigma_d, [m]) for sp in specs]
        return [(c.desired_power(), c.interference_power(), c.noise_gain)
                for c in _measure_many(h, built, pf, m, u)]

    rows = np.array(_map_trials(one_trial, cfg.trials, threads))
    return {sp: rows[:, i].T for i, sp in enumerate(specs)}


def _report(cfg, spec, label, powers, csi_mode, config_fingerprint):
    """SIR/SINR (ratio of mean powers) of `_collect`'s per-trial powers, with
    jackknife standard errors on the dB values, at the SNR of `cfg`, whose
    fingerprint the caller passes."""
    des, intf, gain = powers
    nz = 0.5 * cfg.noise_var() * gain
    sir_db, sir_se = _jackknife_ratio_db(des, intf)
    sinr_db, sinr_se = _jackknife_ratio_db(des, intf + nz)
    return SinrReport(
        scheme=label, kind=spec.kind, D1=spec.D1, Lg_prime=spec.Lg_prime,
        m=cfg.subcarrier, u=cfg.user, gamma_db=cfg.gamma_db,
        sir_db=sir_db, sir_se_db=sir_se, sinr_db=sinr_db, sinr_se_db=sinr_se,
        trials=cfg.trials, seed=cfg.master_seed,
        config_fingerprint=config_fingerprint, csi=csi_mode)


@dataclass
class SweepResult:
    axis: str
    points: tuple
    labels: tuple
    reports: dict            # (point, label) -> SinrReport
    config_fingerprint: str

    def get(self, point, label):
        return self.reports[(point, label)]


_AXES = ("N_r", "gamma_db")


def sweep(config, axis, points, schemes, csi_mode="perfect", threads=1):
    """Monte Carlo sweep along one axis.

    schemes: the SchemeSpecs to measure, each on the same trials; a list of
    specs is how to measure L'_g or D1 variants on shared trials (a
    single-point sweep when nothing else varies).
    axis: 'N_r' | 'gamma_db'; points must be nonempty and strictly
    increasing. N_r points are integers >= 1, not necessarily powers of two;
    gamma_db points may be negative. Within a trial index the channel
    realization is shared across schemes (and, where the receiver does not
    depend on the axis, across points). Each report carries the fingerprint
    of its point's config.
    """
    if axis not in _AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {_AXES}")
    points = list(points)
    if not points:
        raise ConfigError("sweep needs at least one point")
    if any(points[i] >= points[i + 1] for i in range(len(points) - 1)):
        raise ConfigError("sweep points must be strictly increasing")
    if axis == "N_r" and any(int(p) != p or p < 1 for p in points):
        raise ConfigError(f"{axis} sweep points must be integers >= 1")
    _check_csi_mode(csi_mode)
    specs = _specs(config, schemes)
    labels = tuple(sp.label() for sp in specs)
    # ZF with perfect CSI ignores the SNR: every point reads the first's trials
    shared = (axis == "gamma_db" and csi_mode == "perfect" and
              config.criterion == "zf")
    # no axis changes the prototype, N_t or the channel assignment
    pf = design_prototype(config.kappa, config.M)
    profiles = [load_pdp(nm, config.sample_rate)
                for nm in channel_assignment(config)]
    reports, data = {}, None
    for pt in points:
        cfg = replace(config, **{axis: float(pt) if axis == "gamma_db"
                                 else int(pt)})
        if data is None or not shared:
            data = _collect(cfg, specs, csi_mode, threads, pf, profiles)
        fp = fingerprint(cfg)
        for sp, lab in zip(specs, labels):
            reports[(pt, lab)] = _report(cfg, sp, lab, data[sp], csi_mode, fp)
    log.debug("sweep %s done (%d points)", axis, len(points))
    return SweepResult(axis, tuple(points), labels, reports, fingerprint(config))


def _qam16(rng, shape):
    re = 2 * rng.integers(0, 4, size=shape) - 3
    im = 2 * rng.integers(0, 4, size=shape) - 3
    return (re + 1j * im) / np.sqrt(10.0)


def run_mse(config, scheme, csi_mode="perfect", threads=1):
    """Symbol-level mean-square error of one receiver scheme.

    Runs config.trials bursts of N_d instants of 16-QAM through the full
    transmit/channel/receive chain, discards 2*kappa instants at each burst
    edge, and returns the MSE over the kept real symbols of all users and
    subcarriers, normalized by the symbol power (linear scale, mean across
    trials). Burst t draws from the stream `trial_rng(config.master_seed,
    t)`, so the result does not depend on `threads`, the number of worker
    threads.
    """
    _check_csi_mode(csi_mode)
    cfg = config
    spec = _specs(cfg, [scheme])[0]
    if cfg.N_d <= 4 * cfg.kappa:
        raise ConfigError(
            f"N_d={cfg.N_d} leaves no interior instants after discarding "
            f"2*kappa={2 * cfg.kappa} at each edge")
    profiles = [load_pdp(nm, cfg.sample_rate) for nm in channel_assignment(cfg)]
    pf = design_prototype(cfg.kappa, cfg.M)
    M, N_d = cfg.M, cfg.N_d
    sigma_z2 = cfg.noise_var()
    P_p = 2.0 * P_SYM * cfg.L_p
    keep = slice(2 * cfg.kappa, N_d - 2 * cfg.kappa)

    def one_burst(t):
        rng = trial_rng(cfg.master_seed, t)
        h = draw_channel(profiles, cfg.N_r, rng)
        s = qam_to_oqam(_qam16(rng, (cfg.N_t, M, N_d // 2)))
        y = add_awgn(apply_channel(modulate(s, pf), h), sigma_z2, rng)
        csi = freq_csi(h, M)
        if csi_mode == "estimated":
            csi = estimate_csi_mmse(csi, P_p, sigma_z2, rng)
        rx = _build_scheme(spec, csi, pf, cfg, sigma_z2, None)
        del csi         # frees the held stage-1 solve before the receive pass
        shat = _receive(rx, y, pf, N_d)
        diff = shat[..., keep] - s[..., keep]
        return np.mean(diff ** 2) / P_SYM

    return float(np.mean(_map_trials(one_burst, cfg.trials, threads)))
