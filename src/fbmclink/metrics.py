"""Monte Carlo measurement: interference coefficients per receiver scheme,
empirical SIR/SINR with jackknife standard errors, symbol-level MSE runs, and
parameter sweeps.

The coefficient path avoids running sample streams. For each receiver scheme
the composite per-antenna receive kernel K^r (equalizer and analysis filter
combined, at the full rate) is formed once, and the antennas are summed first
into one effective kernel per transmitting user,

    e_{u'} = sum_r h^{r,u'} * flip(K^r).

That is one batched FFT convolution (channel._convolve) over (r, u'), with the
antenna sum taken in the frequency domain, so only N_t inverse FFTs run.

The coefficient with which the real symbol s_{m',n'} of user u' reaches the
phase-compensated output is then (array indices from 0)

    R[u', m', dn] = Re{ j^{(m'-m-dn) mod 4} (f_{m'} * e_{u'})
                        [(dn + alpha) M/2 + L_f - 1] },      dn = n - n'.

Only these lattice samples are needed, and they are an analysis bank of the
conjugated, reversed e_{u'} (fbmc._afb: one fold by M and one FFT per lag for
all m'), so the cost does not grow as N_r M L_f. This is exact (same numbers
a full transmit/receive chain produces, without edge effects), so SIR/SINR
estimates need no symbol averaging. The demodulated-noise power per trial is
(sigma_z^2 / 2) sum_r ||K^r||^2.

`run_mse` runs the sample streams instead. Sweeps and MSE runs build their
receivers with `_build_scheme`, and `_receive` is the one receive path that
turns the received streams into real symbol estimates: single-tap
demodulates all antennas in one call and combines the bins, high-rate
filters at the full rate and demodulates all users in one call, and the
two-stage bank runs `equalize_lowrate`.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import (_convolve, draw_channel, apply_channel, add_awgn,
                      freq_csi, estimate_csi_mmse, trial_rng, load_pdp)
from .config import P_SYM, channel_assignment, fingerprint
from .errors import ConfigError
from .fbmc import _afb, design_prototype, qam_to_oqam, modulate, demodulate
from .stage1 import (HighRateEqualizer, SingleTapEqualizer, design_highrate,
                     single_tap, apply_highrate)
from .stage2 import (DecimationPlan, LowRateEqualizerBank,
                     build_lowrate_receiver, equalize_lowrate, recover_symbols)

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
        D = demodulate(y, pf, N_d)
        return recover_symbols(np.einsum("mur,rmn->umn", scheme.W, D), 0, N_d)
    if isinstance(scheme, HighRateEqualizer):
        D = demodulate(apply_highrate(y, scheme), pf, N_d + scheme.alpha)
        return recover_symbols(D, scheme.alpha, N_d)
    raise TypeError(f"unsupported scheme object {type(scheme).__name__}")


def _kernel(scheme, pf, m, u):
    """Composite receive kernel per antenna: (K (N_r, len), alpha).

    The output sample for receive instant nu is sum_{r,s} y^r[s] K^r[s - nu M/2]
    with K^r[x] stored at array index x + L - 1, L the full-rate equalizer length
    (1 for the single-tap scheme).
    """
    fmc = np.conj(pf.subcarrier_filter(m))
    if isinstance(scheme, SingleTapEqualizer):
        K = scheme.W[m, u][:, None] * fmc[None, :]
        return K, 0
    if isinstance(scheme, HighRateEqualizer):
        g = scheme.taps[u]                       # (N_r, L_g)
    elif isinstance(scheme, LowRateEqualizerBank):
        # g-bar runs at rate 1/D1: its full-rate kernel is g-bar upsampled by D1
        gbar, D1 = scheme.taps_for(m)[u], scheme.plan.D1
        g = np.zeros((gbar.shape[0], (gbar.shape[1] - 1) * D1 + 1), dtype=complex)
        g[:, ::D1] = gbar
    else:
        raise TypeError(f"unsupported scheme object {type(scheme).__name__}")
    K = _convolve(fmc, g[:, ::-1])
    return K, scheme.alpha


@dataclass
class CoeffSet:
    """Measured real interference coefficients of one scheme on one trial."""

    R: np.ndarray           # (N_t, M, n_dn)
    dn: np.ndarray          # lattice time offsets, dn[j] = n - n'
    m: int
    u: int
    alpha: int
    noise_gain: float       # sum_r ||K^r||^2
    P_s: float = P_SYM

    def desired_power(self):
        j0 = int(np.nonzero(self.dn == 0)[0][0])
        return self.P_s * float(self.R[self.u, self.m, j0]) ** 2

    def interference_power(self):
        return self.P_s * float(np.sum(self.R ** 2)) - self.desired_power()

    def noise_power(self, sigma_z2):
        return 0.5 * sigma_z2 * self.noise_gain


def _measure_many(H, schemes, pf, m, u):
    """Measure several scheme objects on one realization; returns a list of
    CoeffSet.

    Per scheme, one batched convolution, summed over antennas before its
    inverse FFT, gives e_{u'} for every user, and one analysis-bank call over
    the N_t kernels gives every column i = (dn + alpha) M/2 + L_f - 1:
    (f conv e)[i] = conj(AFB(conj(flip(e)))[L_e - 1 - i]) (see the module
    docstring).
    """
    M, L_f = pf.M, pf.L_f
    half = M // 2
    out = []
    for scheme in schemes:
        K, a_s = _kernel(scheme, pf, m, u)
        e = _convolve(H.taps, K[:, None, ::-1], sum_axis=0)
        L_e = e.shape[1]
        dns = np.arange(-((L_f - 1) // half), (L_e - 1) // half + 1) - a_s
        C = np.conj(_afb(np.conj(e[:, ::-1]), pf,
                         L_e - L_f - (dns + a_s) * half))
        ph = 1j ** ((np.arange(M)[:, None] - m - dns[None, :]) % 4)
        out.append(CoeffSet(R=(C * ph).real, dn=dns, m=m, u=u, alpha=a_s,
                            noise_gain=float(np.sum(np.abs(K) ** 2))))
    return out


def _jackknife_ratio_db(num, den):
    """10 log10(sum num / sum den) and its leave-one-out standard error."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    T = num.size
    est = 10.0 * np.log10(num.sum() / den.sum())
    if T < 2:
        return float(est), 0.0
    loo = 10.0 * np.log10((num.sum() - num) / (den.sum() - den))
    se = np.sqrt((T - 1) / T * np.sum((loo - loo.mean()) ** 2))
    return float(est), float(se)


@dataclass
class SinrEstimate:
    sir_db: float
    sir_se_db: float
    sinr_db: float
    sinr_se_db: float
    noise_db: float
    trials: int


def empirical_sinr(coeff_sets, sigma_z2=0.0):
    """Aggregate per-trial coefficient sets into SIR/SINR (ratio of mean
    powers) with jackknife standard errors on the dB values."""
    des = np.array([c.desired_power() for c in coeff_sets])
    intf = np.array([c.interference_power() for c in coeff_sets])
    nz = np.array([c.noise_power(sigma_z2) for c in coeff_sets])
    sir_db, sir_se = _jackknife_ratio_db(des, intf)
    sinr_db, sinr_se = _jackknife_ratio_db(des, intf + nz)
    P_s = coeff_sets[0].P_s
    noise_db = 10.0 * np.log10(nz.mean() / P_s) if sigma_z2 > 0 else -np.inf
    return SinrEstimate(sir_db, sir_se, sinr_db, sinr_se, noise_db,
                        len(coeff_sets))


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
    noise_db: float
    trials: int
    seed: int
    config_fingerprint: str
    csi: str = "perfect"
    mse: float = None
    flagged: str = ""


def _flag_note(cfg, profiles):
    worst = max(p.L_h for p in profiles)
    if cfg.M < 2 * (worst - 1):
        return (f"M={cfg.M} < 2(L_h-1)={2 * (worst - 1)}: channel memory "
                "exceeds the equalizer's frequency resolution")
    return ""


def _collect(cfg, specs, csi_mode, threads):
    """Per-trial coefficient sets for every spec: {spec: [CoeffSet] * trials}."""
    profiles = [load_pdp(nm, cfg.sample_rate) for nm in channel_assignment(cfg)]
    pf = design_prototype(cfg.kappa, cfg.M)
    m, u = cfg.subcarrier, cfg.user
    sigma_d = cfg.noise_var()
    P_p = 2.0 * P_SYM * cfg.L_p

    def one_trial(t):
        rng = trial_rng(cfg.master_seed, t)
        H = draw_channel(profiles, cfg.N_r, rng)
        csi = freq_csi(H, cfg.M)
        if csi_mode == "estimated":
            csi = estimate_csi_mmse(csi, P_p, sigma_d, rng)
        built = [_build_scheme(sp, csi, pf, cfg, sigma_d, [m]) for sp in specs]
        return _measure_many(H, built, pf, m, u)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            rows = list(ex.map(one_trial, range(cfg.trials)))
    else:
        rows = [one_trial(t) for t in range(cfg.trials)]
    flagged = _flag_note(cfg, profiles)
    return {sp: [row[i] for row in rows] for i, sp in enumerate(specs)}, flagged


def _report(cfg, spec, sets, gamma_db, csi_mode, flagged):
    est = empirical_sinr(sets, cfg.noise_var(gamma_db))
    return SinrReport(
        scheme=spec.label(), kind=spec.kind, D1=spec.D1, Lg_prime=spec.Lg_prime,
        m=cfg.subcarrier, u=cfg.user, gamma_db=gamma_db,
        sir_db=est.sir_db, sir_se_db=est.sir_se_db,
        sinr_db=est.sinr_db, sinr_se_db=est.sinr_se_db, noise_db=est.noise_db,
        trials=cfg.trials, seed=cfg.master_seed,
        config_fingerprint=fingerprint(cfg), csi=csi_mode, flagged=flagged)


@dataclass
class SweepResult:
    axis: str
    points: tuple
    labels: tuple
    reports: dict            # (point, label) -> SinrReport
    config_fingerprint: str

    def get(self, point, label):
        return self.reports[(point, label)]


_AXES = ("N_r", "gamma_db", "Lg_prime")


def sweep(config, axis, points, schemes, csi_mode="perfect", threads=1):
    """Monte Carlo sweep along one axis.

    schemes: the SchemeSpecs to measure, each on the same trials.
    axis: 'N_r' | 'gamma_db' | 'Lg_prime'; points must be nonempty and
    strictly increasing. Lg_prime points must be >= 1; N_r points need not be
    powers of two; gamma_db points may be negative. Within a trial index the
    channel realization is shared across schemes (and, where the receiver does
    not depend on the axis, across points).
    """
    if axis not in _AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {_AXES}")
    points = list(points)
    if not points:
        raise ConfigError("sweep needs at least one point")
    if any(points[i] >= points[i + 1] for i in range(len(points) - 1)):
        raise ConfigError("sweep points must be strictly increasing")
    if axis == "Lg_prime" and any(int(p) != p or p < 1 for p in points):
        raise ConfigError("Lg_prime sweep points must be integers >= 1")
    if axis == "N_r" and any(int(p) != p or p < 1 for p in points):
        raise ConfigError("N_r sweep points must be integers >= 1")
    specs = _specs(config, schemes)
    labels = tuple(sp.label() for sp in specs)
    reports = {}

    if axis == "Lg_prime":
        # widen to one spec per (two-stage scheme, point); everything else is
        # measured once and reused across points
        variants = {}
        for pt in points:
            variants[pt] = [replace(sp, Lg_prime=int(pt))
                            if sp.kind == "two_stage" else sp for sp in specs]
        unique = list(dict.fromkeys(sp for v in variants.values() for sp in v))
        data, flagged = _collect(config, unique, csi_mode, threads)
        for pt in points:
            for sp, lab in zip(variants[pt], labels):
                rep = _report(config, sp, data[sp], config.gamma_db,
                              csi_mode, flagged)
                reports[(pt, lab)] = replace(rep, scheme=lab)
    elif axis == "gamma_db":
        if config.criterion == "zf" and csi_mode == "perfect":
            # ZF coefficients do not depend on the noise level: measure once
            data, flagged = _collect(config, specs, csi_mode, threads)
            for pt in points:
                for sp, lab in zip(specs, labels):
                    reports[(pt, lab)] = _report(config, sp, data[sp],
                                                 float(pt), csi_mode, flagged)
        else:
            for pt in points:
                cfg_pt = replace(config, gamma_db=float(pt))
                data, flagged = _collect(cfg_pt, specs, csi_mode, threads)
                for sp, lab in zip(specs, labels):
                    reports[(pt, lab)] = _report(cfg_pt, sp, data[sp],
                                                 float(pt), csi_mode, flagged)
    else:
        for pt in points:
            cfg_pt = replace(config, N_r=int(pt))
            data, flagged = _collect(cfg_pt, specs, csi_mode, threads)
            for sp, lab in zip(specs, labels):
                reports[(pt, lab)] = _report(cfg_pt, sp, data[sp],
                                             cfg_pt.gamma_db, csi_mode, flagged)
        log.debug("sweep %s done (%d points)", axis, len(points))
    return SweepResult(axis, tuple(points), labels, reports, fingerprint(config))


def _qam16(rng, shape):
    re = 2 * rng.integers(0, 4, size=shape) - 3
    im = 2 * rng.integers(0, 4, size=shape) - 3
    return (re + 1j * im) / np.sqrt(10.0)


def run_mse(config, scheme, csi_mode="perfect", seed=None):
    """Symbol-level mean-square error of one receiver scheme.

    Runs config.trials bursts of N_d instants of 16-QAM through the full
    transmit/channel/receive chain, discards 2*kappa instants at each burst
    edge, and returns the MSE over the kept real symbols of all users and
    subcarriers, normalized by the symbol power (linear scale, mean across
    trials).
    """
    if csi_mode not in ("perfect", "estimated"):
        raise ConfigError(f"csi_mode must be 'perfect' or 'estimated', got {csi_mode!r}")
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
    master = cfg.master_seed if seed is None else seed
    keep = slice(2 * cfg.kappa, N_d - 2 * cfg.kappa)
    errs = np.empty(cfg.trials)

    for t in range(cfg.trials):
        rng = trial_rng(master, t)
        H = draw_channel(profiles, cfg.N_r, rng)
        grid = qam_to_oqam(_qam16(rng, (cfg.N_t, M, N_d // 2)), P_SYM)
        y = add_awgn(apply_channel(modulate(grid, pf), H), sigma_z2, rng)
        csi = freq_csi(H, M)
        if csi_mode == "estimated":
            csi = estimate_csi_mmse(csi, P_p, sigma_z2, rng)
        rx = _build_scheme(spec, csi, pf, cfg, sigma_z2, None)
        shat = _receive(rx, y, pf, N_d)
        diff = shat[..., keep] - grid.symbols[..., keep]
        errs[t] = np.mean(diff ** 2) / P_SYM
    return float(errs.mean())
