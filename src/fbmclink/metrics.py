"""Monte Carlo measurement: interference coefficients per receiver scheme,
SIR/SINR reports with jackknife standard errors, symbol-level MSE runs, and
parameter sweeps.

The coefficient path runs no sample streams. At the full rate, a scheme's
equalizer of user u at subcarrier m is L taps g^r per antenna at stride D1:
one tap W[m, u] (single-tap, alpha = 0), the L_g high-rate taps (D1 = 1) or
the two-stage g-bar of subcarrier m. One batched FFT convolution
(channel._convolve) sums the antennas into each user's equalized channel
c_{u'} = sum_r g^r * h^{r,u'}, and the real symbol s_{m',n'} of user u'
reaches the phase-compensated output with the coefficient (F the table
`theory.interference_table(pf, m)`, entry i at lag i - (L_f - 1); indices
from 0)

    R[u', m', dn] = Re{ j^{(m'-m-dn) mod 4} sum_l F[m', i0 - l] c_{u'}[l] },
    i0 = (dn + alpha) M/2 + L_f - 1,      dn = n - n',

the closed form's Re{v^T psi} with c in place of psi. It is exact (a full
transmit/receive chain gives the same numbers, without edge effects), so
SIR/SINR estimates need no symbol averaging. The noise power per trial is
sigma_z^2 / 2 times sum_r ||conj f_m * flip g^r||^2, a quadratic form in the
table's row m (the autocorrelation of f_m):

    sum_r sum_{a,b} conj(g^r[a]) F[m, L_f - 1 + (a - b) D1] g^r[b].

`run_mse` runs the sample streams instead. Sweeps and MSE runs build their
receivers with `_build_scheme`, and `_receive` is the one receive path that
turns the received streams into real symbol estimates: single-tap
demodulates all antennas in one call and combines the bins in one batched
product, high-rate filters at the full rate (overlap-add `_convolve`) and
demodulates all users in one call, and the two-stage bank runs
`equalize_lowrate`, one batched product per low-rate tap.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import (_convolve, draw_channel, apply_channel, add_awgn,
                      freq_csi, estimate_csi_mmse, trial_rng, load_pdp)
from .config import P_SYM, channel_assignment, fingerprint
from .errors import ConfigError
from .fbmc import design_prototype, qam_to_oqam, modulate, demodulate
from .stage1 import (HighRateEqualizer, SingleTapEqualizer, design_highrate,
                     single_tap, apply_highrate)
from .stage2 import (DecimationPlan, LowRateEqualizerBank,
                     build_lowrate_receiver, equalize_lowrate, recover_symbols)
from . import theory    # where bench/layers.py wraps interference_table
from .theory import _J, _dn_range, _rows, _windows

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


def _equalized_channel(H, g, D1):
    """c_{u'} = sum_r g^r * h^{r,u'} for taps g (N_r, L) at stride D1."""
    up = np.zeros((g.shape[0], 1, (g.shape[1] - 1) * D1 + 1), dtype=complex)
    up[:, 0, ::D1] = g
    return _convolve(up, H.taps, sum_axis=0)


@dataclass
class CoeffSet:
    """Measured real interference coefficients of one scheme on one trial."""

    R: np.ndarray           # (N_t, M, n_dn)
    dn: np.ndarray          # lattice time offsets, dn[j] = n - n'
    m: int
    u: int
    alpha: int
    noise_gain: float       # sum_r ||conj f_m * flip g^r||^2
    P_s: float = P_SYM

    def desired_power(self):
        j0 = int(np.nonzero(self.dn == 0)[0][0])
        return self.P_s * float(self.R[self.u, self.m, j0]) ** 2

    def interference_power(self):
        return self.P_s * float(np.sum(self.R ** 2)) - self.desired_power()

    def noise_power(self, sigma_z2):
        return 0.5 * sigma_z2 * self.noise_gain


def _measure_many(H, schemes, pf, m, u):
    """CoeffSets of several scheme objects on one realization: per scheme,
    c_{u'} of every user, then per dn of every lattice offset that
    F_{mm'} * c_{u'} reaches one product of the reversed c with the table
    window of columns i0 - l (`theory._windows`)."""
    M, L_f, half = pf.M, pf.L_f, pf.M // 2
    F = theory.interference_table(pf, m)
    jm = np.arange(M) - m
    out = []
    for scheme in schemes:
        g, D1, a_s = _taps(scheme, m, u)
        c = _equalized_channel(H, g, D1)
        L_c = c.shape[1]
        cr = c[:, ::-1].copy()      # BLAS takes no negative strides
        dns = _dn_range(M, L_f, a_s, L_c)
        R = np.empty((H.N_t, M, dns.size))
        for j, dn in enumerate(dns):
            i0 = (dn + a_s) * half + L_f - 1
            a, b, (W,) = _windows(F, 0, L_c - 1, i0)
            R[:, :, j] = (cr[:, L_c - 1 - b:L_c - a] @ W.T
                          * _J[(jm - dn) % 4]).real
        pos = np.arange(g.shape[1]) * D1
        T = _rows(F[m], L_f - 1 + pos[:, None] - pos)   # noise-gain form
        out.append(CoeffSet(R=R, dn=dns, m=m, u=u, alpha=a_s,
                            noise_gain=float(np.vdot(g, g @ T.T).real)))
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
    flagged: str = ""


def _flag_note(cfg, profiles):
    worst = max(p.L_h for p in profiles)
    if cfg.M < 2 * (worst - 1):
        return (f"M={cfg.M} < 2(L_h-1)={2 * (worst - 1)}: channel memory "
                "exceeds the equalizer's frequency resolution")
    return ""


def _collect(cfg, specs, csi_mode, threads, pf):
    """Per-trial coefficient sets for every spec: {spec: [CoeffSet] * trials}."""
    profiles = [load_pdp(nm, cfg.sample_rate) for nm in channel_assignment(cfg)]
    m, u = cfg.subcarrier, cfg.user
    theory.interference_table(pf, m)  # held before the trials read it
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


def _report(cfg, spec, label, sets, csi_mode, flagged):
    """Aggregate per-trial coefficient sets into SIR/SINR (ratio of mean
    powers) with jackknife standard errors on the dB values, at the SNR of
    `cfg`."""
    sigma_z2 = cfg.noise_var()
    des = np.array([c.desired_power() for c in sets])
    intf = np.array([c.interference_power() for c in sets])
    nz = np.array([c.noise_power(sigma_z2) for c in sets])
    sir_db, sir_se = _jackknife_ratio_db(des, intf)
    sinr_db, sinr_se = _jackknife_ratio_db(des, intf + nz)
    noise_db = 10.0 * np.log10(nz.mean() / sets[0].P_s) if sigma_z2 > 0 \
        else -np.inf
    return SinrReport(
        scheme=label, kind=spec.kind, D1=spec.D1, Lg_prime=spec.Lg_prime,
        m=cfg.subcarrier, u=cfg.user, gamma_db=cfg.gamma_db,
        sir_db=sir_db, sir_se_db=sir_se, sinr_db=sinr_db, sinr_se_db=sinr_se,
        noise_db=noise_db, trials=cfg.trials, seed=cfg.master_seed,
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
    not depend on the axis, across points). Each report carries the
    fingerprint of its point's config; an Lg_prime point keeps `config`.
    """
    if axis not in _AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {_AXES}")
    points = list(points)
    if not points:
        raise ConfigError("sweep needs at least one point")
    if any(points[i] >= points[i + 1] for i in range(len(points) - 1)):
        raise ConfigError("sweep points must be strictly increasing")
    if axis != "gamma_db" and any(int(p) != p or p < 1 for p in points):
        raise ConfigError(f"{axis} sweep points must be integers >= 1")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    specs = _specs(config, schemes)
    labels = tuple(sp.label() for sp in specs)
    plan = []       # (point, config, specs)
    for pt in points:
        if axis == "Lg_prime":      # selects specs; the config stays
            plan.append((pt, config, [replace(sp, Lg_prime=int(pt))
                                      if sp.kind == "two_stage" else sp
                                      for sp in specs]))
        else:
            value = float(pt) if axis == "gamma_db" else int(pt)
            plan.append((pt, replace(config, **{axis: value}), specs))
    # trials are shared across points when no receiver depends on the axis:
    # L'_g only selects among specs, and ZF with perfect CSI ignores the SNR
    shared = axis == "Lg_prime" or (axis == "gamma_db" and
                                    csi_mode == "perfect" and
                                    config.criterion == "zf")
    pf = design_prototype(config.kappa, config.M)   # no axis changes it
    if shared:
        unique = list(dict.fromkeys(sp for _, _, v in plan for sp in v))
        data, flagged = _collect(config, unique, csi_mode, threads, pf)
    reports = {}
    for pt, cfg, v in plan:
        if not shared:
            data, flagged = _collect(cfg, v, csi_mode, threads, pf)
        for sp, lab in zip(v, labels):
            reports[(pt, lab)] = _report(cfg, sp, lab, data[sp], csi_mode,
                                         flagged)
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
