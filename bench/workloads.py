"""The benchmark's three workloads.

Each workload mirrors a CLI preset and calls the public entry points that the
preset calls (``sweep``, ``run_mse``, ``theoretical_sinr``). It calls them
through their module attribute, so the traced run's wrappers see every call.

A workload function builds the inputs, which is the set-up every user run
pays, and returns a `Prepared`. Its steps are the timed work. Each step names
the outputs it produces, so a step that raises counts all of them as failed.
The keyword arguments fix the benchmark's shapes; the self-tests pass smaller
ones.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

from fbmclink import metrics, theory
from fbmclink.channel import load_pdp
from fbmclink.config import P_SYM, SimConfig, channel_assignment
from fbmclink.fbmc import design_prototype
from fbmclink.metrics import SchemeSpec

RATE = 7.68e6


@dataclass
class Step:
    keys: tuple                     # names of the outputs this step produces
    run: Callable[[], dict]         # returns {key: float}


@dataclass
class Prepared:
    steps: list
    # SINR ceiling in dB for the plausibility check on seeds without
    # references; evaluated after the timed section
    ceiling_db: Callable[[], float]


def _ceiling(M, alpha, pf=None):
    def bound():
        proto = design_prototype(4, M) if pf is None else pf
        return float(theory.sir_upper_bound(proto, M, alpha, M // 2))
    return bound


def mc_fig6(seed, M=64, N_t=4, nr_points=(8, 16, 32, 64), trials=1,
            sample_rate=RATE):
    """Desk fig6: SINR versus N_r for single_tap and two-stage L'_g = 3, 5."""
    cfg = SimConfig(M=M, kappa=4, alpha=1, N_t=N_t, N_r=16, criterion="zf",
                    gamma_db=10.0, trials=trials, master_seed=seed,
                    sample_rate=sample_rate)
    schemes = [SchemeSpec("single_tap"),
               SchemeSpec("two_stage", D1=cfg.D1, Lg_prime=3),
               SchemeSpec("two_stage", D1=cfg.D1, Lg_prime=5)]
    names = {(n, sp.label()): f"sinr_db/N_r={n}/{sp.label()}"
             for n in nr_points for sp in schemes}

    def run():
        res = metrics.sweep(cfg, "N_r", list(nr_points), schemes=schemes,
                            threads=1)
        return {key: float(res.get(*pt).sinr_db) for pt, key in names.items()}

    return Prepared([Step(tuple(names.values()), run)],
                    _ceiling(M, cfg.alpha))


def chain_mse(seed, M=256, N_t=8, N_r=16, bursts=1, sample_rate=RATE):
    """Full transmit/channel/receive chain: MMSE with estimated CSI."""
    cfg = SimConfig(M=M, kappa=4, alpha=1, N_t=N_t, N_r=N_r,
                    criterion="mmse", gamma_db=20.0, N_d=96, L_p=8,
                    trials=bursts, master_seed=seed, sample_rate=sample_rate)

    def run(spec):
        mse = metrics.run_mse(cfg, spec, csi_mode="estimated")
        return {f"mse/{spec.label()}": float(mse)}

    specs = [SchemeSpec("two_stage", D1=M // 4, Lg_prime=5),
             SchemeSpec("single_tap")]
    steps = [Step((f"mse/{sp.label()}",), partial(run, sp)) for sp in specs]
    return Prepared(steps, _ceiling(M, cfg.alpha))


def theory_fig4(seed, M=256, channels=("EVA", "PedA"), nr_points=(16, 64),
                gammas=(0.0, 10.0, 20.0, 30.0, 40.0), multiuser_nr=64,
                sample_rate=RATE):
    """Closed-form SINR on the fig4 axis, one 8-user point, and the bound.

    The closed form has no random inputs, so the seed changes nothing.
    """
    del seed
    alpha, m = 1, M // 2
    pf = design_prototype(4, M)
    base = SimConfig(M=M, N_t=8, N_r=multiuser_nr, sample_rate=sample_rate)

    def point(key, profiles, N_r, sigma_z2):
        return {key: float(theory.theoretical_sinr(
            profiles, pf, M, N_r, alpha, m, 0, sigma_z2, P_s=P_SYM))}

    steps = []
    for ch in channels:
        profile = load_pdp(ch, sample_rate)
        for N_r in nr_points:
            for g in gammas:
                key = f"sinr_db/{ch}/N_r={N_r}/gamma={g:g}"
                steps.append(Step((key,), partial(point, key, [profile], N_r,
                                                  base.noise_var(g))))
    users = [load_pdp(nm, sample_rate) for nm in channel_assignment(base)]
    key = f"sinr_db/8users/N_r={multiuser_nr}/gamma={base.gamma_db:g}"
    steps.append(Step((key,), partial(point, key, users, multiuser_nr,
                                      base.noise_var())))
    bound_key = "sir_bound_db/kappa=4"
    steps.append(Step((bound_key,), lambda: {
        bound_key: float(theory.sir_upper_bound(pf, M, alpha, m))}))
    return Prepared(steps, _ceiling(M, alpha, pf))


WORKLOADS = {"mc_fig6": mc_fig6, "chain_mse": chain_mse,
             "theory_fig4": theory_fig4}
