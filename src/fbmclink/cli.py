"""Command-line front end: figure presets at desk or full scale, config-file
overrides, RFC-4180 CSV output, and matplotlib plot-script emission.

Exit codes: 0 success, 2 configuration error, 3 numerical failure. Errors are
one line on stderr, ``error: config: ...`` or ``error: numerical: ...``.
"""

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .channel import load_pdp
from .config import SimConfig, _parse_items, channel_assignment, fingerprint
from .config import parse_config, render_config, P_SYM  # re-exported API
from .errors import ConfigError, NumericalError
from .fbmc import design_prototype
from .metrics import SchemeSpec, run_mse, sweep
from .theory import sir_upper_bound, theoretical_sinr

_PRESETS = ("fig3", "fig4", "fig6", "fig7", "fig8", "mse")


def _preset_items(name, scale):
    desk = scale == "desk"
    base = {"kappa": 4, "alpha": 1, "criterion": "zf", "master_seed": 12345}
    if name == "fig3":
        base.update(M=64 if desk else 256, N_t=1, N_r=8 if desk else 16,
                    trials=300 if desk else 1000, gamma_db=30.0,
                    channels=("EVA",) if desk else ("EVA", "ETU", "PedA", "PedB"))
    elif name == "fig4":
        base.update(M=64 if desk else 256, N_t=1, N_r=16,
                    trials=400 if desk else 2000,
                    channels=("EVA", "PedA") if desk
                    else ("EVA", "ETU", "PedA", "PedB"))
    elif name == "fig6":
        base.update(M=64 if desk else 256, N_t=4 if desk else 8, N_r=16,
                    trials=200 if desk else 1000, gamma_db=10.0)
    elif name == "fig7":
        base.update(M=64 if desk else 256, N_t=2 if desk else 8, N_r=16,
                    trials=200 if desk else 1000)
        if desk:
            base.update(channels=("PedA", "PedA"))
    elif name == "fig8":
        base.update(M=64 if desk else 256, N_t=2 if desk else 8,
                    N_r=32 if desk else 64, trials=200 if desk else 1000)
        if desk:
            base.update(channels=("PedA", "PedA"))
    elif name == "mse":
        base.update(M=64 if desk else 256, N_t=2 if desk else 8, N_r=16,
                    trials=100 if desk else 500, N_d=96, L_p=8)
    return base


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return v


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    return path


def _run_fig3(cfg, scale, out_dir, threads):
    if cfg.M < 8:
        raise ConfigError(f"fig3 needs M >= 8 for D1 = M/8, got M={cfg.M}")
    # per D1, eight lengths from the first at which g-bar can place the
    # alpha M/2 delay, alpha M/(2 D1) low-rate taps
    specs = [SchemeSpec("two_stage", D1=D1, Lg_prime=L)
             for D1 in (cfg.M // 2, cfg.M // 4, cfg.M // 8)
             for L in range(cfg.alpha * cfg.M // (2 * D1) + 1,
                            cfg.alpha * cfg.M // (2 * D1) + 9)]
    rows = []
    for ch in cfg.channels:
        # one sweep: every spec reads each trial's draw and stage-1 solve
        c = replace(cfg, channels=(ch,))
        res = sweep(c, "N_r", [c.N_r], specs + [SchemeSpec("highrate")],
                    threads=threads)
        hr = res.get(c.N_r, "highrate").sir_db
        for sp in specs:
            r = res.get(c.N_r, sp.label())
            rows.append((sp.Lg_prime, sp.D1, ch, r.sir_db, r.sir_se_db, hr))
    return [_write_csv(os.path.join(out_dir, "fig3.csv"),
                       ("Lg_prime", "D1", "channel", "sir_db", "sir_se_db",
                        "highrate_sir_db"), rows)]


def _run_fig4(cfg, scale, out_dir, threads):
    gammas = [0.0, 10.0, 20.0, 30.0] if scale == "desk" \
        else [float(g) for g in range(0, 45, 5)]
    nr_list = [4, 16] if scale == "desk" else [4, 16, 64]
    pf = design_prototype(cfg.kappa, cfg.M)
    m = cfg.subcarrier
    profiles = [load_pdp(ch, cfg.sample_rate) for ch in cfg.channels]
    for ch, profile in zip(cfg.channels, profiles):
        if not profile.L_h - 1 < cfg.M:
            raise ConfigError(f"channel {ch} spans L_h={profile.L_h} taps; "
                              f"the closed form needs L_h-1 < M={cfg.M}")
    rows = []
    for ch, profile in zip(cfg.channels, profiles):
        for N_r in nr_list:
            c = replace(cfg, channels=(ch,), N_r=N_r, N_t=1, user=0)
            res = sweep(c, "gamma_db", gammas,
                        schemes=[SchemeSpec("highrate")], threads=threads)
            for g in gammas:
                rep = res.get(g, "highrate")
                th = theoretical_sinr([profile], pf, cfg.M, N_r, cfg.alpha,
                                      m, 0, c.noise_var(g), P_s=P_SYM)
                rows.append((ch, N_r, g, rep.sinr_db, rep.sinr_se_db, th))
    return [_write_csv(os.path.join(out_dir, "fig4.csv"),
                       ("channel", "N_r", "gamma_db", "sinr_sim_db",
                        "sinr_se_db", "sinr_theory_db"), rows)]


def _run_fig6(cfg, scale, out_dir, threads):
    nr_points = [8, 16, 32, 64] if scale == "desk" \
        else [16, 32, 64, 128, 256, 512, 1024]
    schemes = [SchemeSpec("single_tap"),
               SchemeSpec("two_stage", D1=cfg.D1, Lg_prime=3),
               SchemeSpec("two_stage", D1=cfg.D1, Lg_prime=5)]
    res = sweep(cfg, "N_r", nr_points, schemes=schemes, threads=threads)
    rows = []
    for pt in nr_points:
        for sp in schemes:
            rep = res.get(pt, sp.label())
            rows.append((pt, rep.kind, rep.Lg_prime, rep.sinr_db,
                         rep.sinr_se_db))
    return [_write_csv(os.path.join(out_dir, "fig6.csv"),
                       ("N_r", "scheme", "Lg_prime", "sinr_db", "sinr_se_db"),
                       rows)]


def _run_fig78(cfg, scale, out_dir, threads, name):
    step = 10 if scale == "desk" else 5
    gammas = [float(g) for g in range(0, 61, step)]
    schemes = [SchemeSpec("single_tap"),
               SchemeSpec("two_stage", D1=cfg.D1, Lg_prime=cfg.Lg_prime),
               SchemeSpec("highrate")]
    res = sweep(cfg, "gamma_db", gammas, schemes=schemes, threads=threads)
    pf = design_prototype(cfg.kappa, cfg.M)
    bound = sir_upper_bound(pf, cfg.M, cfg.alpha, cfg.subcarrier)
    rows = []
    for g in gammas:
        for sp in schemes:
            rep = res.get(g, sp.label())
            rows.append((g, rep.kind, rep.Lg_prime, rep.sinr_db,
                         rep.sinr_se_db, bound))
    return [_write_csv(os.path.join(out_dir, f"{name}.csv"),
                       ("gamma_db", "scheme", "Lg_prime", "sinr_db",
                        "sinr_se_db", "sir_upper_bound_db"), rows)]


def _run_mse(cfg, scale, out_dir, threads):
    step = 10 if scale == "desk" else 5
    gammas = [float(g) for g in range(0, 51, step)]
    spec = SchemeSpec("two_stage", D1=cfg.D1, Lg_prime=cfg.Lg_prime)
    rows = []
    for mode in ("perfect", "estimated"):
        for g in gammas:
            v = run_mse(replace(cfg, gamma_db=g), spec, csi_mode=mode,
                        threads=threads)
            rows.append((g, spec.kind, mode, v, 10.0 * np.log10(v)))
    return [_write_csv(os.path.join(out_dir, "mse.csv"),
                       ("gamma_db", "scheme", "csi", "mse", "mse_db"), rows)]


_RUNNERS = {
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig6": _run_fig6,
    "fig7": lambda c, s, o, t: _run_fig78(c, s, o, t, "fig7"),
    "fig8": lambda c, s, o, t: _run_fig78(c, s, o, t, "fig8"),
    "mse": _run_mse,
}


def run_preset(name, scale="desk", out_dir="out", config_text=None, seed=None,
               threads=1):
    """Run one figure preset; returns the list of files written."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          + ", ".join(_PRESETS))
    if scale not in ("desk", "full"):
        raise ConfigError(f"unknown scale {scale!r}; expected desk or full")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    items = _preset_items(name, scale)
    if config_text is not None:
        items.update(_parse_items(config_text))
    cfg = SimConfig(**items)
    if seed is not None:
        cfg = replace(cfg, master_seed=seed)
    if name in ("fig3", "fig4") and not cfg.channels:
        raise ConfigError(f"{name} plots one curve per listed channel; "
                          "channels is empty")
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as e:
        raise ConfigError(f"cannot write to output directory {out_dir!r}: {e}")
    paths = _RUNNERS[name](cfg, scale, out_dir, threads)
    out = list(paths)
    for p in paths:
        script = emit_plot_script(p)
        sp = os.path.splitext(p)[0] + "_plot.py"
        with open(sp, "w", encoding="utf-8") as fh:
            fh.write(script)
        out.append(sp)
    return out


_SCRIPT_PRELUDE = '''#!/usr/bin/env python3
"""Plot __TITLE__ from __CSV__ (generated; requires matplotlib)."""
import csv
import math
import os
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else \\
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "__CSV__")
with open(path, newline="") as fh:
    rows = list(csv.DictReader(fh))
fig, ax = plt.subplots(figsize=(7, 5))
'''

_SCRIPT_EPILOGUE = '''
ax.grid(True, alpha=0.4)
ax.legend(fontsize=8)
png = os.path.splitext(path)[0] + ".png"
fig.savefig(png, dpi=150, bbox_inches="tight")
print(png)
'''

_SCRIPT_BODIES = {
    ("Lg_prime", "D1", "channel", "sir_db", "sir_se_db", "highrate_sir_db"): '''
groups = {}
for r in rows:
    groups.setdefault((r["channel"], int(r["D1"])), []).append(r)
for (ch, d1), rs in sorted(groups.items()):
    rs.sort(key=lambda r: int(r["Lg_prime"]))
    x = [int(r["Lg_prime"]) for r in rs]
    y = [float(r["sir_db"]) for r in rs]
    e = [float(r["sir_se_db"]) for r in rs]
    ax.errorbar(x, y, yerr=e, marker="o", label=f"{ch} D1={d1}")
    ax.axhline(float(rs[0]["highrate_sir_db"]), ls="--", lw=0.8, color="gray")
ax.set_xlabel("low-rate equalizer length L'_g")
ax.set_ylabel("SIR (dB)")
''',
    ("channel", "N_r", "gamma_db", "sinr_sim_db", "sinr_se_db",
     "sinr_theory_db"): '''
groups = {}
for r in rows:
    groups.setdefault((r["channel"], int(r["N_r"])), []).append(r)
for (ch, nr), rs in sorted(groups.items()):
    rs.sort(key=lambda r: float(r["gamma_db"]))
    x = [float(r["gamma_db"]) for r in rs]
    ax.errorbar(x, [float(r["sinr_sim_db"]) for r in rs],
                yerr=[float(r["sinr_se_db"]) for r in rs],
                marker="o", ls="none", label=f"{ch} N_r={nr} sim")
    ax.plot(x, [float(r["sinr_theory_db"]) for r in rs], "--",
            label=f"{ch} N_r={nr} theory")
ax.set_xlabel("SNR (dB)")
ax.set_ylabel("SINR (dB)")
''',
    ("N_r", "scheme", "Lg_prime", "sinr_db", "sinr_se_db"): '''
groups = {}
for r in rows:
    groups.setdefault((r["scheme"], r["Lg_prime"]), []).append(r)
for (sc, lgp), rs in sorted(groups.items()):
    rs.sort(key=lambda r: int(r["N_r"]))
    x = [int(r["N_r"]) for r in rs]
    y = [float(r["sinr_db"]) for r in rs]
    e = [float(r["sinr_se_db"]) for r in rs]
    lab = sc if sc != "two_stage" else f"two_stage L'={lgp}"
    ax.errorbar(x, y, yerr=e, marker="o", label=lab)
ax.set_xscale("log", base=2)
ax.set_xlabel("receive antennas N_r")
ax.set_ylabel("SINR (dB)")
''',
    ("gamma_db", "scheme", "Lg_prime", "sinr_db", "sinr_se_db",
     "sir_upper_bound_db"): '''
groups = {}
for r in rows:
    groups.setdefault((r["scheme"], r["Lg_prime"]), []).append(r)
for (sc, lgp), rs in sorted(groups.items()):
    rs.sort(key=lambda r: float(r["gamma_db"]))
    x = [float(r["gamma_db"]) for r in rs]
    y = [float(r["sinr_db"]) for r in rs]
    e = [float(r["sinr_se_db"]) for r in rs]
    lab = sc if sc != "two_stage" else f"two_stage L'={lgp}"
    ax.errorbar(x, y, yerr=e, marker="o", label=lab)
bound = float(rows[0]["sir_upper_bound_db"])
if math.isfinite(bound):    # an orthogonal bank (kappa=2) has no ceiling
    ax.axhline(bound, ls=":", color="k", label="SIR bound")
ax.set_xlabel("SNR (dB)")
ax.set_ylabel("SINR (dB)")
''',
    ("gamma_db", "scheme", "csi", "mse", "mse_db"): '''
groups = {}
for r in rows:
    groups.setdefault((r["scheme"], r["csi"]), []).append(r)
for (sc, mode), rs in sorted(groups.items()):
    rs.sort(key=lambda r: float(r["gamma_db"]))
    x = [float(r["gamma_db"]) for r in rs]
    y = [float(r["mse_db"]) for r in rs]
    ax.plot(x, y, marker="o", label=f"{sc} ({mode} CSI)")
ax.set_xlabel("SNR (dB)")
ax.set_ylabel("MSE (dB)")
''',
}


def emit_plot_script(csv_path):
    """Return the text of a standalone matplotlib script for a result CSV.

    The header row selects the plot layout, and the file's stem (fig7,
    fig8, ...) titles it; an unrecognized header raises ConfigError listing
    the supported column sets. The script is returned, never executed.
    """
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            header = tuple(next(csv.reader(fh)))
    except OSError as e:
        raise ConfigError(f"cannot read CSV {csv_path!r}: {e}")
    except StopIteration:
        raise ConfigError(f"CSV {csv_path!r} is empty") from None
    if header not in _SCRIPT_BODIES:
        known = "; ".join(",".join(h) for h in _SCRIPT_BODIES)
        raise ConfigError(
            f"unrecognized CSV columns {','.join(header)}; expected one of: {known}")
    name = os.path.basename(csv_path)
    text = _SCRIPT_PRELUDE + _SCRIPT_BODIES[header] + _SCRIPT_EPILOGUE
    return text.replace("__CSV__", name).replace(
        "__TITLE__", os.path.splitext(name)[0])


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit code 2)."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None):
    parser = _Parser(prog="fbmclink",
                     description="FBMC/OQAM massive-MIMO uplink simulator")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run a figure preset")
    runp.add_argument("preset", help="one of: " + ", ".join(_PRESETS))
    runp.add_argument("--scale", default="desk", help="desk (default) or full")
    runp.add_argument("--config", default=None, help="key=value override file")
    runp.add_argument("--out", default="out", help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="master seed")
    runp.add_argument("--threads", type=int, default=1,
                      help="worker threads for the Monte Carlo loops")
    plotp = sub.add_parser("plot-script",
                           help="emit a matplotlib script for a result CSV")
    plotp.add_argument("csv")
    plotp.add_argument("--out", default=None,
                       help="write the script here (default: stdout)")
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            config_text = None
            if args.config is not None:
                try:
                    with open(args.config, encoding="utf-8") as fh:
                        config_text = fh.read()
                except (OSError, UnicodeDecodeError) as e:
                    raise ConfigError(
                        f"cannot read config file {args.config!r}: {e}") from None
            paths = run_preset(args.preset, scale=args.scale,
                               out_dir=args.out, config_text=config_text,
                               seed=args.seed, threads=args.threads)
            for p in paths:
                print(p)
        elif args.command == "plot-script":
            text = emit_plot_script(args.csv)
            if args.out:
                try:
                    with open(args.out, "w", encoding="utf-8") as fh:
                        fh.write(text)
                except OSError as e:
                    raise ConfigError(
                        f"cannot write plot script {args.out!r}: {e}") from None
                print(args.out)
            else:
                print(text)
        else:
            raise ConfigError("missing command; expected 'run' or 'plot-script'")
        return 0
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"error: numerical: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
