"""Run configuration: a typed key=value file format, rendering, fingerprints.

Config files are UTF-8 text, one ``key = value`` per line, ``#`` comments.
``D1`` and ``subcarrier`` accept ``M``-relative notation ("M/4", "M/2"),
resolved against the config's ``M`` (the file's, or the default). Their
defaults are M-relative too: D1 = M/4, subcarrier = M/2. Every value
resolves once, to a plain int, so ``render_config`` writes ints,
``parse_config(render_config(cfg)) == cfg`` holds for every valid config,
and ``fingerprint`` hashes that same text.

``channels`` names one profile per user (cycled): EVA, ETU, PedA or PedB in
any case, or the path of a ``delay_ns power_db`` text file (``#`` comments)
whose values are all finite and whose delays are nonnegative.
"""

import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .stage2 import DecimationPlan

# canonical channel-profile spellings, keyed by lowercase
_CHANNEL_NAMES = {"eva": "EVA", "etu": "ETU", "peda": "PedA", "pedb": "PedB"}

# Real-symbol power of a unit-average-power QAM constellation after the
# real/imaginary split.
P_SYM = 0.5


# divisor k of each M-relative field's default, M/k
_M_RELATIVE = {"D1": 4, "subcarrier": 2}


def _resolve_m_relative(key, val, M):
    """The value of field `key` at this M: the default (0 for D1, a negative
    value for subcarrier, whose 0 is a valid bin) or the text "M" or "M/k"
    gives M/k; any other int is kept as given."""
    if isinstance(val, str):
        bad = ConfigError(f"{key}: bad M-relative value {val!r}")
        if val != "M" and not val.startswith("M/"):
            raise bad
        try:
            k = 1 if val == "M" else int(val[2:])
        except ValueError:
            raise bad from None
    elif (val < 0) if key == "subcarrier" else (val == 0):
        k = _M_RELATIVE[key]
    else:
        return val
    if k < 1 or M % k != 0:     # a divisor of M is a power of two, as D1 needs
        raise ConfigError(f"{key} = M/{k}: {k} does not divide M = {M}")
    return M // k


@dataclass
class SimConfig:
    """All knobs of one simulation point (defaults: the 8-user benchmark)."""

    M: int = 256
    kappa: int = 4
    N_t: int = 8
    N_r: int = 16
    alpha: int = 1
    D1: int = 0           # 0 resolves to M/4
    Lg_prime: int = 5
    criterion: str = "zf"
    gamma_db: float = 10.0
    trials: int = 100
    master_seed: int = 12345
    subcarrier: int = -1  # -1 resolves to M/2
    user: int = 0
    N_d: int = 96
    L_p: int = 8
    sample_rate: float = 7.68e6
    channels: tuple = ()  # () resolves to the default assignment

    def __post_init__(self):
        if self.M < 4 or (self.M & (self.M - 1)) != 0:
            raise ConfigError(f"M must be a power of two >= 4, got {self.M}")
        if self.kappa not in (2, 3, 4):
            raise ConfigError(f"kappa must be 2, 3 or 4, got {self.kappa}")
        for key in _M_RELATIVE:
            setattr(self, key, _resolve_m_relative(key, getattr(self, key),
                                                   self.M))
        for c in self.channels:
            # the text form splits on ',', '#' and line breaks and strips names
            if (not isinstance(c, str) or c.splitlines() != [c]
                    or c != c.strip() or "," in c or "#" in c):
                raise ConfigError(
                    f"channels: bad name {c!r}; need non-empty text without ',',"
                    " '#', line breaks or surrounding whitespace")
        self.channels = tuple(_CHANNEL_NAMES.get(c.lower(), c)
                              for c in self.channels)
        DecimationPlan(self.M, self.D1)
        for name, lo in (("N_t", 1), ("N_r", 1), ("trials", 1),
                         ("Lg_prime", 1), ("alpha", 0), ("L_p", 1),
                         ("master_seed", 0), ("N_d", 2)):
            if getattr(self, name) < lo:
                raise ConfigError(f"{name} must be >= {lo}, got {getattr(self, name)}")
        if self.N_d % 2 != 0:
            raise ConfigError(f"N_d must be even, got {self.N_d}")
        if self.criterion not in ("zf", "mmse"):
            raise ConfigError(f"criterion must be 'zf' or 'mmse', got {self.criterion!r}")
        if not 0 <= self.subcarrier < self.M:
            raise ConfigError(f"subcarrier must be in [0, M), got {self.subcarrier}")
        if not 0 <= self.user < self.N_t:
            raise ConfigError(f"user must be in [0, N_t), got {self.user}")
        if not math.isfinite(self.gamma_db):
            raise ConfigError(f"gamma_db must be finite, got {self.gamma_db}")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ConfigError(
                f"sample_rate must be positive and finite, got {self.sample_rate}")

    def noise_var(self, gamma_db=None):
        """sigma_z^2 for an SNR of gamma_db, referenced to the unit per-user
        transmit power (2 P_s at symbol power P_s = 1/2)."""
        g = self.gamma_db if gamma_db is None else gamma_db
        return 2.0 * P_SYM * 10.0 ** (-g / 10.0)


def channel_assignment(cfg):
    """Per-user profile names: explicit list (cycled over users) or the
    default mix (pairs of EVA/ETU/PedA/PedB for 8 users, round robin else)."""
    if cfg.channels:
        base = cfg.channels
    elif cfg.N_t == 8:
        base = ("EVA", "EVA", "ETU", "ETU", "PedA", "PedA", "PedB", "PedB")
    else:
        base = ("EVA", "ETU", "PedA", "PedB")
    return [base[i % len(base)] for i in range(cfg.N_t)]


def _parse_items(text):
    """key=value lines -> dict of typed SimConfig field values; M-relative
    text stays text, for SimConfig to resolve."""
    ftypes = {f.name: f.type for f in fields(SimConfig)}
    items = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in ftypes:
            raise ConfigError(
                f"line {lineno}: unknown config key {key!r}; known keys: "
                + ", ".join(sorted(ftypes)))
        if key in items:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        t = ftypes[key]
        try:
            if key in _M_RELATIVE and val.startswith("M"):
                items[key] = val
            elif t is int:
                items[key] = int(val)
            elif t is float:
                items[key] = float(val)
            elif t is tuple:
                items[key] = tuple(p.strip() for p in val.split(",") if p.strip())
            else:
                items[key] = val
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {val!r} for key {key!r}") from None
    return items


def parse_config(text):
    """Parse a config file into a SimConfig (all values validated)."""
    return SimConfig(**_parse_items(text))


def render_config(cfg):
    """Canonical text form, one key = value line per field;
    parse_config(render_config(cfg)) == cfg."""
    lines = []
    for f in fields(SimConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def fingerprint(cfg):
    """Short stable hash of a config (of its rendered text), for provenance
    columns in reports."""
    return hashlib.sha256(render_config(cfg).encode()).hexdigest()[:16]
