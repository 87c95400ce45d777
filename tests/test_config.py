"""Config files: the render/parse round trip and the values it rejects."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmclink.config import SimConfig, parse_config, render_config
from fbmclink.errors import ConfigError


def _channel_name():
    known = st.sampled_from(["EVA", "ETU", "PedA", "PedB"]).map(
        lambda s: "".join(c.upper() if i % 2 else c.lower()
                          for i, c in enumerate(s)))
    custom = st.text(min_size=1, max_size=12).filter(
        lambda s: s.splitlines() == [s] and s == s.strip()
        and "," not in s and "#" not in s)
    return known | custom


@st.composite
def _configs(draw):
    log2M = draw(st.integers(2, 10))
    M = 2 ** log2M
    N_t = draw(st.integers(1, 16))
    return SimConfig(
        M=M,
        kappa=draw(st.sampled_from([2, 3, 4])),
        N_t=N_t,
        N_r=draw(st.integers(1, 128)),
        L_g=draw(st.integers(0, 2 * M)),
        alpha=draw(st.integers(0, 4)),
        D1=M >> draw(st.integers(1, log2M)),
        Lg_prime=draw(st.integers(1, 20)),
        criterion=draw(st.sampled_from(["zf", "mmse"])),
        gamma_db=draw(st.floats(allow_nan=False, allow_infinity=False)),
        trials=draw(st.integers(1, 10 ** 6)),
        master_seed=draw(st.integers(0, 2 ** 64)),
        subcarrier=draw(st.integers(-1, M - 1)),
        user=draw(st.integers(0, N_t - 1)),
        N_d=2 * draw(st.integers(1, 500)),
        L_p=draw(st.integers(1, 64)),
        sample_rate=draw(st.floats(min_value=0, exclude_min=True,
                                   allow_infinity=False)),
        channels=tuple(draw(st.lists(_channel_name(), max_size=5))))


@settings(max_examples=100, deadline=None)
@given(_configs())
def test_render_parse_round_trip(cfg):
    assert parse_config(render_config(cfg)) == cfg


@pytest.mark.parametrize("field, value", [
    ("gamma_db", math.nan),
    ("gamma_db", math.inf),
    ("gamma_db", -math.inf),
    ("sample_rate", math.inf),
    ("sample_rate", math.nan),
    ("channels", ("PedA,EVA",)),
    ("channels", ("Ped#A",)),
    ("channels", ("EVA\nPedA",)),
    ("channels", (" EVA",)),
    ("channels", ("",)),
])
def test_rejects_values_that_do_not_round_trip(field, value):
    with pytest.raises(ConfigError, match=field):
        SimConfig(**{field: value})

