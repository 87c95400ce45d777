"""Config files: the render/parse round trip, the values it rejects, and
how `replace` treats M-relative values."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmclink.config import SimConfig, fingerprint, parse_config, render_config
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



@pytest.mark.parametrize("M, want", [(64, (16, 64, 32)), (512, (128, 512, 256))])
def test_replace_m_resolves_the_defaults_again(M, want):
    cfg = replace(SimConfig(), M=M)
    assert (cfg.D1, cfg.L_g, cfg.subcarrier) == want


def test_replace_m_keeps_explicit_ints_and_resolves_text_again():
    assert replace(SimConfig(M=64, D1=8), M=256).D1 == 8
    cfg = parse_config("M = 64\nD1 = M/8\nL_g = M\nsubcarrier = M/4\n")
    assert (cfg.D1, cfg.L_g, cfg.subcarrier) == (8, 64, 16)
    cfg = replace(cfg, M=256)
    assert (cfg.D1, cfg.L_g, cfg.subcarrier) == (32, 256, 64)
    # the resolved values render in their M-relative form
    assert "D1 = M/8\nLg_prime" in render_config(cfg)
    assert parse_config(render_config(cfg)) == cfg


def test_a_file_round_trip_keeps_how_replace_treats_m():
    a = SimConfig(M=64)
    b = parse_config(render_config(a))
    assert (replace(b, M=256).D1, replace(a, M=256).D1) == (64, 64)
    assert replace(b, M=256) == replace(a, M=256)
    # the fingerprint hashes the resolved ints: the text and the int forms
    # share it, and it is the value that earlier CSVs carry
    ints = SimConfig(M=64, D1=16, L_g=64, subcarrier=32)
    assert "D1 = 16\n" in render_config(ints)
    assert fingerprint(a) == fingerprint(b) == fingerprint(ints)
    assert fingerprint(a) == "a701d668c9ed0188"
    assert fingerprint(SimConfig()) == "de2054cbb2f30fa7"


@settings(max_examples=100, deadline=None)
@given(_configs(), st.integers(2, 10))
def test_replace_m_after_a_round_trip_matches_replace_m(cfg, log2M):
    back = parse_config(render_config(cfg))
    try:
        want = replace(cfg, M=2 ** log2M)
    except ConfigError:
        with pytest.raises(ConfigError):
            replace(back, M=2 ** log2M)
        return
    assert replace(back, M=2 ** log2M) == want


def test_subcarrier_zero_is_a_bin_not_the_default():
    assert SimConfig(subcarrier=0).subcarrier == 0
    assert replace(SimConfig(), subcarrier=0).subcarrier == 0
    assert parse_config("subcarrier = 0\n").subcarrier == 0
    assert replace(SimConfig(subcarrier=0), M=64).subcarrier == 0


def test_a_resolved_value_keeps_its_divisor_when_copied():
    cfg = SimConfig()
    assert replace(cfg, M=512, D1=cfg.D1).D1 == 128
    assert SimConfig(M=512, D1=cfg.D1).D1 == 128
    # int() drops the divisor, so the value stays as given
    assert replace(cfg, M=512, D1=int(cfg.D1)).D1 == 64


@pytest.mark.parametrize("text, match", [
    ("D1 = M/3\n", "3 does not divide M = 256"),
    ("M = 16\nD1 = M\n", "D1=16 invalid"),
    ("M = 16\nL_g = M/32\n", "32 does not divide M = 16"),
    ("subcarrier = M/0\n", "does not divide"),
    ("D1 = Mx\n", "bad M-relative value 'Mx'"),
    ("D1 = M/two\n", "bad M-relative value"),
    ("D1 = quarter\n", "line 1: bad value 'quarter'"),
])
def test_bad_m_relative_values_are_config_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


@settings(max_examples=100, deadline=None)
@given(_configs(), st.integers(2, 10),
       st.sampled_from([None, 0, "M/2", "M/4", "M/64"]))
def test_replace_m_works_or_raises_config_error(cfg, log2M, d1):
    # d1 None keeps the drawn config's explicit ints
    try:
        if d1 is not None:
            cfg = replace(cfg, D1=d1, L_g="M/2", subcarrier=-1)
        new = replace(cfg, M=2 ** log2M)
    except ConfigError:
        return
    assert new.M == 2 ** log2M
    assert 1 <= new.D1 <= new.M // 2 and 0 <= new.subcarrier < new.M
    if d1 is not None:
        assert new.D1 == new.M // (4 if d1 == 0 else int(d1[2:]))
        assert (new.L_g, new.subcarrier) == (new.M // 2, new.M // 2)
    assert parse_config(render_config(new)) == new
