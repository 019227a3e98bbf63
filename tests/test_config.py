"""Configuration parsing, unit conversion, and validation."""

import json
import math

import numpy as np
import pytest

from bfmix.config import (
    MixtureConfig, UnitSystem, CompatMode, config_from_dict, load_config,
)
from bfmix.constants import hbar, k_B, atomic_mass
from bfmix.errors import ConfigError


def osc_config(**overrides):
    kw = dict(m_b=7.0 * atomic_mass, m_f=7.0 * atomic_mass,
              omega_b=166.0, omega_f=166.0, N_b=1000.0, N_f=100.0,
              g_bb=0.05, g_bf=0.02, g_ff=0.0)
    kw.update(overrides)
    return MixtureConfig.from_oscillator(**kw)


def test_oscillator_coupling_conversion_matches_hand_value():
    cfg = osc_config()
    a = math.sqrt(hbar / (166.0 * 7.0 * atomic_mass))
    assert np.isclose(cfg.osc_length, a, rtol=1e-14)
    assert np.isclose(cfg.g_bb, 0.05 * hbar * 166.0 * a ** 3, rtol=1e-14)
    assert np.isclose(cfg.g_bf, 0.02 * hbar * 166.0 * a ** 3, rtol=1e-14)


def test_scattering_length_factory_sign_and_value():
    m_b = 7.0 * atomic_mass
    cfg = MixtureConfig.from_scattering_lengths(
        m_b=m_b, m_f=6.0 * atomic_mass, omega_b=166.0, omega_f=166.0,
        N_b=1000.0, N_f=100.0, a_bb=-1.45e-9, a_bf=0.0)
    expected = 4.0 * math.pi * hbar ** 2 * (-1.45e-9) / m_b
    assert cfg.g_bb < 0
    assert np.isclose(cfg.g_bb, expected, rtol=1e-14)
    # cross coupling uses the reduced mass
    cfg2 = MixtureConfig.from_scattering_lengths(
        m_b=m_b, m_f=6.0 * atomic_mass, omega_b=166.0, omega_f=166.0,
        N_b=1000.0, N_f=100.0, a_bb=1e-9, a_bf=2e-9)
    m_red = cfg2.reduced_mass
    assert np.isclose(cfg2.g_bf, 2.0 * math.pi * hbar ** 2 * 2e-9 / m_red,
                      rtol=1e-14)


@pytest.mark.parametrize("field, other", [("m_b", "m_f"), ("m_f", "m_b")])
def test_scattering_length_factory_checks_the_masses_first(field, other):
    kw = dict(m_b=7.0 * atomic_mass, m_f=6.0 * atomic_mass, omega_b=166.0,
              omega_f=166.0, N_b=1000.0, N_f=100.0, a_bb=1e-9, a_bf=1e-9)
    # zero divides g = 4 pi hbar^2 a / m, and m_b = -m_f the reduced mass
    for mass in (0.0, -0.0, -kw[other]):
        with pytest.raises(ConfigError, match=f"{field} must be strictly "
                                              "positive"):
            MixtureConfig.from_scattering_lengths(**dict(kw, **{field: mass}))


@pytest.mark.parametrize("m_b, m_f", [(1e-170, 1e-170), (1e300, 1e10)])
def test_scattering_length_factory_needs_a_finite_reduced_mass(m_b, m_f):
    # each mass passes its rule, but m_b m_f underflows to 0 or overflows
    # to inf, and the reduced mass of g_bf = 2 pi hbar^2 a_bf / m_red
    # with it
    with pytest.raises(ConfigError, match="reduced mass of m_b and m_f"):
        MixtureConfig.from_scattering_lengths(
            m_b=m_b, m_f=m_f, omega_b=166.0, omega_f=166.0, N_b=1000.0,
            N_f=100.0, a_bb=1e-9, a_bf=1e-9)


def test_positivity_validation():
    with pytest.raises(ConfigError):
        osc_config(N_b=0.0)
    with pytest.raises(ConfigError):
        osc_config(omega_f=-166.0)
    with pytest.raises(ConfigError):
        osc_config(m_b=-7.0 * atomic_mass)


@pytest.mark.parametrize("unit_system, section, key, value, fields", [
    # a^3 underflows to a subnormal: the volume would be stored as 7.5e-312
    # m^3 and the couplings as 0
    ("oscillator", "boson", "mass_u", 1e200, ("boson.mass", "boson.omega")),
    # omega_b m_b underflows to 0, and a^3 overflows
    ("oscillator", "boson", "omega", 1e-300, ("boson.mass", "boson.omega")),
    ("oscillator", "boson", "omega", 1e-200, None),
    # hbar omega_f underflows to 0 in the coupling unit
    ("oscillator", "fermion", "omega", 1e-300, ("fermion.omega",)),
    # an SI config forms the scales only where a kernel needs them
    ("si", "boson", "mass_u", 1e200, None)])
def test_oscillator_scales_beyond_float_range_name_the_fields(
        unit_system, section, key, value, fields):
    data = {"unit_system": unit_system,
            "boson": {"mass_u": 7.0, "omega": 166.0, "count": 1000},
            "fermion": {"mass_u": 7.0, "omega": 166.0, "count": 10000},
            "interaction": {"g_bb": 0.05, "g_bf": 0.0},
            "thermal": {"volume": 1000.0}}
    data[section][key] = value
    if fields is None:
        cfg, _ = config_from_dict(data)
        assert cfg.g_bb > 0.0 and cfg.volume > 0.0
        return
    with pytest.raises(ConfigError, match="beyond float range") as info:
        config_from_dict(data)
    assert all(field in str(info.value) for field in fields)


def test_volume_and_temperature_units():
    cfg = osc_config(volume=1000.0, temperature=2.0)
    assert np.isclose(cfg.volume, 1000.0 * cfg.osc_length ** 3, rtol=1e-14)
    assert np.isclose(cfg.temperature, 2.0 * hbar * 166.0 / k_B, rtol=1e-14)
    with pytest.raises(ConfigError):
        osc_config().require_volume()


@pytest.mark.parametrize("attr", ["volume", "temperature"])
def test_volume_and_temperature_must_be_finite(attr):
    kw = dict(m_b=7.0 * atomic_mass, m_f=7.0 * atomic_mass, omega_b=166.0,
              omega_f=166.0, N_b=1000.0, N_f=100.0, g_bb=0.0, g_bf=0.0,
              volume=1e-15, temperature=1e-7)
    with pytest.raises(ConfigError, match=attr):
        MixtureConfig.from_si(**dict(kw, **{attr: math.inf}))
    with pytest.raises(ConfigError, match=attr):
        MixtureConfig.from_si(**kw).with_field(f"thermal.{attr}", math.inf)


def test_oscillator_conversions_agree():
    # the factory, a scan's field_to_si and the scattering-length branch
    # of the JSON loader share one conversion (at T = 2.5 two roundings of
    # T hbar omega_f / k_B differ by 1 ulp)
    cfg = osc_config(volume=1000.0, temperature=2.5)
    for path, value in (("interaction.g_bb", 0.05), ("interaction.g_bf", 0.02),
                        ("thermal.volume", 1000.0),
                        ("thermal.temperature", 2.5)):
        attr = path.split(".")[1]
        assert getattr(cfg, attr) == cfg.field_to_si(path, value)
    data = dict(BASE_JSON, interaction={"a_bb": 1e-9, "a_bf": 2e-9},
                thermal={"volume": 1000.0, "temperature": 2.5})
    from_a, _ = config_from_dict(data)
    assert from_a.unit_system is UnitSystem.OSCILLATOR
    assert from_a.volume == from_a.field_to_si("thermal.volume", 1000.0)
    assert from_a.temperature == cfg.temperature


def test_with_field_and_field_to_si():
    cfg = osc_config()
    si_value = cfg.field_to_si("interaction.g_bb", 0.10)
    assert np.isclose(si_value, 0.10 * cfg.coupling_unit, rtol=1e-14)
    cfg2 = cfg.with_field("interaction.g_bb", si_value)
    assert np.isclose(cfg2.g_bb, si_value, rtol=1e-15)
    assert cfg2.g_bf == cfg.g_bf
    with pytest.raises(ConfigError):
        cfg.with_field("interaction.bogus", 1.0)
    with pytest.raises(ConfigError, match="'interaction.bogus'"):
        cfg.field_to_si("interaction.bogus", 1.0)


BASE_JSON = {
    "unit_system": "oscillator",
    "compat_mode": "paper",
    "boson": {"mass_u": 7.0, "omega": 166.0, "count": 1000},
    "fermion": {"mass_u": 7.0, "omega": 166.0, "count": 100},
    "interaction": {"g_bb": 0.05, "g_bf": 0.02, "g_ff": 0.01},
    "thermal": {"volume": 1000.0, "t_range": [0.5, 50.0]},
}


def test_json_round_trip(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(BASE_JSON))
    cfg, extras = load_config(str(path))
    assert cfg.compat_mode is CompatMode.PAPER
    assert cfg.unit_system is UnitSystem.OSCILLATOR
    assert np.isclose(cfg.m_b, 7.0 * atomic_mass, rtol=1e-12)
    assert np.isclose(cfg.g_ff, 0.01 * cfg.coupling_unit, rtol=1e-13)
    lo, hi = extras["t_range"]
    assert np.isclose(lo, 0.5 * cfg.temperature_unit, rtol=1e-13)
    assert np.isclose(hi, 50.0 * cfg.temperature_unit, rtol=1e-13)


def test_unknown_key_rejected_with_path():
    bad = json.loads(json.dumps(BASE_JSON))
    bad["boson"]["masss"] = 7.0
    with pytest.raises(ConfigError, match="boson.masss"):
        config_from_dict(bad)
    bad2 = json.loads(json.dumps(BASE_JSON))
    bad2["gravity"] = 9.8
    with pytest.raises(ConfigError, match="gravity"):
        config_from_dict(bad2)


def test_missing_mass_names_field_path():
    bad = json.loads(json.dumps(BASE_JSON))
    del bad["boson"]["mass_u"]
    with pytest.raises(ConfigError, match="boson.mass"):
        config_from_dict(bad)


def test_coupling_families_are_exclusive():
    bad = json.loads(json.dumps(BASE_JSON))
    bad["interaction"]["a_bb"] = 1e-9
    with pytest.raises(ConfigError, match="exactly one family"):
        config_from_dict(bad)
    neither = json.loads(json.dumps(BASE_JSON))
    neither["interaction"] = {}
    with pytest.raises(ConfigError):
        config_from_dict(neither)


def test_si_scattering_length_config():
    data = {
        "unit_system": "si",
        "boson": {"mass_u": 7.0, "omega": 166.0, "count": 1000},
        "fermion": {"mass_u": 7.0, "omega": 166.0, "count": 100},
        "interaction": {"a_bb": -1.45e-9, "a_bf": 0.0},
    }
    cfg, _ = config_from_dict(data)
    assert cfg.g_bb < 0
    assert cfg.compat_mode is CompatMode.DERIVED  # default
    assert cfg.g_ff == 0.0


def test_si_coupling_config_equals_from_si():
    # couplings in J m^3, volume in m^3 and temperature in K, as given
    g = dict(g_bb=3.1e-51, g_bf=-1.7e-51, g_ff=4.0e-52)
    data = {
        "unit_system": "si",
        "boson": {"mass_kg": 7.0 * atomic_mass, "omega": 166.0,
                  "count": 1000},
        "fermion": {"mass_u": 6.0, "omega": 200.0, "count": 100},
        "interaction": g,
        "thermal": {"volume": 1e-15, "temperature": 1e-7},
    }
    cfg, _ = config_from_dict(data)
    assert cfg == MixtureConfig.from_si(
        m_b=7.0 * atomic_mass, m_f=6.0 * atomic_mass, omega_b=166.0,
        omega_f=200.0, N_b=1000.0, N_f=100.0, volume=1e-15,
        temperature=1e-7, **g)
    assert cfg.unit_system is UnitSystem.SI


def test_config_root_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(ConfigError, match="config root must be an object"):
        load_config(str(path))


def test_bad_t_range_rejected():
    bad = json.loads(json.dumps(BASE_JSON))
    bad["thermal"]["t_range"] = [5.0, 1.0]
    with pytest.raises(ConfigError, match="t_range"):
        config_from_dict(bad)


def test_null_optional_field_is_unset():
    data = json.loads(json.dumps(BASE_JSON))
    data["thermal"] = {"volume": None, "temperature": None, "t_range": None}
    data["interaction"]["g_ff"] = None
    cfg, extras = config_from_dict(data)
    assert cfg.volume is None and cfg.temperature is None
    assert extras["t_range"] is None
    assert cfg.g_ff == 0.0
    bad = json.loads(json.dumps(BASE_JSON))
    bad["interaction"]["g_bb"] = None
    with pytest.raises(ConfigError, match="interaction.g_bb"):
        config_from_dict(bad)


SI_KW = dict(m_b=7.0 * atomic_mass, m_f=6.0 * atomic_mass, omega_b=166.0,
             omega_f=166.0, N_b=1000.0, N_f=100.0, g_bb=1e-51, g_bf=0.0,
             volume=1e-15, temperature=1e-7)


@pytest.mark.parametrize("field, value", [
    ("N_b", True), ("g_bf", False), ("m_f", "7"), ("volume", "x"),
    ("temperature", "1e-7"), ("N_f", 10 ** 400), ("g_bb", -10 ** 400),
], ids=["bool", "false", "str", "str-volume", "str-temperature",
        "big-int", "big-negative-int"])
def test_non_numbers_rejected_naming_the_field(field, value):
    # a bool is no count, a string no mass, and an int beyond float range
    # no coupling: each is a ConfigError naming the field
    with pytest.raises(ConfigError, match=field):
        MixtureConfig(**dict(SI_KW, **{field: value}))


def test_replace_checks_what_it_changes():
    # replace checks only the fields it changes, each as construction
    # does: the same rejections, and ints and numpy scalars stored as
    # floats
    cfg = MixtureConfig(**SI_KW)
    for field, value in (("N_b", True), ("g_bf", math.inf), ("m_f", "7"),
                         ("volume", 0.0), ("temperature", -1e-7),
                         ("g_bb", -10 ** 400), ("omega_b", math.nan)):
        with pytest.raises(ConfigError, match=field):
            cfg.replace(**{field: value})
    for field in cfg._fields[:11]:
        for value in (2, np.float64(3.0)):
            copy = cfg.replace(**{field: value})
            assert copy == MixtureConfig(**dict(SI_KW, **{field: value}))
            assert all(type(v) is float for v in copy[:11])
    assert cfg.replace(volume=None, temperature=None) == MixtureConfig(
        **dict(SI_KW, volume=None, temperature=None))
    assert cfg.replace(compat_mode=CompatMode.PAPER) == MixtureConfig(
        **dict(SI_KW, compat_mode=CompatMode.PAPER))
    # so every other way to a copy checks every field
    with pytest.raises(ConfigError, match="N_b"):
        cfg._replace(N_b=-1.0)
    with pytest.raises(ConfigError, match="g_bb"):
        MixtureConfig._make((*cfg[:6], "x", *cfg[7:]))
    assert MixtureConfig._make(cfg) == cfg


def test_integer_past_the_digit_limit_rejected_naming_the_field():
    # its message must not print the int: past 4,300 digits str() raises
    with pytest.raises(ConfigError, match="N_b"):
        MixtureConfig(**dict(SI_KW, N_b=10 ** 5000))


def test_numbers_stored_as_builtin_floats():
    # ints and numpy scalars are stored as floats, so the solvers never
    # meet numpy bools; provenance prints ints and floats alike
    cfg = MixtureConfig(**dict(SI_KW, N_b=1000, N_f=np.float64(100.0),
                               g_bf=np.float64(-1e-52), volume=1))
    for value in cfg[:11]:
        assert type(value) is float
    assert cfg == MixtureConfig(**dict(SI_KW, g_bf=-1e-52, volume=1.0))


def test_config_record_contract():
    cfg = MixtureConfig(**SI_KW)
    with pytest.raises(AttributeError):
        cfg.N_b = 2.0
    with pytest.raises(AttributeError):
        cfg.extra = 1.0
    # replace goes back through the checks; an unknown name raises
    with pytest.raises(ConfigError, match="N_b"):
        cfg.replace(N_b=-1.0)
    with pytest.raises(TypeError, match="bogus"):
        cfg.replace(bogus=1.0)
    copy = cfg.replace(N_b=2000)
    assert copy.N_b == 2000.0 and type(copy.N_b) is float
    assert copy.replace(N_b=1000.0) == cfg
    assert hash(copy.replace(N_b=1000.0)) == hash(cfg)
    assert cfg.replace() == cfg
    assert repr(cfg).startswith("MixtureConfig(m_b=")
    assert "compat_mode=<CompatMode.DERIVED: 'derived'>" in repr(cfg)


def test_result_records_are_immutable():
    from bfmix.finite_temperature import (
        critical_window, stability_matrix, thermal_state)
    from bfmix.scan_engine import ScanTable, figure_preset
    from bfmix.thomas_fermi import tf_profiles
    from bfmix.zero_temperature import classify_zero_T, solve_omega_c

    cfg = MixtureConfig(**dict(SI_KW, g_bf=1e-52))
    state = thermal_state(cfg, cfg.temperature)
    records = [state, state.z_b, stability_matrix(state, cfg),
               critical_window(cfg, (1e-8, 1e-6)), solve_omega_c(cfg),
               classify_zero_T(cfg), tf_profiles(cfg), figure_preset("fig1"),
               ScanTable(columns=("Z",), rows=((1.0,),), provenance=())]
    for record in records:
        name = type(record).__name__
        assert repr(record).startswith(f"{name}({record._fields[0]}=")
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
