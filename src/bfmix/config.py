"""Mixture configuration: one immutable record, SI units internally.

Two input unit systems are accepted:

* ``si``          masses kg (or atomic units via mass_u), trap angular
                  frequencies rad/s, couplings J m^3 (or scattering
                  lengths in meters), volume m^3, temperature K.
* ``oscillator``  couplings in hbar*omega_f*a^3 where a = sqrt(hbar /
                  (omega_b m_b)) is the boson oscillator length, volume
                  in a^3, temperature in hbar*omega_f/k_B.  Frequencies
                  are rad/s in both systems, masses via mass_u/mass_kg.

Whatever the input system, a MixtureConfig always stores SI values; the
unit_system field only records how the input was expressed (and sets the
units of values swept by the scan engine).

compat_mode selects between the two published sets of prefactors for the
energy functionals (see zero_temperature); Derived is the default.
"""

import enum
import math
from collections import namedtuple

from .constants import hbar, k_B, atomic_mass
from .errors import ConfigError

__all__ = [
    "UnitSystem", "CompatMode", "MixtureConfig", "load_config",
    "config_from_dict",
]


class UnitSystem(enum.Enum):
    OSCILLATOR = "oscillator"
    SI = "si"


class CompatMode(enum.Enum):
    PAPER = "paper"
    DERIVED = "derived"


# what each number of a MixtureConfig must be, in field order
_RULES = (6 * ("strictly positive",) + 3 * ("a finite real",)
          + 2 * ("positive and finite",))


class MixtureConfig(namedtuple("MixtureConfig", (
        "m_b",          # boson mass [kg]
        "m_f",          # fermion mass [kg]
        "omega_b",      # boson trap frequency [rad/s]
        "omega_f",      # fermion trap frequency [rad/s]
        "N_b",          # boson count
        "N_f",          # fermion count
        "g_bb",         # boson-boson coupling [J m^3]
        "g_bf",         # boson-fermion coupling [J m^3]
        "g_ff",         # fermion-fermion coupling [J m^3], default 0
        "volume",       # homogeneous volume [m^3], finite-T only
        "temperature",  # default temperature [K], finite-T only
        "unit_system",
        "compat_mode",
), defaults=(0.0, None, None, UnitSystem.SI, CompatMode.DERIVED))):
    """All physical parameters of one Bose-Fermi mixture, in SI.

    Every number is checked on construction and stored as a builtin
    float; ``replace`` builds a copy through the same checks."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raw = super().__new__(cls, *args, **kwargs)
        numbers = []
        for name, value, rule in zip(cls._fields, raw, _RULES):
            number = value if type(value) is float else _as_float(value)
            if value is None and rule == "positive and finite":
                number = None  # volume or temperature unset
            elif not (math.isfinite(number)
                      and (number > 0 or rule == "a finite real")):
                raise ConfigError(f"{name} must be {rule}, got "
                                  f"{_shown(value)}")
            numbers.append(number)
        return tuple.__new__(cls, (*numbers, *raw[11:]))

    def replace(self, **changes):
        """A copy with the named fields changed, checked as on
        construction; an unknown field name raises TypeError."""
        copy = MixtureConfig(*map(changes.pop, self._fields, self))
        if changes:
            raise TypeError(f"unknown MixtureConfig fields {sorted(changes)}")
        return copy

    # oscillator-unit conversion anchors
    @property
    def osc_length(self):
        """Boson oscillator length a = sqrt(hbar / (omega_b m_b))."""
        return math.sqrt(hbar / (self.omega_b * self.m_b))

    @property
    def coupling_unit(self):
        """hbar omega_f a^3, the oscillator unit of the couplings."""
        return hbar * self.omega_f * self.osc_length ** 3

    @property
    def temperature_unit(self):
        """hbar omega_f / k_B, the oscillator unit of temperature."""
        return hbar * self.omega_f / k_B

    @property
    def reduced_mass(self):
        return self.m_b * self.m_f / (self.m_b + self.m_f)

    def require_volume(self):
        if self.volume is None:
            raise ConfigError(
                "thermal.volume is required for homogeneous finite-T analysis")
        return self.volume

    # ---- factories -------------------------------------------------

    @classmethod
    def from_si(cls, m_b, m_f, omega_b, omega_f, N_b, N_f,
                g_bb, g_bf, g_ff=0.0, volume=None, temperature=None,
                compat_mode=CompatMode.DERIVED):
        return cls(m_b=m_b, m_f=m_f, omega_b=omega_b, omega_f=omega_f,
                   N_b=N_b, N_f=N_f, g_bb=g_bb, g_bf=g_bf, g_ff=g_ff,
                   volume=volume, temperature=temperature,
                   unit_system=UnitSystem.SI, compat_mode=compat_mode)

    @classmethod
    def from_oscillator(cls, m_b, m_f, omega_b, omega_f, N_b, N_f,
                        g_bb, g_bf, g_ff=0.0, volume=None, temperature=None,
                        compat_mode=CompatMode.DERIVED):
        """Couplings in hbar omega_f a^3, volume in a^3, temperature in
        hbar omega_f / k_B; masses in kg, frequencies in rad/s."""
        raw = cls(m_b=m_b, m_f=m_f, omega_b=omega_b, omega_f=omega_f,
                  N_b=N_b, N_f=N_f, g_bb=g_bb, g_bf=g_bf, g_ff=g_ff,
                  volume=volume, temperature=temperature,
                  unit_system=UnitSystem.OSCILLATOR, compat_mode=compat_mode)
        return raw._inputs_to_si(
            ("g_bb", "g_bf", "g_ff", "volume", "temperature"))

    @classmethod
    def from_scattering_lengths(cls, m_b, m_f, omega_b, omega_f, N_b, N_f,
                                a_bb, a_bf, a_ff=0.0, volume=None,
                                temperature=None,
                                compat_mode=CompatMode.DERIVED):
        """Scattering lengths in meters; g = 4 pi hbar^2 a / m within a
        species, g_bf = 2 pi hbar^2 a_bf / m_red across species."""
        m_red = m_b * m_f / (m_b + m_f)
        return cls(m_b=m_b, m_f=m_f, omega_b=omega_b, omega_f=omega_f,
                   N_b=N_b, N_f=N_f,
                   g_bb=4.0 * math.pi * hbar ** 2 * a_bb / m_b,
                   g_bf=2.0 * math.pi * hbar ** 2 * a_bf / m_red,
                   g_ff=4.0 * math.pi * hbar ** 2 * a_ff / m_f,
                   volume=volume, temperature=temperature,
                   unit_system=UnitSystem.SI, compat_mode=compat_mode)

    # ---- field paths for scans and error messages -------------------

    def with_field(self, path, value_si):
        """Return a copy with one dotted config field replaced (SI value)."""
        attr = _FIELD_PATHS.get(path)
        if attr is None:
            raise ConfigError(f"unknown config field path '{path}'")
        return self.replace(**{attr: value_si})

    def field_to_si(self, path, value_input):
        """Convert a value of the dotted field from this config's input
        unit system to SI."""
        attr = _FIELD_PATHS.get(path)
        if attr is None:
            raise ConfigError(f"unknown config field path '{path}'")
        return float(value_input) * self._input_unit(attr)

    def _input_unit(self, attr):
        """SI size of one input unit of the attribute attr: the
        oscillator unit of a coupling, the volume or the temperature in
        an oscillator-unit config, else 1."""
        if self.unit_system is UnitSystem.OSCILLATOR:
            if attr in ("g_bb", "g_bf", "g_ff"):
                return self.coupling_unit
            if attr == "volume":
                return self.osc_length ** 3
            if attr == "temperature":
                return self.temperature_unit
        return 1.0

    def _inputs_to_si(self, attrs):
        """Copy with the named attributes, which hold values in this
        config's input units, converted to SI; unset ones stay unset."""
        return self.replace(**{
            attr: getattr(self, attr) * self._input_unit(attr)
            for attr in attrs if getattr(self, attr) is not None})


_FIELD_PATHS = {
    "boson.mass": "m_b",
    "boson.omega": "omega_b",
    "boson.count": "N_b",
    "fermion.mass": "m_f",
    "fermion.omega": "omega_f",
    "fermion.count": "N_f",
    "interaction.g_bb": "g_bb",
    "interaction.g_bf": "g_bf",
    "interaction.g_ff": "g_ff",
    "thermal.volume": "volume",
    "thermal.temperature": "temperature",
}


# ---------------------------------------------------------------------------
# JSON config loading (strict schema: unknown keys are rejected by path)
# ---------------------------------------------------------------------------

_SPECIES_KEYS = {"mass_u", "mass_kg", "omega", "count"}
_INTERACTION_KEYS = {"g_bb", "g_bf", "g_ff", "a_bb", "a_bf", "a_ff"}
_THERMAL_KEYS = {"volume", "temperature", "t_range"}
_TOP_KEYS = {"unit_system", "compat_mode", "boson", "fermion",
             "interaction", "thermal", "scan"}


def _reject_unknown(mapping, allowed, section):
    for key in mapping:
        if key not in allowed:
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown config key '{where}'")


def _require(mapping, key, section):
    if key not in mapping:
        raise ConfigError(f"missing config field '{section}.{key}'"
                          if section else f"missing config field '{key}'")
    return mapping[key]


_REQUIRED = object()


def _as_float(value):
    """value as a builtin float; NaN for anything but an int or float (a
    bool is not a number here) and for an int beyond float range."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def _finite(value, field):
    """value as a float if it is a finite real; booleans, strings, null,
    NaN and infinities are rejected naming the field."""
    number = _as_float(value)
    if not math.isfinite(number):
        raise ConfigError(f"config field '{field}' must be a finite "
                          f"number, got {_shown(value)}")
    return number


def _shown(value):
    """repr(value) for a message, but no int beyond float range: past
    4,300 digits, int-to-str raises ValueError."""
    big = type(value) is int and math.isnan(_as_float(value))
    return "an integer beyond float range" if big else repr(value)


def _number(mapping, key, section, default=_REQUIRED):
    """The finite real at mapping[key] as a float.  An optional field
    (one given a ``default``) that is absent or null takes the default;
    a required one is a missing field."""
    if mapping.get(key) is None and default is not _REQUIRED:
        return default
    return _finite(_require(mapping, key, section), f"{section}.{key}")


def _species(mapping, section):
    if not isinstance(mapping, dict):
        raise ConfigError(f"'{section}' must be an object")
    _reject_unknown(mapping, _SPECIES_KEYS, section)
    has_u = "mass_u" in mapping
    has_kg = "mass_kg" in mapping
    if has_u == has_kg:
        raise ConfigError(
            f"exactly one of '{section}.mass_u' or '{section}.mass_kg' required")
    mass = (_number(mapping, "mass_u", section) * atomic_mass if has_u
            else _number(mapping, "mass_kg", section))
    return (mass, _number(mapping, "omega", section),
            _number(mapping, "count", section))


def config_from_dict(data):
    """Build a MixtureConfig from a parsed JSON object (strict schema).

    Returns (config, extras) where extras carries the optional
    'thermal.t_range' and 'scan' sections for the CLI.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(data, _TOP_KEYS, "")

    unit_name = _require(data, "unit_system", "")
    try:
        unit_system = UnitSystem(unit_name)
    except ValueError:
        raise ConfigError(
            f"unit_system must be 'oscillator' or 'si', got {unit_name!r}")
    try:
        compat_mode = CompatMode(data.get("compat_mode", "derived"))
    except ValueError:
        raise ConfigError("compat_mode must be 'paper' or 'derived', "
                          f"got {data['compat_mode']!r}")

    m_b, omega_b, N_b = _species(_require(data, "boson", ""), "boson")
    m_f, omega_f, N_f = _species(_require(data, "fermion", ""), "fermion")

    inter = _require(data, "interaction", "")
    if not isinstance(inter, dict):
        raise ConfigError("'interaction' must be an object")
    _reject_unknown(inter, _INTERACTION_KEYS, "interaction")
    has_g = any(k in inter for k in ("g_bb", "g_bf", "g_ff"))
    has_a = any(k in inter for k in ("a_bb", "a_bf", "a_ff"))
    if has_g == has_a:
        raise ConfigError("interaction requires exactly one family: "
                          "couplings (g_bb, g_bf, g_ff) or scattering "
                          "lengths (a_bb, a_bf, a_ff)")

    thermal = data.get("thermal", {})
    if not isinstance(thermal, dict):
        raise ConfigError("'thermal' must be an object")
    _reject_unknown(thermal, _THERMAL_KEYS, "thermal")
    volume = _number(thermal, "volume", "thermal", default=None)
    temperature = _number(thermal, "temperature", "thermal", default=None)
    t_range = thermal.get("t_range")
    if t_range is not None:
        if not isinstance(t_range, (list, tuple)) or len(t_range) != 2:
            raise ConfigError(
                "thermal.t_range must be [T_lo, T_hi] with 0 < T_lo < T_hi")
        t_range = [_finite(t_range[i], f"thermal.t_range[{i}]")
                   for i in range(2)]
        if not 0 < t_range[0] < t_range[1]:
            raise ConfigError(
                "thermal.t_range must be [T_lo, T_hi] with 0 < T_lo < T_hi")

    common = dict(m_b=m_b, m_f=m_f, omega_b=omega_b, omega_f=omega_f,
                  N_b=N_b, N_f=N_f, volume=volume, temperature=temperature,
                  compat_mode=compat_mode)
    if has_a:
        # scattering lengths are SI meters in either unit system
        cfg = MixtureConfig.from_scattering_lengths(
            a_bb=_number(inter, "a_bb", "interaction"),
            a_bf=_number(inter, "a_bf", "interaction"),
            a_ff=_number(inter, "a_ff", "interaction", default=0.0),
            **common)
        if unit_system is UnitSystem.OSCILLATOR:
            cfg = cfg.replace(unit_system=UnitSystem.OSCILLATOR
                              )._inputs_to_si(("volume", "temperature"))
    else:
        g_bb = _number(inter, "g_bb", "interaction")
        g_bf = _number(inter, "g_bf", "interaction")
        g_ff = _number(inter, "g_ff", "interaction", default=0.0)
        if unit_system is UnitSystem.OSCILLATOR:
            cfg = MixtureConfig.from_oscillator(
                g_bb=g_bb, g_bf=g_bf, g_ff=g_ff, **common)
        else:
            cfg = MixtureConfig.from_si(
                g_bb=g_bb, g_bf=g_bf, g_ff=g_ff, **common)

    t_range_si = None
    if t_range is not None:
        t_range_si = tuple(cfg.field_to_si("thermal.temperature", T)
                           for T in t_range)
    extras = {"t_range": t_range_si, "scan": data.get("scan")}
    return cfg, extras


def load_config(path):
    """Parse a JSON config file into (MixtureConfig, extras)."""
    import json  # here, so that no preset run loads it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    try:
        # past 400 characters an integer is beyond float range: as inf,
        # _finite rejects it, and it never meets int()'s digit limit
        data = json.loads(text, parse_int=lambda text: (
            float(text) if len(text) > 400 else int(text)))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    return config_from_dict(data)
