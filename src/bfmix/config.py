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

The table record every command writes, its provenance block and the
preset tags live here too, so that the command line reaches them without
loading the scan engine.
"""

import enum
import math
import sys
from collections import namedtuple

from . import __version__
from .constants import hbar, k_B, atomic_mass
from .errors import ConfigError

__all__ = [
    "UnitSystem", "CompatMode", "MixtureConfig", "load_config",
    "config_from_dict", "ScanTable", "provenance", "PRESET_TAGS",
]

# the figure presets, the keys of scan_engine._PRESETS in sorted order
PRESET_TAGS = ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5")

ScanTable = namedtuple("ScanTable", "columns rows provenance")


class UnitSystem(enum.Enum):
    OSCILLATOR = "oscillator"
    SI = "si"


class CompatMode(enum.Enum):
    PAPER = "paper"
    DERIVED = "derived"


# what each field of a MixtureConfig must be, in field order: a number
# of the rule, or, for the unit system and the mode, anything
_RULES = (6 * ("strictly positive",) + 3 * ("a finite real",)
          + 2 * ("positive and finite",) + 2 * (None,))


def _checked(name, value, rule):
    """value as stored in the field name of rule: a number as a builtin
    float, an unset volume or temperature as None.  A value the rule
    rejects is a ConfigError naming the field both ways."""
    if rule is None:
        return value
    number = value if type(value) is float else _as_float(value)
    if value is None and rule == "positive and finite":
        return None
    if not (math.isfinite(number)
            and (number > 0 or rule == "a finite real")):
        path = next(p for p, attr in _FIELD_PATHS.items() if attr == name)
        raise ConfigError(f"{name} must be {rule}, got {_shown(value)} "
                          f"(config field '{path}')")
    return number


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
    float; ``replace`` checks the fields it changes the same way."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raw = super().__new__(cls, *args, **kwargs)
        return tuple.__new__(cls, map(_checked, cls._fields, raw, _RULES))

    def replace(self, **changes):
        """A copy with the named fields changed, each checked as on
        construction; every other field was checked when self was built.
        An unknown field name raises TypeError."""
        fields = list(self)
        for name, value in changes.items():
            i = _INDEX.get(name)
            if i is None:
                raise TypeError(f"unknown MixtureConfig fields "
                                f"{sorted(changes.keys() - _INDEX.keys())}")
            fields[i] = _checked(name, value, _RULES[i])
        return tuple.__new__(MixtureConfig, fields)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _replace builds its copy here, so it checks every
        # field too: replace relies on every config having been checked
        return cls(*iterable)

    # oscillator-unit conversion anchors
    @property
    def osc_length(self):
        """Boson oscillator length a = sqrt(hbar / (omega_b m_b)).  A
        ConfigError names boson.mass and boson.omega when a^3, the unit
        of the volume, is 0, subnormal or inf."""
        try:
            a = math.sqrt(hbar / (self.omega_b * self.m_b))
            if sys.float_info.min <= a ** 3 < math.inf:
                return a
        except ArithmeticError:  # omega_b m_b is 0, or a^3 overflows
            pass
        raise ConfigError(f"boson.mass = {self.m_b!r} kg and boson.omega = "
                          f"{self.omega_b!r} rad/s put the cube of the "
                          "oscillator length beyond float range")

    @property
    def coupling_unit(self):
        """hbar omega_f a^3, the oscillator unit of the couplings; a
        ConfigError names the fields it is built from when it is 0,
        subnormal or inf."""
        unit = hbar * self.omega_f * self.osc_length ** 3
        if not sys.float_info.min <= unit < math.inf:
            raise ConfigError(
                f"boson.mass, boson.omega and fermion.omega = "
                f"{self.omega_f!r} rad/s put the coupling unit hbar omega_f "
                f"a^3 = {unit!r} J m^3 beyond float range")
        return unit

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
        """Scattering lengths in meters; see _with_lengths."""
        return cls.from_si(m_b, m_f, omega_b, omega_f, N_b, N_f, 0.0, 0.0,
                           0.0, volume, temperature, compat_mode
                           )._with_lengths(a_bb, a_bf, a_ff)

    def _with_lengths(self, a_bb, a_bf, a_ff):
        """Copy with the couplings of the s-wave scattering lengths a_bb,
        a_bf, a_ff in meters, from the checked masses: g = 4 pi hbar^2 a /
        m within a species, g_bf = 2 pi hbar^2 a_bf / m_red across."""
        m_red = self.reduced_mass
        if not 0.0 < m_red < math.inf:  # m_b m_f under- or overflows
            raise ConfigError(
                f"the reduced mass of m_b and m_f must be positive and "
                f"finite, got {m_red!r} from m_b = {self.m_b!r} kg and "
                f"m_f = {self.m_f!r} kg")
        return self.replace(
            g_bb=4.0 * math.pi * hbar ** 2 * a_bb / self.m_b,
            g_bf=2.0 * math.pi * hbar ** 2 * a_bf / m_red,
            g_ff=4.0 * math.pi * hbar ** 2 * a_ff / self.m_f)

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


# the position of each field of a MixtureConfig
_INDEX = {name: i for i, name in enumerate(MixtureConfig._fields)}

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


def provenance(cfg, lines):
    """The provenance block of a table on cfg: the version and mode, the
    table's own lines, then the config echo."""
    lines = [f"bfmix {__version__}", f"mode: {cfg.compat_mode.value}",
             *lines,
             "config: "
             f"m_b={cfg.m_b:.17g} kg, m_f={cfg.m_f:.17g} kg, "
             f"omega_b={cfg.omega_b:.17g} rad/s, "
             f"omega_f={cfg.omega_f:.17g} rad/s, "
             f"N_b={cfg.N_b:.17g}, N_f={cfg.N_f:.17g}",
             "config: "
             f"g_bb={cfg.g_bb:.17g} J m^3, g_bf={cfg.g_bf:.17g} J m^3, "
             f"g_ff={cfg.g_ff:.17g} J m^3"]
    if cfg.volume is not None or cfg.temperature is not None:
        vol = "unset" if cfg.volume is None else f"{cfg.volume:.17g} m^3"
        temp = ("unset" if cfg.temperature is None
                else f"{cfg.temperature:.17g} K")
        lines.append(f"config: volume={vol}, temperature={temp}")
    return tuple(lines)


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


def _t_range(value, where):
    """value, a temperature range [lo, hi] at the config path where, as
    a tuple of floats; each item must be a finite real and 0 < lo < hi."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(
            f"{where} must be [T_lo, T_hi] with 0 < T_lo < T_hi")
    lo, hi = (_finite(value[i], f"{where}[{i}]") for i in range(2))
    if not 0 < lo < hi:
        raise ConfigError(f"{where} must be [T_lo, T_hi] with 0 < T_lo "
                          f"< T_hi, got [{lo}, {hi}]")
    return lo, hi


def _species(mapping, section):
    if not isinstance(mapping, dict):
        raise ConfigError(f"'{section}' must be an object")
    _reject_unknown(mapping, _SPECIES_KEYS, section)
    has_u = "mass_u" in mapping
    has_kg = "mass_kg" in mapping
    if has_u == has_kg:
        raise ConfigError(
            f"exactly one of '{section}.mass_u' or '{section}.mass_kg' required")
    key = "mass_u" if has_u else "mass_kg"
    written = _number(mapping, key, section)
    mass = written * atomic_mass if has_u else written
    if not mass > 0.0:  # the rule of m_b and m_f, named by the key written
        kg = f" u = {mass!r} kg" if written > 0.0 else ""
        raise ConfigError(
            f"m_{section[0]} must be strictly positive, got "
            f"{_shown(mapping[key])}{kg} (config field '{section}.{key}')")
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
        t_range = _t_range(t_range, "thermal.t_range")

    # one config in the input's units, every field checked, then one
    # conversion; scattering lengths are SI meters in either unit system
    family = ("a_bb", "a_bf", "a_ff") if has_a else ("g_bb", "g_bf", "g_ff")
    x_bb, x_bf = (_number(inter, key, "interaction") for key in family[:2])
    x_ff = _number(inter, family[2], "interaction", default=0.0)
    cfg = MixtureConfig(m_b, m_f, omega_b, omega_f, N_b, N_f,
                        *((0.0, 0.0, 0.0) if has_a else (x_bb, x_bf, x_ff)),
                        volume, temperature, unit_system, compat_mode)
    if has_a:
        cfg = cfg._with_lengths(x_bb, x_bf, x_ff)
    cfg = cfg._inputs_to_si((() if has_a else family)
                            + ("volume", "temperature"))

    if t_range is not None:
        t_range = tuple(cfg.field_to_si("thermal.temperature", T)
                        for T in t_range)
    extras = {"t_range": t_range, "scan": data.get("scan")}
    return cfg, extras


def _json_int(text):
    # past 400 characters an integer is beyond float range: as inf,
    # _finite rejects it, and it never meets int()'s digit limit
    return float(text) if len(text) > 400 else int(text)


class _JsonSettings:
    """The decoder settings of json.loads(text, parse_int=_json_int), as
    the C scanner reads them."""
    strict = True
    object_hook = object_pairs_hook = None
    parse_float = float
    parse_int = _json_int
    parse_constant = {"-Infinity": -math.inf, "Infinity": math.inf,
                      "NaN": math.nan}.__getitem__


_JSON_SPACE = " \t\n\r"


def _parse_json(text, path):
    """text parsed as json.loads(text, parse_int=_json_int) parses it,
    by the C scanner json.loads runs, without loading the json package
    and its regular expressions.  Whatever the scanner does not read as
    one document takes json.loads, whose errors and messages stand."""
    try:
        from _json import make_scanner
        start = len(text) - len(text.lstrip(_JSON_SPACE))
        data, end = make_scanner(_JsonSettings)(text, start)
        if not text[end:].lstrip(_JSON_SPACE):
            return data
    except Exception:
        # without json.decoder loaded, the scanner reports a syntax error
        # as a SystemError; json.loads raises the error the text deserves
        pass
    import json
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc


def load_config(path):
    """Parse a JSON config file into (MixtureConfig, extras)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    return config_from_dict(_parse_json(text, path))
