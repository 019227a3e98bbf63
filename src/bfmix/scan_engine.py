"""Deterministic parameter sweeps and the figure presets.

A scan varies one or two dotted config fields over fixed grids and
tabulates a named observable at every point, and each row carries a
per-point status instead of failing the whole sweep.  The points that
differ only in the couplings an observable takes per point share one
config and one build of the observable on it (a boson solve, a thermal
state); the rows are those of one config per point, in grid order.
"""

import itertools
import math
from collections import namedtuple

from .config import (
    _FIELD_PATHS, PRESET_TAGS, CompatMode, MixtureConfig, ScanTable,
    _finite, _t_range, provenance)
from .constants import atomic_mass
from .errors import ConfigError, DomainError, NumericError
from .finite_temperature import (
    _determinant,
    _log_grid,
    _parts,
    critical_window,
    fermi_temperature,
    thermal_state,
)
from .thomas_fermi import classify_tf_regime
from .zero_temperature import (
    _Omega_c_solver,
    _zero_T_classifier,
    solve_omega_c,
)

# ScanTable, provenance and PRESET_TAGS live in config, where the command
# line reaches them without loading this module; they are exported here too
__all__ = ["ScanRange", "ScanSpec", "ScanTable", "run_scan",
           "figure_preset", "scan_spec_from_dict", "provenance",
           "OBSERVABLES", "PRESET_TAGS", "MAX_SCAN_POINTS"]

# the most grid points one axis, or the product of two, may hold; a
# larger scan is refused before its grid is allocated
MAX_SCAN_POINTS = 1_000_000

# CSV column of each sweepable field: its MixtureConfig attribute, with
# the two thermal fields shortened
_COLUMN_NAMES = {path: {"volume": "V", "temperature": "T"}.get(attr, attr)
                 for path, attr in _FIELD_PATHS.items()}

_T_FIELD = "thermal.temperature"


class ScanRange(namedtuple("ScanRange",
                           "field start stop points scale values",
                           defaults=(None, None, None, "linear", None))):
    """Grid over one dotted config field, in the input units of the base
    config.  Either from/to/points/scale or an explicit values tuple."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        field, start, stop, points, scale, values = super().__new__(
            cls, *args, **kwargs)
        if not isinstance(field, str) or field not in _COLUMN_NAMES:
            raise ConfigError(f"unknown scan field '{field}'")
        where = f"scan.{field}"
        # a count given beside values must still be one
        if ((values is None or points is not None)
                and (type(points) is not int
                     or not 2 <= points <= MAX_SCAN_POINTS)):
            raise ConfigError(f"config field '{where}.points' must be an "
                              f"integer from 2 to {MAX_SCAN_POINTS}, got "
                              f"{points!r}")
        if values is not None:
            values = tuple(_finite(v, f"{where}.values[{j}]")
                           for j, v in enumerate(values))
            if not values:
                raise ConfigError(f"{where}: empty values list")
        else:
            start, stop = (None if value is None else
                           _finite(value, f"{where}.{key}")
                           for key, value in (("from", start), ("to", stop)))
            if start is None or stop is None or start == stop:
                raise ConfigError(
                    f"{where}: need from != to, got [{start}, {stop}]")
            if scale not in ("linear", "log"):
                raise ConfigError(
                    f"{where}: scale must be linear or log, got '{scale}'")
            if scale == "log" and (start <= 0 or stop <= 0):
                raise ConfigError(
                    f"{where}: log scale needs positive endpoints")
        return tuple.__new__(cls, (field, start, stop, points, scale, values))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _replace builds its copy here: check it as above
        return cls(*iterable)

    def size(self):
        return len(self.values) if self.values is not None else self.points

    def grid(self):
        """The grid as a list of floats, both ends exact."""
        if self.values is not None:
            return list(self.values)
        if self.scale == "log":
            return _log_grid(self.start, self.stop, self.points)
        step = (self.stop - self.start) / (self.points - 1)
        return ([self.start + i * step for i in range(self.points - 1)]
                + [self.stop])


class ScanSpec(namedtuple("ScanSpec", (
        "base",             # MixtureConfig
        "variables",        # tuple of one or two ScanRange
        "observable",
        "preset",
        "t_range",          # (lo, hi) input units, for T_c1/T_c2
        "caption_fixed",    # provenance: pinned by the figure
        "reproduction",     # provenance: our choices
), defaults=(None, None, (), ()))):
    """One or two swept fields, an observable, and the base config."""
    __slots__ = ()


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------
#
# Each observable is name -> (fast, build, unit).  fast names the couplings
# it takes per point: the points that differ only in them form a group,
# whose config is the base with every other swept field set.  build(cfg,
# T_range) returns (parts, combine) on a group's config, with T_range the
# window range in K: parts[k] maps a value [J m^3] of the coupling fast[k]
# to an operand, and combine(*operands) gives the observable at one point.
# unit is the observable's, as the provenance names it.

def _omega_c(cfg, T_range):
    omega_c = solve_omega_c(cfg).omega_c
    return (float,), lambda g_bf: omega_c


def _Omega_c(cfg, T_range):
    # the fully coupled width, which is what the frequency figure plots
    return (float,), _Omega_c_solver(solve_omega_c(cfg).omega_c, cfg)


def _classified(value_of):
    """The builder of value_of(result, y1 y2) of the zero-T record."""
    def build(cfg, T_range):
        _, classify = _zero_T_classifier(cfg)
        return (float,), lambda g_bf: value_of(*classify(g_bf))
    return build


def _regime(cfg, T_range):
    return (), lambda: classify_tf_regime(cfg).value


def _Z(cfg, T_range):
    # no coupling moves the state; each part is the entry its coupling
    # moves
    state = thermal_state(cfg, cfg.temperature)
    return _parts(cfg, state.lambda_b, state.lambda_f, state.z_b.ln_z,
                  state.z_f.ln_z), _determinant


def _window_edge(edge):
    """The builder of one edge of critical_window over T_range, nan where
    there is none."""
    def build(cfg, T_range):
        T = getattr(critical_window(cfg, T_range), edge)
        return (), lambda: math.nan if T is None else T
    return build


OBSERVABLES = {
    "omega_c": (("g_bf",), _omega_c, "rad/s"),
    "Omega_c": (("g_bf",), _Omega_c, "rad/s"),
    # sign_Y is that of y1 y2, which holds where SI Y underflows to 0
    "Y": (("g_bf",), _classified(
        lambda result, y: (result.Y, float((y > 0.0) - (y < 0.0)))),
          "J^2 (sign-bearing)"),
    "r_fc": (("g_bf",), _classified(lambda result, y: result.r_fc), "m"),
    "phase": (("g_bf",), _classified(
        lambda result, y: result.phase.value), "label"),
    "regime": ((), _regime, "label"),
    "Z": (("g_bb", "g_ff", "g_bf"), _Z, "m^6"),
    "T_c1": ((), _window_edge("T_c1"), "K"),
    "T_c2": ((), _window_edge("T_c2"), "K"),
}


def _validate(spec):
    if not isinstance(spec.base, MixtureConfig):
        raise ConfigError("scan base must be a MixtureConfig")
    if spec.observable not in OBSERVABLES:
        raise ConfigError(
            f"unknown observable '{spec.observable}'; expected one of "
            f"{sorted(OBSERVABLES)}")
    if len(spec.variables) not in (1, 2):
        raise ConfigError("a scan sweeps one or two fields")
    seen = set()
    for rng in spec.variables:
        if not isinstance(rng, ScanRange):
            raise ConfigError("scan variables must be ScanRange instances")
        if rng.field in seen:
            raise ConfigError(f"field '{rng.field}' swept twice")
        seen.add(rng.field)
    sizes = [rng.size() for rng in spec.variables]
    if math.prod(sizes) > MAX_SCAN_POINTS:
        where = " x ".join(f"'scan.variables[{i}]' ({rng.field})"
                           for i, rng in enumerate(spec.variables))
        raise ConfigError(
            f"the scan grid over {where} has "
            f"{' x '.join(map(str, sizes))} points, more than "
            f"{MAX_SCAN_POINTS}")
    if spec.t_range is not None:
        _t_range(spec.t_range, "scan.t_range")
    elif spec.observable in ("T_c1", "T_c2"):
        raise ConfigError("scan.t_range is required for window observables")
    if spec.observable in ("Z", "T_c1", "T_c2") and spec.base.volume is None:
        raise ConfigError(
            "thermal.volume is required for finite-T observables")
    if spec.observable == "Z" and spec.base.temperature is None:
        if all(rng.field != "thermal.temperature" for rng in spec.variables):
            raise ConfigError(
                "the Z observable needs thermal.temperature, either set "
                "in the config or swept")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# what fails one grid point instead of the scan; Python's float overflow
# and division by zero are numeric failures like NumericError
_POINT_FAILURES = (ConfigError, DomainError, NumericError, ArithmeticError)


def _T_over_T_F(cfg):
    """T/T_F of a config, nan where there is no config or no T_F, or T_F
    is 0."""
    if cfg is not None:
        try:
            return cfg.temperature / fermi_temperature(cfg)
        except _POINT_FAILURES:
            pass
    return math.nan


def _grouped(spec, si_grids):
    """(value, status, T/T_F) at every point, in grid order, from the axes
    in SI; T/T_F only with a temperature axis.

    The points that differ only in the observable's fast couplings form
    a group; a fast coupling the scan does not sweep is an axis of one
    value, the base config's, which no group sets.  A group's config,
    the base with every other swept field set, is validated once, and on
    it the observable's build (given the window range in K, converted
    once) and parts run once, with T/T_F; each point then combines its
    operands.  The statuses are those of one config per point: a fast
    coupling that is not finite in SI builds no config (ConfigError,
    T/T_F nan), and a group that builds no config, or whose build or
    parts fail, fails each of its points.
    """
    fast, build, _ = OBSERVABLES[spec.observable]
    attrs = [_FIELD_PATHS[rng.field] for rng in spec.variables]
    # the axes in the order of evaluation: the groups', then the fast ones
    # in the order of fast
    order = sorted(range(len(attrs)), key=lambda i: fast.index(attrs[i])
                   if attrs[i] in fast else -1)
    slow = [i for i in order if attrs[i] not in fast]
    # each fast coupling's values, None where not finite in SI
    si = dict(zip(attrs, si_grids))
    swept = [[g if math.isfinite(g) else None
              for g in si.get(name, [getattr(spec.base, name)])]
             for name in fast]
    T_range = [spec.base.field_to_si(_T_FIELD, T) for T in spec.t_range or ()]
    with_T = "temperature" in attrs
    no_config = (math.nan, "ERROR:ConfigError", math.nan if with_T else None)
    results = []
    for group in itertools.product(*(si_grids[i] for i in slow)):
        cfg = failure = None
        operands = swept
        try:
            cfg = spec.base.replace(**{attrs[i]: v
                                       for i, v in zip(slow, group)})
            parts, combine = build(cfg, T_range)
            operands = [[None if g is None else part(g) for g in values]
                        for part, values in zip(parts, swept)]
        except _POINT_FAILURES as exc:
            failure = f"ERROR:{type(exc).__name__}"
        ratio = _T_over_T_F(cfg) if with_T else None
        for point in itertools.product(*operands):
            if None in point:
                results.append(no_config)
            elif failure:
                results.append((math.nan, failure, ratio))
            else:
                try:
                    results.append((combine(*point), "OK", ratio))
                except _POINT_FAILURES as exc:
                    results.append((math.nan, f"ERROR:{type(exc).__name__}",
                                    ratio))
    if order == [1, 0]:
        # the first axis was evaluated inside the second
        n = len(si_grids[0])
        results = [cell for i in range(n) for cell in results[i::n]]
    return results


def run_scan(spec, workers=None):
    """Evaluate the observable over the full grid.

    Each axis, and the window range, is converted to SI once.  The
    points that differ only in the couplings the observable takes per
    point (g_bf for the zero-T observables; g_bb, g_ff and g_bf for Z;
    none for the rest) share one config, one build of the observable on
    it (a boson solve, a thermal state) and one T/T_F, and each point
    adds only its couplings' share (_grouped); a coupling of those that
    is not swept is one more axis of one value, the base config's.  The
    rows are those of one config per point, in grid order.

    workers is accepted and ignored, so callers that pass a count keep
    working and get the same table.  The points are pure Python and
    hold the interpreter lock, so threads cannot evaluate them faster.
    """
    _validate(spec)
    grids = [rng.grid() for rng in spec.variables]
    fields = [rng.field for rng in spec.variables]
    t = fields.index(_T_FIELD) if _T_FIELD in fields else None
    try:
        units = [spec.base._input_unit(_FIELD_PATHS[f]) for f in fields]
    except _POINT_FAILURES as exc:
        # an input unit beyond float range fails every point's config
        failed = (math.nan, f"ERROR:{type(exc).__name__}", math.nan)
        results = [failed] * math.prod(map(len, grids))
    else:
        # each axis in SI, as field_to_si converts its values
        results = _grouped(spec, [[v * unit for v in grid]
                                  for grid, unit in zip(grids, units)])

    columns = []
    for field in fields:
        columns.append(_COLUMN_NAMES[field])
        if field == _T_FIELD:
            columns.extend(["T_K", "T_over_TF"])
    columns.append(spec.observable)
    if spec.observable == "Y":
        columns.append("sign_Y")
    columns.append("status")

    axes = list(grids)
    if t is not None:
        # one T_K per temperature, shared by the rows at that temperature
        # as their T/T_F is, so that write_csv formats each once
        T_unit = spec.base._input_unit("temperature")
        axes[t] = [(v, v * T_unit) for v in grids[t]]
    rows = []
    for point, (value, status, ratio) in zip(itertools.product(*axes),
                                             results):
        if t is not None:
            point = (*point[:t], *point[t], ratio, *point[t + 1:])
        if spec.observable == "Y":
            # an OK row holds (Y, sign_Y)
            point += value if status == "OK" else (value, math.nan)
        else:
            point += (value,)
        rows.append((*point, status))

    return ScanTable(columns=tuple(columns), rows=tuple(rows),
                     provenance=_provenance(spec))


def _provenance(spec):
    lines = [f"preset: {spec.preset}"] if spec.preset else []
    lines.append(f"observable: {spec.observable} "
                 f"[{OBSERVABLES[spec.observable][2]}]")
    for rng in spec.variables:
        if rng.values is not None:
            desc = "values " + ", ".join(f"{v:g}" for v in rng.values)
        else:
            desc = (f"{rng.scale} grid [{rng.start:g}, {rng.stop:g}], "
                    f"{rng.points} points")
        lines.append(f"sweep: {rng.field} = {desc} (input units)")
    if spec.t_range is not None:
        lines.append(f"window scan range: scan.t_range = "
                     f"[{spec.t_range[0]:g}, {spec.t_range[1]:g}] "
                     f"(input units)")
    if spec.caption_fixed:
        lines.append("fixed by figure definition: "
                     + "; ".join(spec.caption_fixed))
    if spec.reproduction:
        lines.append("reproduction choices: " + "; ".join(spec.reproduction))
    return provenance(spec.base, lines)


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

_SEVEN_U = 7.0 * atomic_mass
_OMEGA = 166.0  # rad/s, the quoted trap frequency read as angular

_MASS_NOTE = "m_b = m_f = 7 u"
_FREQ_NOTE = "frequencies read as angular rad/s"


def _preset_base(mode, N_b, N_f, g_bb, g_bf, g_ff, volume=None):
    return MixtureConfig.from_oscillator(
        m_b=_SEVEN_U, m_f=_SEVEN_U, omega_b=_OMEGA, omega_f=_OMEGA,
        N_b=N_b, N_f=N_f, g_bb=g_bb, g_bf=g_bf, g_ff=g_ff,
        volume=volume, compat_mode=mode)


def _fig1(mode):
    base = _preset_base(mode, N_b=1000.0, N_f=100.0, g_bb=0.0, g_bf=0.0,
                        g_ff=0.0)
    return ScanSpec(
        base=base,
        variables=(ScanRange("interaction.g_bb", 0.0, 0.12, 200),),
        observable="omega_c",
        preset="fig1",
        caption_fixed=("omega_b = 166 rad/s", "N_b = 1000"),
        reproduction=(_MASS_NOTE, _FREQ_NOTE,
                      "g_bb grid [0, 0.12] x 200",
                      "N_f = 100 (inert for omega_c)"))


def _fig2(mode):
    base = _preset_base(mode, N_b=1000.0, N_f=100.0, g_bb=0.05, g_bf=0.0,
                        g_ff=0.0)
    return ScanSpec(
        base=base,
        variables=(ScanRange("boson.count", values=(1000.0, 10000.0)),
                   ScanRange("interaction.g_bf", -0.2, 0.2, 200)),
        observable="Omega_c",
        preset="fig2",
        caption_fixed=("g_bb = 0.05 hbar omega_f a^3", "N_f = 100",
                       "omega_f = 166 rad/s"),
        reproduction=(_MASS_NOTE, _FREQ_NOTE,
                      "N_b in {1000, 10000} (caption leaves both unstated)",
                      "g_bf grid [-0.2, 0.2] x 200"))


def _fig3(tag, N_b, mode):
    base = _preset_base(mode, N_b=N_b, N_f=100.0, g_bb=0.05, g_bf=0.0,
                        g_ff=0.0)
    return ScanSpec(
        base=base,
        variables=(ScanRange("interaction.g_bf", -0.05, 0.05, 200),),
        observable="Y",
        preset=tag,
        caption_fixed=(f"N_b = {N_b:g}", "N_f = 100"),
        reproduction=(_MASS_NOTE, _FREQ_NOTE,
                      "g_bb = 0.05 carried over from the frequency figure",
                      "g_bf grid [-0.05, 0.05] x 200",
                      "sign(Y) emitted alongside Y"))


def _fig4(mode):
    base = _preset_base(mode, N_b=1000.0, N_f=10000.0, g_bb=0.05, g_bf=0.0,
                        g_ff=0.01, volume=1000.0)
    return ScanSpec(
        base=base,
        variables=(ScanRange("interaction.g_bf", values=(0.3, 0.02, 0.01)),
                   ScanRange("thermal.temperature", 0.5, 50.0, 200,
                             scale="log")),
        observable="Z",
        preset="fig4",
        caption_fixed=("N_b = 1000", "N_f = 10000", "g_bb = 0.05",
                       "g_ff = 0.01", "g_bf in {0.3, 0.02, 0.01}"),
        reproduction=(_MASS_NOTE, _FREQ_NOTE,
                      "V = 1000 a^3",
                      "T grid [0.5, 50] hbar omega_f/k_B, 200 log points"))


def _fig5(mode):
    base = _preset_base(mode, N_b=1000.0, N_f=10000.0, g_bb=0.0, g_bf=0.2,
                        g_ff=0.0, volume=1000.0)
    T = 0.1 * fermi_temperature(base)
    base = base.with_field("thermal.temperature", T)
    return ScanSpec(
        base=base,
        variables=(ScanRange("interaction.g_bb", 0.0, 0.1, 100),
                   ScanRange("interaction.g_ff", 0.0, 0.1, 100)),
        observable="Z",
        preset="fig5",
        caption_fixed=("T = 0.1 T_F", "g_bf = 0.2"),
        reproduction=(_MASS_NOTE, _FREQ_NOTE,
                      "N_b = 1000, N_f = 10000 carried over",
                      "V = 1000 a^3",
                      "(g_bb, g_ff) grid [0, 0.1]^2 x 100x100"))


# the maker of each figure, given the compat mode to build it in;
# config.PRESET_TAGS lists these keys, sorted
_PRESETS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3a": lambda mode: _fig3("fig3a", 1000.0, mode),
    "fig3b": lambda mode: _fig3("fig3b", 10000.0, mode),
    "fig4": _fig4,
    "fig5": _fig5,
}


def figure_preset(tag, mode=CompatMode.PAPER):
    """The fully populated ScanSpec behind one figure, built in mode:
    fig5's T = 0.1 T_F takes that mode's T_F."""
    maker = _PRESETS.get(tag)
    if maker is None:
        raise ConfigError(
            f"unknown preset '{tag}'; expected one of {PRESET_TAGS}")
    return maker(mode)


def scan_spec_from_dict(base, mapping):
    """Build a ScanSpec from the 'scan' section of a parsed config."""
    if not isinstance(mapping, dict):
        raise ConfigError("'scan' must be an object")
    unknown = set(mapping) - {"variables", "observable", "t_range"}
    if unknown:
        raise ConfigError(f"unknown scan keys: {sorted(unknown)}")
    observable = mapping.get("observable")
    if not isinstance(observable, str):
        raise ConfigError("scan.observable must be a string")
    raw_vars = mapping.get("variables")
    if not isinstance(raw_vars, list) or not 1 <= len(raw_vars) <= 2:
        raise ConfigError("scan.variables must be a list of one or two "
                          "entries")
    variables = []
    for i, entry in enumerate(raw_vars):
        where = f"scan.variables[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError("each scan variable must be an object")
        unknown = set(entry) - {"field", "from", "to", "points", "scale",
                                "values"}
        if unknown:
            raise ConfigError(
                f"unknown scan variable keys: {sorted(unknown)}")
        values = entry.get("values")
        if "values" in entry and not isinstance(values, list):
            raise ConfigError(f"config field '{where}.values' must be a list")
        start, stop = (_finite(entry[key], f"{where}.{key}")
                       if key in entry else None for key in ("from", "to"))
        try:
            variables.append(ScanRange(
                field=entry.get("field"), start=start, stop=stop,
                points=entry.get("points"),
                scale=entry.get("scale", "linear"), values=values))
        except ConfigError as exc:
            # ScanRange names the entry by its field; name it by index
            raise ConfigError(
                str(exc).replace(f"scan.{entry.get('field')}", where)) from None
    t_range = mapping.get("t_range")
    if t_range is not None:
        t_range = _t_range(t_range, "scan.t_range")
    spec = ScanSpec(base=base, variables=tuple(variables),
                    observable=observable, t_range=t_range)
    _validate(spec)
    return spec
