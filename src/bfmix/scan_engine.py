"""Deterministic parameter sweeps and the figure presets.

A scan varies one or two dotted config fields over fixed grids and
tabulates a named observable at every point, and each row carries a
per-point status instead of failing the whole sweep.  A zero-T scan
solves each trap, the points that differ only in g_bf, once.  A Z scan
whose swept fields are couplings (g_bb, g_bf, g_ff) and/or the
temperature evaluates Z from one thermal state per temperature; every
other scan builds each point's config.  Either way the rows are in grid
order.
"""

import itertools
import math
from collections import namedtuple

from . import __version__
from .config import _FIELD_PATHS, CompatMode, MixtureConfig, _finite
from .constants import atomic_mass
from .errors import ConfigError, DomainError, NumericError
from .finite_temperature import (
    _bose_ideal,
    _entries,
    _fermi_ideal,
    _log_grid,
    critical_window,
    fermi_temperature,
    stability_matrix,
    thermal_state,
)
from .thomas_fermi import classify_tf_regime
from .zero_temperature import (
    _Omega_c_solver,
    _zero_T_classifier,
    solve_omega_c,
)

__all__ = ["ScanRange", "ScanSpec", "ScanTable", "run_scan",
           "figure_preset", "scan_spec_from_dict", "OBSERVABLES",
           "PRESET_TAGS", "MAX_SCAN_POINTS"]

# the most grid points one axis, or the product of two, may hold; a
# larger scan is refused before its grid is allocated
MAX_SCAN_POINTS = 1_000_000

# CSV column of each sweepable field: its MixtureConfig attribute, with
# the two thermal fields shortened
_COLUMN_NAMES = {path: {"volume": "V", "temperature": "T"}.get(attr, attr)
                 for path, attr in _FIELD_PATHS.items()}

_T_FIELD = "thermal.temperature"
_G_BF_FIELD = "interaction.g_bf"

# the fields a Z scan may sweep and still take one thermal state per
# temperature; the entry of stability_entries that each coupling moves
_PLANE_FIELDS = ("interaction.g_bb", "interaction.g_bf",
                 "interaction.g_ff", _T_FIELD)
_ENTRY_OF = {"g_bb": 0, "g_ff": 1, "g_bf": 2}


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
            for key, value in (("from", start), ("to", stop)):
                if value is not None:
                    _finite(value, f"{where}.{key}")
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


ScanTable = namedtuple("ScanTable", "columns rows provenance")


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _trap_omega_c(trap):
    omega_c = solve_omega_c(trap).omega_c
    return lambda g_bf: omega_c


def _trap_Omega_c(trap):
    # the fully coupled width, which is what the frequency figure plots
    return _Omega_c_solver(solve_omega_c(trap).omega_c, trap)


def _classified(value_of):
    """The per-trap form of one field of classify_zero_T's result."""
    def trap_value(trap):
        classify = _zero_T_classifier(trap)
        return lambda g_bf: value_of(classify(g_bf))
    return trap_value


def _obs_regime(cfg, spec):
    return classify_tf_regime(cfg).value


def _obs_Z(cfg, spec):
    if cfg.temperature is None:
        raise ConfigError(
            "thermal.temperature is required for the Z observable")
    return stability_matrix(thermal_state(cfg, cfg.temperature), cfg).Z


def _window_of(cfg, spec):
    lo = spec.base.field_to_si("thermal.temperature", spec.t_range[0])
    hi = spec.base.field_to_si("thermal.temperature", spec.t_range[1])
    return critical_window(cfg, (lo, hi))


def _obs_T_c1(cfg, spec):
    T = _window_of(cfg, spec).T_c1
    return math.nan if T is None else T


def _obs_T_c2(cfg, spec):
    T = _window_of(cfg, spec).T_c2
    return math.nan if T is None else T


# the zero-T observables, evaluated per trap (_trap_grid): each maps a
# trap's config to the observable as a function of g_bf
_TRAP_OBSERVABLES = {
    "omega_c": _trap_omega_c,
    "Omega_c": _trap_Omega_c,
    "Y": _classified(lambda result: result.Y),
    "r_fc": _classified(lambda result: result.r_fc),
    "phase": _classified(lambda result: result.phase.value),
}

# every observable: the zero-T ones, and the rest, which map one point's
# config and the spec to the observable there
OBSERVABLES = {
    **_TRAP_OBSERVABLES,
    "regime": _obs_regime,
    "Z": _obs_Z,
    "T_c1": _obs_T_c1,
    "T_c2": _obs_T_c2,
}

_UNITS = {
    "omega_c": "rad/s", "Omega_c": "rad/s", "Y": "J^2 (sign-bearing)",
    "r_fc": "m", "phase": "label", "regime": "label", "Z": "m^6",
    "T_c1": "K", "T_c2": "K",
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
    if spec.observable in ("T_c1", "T_c2"):
        if spec.t_range is None:
            raise ConfigError(
                "thermal.t_range is required for window observables")
        lo, hi = spec.t_range
        if not (0.0 < lo < hi):
            raise ConfigError(
                f"thermal.t_range must be increasing and positive, got "
                f"[{lo}, {hi}]")
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

def _point_config(spec, assignment):
    """The base config with every swept field set, validated once."""
    return spec.base.replace(**{
        _FIELD_PATHS[rng.field]: spec.base.field_to_si(rng.field, value)
        for rng, value in assignment})


# what fails one grid point instead of the scan; Python's float overflow
# and division by zero are numeric failures like NumericError
_POINT_FAILURES = (ConfigError, DomainError, NumericError, ArithmeticError)


def _fermi_T(cfg):
    """T_F of a point's config, nan where it or T_F cannot be had."""
    if cfg is not None:
        try:
            return fermi_temperature(cfg)
        except _POINT_FAILURES:
            pass
    return math.nan


def _evaluate_point(spec, point, with_T_F):
    """(value, status, T_F) at one point; T_F only when with_T_F."""
    cfg = None
    try:
        cfg = _point_config(spec, zip(spec.variables, point))
        value, status = OBSERVABLES[spec.observable](cfg, spec), "OK"
    except _POINT_FAILURES as exc:
        value, status = math.nan, f"ERROR:{type(exc).__name__}"
    return value, status, _fermi_T(cfg) if with_T_F else None


def _trap_grid(spec, si_grids):
    """(value, status, T_F) at every point of a zero-T scan, in grid
    order, from the axes in SI; T_F only with a temperature axis.
    Points that differ only in interaction.g_bf share one trap: the base
    with every other swept field set, validated once.  On it the
    observable's builder solves the boson and computes every g_bf-free
    coefficient once, and each point adds only its coupling's share,
    with the operations of the per-point functions.  The statuses are
    those of one config per point: a trap or a coupling that builds no
    config is a ConfigError with T_F nan, and a failing builder fails
    every point of its trap.
    """
    build = _TRAP_OBSERVABLES[spec.observable]
    base = spec.base
    with_T_F = any(rng.field == _T_FIELD for rng in spec.variables)
    attrs, trap_grids, couplings = [], [], [base.g_bf]
    for rng, si in zip(spec.variables, si_grids):
        if rng.field == _G_BF_FIELD:
            # None marks a coupling that is not finite in SI
            couplings = [g if math.isfinite(g) else None for g in si]
        else:
            attrs.append(_FIELD_PATHS[rng.field])
            trap_grids.append(si)
    no_config = (math.nan, "ERROR:ConfigError",
                 math.nan if with_T_F else None)
    results = []
    for trap_point in itertools.product(*trap_grids):
        trap = value_at = status = None
        try:
            trap = base.replace(**dict(zip(attrs, trap_point)))
            value_at = build(trap)
        except _POINT_FAILURES as exc:
            status = f"ERROR:{type(exc).__name__}"
        T_F = _fermi_T(trap) if with_T_F else None
        for g in couplings:
            if g is None:
                results.append(no_config)
            elif value_at is None:
                results.append((math.nan, status, T_F))
            else:
                try:
                    results.append((value_at(g), "OK", T_F))
                except _POINT_FAILURES as exc:
                    results.append((math.nan,
                                    f"ERROR:{type(exc).__name__}", T_F))
    if len(si_grids) == 2 and spec.variables[0].field == _G_BF_FIELD:
        # the coupling is the outer axis
        n = len(couplings)
        results = [cell for j in range(n) for cell in results[j::n]]
    return results


def _z_grid(spec, si_grids):
    """(Z, status, T_F) at every point of a Z scan over couplings and/or
    the temperature, in grid order, from the axes in SI: one thermal
    state per temperature, its two ideal terms computed once, and one
    _entries call per coupling value, kept for the entry it moves.  A
    point's Z is bb ff - cross^2, the operations of stability_entries on
    the same operands, so Z is bit for bit the per-point value.  So are
    the statuses: a point that builds no config is a ConfigError, a
    state failure fails the points at its temperature, and a Z that is
    not a number is a NumericError.
    """
    base = spec.base
    attrs = [_FIELD_PATHS[rng.field] for rng in spec.variables]
    si = dict(zip(attrs, si_grids))
    # None marks a coupling that is not finite in SI
    axes = [(attr, [g if math.isfinite(g) else None for g in si[attr]])
            for attr in attrs if attr != "temperature"]
    moved = [_ENTRY_OF[attr] for attr, _ in axes]
    fixed = [k for k in range(3) if k not in moved]
    # where bb, ff and cross sit in a point's moved entries + fixed ones
    bb, ff, cross = ((moved + fixed).index(k) for k in range(3))
    couplings = {"g_bb": base.g_bb, "g_bf": base.g_bf, "g_ff": base.g_ff}
    T_F, no_config = _fermi_T(base), (math.nan, "ERROR:ConfigError", math.nan)

    def cell(e):
        Z = e[bb] * e[ff] - e[cross] * e[cross]
        return ((Z, "OK", T_F) if Z == Z
                else (math.nan, "ERROR:NumericError", T_F))

    planes = []
    for T in si.get("temperature", [base.temperature]):
        entries, failure = [values for _, values in axes], no_config
        if 0.0 < T < math.inf:
            try:
                state = thermal_state(base, T)
                lb, lf = state.lambda_b, state.lambda_f
                terms = {**couplings, "bose_ideal": _bose_ideal(lb, state.z_b),
                         "fermi_ideal": _fermi_ideal(lf, state.z_f)}
                at_base = _entries(base, lb, lf, **terms)
                rest = tuple(at_base[k] for k in fixed)
                entries = [[None if g is None else _entries(
                    base, lb, lf, **{**terms, attr: g})[k] for g in values]
                    for (attr, values), k in zip(axes, moved)]
                failure = None
            except _POINT_FAILURES as exc:
                failure = (math.nan, f"ERROR:{type(exc).__name__}", T_F)
        planes.append([no_config if None in point else failure
                       or cell(point + rest)
                       for point in itertools.product(*entries)])
    if attrs[-1] == "temperature" and len(attrs) == 2:
        planes = zip(*planes)  # the coupling is the outer axis
    return list(itertools.chain.from_iterable(planes))


def run_scan(spec, workers=None):
    """Evaluate the observable over the full grid.

    A zero-T scan solves each trap once, and each point adds only its
    g_bf's share (_trap_grid).  A Z scan that sweeps only couplings and
    the temperature takes one thermal state per temperature, which the
    couplings do not move (_z_grid).  Any other scan builds each point's
    config and evaluates its points one after another.  Every path gives
    the rows of one config per point.

    workers is accepted and ignored, so callers that pass a count keep
    working and get the same table.  The points are pure Python and
    hold the interpreter lock, so threads cannot evaluate them faster.
    """
    _validate(spec)
    grids = [rng.grid() for rng in spec.variables]
    fields = [rng.field for rng in spec.variables]
    t = fields.index(_T_FIELD) if _T_FIELD in fields else None
    if spec.observable in _TRAP_OBSERVABLES:
        grouped = _trap_grid
    elif spec.observable == "Z" and all(f in _PLANE_FIELDS for f in fields):
        grouped = _z_grid
    else:
        grouped = None
    if grouped is None:
        results = [_evaluate_point(spec, point, t is not None)
                   for point in itertools.product(*grids)]
    else:
        # each axis in SI once, as field_to_si converts its values
        try:
            si_grids = [[float(v) * spec.base._input_unit(_FIELD_PATHS[f])
                         for v in grid] for f, grid in zip(fields, grids)]
        except _POINT_FAILURES as exc:
            # an input unit beyond float range fails every point's config
            failed = (math.nan, f"ERROR:{type(exc).__name__}", math.nan)
            results = [failed] * math.prod(map(len, grids))
        else:
            results = grouped(spec, si_grids)

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
        # one T_K per temperature, and one T/T_F per temperature and T_F
        # object, shared by the rows at that temperature, so that
        # write_csv formats each once
        T_unit = spec.base._input_unit("temperature")
        axes[t] = [(v, v * T_unit, {}) for v in grids[t]]
    rows = []
    for point, (value, status, T_F) in zip(itertools.product(*axes),
                                           results):
        if t is not None:
            v, T_K, ratios = point[t]
            ratio = ratios.get(id(T_F))
            if ratio is None:
                # T/T_F as the per-point division: nan where it would fail
                ratio = ratios[id(T_F)] = T_K / T_F if T_F else math.nan
            point = (*point[:t], v, T_K, ratio, *point[t + 1:])
        if spec.observable == "Y":
            point += (value, math.nan if math.isnan(value)
                      else float((value > 0) - (value < 0)))
        else:
            point += (value,)
        rows.append((*point, status))

    return ScanTable(columns=tuple(columns), rows=tuple(rows),
                     provenance=_provenance(spec))


def config_lines(cfg):
    """Config echo lines shared by every CSV provenance block."""
    lines = [
        "config: "
        f"m_b={cfg.m_b:.17g} kg, m_f={cfg.m_f:.17g} kg, "
        f"omega_b={cfg.omega_b:.17g} rad/s, "
        f"omega_f={cfg.omega_f:.17g} rad/s, "
        f"N_b={cfg.N_b:.17g}, N_f={cfg.N_f:.17g}",
        "config: "
        f"g_bb={cfg.g_bb:.17g} J m^3, g_bf={cfg.g_bf:.17g} J m^3, "
        f"g_ff={cfg.g_ff:.17g} J m^3",
    ]
    if cfg.volume is not None or cfg.temperature is not None:
        vol = "unset" if cfg.volume is None else f"{cfg.volume:.17g} m^3"
        temp = ("unset" if cfg.temperature is None
                else f"{cfg.temperature:.17g} K")
        lines.append(f"config: volume={vol}, temperature={temp}")
    return lines


def _provenance(spec):
    cfg = spec.base
    lines = [f"bfmix {__version__}", f"mode: {cfg.compat_mode.value}"]
    if spec.preset:
        lines.append(f"preset: {spec.preset}")
    lines.append(f"observable: {spec.observable} "
                 f"[{_UNITS[spec.observable]}]")
    for rng in spec.variables:
        if rng.values is not None:
            desc = "values " + ", ".join(f"{v:g}" for v in rng.values)
        else:
            desc = (f"{rng.scale} grid [{rng.start:g}, {rng.stop:g}], "
                    f"{rng.points} points")
        lines.append(f"sweep: {rng.field} = {desc} (input units)")
    if spec.t_range is not None:
        lines.append(f"window scan range: thermal.t_range = "
                     f"[{spec.t_range[0]:g}, {spec.t_range[1]:g}] "
                     f"(input units)")
    if spec.caption_fixed:
        lines.append("fixed by figure definition: "
                     + "; ".join(spec.caption_fixed))
    if spec.reproduction:
        lines.append("reproduction choices: " + "; ".join(spec.reproduction))
    lines.extend(config_lines(cfg))
    return tuple(lines)


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

_SEVEN_U = 7.0 * atomic_mass
_OMEGA = 166.0  # rad/s, the quoted trap frequency read as angular

_MASS_NOTE = "m_b = m_f = 7 u"
_FREQ_NOTE = "frequencies read as angular rad/s"


def _preset_base(N_b, N_f, g_bb, g_bf, g_ff, volume=None, temperature=None):
    return MixtureConfig.from_oscillator(
        m_b=_SEVEN_U, m_f=_SEVEN_U, omega_b=_OMEGA, omega_f=_OMEGA,
        N_b=N_b, N_f=N_f, g_bb=g_bb, g_bf=g_bf, g_ff=g_ff,
        volume=volume, temperature=temperature,
        compat_mode=CompatMode.PAPER)


def _fig1():
    base = _preset_base(N_b=1000.0, N_f=100.0, g_bb=0.0, g_bf=0.0, g_ff=0.0)
    return ScanSpec(
        base=base,
        variables=(ScanRange("interaction.g_bb", 0.0, 0.12, 200),),
        observable="omega_c",
        preset="fig1",
        caption_fixed=("omega_b = 166 rad/s", "N_b = 1000"),
        reproduction=(_MASS_NOTE, _FREQ_NOTE,
                      "g_bb grid [0, 0.12] x 200",
                      "N_f = 100 (inert for omega_c)"))


def _fig2():
    base = _preset_base(N_b=1000.0, N_f=100.0, g_bb=0.05, g_bf=0.0,
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


def _fig3(tag, N_b):
    base = _preset_base(N_b=N_b, N_f=100.0, g_bb=0.05, g_bf=0.0, g_ff=0.0)
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


def _fig4():
    base = _preset_base(N_b=1000.0, N_f=10000.0, g_bb=0.05, g_bf=0.0,
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


def _fig5():
    base = _preset_base(N_b=1000.0, N_f=10000.0, g_bb=0.0, g_bf=0.2,
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


_PRESETS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3a": lambda: _fig3("fig3a", 1000.0),
    "fig3b": lambda: _fig3("fig3b", 10000.0),
    "fig4": _fig4,
    "fig5": _fig5,
}

PRESET_TAGS = tuple(sorted(_PRESETS))


def figure_preset(tag):
    """The fully populated ScanSpec behind one figure."""
    maker = _PRESETS.get(tag)
    if maker is None:
        raise ConfigError(
            f"unknown preset '{tag}'; expected one of {PRESET_TAGS}")
    return maker()


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
        if "values" in entry:
            if not isinstance(values, list):
                raise ConfigError(
                    f"config field '{where}.values' must be a list")
            values = tuple(_finite(v, f"{where}.values[{j}]")
                           for j, v in enumerate(values))
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
        if (not isinstance(t_range, list) or len(t_range) != 2):
            raise ConfigError("scan.t_range must be a two-element list")
        t_range = tuple(_finite(t_range[j], f"scan.t_range[{j}]")
                        for j in range(2))
    spec = ScanSpec(base=base, variables=tuple(variables),
                    observable=observable, t_range=t_range)
    _validate(spec)
    return spec
