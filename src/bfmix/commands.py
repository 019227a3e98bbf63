"""Command-line front end: parse a config, dispatch, write CSV.

Importing this module loads no analysis module: each command imports the
modules it runs when it runs, so `bfmix window` loads config, specfun,
brent and finite_temperature, `zero-t` loads zero_temperature and brent,
and only `scan` and the presets load scan_engine.  bfmix.cli is this
module with every analysis module loaded.

Exit codes: 0 success, 1 configuration error, 2 numeric failure (a
NumericError, or a float overflow or division by zero), 3 I/O error
(silent when the reader of stdout has gone), 4 internal error (an
unexpected exception, reported on one line as its type and message).
Diagnostics go to stderr; data only to stdout or --out, which open(path,
"w") replaces: a write that fails partway leaves only the bytes written.
"""

import os
import sys
from collections import namedtuple

from . import __version__
from .config import PRESET_TAGS, CompatMode, ScanTable, load_config, \
    provenance
from .errors import ConfigError, DomainError, NumericError

__all__ = ["main", "write_csv"]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

_NEEDS_QUOTES = frozenset(',"\r\n')  # as the csv module's QUOTE_MINIMAL


def _cell(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if not _NEEDS_QUOTES.isdisjoint(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(table, stream):
    """Provenance as '#' comment lines, then header, then rows.

    Floats carry 17 significant digits and lines end in LF, so repeated
    runs of the same table are byte-identical.  Rows are equally long.
    Each column formats each distinct object in it once (a grid value
    repeats as one object), keyed on identity: == would merge 0.0 with
    -0.0 and never match nan.
    """
    for line in table.provenance:
        stream.write(f"# {line}\n")
    stream.write(",".join(map(_cell, table.columns)) + "\n")
    columns = []
    for column in zip(*table.rows):
        unique = dict(zip(map(id, column), column))
        text = {key: _cell(v) for key, v in unique.items()}
        columns.append(map(text.__getitem__, map(id, column)))
    stream.write("".join([",".join(row) + "\n" for row in zip(*columns)]))


def _emit(table, out_path):
    if out_path is None:
        write_csv(table, sys.stdout)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        write_csv(table, fh)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _count(text):
    """text as a non-negative int; a ValueError, which _parse reports
    naming the option, for anything else."""
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


# every subcommand takes every option: name -> (metavar, type, help)
_OPTIONS = {
    "--config": ("PATH", str, "path to a JSON config file"),
    "--out": ("PATH", str, "output CSV path (default stdout)"),
    "--mode": ("{paper,derived}", CompatMode,
               "override the config's compat_mode"),
    "--tol": ("FLOAT", float,
              "relative window-edge tolerance, read by window only"),
    "--workers": ("INT", _count,
                  "accepted for compatibility and ignored; a non-negative "
                  "integer"),
}
_FLAGS = ("--help", "--version")

_Args = namedtuple("_Args", ["subcommand"] + [o[2:] for o in _OPTIONS])


def _help():
    rows = [(f"{name} {metavar}", text)
            for name, (metavar, _, text) in _OPTIONS.items()]
    usage = " ".join(f"[{row}]" for row, _ in rows)
    rows = [("-h, --help", "show this help and exit"),
            ("--version", "show the version and exit"), *rows]
    return "\n".join([
        f"usage: bfmix SUBCOMMAND {usage}",
        "", "Stability analysis of trapped boson-fermion mixtures.",
        "", "options:", *(f"  {row:<26}{text}" for row, text in rows),
        "", "subcommands:",
        *(f"  {name:<10}{text}" for name, (text, _) in _COMMANDS.items())])


def _is_option(arg):
    # as argparse: "-" and negative numbers are values
    return (arg.startswith("-") and arg != "-"
            and not arg[1:].replace(".", "", 1).isdigit())


def _option_name(arg):
    """The option arg names: itself, or the one it is a prefix of."""
    if arg == "-h":
        return "--help"
    if arg in _OPTIONS or arg in _FLAGS:
        return arg
    names = [name for name in (*_OPTIONS, *_FLAGS)
             if arg.startswith("--") and name.startswith(arg)]
    if len(names) == 1:
        return names[0]
    if names:
        raise ConfigError(f"ambiguous option: {arg} could match "
                          + ", ".join(names))
    raise ConfigError(f"unrecognized arguments: {arg}")


def _parse(argv):
    """The subcommand and option values of argv, or None once --help or
    --version has printed.  An option is `--name VALUE` or
    `--name=VALUE`, before or after the subcommand, and a unique prefix
    of its name stands for it; the last of a repeated option counts.
    Every error is a ConfigError that names the argument."""
    values = dict.fromkeys(_OPTIONS)
    subcommand = None
    args = iter(argv)
    for arg in args:
        if not _is_option(arg):
            if subcommand is not None:
                raise ConfigError(f"unrecognized arguments: {arg}")
            if arg not in _COMMANDS:
                raise ConfigError(
                    f"argument SUBCOMMAND: invalid choice: {arg!r} "
                    f"(choose from {', '.join(_COMMANDS)})")
            subcommand = arg
            continue
        given, eq, value = arg.partition("=")
        name = _option_name(given)
        if name in _FLAGS:
            if eq:
                raise ConfigError(f"argument {name}: takes no value")
            print(_help() if name == "--help" else f"bfmix {__version__}")
            return None
        metavar, kind, _ = _OPTIONS[name]
        if not eq:
            value = next(args, None)
            if value is None or _is_option(value):
                raise ConfigError(f"argument {name}: expected one argument")
        try:
            values[name] = kind(value)
        except ValueError:
            raise ConfigError(f"argument {name}: expected {metavar}, "
                              f"got {value!r}") from None
    if subcommand is None:
        raise ConfigError("the following arguments are required: SUBCOMMAND")
    return _Args(subcommand, *values.values())


def _load(args):
    if args.config is None:
        raise ConfigError(f"'{args.subcommand}' needs --config PATH")
    cfg, extras = load_config(args.config)
    if args.mode is not None:
        cfg = cfg.replace(compat_mode=args.mode)
    return cfg, extras


def _analysis_table(cfg, command, columns, rows, extra_lines=()):
    return ScanTable(columns=tuple(columns), rows=tuple(rows),
                     provenance=provenance(
                         cfg, (f"analysis: {command}", *extra_lines)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_zero_t(args):
    from .zero_temperature import _zero_T_classifier
    cfg, _ = _load(args)
    boson, classify = _zero_T_classifier(cfg)
    fermion, _ = classify(cfg.g_bf)
    columns = ("omega_c", "is_local_minimum", "N_b_critical", "Omega_c",
               "Y", "r_fc", "phase", "status")
    row = (boson.omega_c, boson.is_local_minimum, boson.N_b_critical,
           fermion.Omega_c, fermion.Y, fermion.r_fc, fermion.phase.value,
           "OK")
    return _analysis_table(
        cfg, "zero-t", columns, (row,),
        ("units: omega_c, Omega_c in rad/s; r_fc in m",))


def _run_tf(args):
    from .thomas_fermi import tf_profiles
    cfg, _ = _load(args)
    profiles = tf_profiles(cfg)
    columns = ("r", "n_b", "n_f", "status")
    rows = ((r, nb, nf, "OK") for r, nb, nf
            in zip(profiles.radii, profiles.n_b, profiles.n_f))
    return _analysis_table(
        cfg, "tf", columns, rows,
        (f"regime: {profiles.regime.value}",
         f"mu_b: {profiles.mu_b:.17g} J",
         f"e_F: {profiles.e_F:.17g} J",
         f"R_b: {profiles.R_b:.17g} m",
         "units: r in m; densities in 1/m^3"))


def _run_finite_t(args):
    from .finite_temperature import stability_matrix, thermal_state
    cfg, _ = _load(args)
    if cfg.temperature is None:
        raise ConfigError("missing config field 'thermal.temperature'")
    state = thermal_state(cfg, cfg.temperature)
    report = stability_matrix(state, cfg)
    columns = ("T_K", "z_b", "z_f", "condensed", "dmu_b_drho_b",
               "dmu_f_drho_f", "dmu_b_drho_f", "dmu_f_drho_b", "Z",
               "stable", "status")
    row = (state.T, state.z_b.z, state.z_f.z, state.condensed,
           report.dmu_b_drho_b, report.dmu_f_drho_f, report.dmu_b_drho_f,
           report.dmu_f_drho_b, report.Z, report.stable, "OK")
    return _analysis_table(
        cfg, "finite-t", columns, (row,),
        ("units: T_K in K; derivative entries in J m^3; Z in m^6",))


def _run_window(args):
    from .finite_temperature import critical_window
    cfg, extras = _load(args)
    t_range = extras.get("t_range")
    if t_range is None:
        raise ConfigError("missing config field 'thermal.t_range'")
    window = critical_window(cfg, t_range, rtol=args.tol)
    columns = ("T_c1_K", "T_c2_K", "exists", "n_sign_changes",
               "multi_root", "unstable_at_low_edge", "status")
    row = (window.T_c1, window.T_c2, window.exists,
           window.n_sign_changes, window.multi_root,
           window.unstable_at_low_edge, "OK")
    return _analysis_table(
        cfg, "window", columns, (row,),
        (f"window scan range: [{t_range[0]:.17g}, {t_range[1]:.17g}] K",))


def _run_scan(args):
    from .scan_engine import run_scan, scan_spec_from_dict
    cfg, extras = _load(args)
    if extras.get("scan") is None:
        raise ConfigError("missing config field 'scan'")
    spec = scan_spec_from_dict(cfg, extras["scan"])
    return run_scan(spec)


def _run_preset(args):
    from .scan_engine import figure_preset, run_scan
    if args.config is not None:
        raise ConfigError(
            f"preset '{args.subcommand}' embeds its configuration; "
            "--config is not accepted")
    return run_scan(figure_preset(args.subcommand,
                                  args.mode or CompatMode.PAPER))


# name -> (help line, handler)
_COMMANDS = {
    "zero-t": ("variational widths, stability product, phase label",
               _run_zero_t),
    "tf": ("semiclassical density profiles and regime", _run_tf),
    "finite-t": ("fugacities and the stability determinant at T",
                 _run_finite_t),
    "window": ("unstable temperature window over thermal.t_range",
               _run_window),
    "scan": ("run the config's scan section", _run_scan),
    **{tag: (f"figure preset {tag} (embedded config)", _run_preset)
       for tag in PRESET_TAGS},
}


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is not None:  # else --help or --version has printed
            if args.tol is not None and not 0.0 < args.tol < 1.0:
                raise ConfigError(
                    f"--tol must be in (0, 1), got {args.tol}")
            _, handler = _COMMANDS[args.subcommand]
            _emit(handler(args), args.out)
        sys.stdout.flush()
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # float overflow or division by zero
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped reading: exit quietly, and point stdout at
        # the null device so the interpreter's final flush of what is
        # still buffered cannot fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 4
    return 0
