"""Command-line front end: parse a config, dispatch, write CSV.

Exit codes: 0 success, 1 configuration error, 2 numeric failure (a
NumericError, or a float overflow or division by zero), 3 I/O error,
4 internal error (an unexpected exception, reported on one line as its
type and message).  Diagnostics go to stderr; data only to --out or
stdout.
"""

import argparse
import os
import re
import sys

from . import __version__
from .config import CompatMode, load_config
from .errors import ConfigError, DomainError, NumericError
from .finite_temperature import critical_window, stability_matrix, \
    thermal_state
from .scan_engine import (
    PRESET_TAGS,
    ScanTable,
    config_lines,
    figure_preset,
    run_scan,
    scan_spec_from_dict,
)
from .thomas_fermi import tf_profiles
from .zero_temperature import classify_zero_T, solve_omega_c

__all__ = ["main", "write_csv", "resolve_workers"]

_WORKERS_ENV = "BFMIX_WORKERS"


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

_NEEDS_QUOTES = re.compile('[,"\r\n]')  # as the csv module's QUOTE_MINIMAL


def _cell(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if _NEEDS_QUOTES.search(text):
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

class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on bad arguments; route the
    # message through the config-error path instead so main returns 1
    def error(self, message):
        raise ConfigError(message)


_COMMANDS = {
    "zero-t": "variational widths, stability product, phase label",
    "tf": "semiclassical density profiles and regime",
    "finite-t": "fugacities and the stability determinant at T",
    "window": "unstable temperature window over thermal.t_range",
    "scan": "run the config's scan section",
    **{tag: f"figure preset {tag} (embedded config)" for tag in PRESET_TAGS},
}


def _build_parser():
    # flat: every subcommand takes the same options; _load asks for --config
    parser = _Parser(
        prog="bfmix",
        description="Stability analysis of trapped boson-fermion mixtures.",
        epilog="subcommands:\n" + "\n".join(
            f"  {name:<10}{text}" for name, text in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"bfmix {__version__}")
    parser.add_argument("subcommand", metavar="SUBCOMMAND",
                        choices=_COMMANDS, help="one of those listed below")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", help="output CSV path (default stdout)")
    parser.add_argument("--mode", choices=["paper", "derived"],
                        help="override the config's compat_mode")
    parser.add_argument("--tol", type=float,
                        help="relative tolerance for window-edge refinement")
    parser.add_argument("--workers", type=int,
                        help=f"no-op kept for compatibility: validated, "
                             f"overrides ${_WORKERS_ENV}; scans always run "
                             f"serially")
    return parser


def resolve_workers(flag_value, env_value):
    """Worker count from the flag, else the environment, else None.

    The count is validated and handed to run_scan, which ignores it.
    """
    if flag_value is not None:
        if flag_value < 0:
            raise ConfigError(f"--workers must be >= 0, got {flag_value}")
        return flag_value
    if env_value is None or env_value == "":
        return None
    try:
        n = int(env_value)
    except ValueError:
        raise ConfigError(
            f"{_WORKERS_ENV} must be an integer, got {env_value!r}")
    if n < 0:
        raise ConfigError(f"{_WORKERS_ENV} must be >= 0, got {n}")
    return n


def _load(args):
    if args.config is None:
        raise ConfigError(f"'{args.subcommand}' needs --config PATH")
    cfg, extras = load_config(args.config)
    if args.mode is not None:
        cfg = cfg.replace(compat_mode=CompatMode(args.mode))
    return cfg, extras


def _analysis_table(cfg, command, columns, row, extra_lines=()):
    provenance = [f"bfmix {__version__}", f"mode: {cfg.compat_mode.value}",
                  f"analysis: {command}"]
    provenance.extend(extra_lines)
    provenance.extend(config_lines(cfg))
    return ScanTable(columns=tuple(columns), rows=(tuple(row),),
                     provenance=tuple(provenance))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_zero_t(args):
    cfg, _ = _load(args)
    boson = solve_omega_c(cfg)
    fermion = classify_zero_T(cfg)
    columns = ("omega_c", "is_local_minimum", "N_b_critical", "Omega_c",
               "Y", "r_fc", "phase", "status")
    row = (boson.omega_c, boson.is_local_minimum, boson.N_b_critical,
           fermion.Omega_c, fermion.Y, fermion.r_fc, fermion.phase.value,
           "OK")
    return _analysis_table(
        cfg, "zero-t", columns, row,
        ("units: omega_c, Omega_c in rad/s; r_fc in m",))


def _run_tf(args):
    cfg, _ = _load(args)
    profiles = tf_profiles(cfg)
    columns = ("r", "n_b", "n_f", "status")
    rows = tuple((r, nb, nf, "OK") for r, nb, nf
                 in zip(profiles.radii, profiles.n_b, profiles.n_f))
    provenance = [f"bfmix {__version__}", f"mode: {cfg.compat_mode.value}",
                  "analysis: tf",
                  f"regime: {profiles.regime.value}",
                  f"mu_b: {profiles.mu_b:.17g} J",
                  f"e_F: {profiles.e_F:.17g} J",
                  f"R_b: {profiles.R_b:.17g} m",
                  "units: r in m; densities in 1/m^3"]
    provenance.extend(config_lines(cfg))
    return ScanTable(columns=columns, rows=rows,
                     provenance=tuple(provenance))


def _run_finite_t(args):
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
        cfg, "finite-t", columns, row,
        ("units: T_K in K; derivative entries in J m^3; Z in m^6",))


def _run_window(args):
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
        cfg, "window", columns, row,
        (f"window scan range: [{t_range[0]:.17g}, {t_range[1]:.17g}] K",))


def _run_scan(args):
    cfg, extras = _load(args)
    if extras.get("scan") is None:
        raise ConfigError("missing config field 'scan'")
    spec = scan_spec_from_dict(cfg, extras["scan"])
    return run_scan(spec, workers=resolve_workers(
        args.workers, os.environ.get(_WORKERS_ENV)))


def _run_preset(args):
    spec = figure_preset(args.subcommand)
    if args.config is not None:
        raise ConfigError(
            f"preset '{args.subcommand}' embeds its configuration; "
            "--config is not accepted")
    if args.mode is not None:
        spec = spec._replace(base=spec.base.replace(
            compat_mode=CompatMode(args.mode)))
    return run_scan(spec, workers=resolve_workers(
        args.workers, os.environ.get(_WORKERS_ENV)))


_DISPATCH = {
    "zero-t": _run_zero_t,
    "tf": _run_tf,
    "finite-t": _run_finite_t,
    "window": _run_window,
    "scan": _run_scan,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if args.tol is not None and not 0.0 < args.tol < 1.0:
            raise ConfigError(f"--tol must be in (0, 1), got {args.tol}")
        handler = _DISPATCH.get(args.subcommand, _run_preset)
        table = handler(args)
        _emit(table, args.out)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # float overflow or division by zero
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        return 0 if code is None else int(code)
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
