"""Per-layer tracing of bfmix, installed from outside the package.

``install`` wraps public functions of bfmix's modules and rebinds each
name in every bfmix module that imported it, so calls from one module
into another are caught.  The scipy routines it counts (brentq, quad,
simpson) are rebound only in the module they are listed under.  Every call records one span: id, parent span,
name, start, end, op id and a tag (rows written, Fermi branch, ...).
Spans stay in memory and are written once, by ``dump``.  The parent of a
span is the innermost traced call still running, which assumes one
thread; no benchmark op runs bfmix's thread pool.

Run as a script, it traces one CLI op in a fresh process:

    python bench/tracer.py SPANS.json <bfmix argv...>
"""

import functools
import importlib
import json
import math
import sys
import time
import warnings

_LN_HALF = math.log(0.5)


def _rows(args, kwargs, result):
    return len(args[0].rows)


def _scan_rows(args, kwargs, result):
    return [len(result.rows),
            sum(1 for row in result.rows if str(row[-1]).startswith("ERROR"))]


def _fermi_branch(args, kwargs, result):
    # the branch specfun documents for the argument mu = ln z
    mu = args[1]
    if mu <= _LN_HALF:
        return "series"
    return "eta" if mu <= 0.0 else "quad"


# (module, attribute, span name, tag function).  A name the module does
# not define is skipped, so its layer reports zero.
TRACED = (
    ("bfmix.cli", "main", "cli.main", None),
    ("bfmix.cli", "write_csv", "cli.write_csv", _rows),
    ("bfmix.config", "load_config", "config.load_config", None),
    ("bfmix.config", "MixtureConfig.with_field", "config.with_field", None),
    ("bfmix.scan_engine", "run_scan", "scan_engine.run_scan", _scan_rows),
    ("bfmix.zero_temperature", "solve_omega_c",
     "zero_temperature.solve_omega_c", None),
    ("bfmix.zero_temperature", "solve_Omega_c",
     "zero_temperature.solve_Omega_c", None),
    ("bfmix.zero_temperature", "classify_zero_T",
     "zero_temperature.classify_zero_T", None),
    ("bfmix.zero_temperature", "fermion_energy_gradients",
     "zero_temperature.slope", None),
    ("bfmix.zero_temperature", "brentq", "zero_temperature.brentq", None),
    ("bfmix.thomas_fermi", "tf_profiles", "thomas_fermi.tf_profiles", None),
    ("bfmix.thomas_fermi", "simpson", "thomas_fermi.simpson", None),
    ("bfmix.finite_temperature", "thermal_state",
     "finite_temperature.thermal_state", None),
    ("bfmix.finite_temperature", "stability_matrix",
     "finite_temperature.stability_matrix", None),
    ("bfmix.finite_temperature", "critical_window",
     "finite_temperature.critical_window", None),
    ("bfmix.specfun", "bose_g", "specfun.bose_g", None),
    ("bfmix.specfun", "fermi_f_log", "specfun.fermi_f_log", _fermi_branch),
    ("bfmix.specfun", "bose_fugacity_from_density",
     "specfun.bose_fugacity", None),
    ("bfmix.specfun", "fermi_fugacity_from_density",
     "specfun.fermi_fugacity", None),
    ("bfmix.specfun", "quad", "specfun.quad", None),
)


class Tracer:
    """Span store for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.op = 0
        self.integration_warnings = 0
        self.caches = []
        self.cache_base = (0, 0)

    def wrap(self, fn, name, tag_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            tag = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tag = "raised"
                raise
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                if tag is None:
                    self.spans.append((sid, parent, name, t0, t1, self.op,
                                       tag_of(args, kwargs, result)
                                       if tag_of else None))
                else:
                    self.spans.append((sid, parent, name, t0, t1, self.op,
                                       tag))
            return result
        return traced

    def install(self):
        """Wrap every TRACED function that exists; count integration
        warnings instead of printing them."""
        importlib.import_module("bfmix.cli")
        modules = [m for n, m in sys.modules.items()
                   if (n == "bfmix" or n.startswith("bfmix.")) and m]
        for mod_name, attr, name, tag_of in TRACED:
            owner = sys.modules.get(mod_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            orig = getattr(owner, path[-1], None)
            if orig is None:
                continue
            wrapped = self.wrap(orig, name, tag_of)
            if len(path) > 1:
                setattr(owner, path[-1], wrapped)
            # a scipy function is traced only where the named module calls
            # it: zero_temperature and specfun both import brentq
            targets = (modules if orig.__module__.startswith("bfmix")
                       else [owner])
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                    elif getattr(value, "__wrapped__", None) is orig and \
                            hasattr(value, "cache_info"):
                        # an lru_cache around a traced function: rebuild it
                        # around the wrapper so cache misses are traced
                        size = value.cache_parameters()["maxsize"]
                        setattr(mod, key,
                                functools.lru_cache(maxsize=size)(wrapped))
        for mod in modules:
            for value in vars(mod).values():
                if hasattr(value, "cache_info") and value not in self.caches:
                    self.caches.append(value)
        self.cache_base = self._cache_totals()

        shown = warnings.showwarning

        def count_warning(message, category, *args, **kwargs):
            if category.__name__ == "IntegrationWarning":
                self.integration_warnings += 1
            else:
                shown(message, category, *args, **kwargs)

        warnings.simplefilter("always")
        warnings.showwarning = count_warning

    def _cache_totals(self):
        return (sum(c.cache_info().hits for c in self.caches),
                sum(c.cache_info().misses for c in self.caches))

    def dump(self, path):
        """Write the spans, and the cache hits and misses since install."""
        hits, misses = self._cache_totals()
        hits -= self.cache_base[0]
        misses -= self.cache_base[1]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "cache_hits": hits,
                       "cache_misses": misses,
                       "integration_warnings": self.integration_warnings},
                      fh)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# per_layer metric name -> unit; the order is the report order
LAYER_UNITS = {}
for _n in ("interpreter", "numpy", "scipy", "bfmix"):
    LAYER_UNITS[f"import.{_n}_s"] = "s"
LAYER_UNITS.update({
    "cli.main_self_s": "s", "cli.write_csv_s": "s",
    "cli.rows_written": "count",
    "config.load_config_calls": "count", "config.load_config_s": "s",
    "config.with_field_calls": "count", "config.with_field_s": "s",
    "scan_engine.run_scan_calls": "count",
    "scan_engine.run_scan_self_s": "s",
    "scan_engine.points": "count", "scan_engine.error_points": "count",
    "scan_engine.workers2_over_serial": "ratio",
})
for _f in ("solve_omega_c", "solve_Omega_c", "classify_zero_T"):
    LAYER_UNITS[f"zero_temperature.{_f}_calls"] = "count"
    LAYER_UNITS[f"zero_temperature.{_f}_s"] = "s"
LAYER_UNITS.update({
    "zero_temperature.slope_evals": "count",
    "zero_temperature.brentq_calls": "count",
    "thomas_fermi.tf_profiles_calls": "count",
    "thomas_fermi.tf_profiles_s": "s",
    "thomas_fermi.simpson_calls": "count",
})
for _f in ("thermal_state", "stability_matrix"):
    LAYER_UNITS[f"finite_temperature.{_f}_calls"] = "count"
    LAYER_UNITS[f"finite_temperature.{_f}_s"] = "s"
LAYER_UNITS.update({
    "finite_temperature.critical_window_r0_s": "s",
    "finite_temperature.z_evals": "count",
    "finite_temperature.cache_hit_ratio": "ratio",
    "finite_temperature.cache_lookups": "count",
})
for _f in ("bose_g", "fermi_f_log", "bose_fugacity", "fermi_fugacity"):
    LAYER_UNITS[f"specfun.{_f}_calls"] = "count"
    LAYER_UNITS[f"specfun.{_f}_s"] = "s"
LAYER_UNITS.update({
    "specfun.fermi_series_calls": "count", "specfun.fermi_eta_calls": "count",
    "specfun.fermi_quad_calls": "count", "specfun.fermi_quad_s": "s",
    "specfun.quad_calls": "count", "specfun.integration_warnings": "count",
    "trace.spans": "count", "trace.overhead_frac": "ratio",
})

# spans whose metrics are <name>_calls and <name>_s (inclusive time)
_CALLS_AND_SECONDS = frozenset((
    "config.load_config", "config.with_field",
    "zero_temperature.solve_omega_c", "zero_temperature.solve_Omega_c",
    "zero_temperature.classify_zero_T", "thomas_fermi.tf_profiles",
    "finite_temperature.thermal_state", "finite_temperature.stability_matrix",
    "specfun.bose_g", "specfun.fermi_f_log", "specfun.bose_fugacity",
    "specfun.fermi_fugacity",
))
_COUNTS = {
    "zero_temperature.slope": "zero_temperature.slope_evals",
    "zero_temperature.brentq": "zero_temperature.brentq_calls",
    "thomas_fermi.simpson": "thomas_fermi.simpson_calls",
    "scan_engine.run_scan": "scan_engine.run_scan_calls",
    "specfun.quad": "specfun.quad_calls",
}


def aggregate(dumps):
    """Per-layer metrics (name -> value) from the dumps of traced
    processes.  Layers no span reached report zero."""
    out = {name: 0 for name in LAYER_UNITS}
    hits = misses = 0
    for dump in dumps:
        hits += dump["cache_hits"]
        misses += dump["cache_misses"]
        out["specfun.integration_warnings"] += dump["integration_warnings"]
        spans = {s[0]: s for s in dump["spans"]}
        child_time = {}
        for sid, parent, name, t0, t1, op, tag in spans.values():
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + t1 - t0
        out["trace.spans"] += len(spans)
        for sid, parent, name, t0, t1, op, tag in spans.values():
            dur = t1 - t0
            self_time = dur - child_time.get(sid, 0.0)
            if name in _CALLS_AND_SECONDS:
                out[name + "_calls"] += 1
                out[name + "_s"] += dur
            if name in _COUNTS:
                out[_COUNTS[name]] += 1
            if name == "cli.main":
                out["cli.main_self_s"] += self_time
            elif name == "cli.write_csv":
                out["cli.write_csv_s"] += dur
                out["cli.rows_written"] += tag or 0
            elif name == "scan_engine.run_scan":
                out["scan_engine.run_scan_self_s"] += self_time
                if isinstance(tag, list):
                    out["scan_engine.points"] += tag[0]
                    out["scan_engine.error_points"] += tag[1]
            elif name == "finite_temperature.critical_window":
                # the CLI evaluates the homogeneous criterion, r = 0
                out["finite_temperature.critical_window_r0_s"] += dur
            elif name == "specfun.fermi_f_log" and tag in (
                    "series", "eta", "quad"):
                out[f"specfun.fermi_{tag}_calls"] += 1
                if tag == "quad":
                    out["specfun.fermi_quad_s"] += dur
            elif name == "finite_temperature.stability_matrix":
                up = parent
                while up >= 0:
                    if spans[up][2] == "finite_temperature.critical_window":
                        out["finite_temperature.z_evals"] += 1
                        break
                    up = spans[up][1]
    out["finite_temperature.cache_lookups"] = hits + misses
    out["finite_temperature.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    return out


def _main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["bfmix.cli"]
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
