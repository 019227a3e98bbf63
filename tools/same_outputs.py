"""Check that the working tree's bfmix prints what REV's does.

    python tools/same_outputs.py REV

Runs 294 CLI cases, each in a fresh process, once on the `src/` of
commit REV (taken with `git archive` into a temporary directory) and
once on the working tree's `src/`, and compares stdout, stderr and exit
code byte for byte.  The cases are:

* the six figure presets, each with no --mode, --mode paper and
  --mode derived (18);
* `window`, `tf`, `zero-t` and `finite-t` on the 18 mixtures that
  bench/inputs.window_cases draws for seeds 21, 22 and 777 (72); their
  configs set no temperature, so `finite-t` exits with its config error,
  as `tf` and `zero-t` do on the attractive stratum's g_bb < 0;
* `finite-t` on each of those mixtures at 4 temperatures spread evenly
  in log T over its t_range (72);
* `zero-t`, `finite-t`, `window` and `tf` on 8 mixtures given by s-wave
  scattering lengths: two mixtures, one per compat mode, each written in
  both unit systems, with and without a_ff (32);
* `scan` on the 18 scan sections of SCANS: each of the nine observables,
  zero-T scans over (N_b, g_bf) in both unit systems, a `Y` and a
  `phase` scan whose g_bb < 0 groups fail, a `regime` scan over
  boson.omega whose ends put the oscillator length beyond float range,
  a `Y` scan over fermion.count where SI Y underflows, `Z` over (g_bf,
  T) with g_bb and g_ff not swept, a coupling beyond float range in SI,
  and the window edges over scan.t_range (18);
* the command line's own surface: --help, --version, no arguments, an
  unknown subcommand, --config given to a preset and a missing config
  file (6);
* `window` on each of the MALFORMED config texts, which json rejects or
  reads into a value the config rules reject (10);
* the WITNESSES: one field of WITNESS_BASE set so far out that a value
  the kernels form passes float range, 19 through `zero-t`, 3 through
  `window`, 2 through `finite-t` and 12 through `tf`, and with g_bf =
  0.3 12 more through `tf` (48);
* the REJECTED: `zero-t` and `finite-t` on WITNESS_BASE with one field
  set to a value its config rule rejects: boson.count -5,
  thermal.volume -3, boson.mass_u -7 and 1e-300 (0 kg) and
  fermion.mass_kg 0 (10);
* the WINDOWS: `window` on WITNESS_BASE with g_bf = 0.3 over t_range
  [0.5, 1e100] and [0.5, 1e300], on a g_bf = 0 mixture whose two edges
  lie next to the cuts of its attractive g_bb and g_ff, and with g_bb =
  0 and g_bf = 0.3 over [0.5, 50] and [0.5, 1e300], where the ideal
  condensate's T_c is cut (5);
* the TWO_SCALE traps: `tf` on WITNESS_BASE with light fermions in a
  stiff boson trap, whose condensate is a tiny fraction of the grid (3).

Every run that differs is listed.  Where its stdout is a CSV table on
both sides, with the same header and row count, each column whose cells
differ is listed under it, with how many differ and the largest relative
difference of its numeric cells.  The exit code is 0 when none does, 1
when some do.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import inputs  # noqa: E402  (bench/inputs.py, imported only)

SEEDS = (21, 22, 777)
MODES = ((), ("--mode", "paper"), ("--mode", "derived"))
TEMPERATURES = 4

A0 = 5.29177210903e-11  # m, the Bohr radius
# hbar [J s], k_B [J / K] and the atomic mass unit [kg], as bfmix.constants
HBAR, K_B, U = 1.0545718176461565e-34, 1.380649e-23, 1.66053906892e-27

# (compat mode, m_b u, m_f u, a_bb, a_bf, a_ff in Bohr radii)
LENGTH_MIXTURES = (("paper", 7.0, 6.0, 560.0, 3000.0, 100.0),
                   ("derived", 40.0, 6.0, 100.0, -400.0, 50.0))


def oscillator_units(m_b):
    """The SI size of one oscillator unit of each swept field in the trap
    of the presets with boson mass m_b [u]: hbar omega a^3 for a
    coupling, a^3 for the volume, hbar omega / k_B for the temperature,
    with a = sqrt(hbar / (omega m_b))."""
    a3 = (HBAR / (inputs.OMEGA * m_b * U)) ** 1.5
    return {"interaction.g_bb": HBAR * inputs.OMEGA * a3,
            "interaction.g_bf": HBAR * inputs.OMEGA * a3,
            "interaction.g_ff": HBAR * inputs.OMEGA * a3,
            "thermal.volume": a3,
            "thermal.temperature": HBAR * inputs.OMEGA / K_B}


def length_config(unit_system, mode, m_b, m_f, a_bb, a_bf, a_ff):
    """The config of one scattering-length mixture in the trap of the
    presets, N_b = 1,000 and N_f = 10,000, with volume 1,000 a^3,
    temperature 5 and t_range [0.5, 50] hbar omega / k_B written in
    unit_system; a_ff None leaves a_ff out."""
    volume, temperature, t_range = 1000.0, 5.0, [0.5, 50.0]
    if unit_system == "si":
        units = oscillator_units(m_b)
        T_unit = units["thermal.temperature"]
        volume *= units["thermal.volume"]
        temperature, t_range = (temperature * T_unit,
                                [T * T_unit for T in t_range])
    lengths = {"a_bb": a_bb, "a_bf": a_bf, "a_ff": a_ff}
    return {
        "unit_system": unit_system, "compat_mode": mode,
        "boson": {"mass_u": m_b, "omega": inputs.OMEGA, "count": 1000},
        "fermion": {"mass_u": m_f, "omega": inputs.OMEGA, "count": 10000},
        "interaction": {key: a * A0 for key, a in lengths.items()
                        if a is not None},
        "thermal": {"volume": volume, "temperature": temperature,
                    "t_range": t_range}}


# (unit system, changes to SCAN_BASE, observable, variables, t_range):
# the scan sections of the `scan` cases, in oscillator units; an "si"
# case writes its couplings, volume and temperatures in SI
SCAN_BASE = {"mode": "paper", "m_b": 7.0, "m_f": 7.0, "N_b": 1000.0,
             "N_f": 10000.0, "V": 1000.0, "T": 5.0, "g_bb": 0.05,
             "g_bf": 0.2, "g_ff": 0.01, "t_range": (0.5, 50.0)}
G_BF = {"field": "interaction.g_bf", "from": -0.2, "to": 0.2, "points": 9}
N_B = {"field": "boson.count", "values": [1000.0, 10000.0]}
G_BB_SIGNS = {"field": "interaction.g_bb", "values": [-0.05, 0.05]}
WINDOW_G_BF = {"field": "interaction.g_bf", "values": [0.3, 0.02, 0.01]}
SCANS = (
    ("oscillator", {}, "omega_c",
     [{"field": "interaction.g_bb", "from": 0.0, "to": 0.12, "points": 5}],
     None),
    # zero-T scans over (N_b, g_bf) in both unit systems
    ("oscillator", {}, "Omega_c", [N_B, G_BF], None),
    ("si", {}, "Omega_c", [N_B, G_BF], None),
    ("oscillator", {}, "Y", [N_B, G_BF], None),
    ("si", {"mode": "derived"}, "r_fc", [N_B, G_BF], None),
    ("si", {}, "phase", [N_B, G_BF], None),
    # a collapsed condensate at g_bb < 0 fails its group's rows
    ("oscillator", {}, "Y", [G_BB_SIGNS, G_BF], None),
    ("oscillator", {"mode": "derived"}, "phase", [G_BF, G_BB_SIGNS], None),
    ("oscillator", {}, "regime",
     [{"field": "interaction.g_bf", "values": [-0.2, 0.0, 0.2, 2.0]}], None),
    ("oscillator", {}, "regime",
     [{"field": "boson.omega", "values": [1e-300, 166.0, 1e300]}], None),
    # at N_f = 1e-300 SI Y underflows to 0, and sign_Y is that of y1 y2
    ("oscillator", {"g_bf": 0.01}, "Y",
     [{"field": "fermion.count", "values": [1e-300, 1e-250, 100.0]}], None),
    # Z over (g_bf, T), which evaluates the first axis inside the second,
    # with g_bb and g_ff not swept; then over the coupling plane
    ("oscillator", {}, "Z",
     [WINDOW_G_BF, {"field": "thermal.temperature", "from": 0.5,
                    "to": 50.0, "points": 7, "scale": "log"}], None),
    ("si", {"mode": "derived"}, "Z",
     [{"field": "thermal.temperature", "values": [1.0, 10.0]},
      WINDOW_G_BF], None),
    ("si", {"g_bb": 0.0}, "Z",
     [{"field": "interaction.g_bb", "from": 0.0, "to": 0.1, "points": 4},
      {"field": "interaction.g_ff", "from": 0.0, "to": 0.1, "points": 4}],
     None),
    # with omega_b = 1e-100 rad/s the coupling unit is ~3e106 J m^3, so
    # an input of 1e203 is beyond float range in SI
    ("oscillator", {"omega_b": 1e-100}, "Z",
     [{"field": "interaction.g_bb", "values": [0.1, 1e203]},
      {"field": "interaction.g_bf", "values": [0.0, 0.2]}], None),
    ("oscillator", {"omega_b": 1e-100}, "Omega_c",
     [{"field": "interaction.g_bf", "values": [0.1, 1e203, -0.1]}], None),
    # the window edges over scan.t_range
    ("oscillator", {}, "T_c1", [WINDOW_G_BF], (0.5, 50.0)),
    ("si", {}, "T_c2", [WINDOW_G_BF], (0.5, 50.0)),
)


# name -> the text of a config file that json rejects, or reads into a
# value the config rules reject
_DOCUMENT = json.dumps(inputs.config_dict(SCAN_BASE))
MALFORMED = {
    "trailing_comma": _DOCUMENT[:-1] + ", }",
    "bom": "\ufeff" + _DOCUMENT,
    "empty": "",
    "extra_data": _DOCUMENT + "\n{}",
    "missing_colon": '{\n"unit_system" "oscillator"}',
    "control_character": '{"unit_system": "si\x01"}',
    "nan": _DOCUMENT.replace('"count": 1000.0', '"count": NaN', 1),
    "lone_surrogate": _DOCUMENT.replace('"oscillator"', '"\\ud800"'),
    "nested": "[" * 100_000,
    "digits_401": _DOCUMENT.replace('"count": 1000.0',
                                    '"count": 1' + "0" * 400, 1),
}


# an oscillator-unit config, and (command, section, key, value): each
# sets one field of it to a value every field rule accepts, where the SI
# zero-T slopes, the oscillator units or a thermal wavelength leave float
# range; each once exited 2 on a bare ZeroDivisionError or OverflowError,
# or on a message that named no field or the wrong one
WITNESS_BASE = {
    "unit_system": "oscillator", "compat_mode": "paper",
    "boson": {"mass_u": 7.0, "omega": 166.0, "count": 1000},
    "fermion": {"mass_u": 7.0, "omega": 166.0, "count": 10000},
    "interaction": {"g_bb": 0.05, "g_bf": 0.0, "g_ff": 0.01},
    "thermal": {"volume": 1000.0, "temperature": 5.0,
                "t_range": [0.5, 50.0]}}
WITNESSES = tuple(
    [("zero-t", "boson", "omega", v) for v in (1e-300, 1e-200, 1e-100, 1e200)]
    + [("zero-t", "fermion", "omega", v) for v in (1e-200, 1e200, 1e300)]
    + [("zero-t", "boson", "mass_u", v) for v in (1e-200, 1e200)]
    + [("zero-t", "fermion", "mass_u", v) for v in (1e-200, 1e200, 1e300)]
    + [("zero-t", "boson", "count", 1e300)]
    + [("zero-t", "fermion", "count", v)
       for v in (1e-300, 1e-200, 1e200, 1e300)]
    + [("zero-t", "interaction", "g_bb", v) for v in (1e300, -1e300)]
    + [("window", "boson", "mass_u", 1e200)]
    + [("window", "boson", "omega", v) for v in (1e-300, 1e200)]
    + [("finite-t", "boson", "omega", 1e-300),
       ("finite-t", "thermal", "temperature", 1e-300)]
    + [("tf", "boson", "omega", 1e-200)]
    + [("tf", "fermion", "omega", v) for v in (1e-200, 1e200, 1e300)]
    + [("tf", "fermion", "mass_u", v)
       for v in (1e-220, 1e-230, 1e-245, 1e200, 1e300)]
    + [("tf", "interaction", "g_bf", v) for v in (-1e10, -1e30, -1e100)])
# a field set to a value its config rule rejects, which the message
# names by its config field; a mass key replaces the species' mass_u
REJECTED = tuple((command, section, key, value)
                 for section, key, value in (("boson", "count", -5),
                                             ("thermal", "volume", -3),
                                             ("boson", "mass_u", -7),
                                             ("boson", "mass_u", 1e-300),
                                             ("fermion", "mass_kg", 0))
                 for command in ("zero-t", "finite-t"))
# `tf` at g_bf = 0.3, where a crowded condensate or a sparse Fermi gas
# squeezes the fermion cloud into a shell thinner than a grid step, where
# N_b = 1e300 raises the e_F bound until the fermion density overflows,
# and where light fermions put the fermion density unit beyond float range
REPULSIVE_WITNESSES = tuple(
    [("tf", "boson", "count", v) for v in (1e30, 1e100, 1e200, 1e300)]
    + [("tf", "fermion", "count", v)
       for v in (1e-10, 1e-30, 1e-100, 1e-200, 1e-300)]
    + [("tf", "fermion", "mass_u", v) for v in (1e-220, 1e-230, 1e-245)])
# (fermion.mass_u, boson.omega): `tf` on WITNESS_BASE with light fermions
# in a stiff boson trap, where the condensate radius is down to 2.3e-184
# of the grid's span, so the steps below it are far smaller than the
# square root of the least normal float
TWO_SCALE = ((1e-200, 1e80), (1e-200, 1e120), (1e-190, 1e140))

# the configs of the `window` cases that refine edges over many decades
# of T, with g_bf = 0 next to the cuts, or with g_bb = 0 across the
# ideal condensate's T_c
_REPULSIVE = dict(WITNESS_BASE, interaction={"g_bb": 0.05, "g_bf": 0.3,
                                             "g_ff": 0.01})
WINDOWS = (
    dict(_REPULSIVE, thermal={"volume": 1000.0, "t_range": [0.5, 1e100]}),
    dict(_REPULSIVE, thermal={"volume": 1000.0, "t_range": [0.5, 1e300]}),
    {"unit_system": "oscillator", "compat_mode": "derived",
     "boson": {"mass_u": 7.0, "omega": 166.0, "count": 993},
     "fermion": {"mass_u": 6.0, "omega": 166.0, "count": 9709},
     "interaction": {"g_bb": -0.03, "g_bf": 0.0, "g_ff": -10.0},
     "thermal": {"volume": 1008.7005122454361, "t_range": [0.5, 80.0]}},
    *(dict(WITNESS_BASE, interaction={"g_bb": 0.0, "g_bf": 0.3,
                                      "g_ff": 0.01},
           thermal={"volume": 1000.0, "t_range": [0.5, T]})
      for T in (50.0, 1e300)))


def scan_config(unit_system, changes, observable, variables, t_range):
    """The config of one of SCANS, written in unit_system."""
    params = dict(SCAN_BASE, **changes)
    units = oscillator_units(params["m_b"]) if unit_system == "si" else {}
    T_unit = units.get("thermal.temperature", 1.0)
    if units:
        params.update(
            {key: params[key] * units["interaction." + key]
             for key in ("g_bb", "g_bf", "g_ff")},
            V=params["V"] * units["thermal.volume"], T=params["T"] * T_unit,
            t_range=[T * T_unit for T in params["t_range"]])
    cfg = dict(inputs.config_dict(params), unit_system=unit_system)
    cfg["boson"]["omega"] = params.get("omega_b", inputs.OMEGA)
    scaled = []
    for var in variables:
        unit = units.get(var["field"], 1.0)
        scaled.append({key: [v * unit for v in value] if key == "values"
                       else value * unit if key in ("from", "to") else value
                       for key, value in var.items()})
    cfg["scan"] = {"observable": observable, "variables": scaled}
    if t_range is not None:
        cfg["scan"]["t_range"] = [T * T_unit for T in t_range]
    return cfg


def cases(work):
    """The argv of every case; writes the configs they read into work."""
    out = [[tag, *mode] for tag in inputs.PRESETS for mode in MODES]
    for seed in SEEDS:
        for i, params in enumerate(inputs.window_cases(seed)):
            path = os.path.join(work, f"s{seed}_{i}.json")
            inputs.write_config(params, path)
            out += [[cmd, "--config", path]
                    for cmd in ("window", "tf", "zero-t", "finite-t")]
            lo, hi = params["t_range"]
            for k in range(TEMPERATURES):
                T = lo * math.exp(k / (TEMPERATURES - 1) * math.log(hi / lo))
                path = os.path.join(work, f"s{seed}_{i}_T{k}.json")
                inputs.write_config(dict(params, T=T), path)
                out.append(["finite-t", "--config", path])
    for unit_system in ("oscillator", "si"):
        for mode, *mixture, a_ff in LENGTH_MIXTURES:
            for a in (a_ff, None):
                path = os.path.join(
                    work, f"a_{unit_system}_{mode}_{a is not None}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(length_config(unit_system, mode, *mixture, a),
                              fh)
                out += [[cmd, "--config", path]
                        for cmd in ("zero-t", "finite-t", "window", "tf")]
    for i, case in enumerate(SCANS):
        path = os.path.join(work, f"scan_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scan_config(*case), fh)
        out.append(["scan", "--config", path])
    out += [["--help"], ["--version"], [], ["frobnicate"],
            ["fig1", "--config", path],
            ["window", "--config", os.path.join(work, "missing.json")]]
    for name, text in MALFORMED.items():
        path = os.path.join(work, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.append(["window", "--config", path])
    witnesses = ([(case, 0.0) for case in WITNESSES + REJECTED]
                 + [(case, 0.3) for case in REPULSIVE_WITNESSES])
    for i, ((command, section, key, value), g_bf) in enumerate(witnesses):
        cfg = json.loads(json.dumps(WITNESS_BASE))
        cfg["interaction"]["g_bf"] = g_bf
        if key.startswith("mass_"):
            del cfg[section]["mass_u"]
        cfg[section][key] = value
        path = os.path.join(work, f"witness_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out.append([command, "--config", path])
    for i, (mass, omega) in enumerate(TWO_SCALE):
        cfg = json.loads(json.dumps(WITNESS_BASE))
        cfg["fermion"]["mass_u"], cfg["boson"]["omega"] = mass, omega
        path = os.path.join(work, f"two_scale_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out.append(["tf", "--config", path])
    for i, cfg in enumerate(WINDOWS):
        path = os.path.join(work, f"window_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out.append(["window", "--config", path])
    return out


def run(src, argv, work):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "bfmix", *argv], cwd=work,
                          env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=300)
    return proc.stdout, proc.stderr, proc.returncode


def table(stdout):
    """The rows of a CSV stdout, its '#' provenance lines dropped, or
    None when it is not a table of at least a header and one row."""
    try:
        lines = stdout.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return None
    return rows


def relative_difference(x, y):
    """|x - y| / max(|x|, |y|) of two numeric cells, inf where one is not
    finite, None where one is not a number."""
    try:
        x, y = float(x), float(y)
    except ValueError:
        return None
    if x == y:  # 0.0 and -0.0
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def moved_columns(out_a, out_b):
    """One line per column whose cells differ between two CSV stdouts of
    one shape; none when either is not such a table."""
    a, b = table(out_a), table(out_b)
    if a is None or b is None or a[0] != b[0] or len(a) != len(b):
        return []
    lines = []
    for j, name in enumerate(a[0]):
        pairs = [(x[j], y[j]) for x, y in zip(a[1:], b[1:]) if x[j] != y[j]]
        if not pairs:
            continue
        numeric = [d for d in (relative_difference(x, y) for x, y in pairs)
                   if d is not None]
        worst = (f"largest relative difference {max(numeric):.2g}"
                 if numeric else "none numeric")
        lines.append(f"  {name}: {len(pairs)} of {len(a) - 1} cells "
                     f"differ, {worst}")
    return lines


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(os.path.join(tmp, "rev"), filter="data")
        sides = (os.path.join(tmp, "rev", "src"), os.path.join(ROOT, "src"))
        work = os.path.join(tmp, "work")
        os.mkdir(work)
        todo = cases(work)
        differ = []
        for args in todo:
            (out_a, err_a, code_a), (out_b, err_b, code_b) = (
                run(src, args, work) for src in sides)
            what = [name for name, a, b in (("stdout", out_a, out_b),
                                            ("stderr", err_a, err_b),
                                            ("exit code", code_a, code_b))
                    if a != b]
            if what:
                differ.append(args)
                print(f"DIFFERS ({', '.join(what)}): bfmix {' '.join(args)}")
                for line in moved_columns(out_a, out_b):
                    print(line)
    print(f"{len(todo) - len(differ)} of {len(todo)} runs identical to "
          f"{rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
