"""Check that the working tree's bfmix prints what REV's does.

    python tools/same_outputs.py REV

Runs 194 CLI cases, each in a fresh process, once on the `src/` of
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
  both unit systems, with and without a_ff (32).

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


def length_config(unit_system, mode, m_b, m_f, a_bb, a_bf, a_ff):
    """The config of one scattering-length mixture in the trap of the
    presets, N_b = 1,000 and N_f = 10,000, with volume 1,000 a^3,
    temperature 5 and t_range [0.5, 50] hbar omega / k_B written in
    unit_system; a_ff None leaves a_ff out."""
    volume, temperature, t_range = 1000.0, 5.0, [0.5, 50.0]
    if unit_system == "si":
        T_unit = HBAR * inputs.OMEGA / K_B
        volume *= (HBAR / (inputs.OMEGA * m_b * U)) ** 1.5
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
