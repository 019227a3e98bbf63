"""The bfmix benchmark: two closed-loop CLI workloads, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the package under ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are the report (environment, percentiles, failures).
bench/README.md says why each workload exists and what each metric
should move.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import inputs
import reference
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

OP_TIMEOUT_S = 120.0
# No cycle starts after this much wall time of cycles and set-ups, so a
# much slower commit still exits within 180 s.
MAX_TIMED_S = 110.0
# Wall seconds of one cycle at the commit that defined the benchmark, on
# a 2-core x86-64 sandbox.  A run executes round(seconds / nominal) whole
# cycles (at least one): about --seconds of work there, and the same ops,
# hence the same op mix and percentile ranks, on every commit.
NOMINAL_CYCLE_S = {"presets-cli": 5.7, "window-cli": 9.8}
WINDOW_RTOL = 1e-8  # critical_window's default edge tolerance

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "cpu_per_op_s": "s", "peak_rss_mb": "MB",
}


def child_env():
    env = dict(os.environ)
    env.pop("BFMIX_WORKERS", None)  # no op may use the thread pool
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def loadavg():
    with open("/proc/loadavg", encoding="ascii") as fh:
        return " ".join(fh.read().split()[:3])


def environment():
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": loadavg()}


# ---------------------------------------------------------------------------
# CLI ops: one fresh process each
# ---------------------------------------------------------------------------

class OpResult:
    """One op: wall and CPU seconds, peak RSS, problems found, and a key
    shared by the repeats of the same op (same call, same inputs)."""

    def __init__(self, wall, cpu, rss_kb, problems, key=None):
        self.wall, self.cpu, self.rss_kb = wall, cpu, rss_kb
        self.problems = problems
        self.key = key


def run_cli(argv, out_path, check, spans_path=None):
    """Run one bfmix CLI op, time it, and check its output."""
    if os.path.exists(out_path):
        os.remove(out_path)
    if spans_path is None:
        cmd = [sys.executable, "-m", "bfmix", *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH, "tracer.py"), spans_path,
               *argv]
    err_path = out_path + ".err"
    with open(err_path, "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    cpu = usage.ru_utime + usage.ru_stime
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {stderr[-300:]}")
    elif "Traceback" in stderr:
        problems.append(f"traceback on stderr: {stderr[-300:]}")
    else:
        # a missing, empty or malformed output is this op's failure
        try:
            with open(out_path, encoding="utf-8", newline="") as fh:
                problems = check(fh.read())
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return OpResult(wall, cpu, usage.ru_maxrss, problems)


class PresetsCli:
    """Fresh `python -m bfmix <preset> --out FILE` per op."""

    warmup = ["fig1"]

    def __init__(self, seed, work):
        self.cycle = inputs.preset_cycle(seed)
        self.work = work

    def prepare(self):
        self.refs = {tag: reference.load_preset_reference(tag)
                     for tag in inputs.PRESETS}

    def ops(self):
        return [([tag], lambda text, tag=tag:
                 reference.compare_preset(self.refs[tag], text))
                for tag in self.cycle]


def parse_window_csv(text):
    _, header, rows = reference.split_csv(text)
    if header != ["T_c1_K", "T_c2_K", "exists", "n_sign_changes",
                  "multi_root", "unstable_at_low_edge", "status"] \
            or len(rows) != 1:
        raise ValueError(f"unexpected window table {header}")
    row = rows[0]

    def edge(cell):
        return None if cell == "" else float(cell)

    return {"T_c1": edge(row[0]), "T_c2": edge(row[1]),
            "exists": row[2] == "true", "n_sign_changes": int(row[3]),
            "multi_root": row[4] == "true",
            "unstable_at_low_edge": row[5] == "true"}, row[6]


def parse_tf_csv(text):
    """(provenance fields, r, n_b, n_f) of a `bfmix tf` CSV."""
    prov, header, rows = reference.split_csv(text)
    if header != ["r", "n_b", "n_f", "status"] or any(
            row[3] != "OK" for row in rows):
        raise ValueError(f"unexpected tf table {header}")
    fields = dict(line[2:].split(": ", 1) for line in prov
                  if ": " in line and not line.startswith("# config"))
    columns = list(zip(*rows))
    return (fields, *[[float(v) for v in col] for col in columns[:3]])


class WindowCli:
    """Fresh `bfmix window --config C --out FILE` per op, and once per
    cycle `bfmix tf` on the TF_STRATUM mixture, so Thomas-Fermi profiles
    are measured too.  The warm-up is a cheap `finite-t` op: it compiles
    the same modules and runs the same kernels once, without the
    critical_window scan whose cost varies most."""

    TF_STRATUM = "li7-li7-paper"

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.warmup = ["finite-t", "--config",
                       os.path.join(work, "warmup.json")]
        self.verdicts = {}  # (op, output) -> problems

    def prepare(self):
        inputs.write_config(inputs.WARMUP, self.warmup[2])
        self.cases = inputs.window_cases(self.seed)
        self.paths, self.mixtures = [], []
        for i, params in enumerate(self.cases):
            path = os.path.join(self.work, f"window{i}.json")
            inputs.write_config(params, path)
            self.paths.append(path)
            self.mixtures.append(reference.Mixture(params))

    def check(self, i, text):
        window, status = parse_window_csv(text)
        if status != "OK":
            return [f"status {status}"]
        key = (i, tuple(window.values()))
        if key not in self.verdicts:
            mix = self.mixtures[i]
            t_range = [float(mix.kelvin(t)) for t in
                       self.cases[i]["t_range"]]
            self.verdicts[key] = reference.check_window(
                mix, t_range, window, WINDOW_RTOL)
        return self.verdicts[key]

    def check_tf(self, i, text):
        key = ("tf", text)
        if key not in self.verdicts:
            fields, r, n_b, n_f = parse_tf_csv(text)
            mu_b = float(fields["mu_b"].split()[0])
            self.verdicts[key] = reference.check_tf(
                self.cases[i], r, n_b, n_f, mu_b, fields.get("regime"))
        return self.verdicts[key]

    def ops(self):
        ops = [(["window", "--config", path],
                lambda text, i=i: self.check(i, text))
               for i, path in enumerate(self.paths)]
        tf = next(i for i, p in enumerate(self.cases)
                  if p["stratum"] == self.TF_STRATUM)
        ops.append((["tf", "--config", self.paths[tf]],
                    lambda text: self.check_tf(tf, text)))
        return ops


def cli_setup(workload, out_path):
    t0 = time.perf_counter()
    workload.prepare()
    run_cli(workload.warmup + ["--out", out_path], out_path, lambda _: [])
    return time.perf_counter() - t0


def cli_cycle(workload, out_path, spans_dir=None):
    """Run every op of the workload once; returns (results, span dumps)."""
    results, dumps = [], []
    for j, (argv, check) in enumerate(workload.ops()):
        spans = None
        if spans_dir is not None:
            spans = os.path.join(spans_dir, f"spans{j}.json")
        results.append(run_cli(argv + ["--out", out_path], out_path, check,
                               spans))
        results[-1].key = j
        if spans is not None and os.path.exists(spans):
            with open(spans, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
            os.remove(spans)
    return results, dumps


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(walls):
    """(value, percentile, ops beyond): the highest percentile that still
    has at least 10 ops beyond it, or the maximum with fewer than 11."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(results, setup_times):
    walls = [r.wall for r in results]
    value, pct, beyond = tail(walls)
    # The median op is taken over the distinct ops, each at its mean over
    # its repeats.  The shared machine's speed shifts for seconds at a
    # time, so a median of raw samples follows whichever speed held for
    # most of the run, where these means follow the run's average.
    repeats = {}
    for r in results:
        repeats.setdefault(r.key, []).append(r.wall)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(
            statistics.fmean(w) for w in repeats.values()),
        "op_tail_s": value,
        "ops_per_s": len(walls) / sum(walls),
        "cpu_per_op_s": sum(r.cpu for r in results) / len(results),
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
    }
    notes = [f"setup_s: median of {len(setup_times)} set-ups "
             + ", ".join(f"{s:.4f}" for s in setup_times),
             f"op_p50_s: median over {len(repeats)} distinct ops of each "
             "op's mean over its repeats",
             f"op_tail_s: p{pct:.1f} of {len(walls)} ops, {beyond} beyond it",
             "ops_per_s: closed loop, one client, ops over summed op wall time"]
    return metrics, notes


def import_times(reps=3):
    """Median seconds of interpreter start and of the numpy, scipy and
    bfmix imports (self times summed per package, -X importtime) in
    fresh processes importing bfmix.cli."""
    env = child_env()
    starts = []
    for _ in range(2 * reps - 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env,
                       check=True)
        starts.append(time.perf_counter() - t0)
    per_pkg = {"numpy": [], "scipy": [], "bfmix": []}
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bfmix.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        totals = dict.fromkeys(per_pkg, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us = float(fields[0])
            except ValueError:
                continue  # the column header
            pkg = fields[2].strip().split(".")[0]
            if pkg in totals:
                totals[pkg] += self_us * 1e-6
        for pkg, seconds in totals.items():
            per_pkg[pkg].append(seconds)
    out = {"import.interpreter_s": statistics.median(starts)}
    for pkg, values in per_pkg.items():
        out[f"import.{pkg}_s"] = statistics.median(values)
    return out


def pool_ratio():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "probes.py")],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, check=True)
    seconds = json.loads(proc.stdout.splitlines()[-1])
    return seconds["workers2"] / seconds["serial"], seconds


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

WORKLOADS = ("presets-cli", "window-cli")


def cycles_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def measure_cli(workload, cycles, trace, work, report):
    """(plain results, traced results or None, span dumps, set-up times).
    A traced run makes one plain and one traced cycle: every op once."""
    out_path = os.path.join(work, "out.csv")
    if trace:
        cli_setup(workload, out_path)
        plain, _ = cli_cycle(workload, out_path)
        traced, dumps = cli_cycle(workload, out_path, spans_dir=work)
        results, setups = plain + traced, []
    else:
        # A set-up before every cycle and one after the last, so the
        # set-ups sample the machine's speed across the run as the ops
        # do; set-ups made back to back at the start follow whichever
        # speed held for those few seconds.
        plain, setups, traced, dumps = [], [], None, []
        t_start = time.perf_counter()
        for c in range(cycles):
            if c and time.perf_counter() - t_start > MAX_TIMED_S:
                break
            setups.append(cli_setup(workload, out_path))
            plain += cli_cycle(workload, out_path)[0]
        setups.append(cli_setup(workload, out_path))
        results = plain
    report.extend(r.problems[0] for r in results if r.problems)
    return plain, traced, dumps, setups


def layer_metrics(plain, traced, dumps, report):
    layers = tracer.aggregate(dumps)
    layers.update(import_times())
    ratio, seconds_pool = pool_ratio()
    layers["scan_engine.workers2_over_serial"] = ratio
    # one cycle each, so the same ops plain and traced
    plain_s = sum(r.wall for r in plain)
    traced_s = sum(r.wall for r in traced)
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    report.append(f"workers2_over_serial: base = serial fig2+fig5 "
                  f"{seconds_pool['serial']:.4f} s, workers=2 "
                  f"{seconds_pool['workers2']:.4f} s")
    report.append(f"trace.overhead_frac: traced ops {traced_s:.4f} s over "
                  f"plain {plain_s:.4f} s for the same {len(plain)} ops")
    report.append(f"finite_temperature.cache_hit_ratio: base = "
                  f"{layers['finite_temperature.cache_lookups']} lookups "
                  "over the lru caches")
    report.append(f"scan_engine.error_points: base = "
                  f"{layers['scan_engine.points']} points")
    return layers


def measure(name, seed, seconds, trace, work, report):
    """(metrics {name: {"value", "unit"}}, every op's result)."""
    workload = (PresetsCli if name == "presets-cli" else WindowCli)(seed,
                                                                     work)
    plain, traced, dumps, setups = measure_cli(
        workload, cycles_for(name, seconds), trace, work, report)
    if trace:
        layers = layer_metrics(plain, traced, dumps, report)
        return _with_units(layers, tracer.LAYER_UNITS), plain + traced
    metrics, notes = end_to_end(plain, setups)
    report.extend(notes)
    return _with_units(metrics, END_TO_END_UNITS), plain


def _with_units(values, units):
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bfmix", "__init__.py")):
        print(f"error: no bfmix package under {SRC}; run from the root of "
              "a bfmix checkout", file=sys.stderr)
        return 2
    env = environment()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    report = []
    try:
        metrics, results = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), work, report)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another workload's run is using it
    env["loadavg_end"] = loadavg()
    failed = sum(1 for r in results if r.problems)

    print(f"bfmix benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} ops={len(results)}")
    print("environment: " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ops_frac':44s} {failed / len(results):.6g} ratio "
          f"({failed} of {len(results)} ops)")
    for line in report[:20]:
        print("  " + line)
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
