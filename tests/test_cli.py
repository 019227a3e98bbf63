"""CLI tests: exit codes, CSV shape, flag handling, byte stability."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bfmix
from bfmix import cli
from bfmix.constants import atomic_mass, hbar
from bfmix.errors import ConfigError, NumericError
from bfmix.scan_engine import PRESET_TAGS, ScanTable, figure_preset, run_scan


def base_config(**overrides):
    cfg = {
        "unit_system": "oscillator",
        "compat_mode": "paper",
        "boson": {"mass_u": 7.0, "omega": 166.0, "count": 1000},
        "fermion": {"mass_u": 7.0, "omega": 166.0, "count": 10000},
        "interaction": {"g_bb": 0.05, "g_bf": 0.0, "g_ff": 0.01},
        "thermal": {"volume": 1000.0, "t_range": [0.5, 50.0]},
    }
    for key, value in overrides.items():
        cfg[key] = value
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_fig1_header_and_exit(tmp_path):
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--out", str(out)]) == 0
    lines = data_lines(out.read_text())
    assert lines[0] == "g_bb,omega_c,status"
    assert len(lines) == 201
    assert lines[1].startswith("0,166,OK")


def test_missing_mass_exit_1_names_field(tmp_path, capsys):
    cfg = base_config()
    del cfg["boson"]["mass_u"]
    path = write_config(tmp_path, cfg)
    assert cli.main(["zero-t", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "boson.mass" in err


def test_unknown_key_exit_1(tmp_path, capsys):
    cfg = base_config()
    cfg["boson"]["colour"] = "blue"
    path = write_config(tmp_path, cfg)
    assert cli.main(["zero-t", "--config", path]) == 1
    assert "boson.colour" in capsys.readouterr().err


def test_window_without_coupling_reports_no_window(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["window", "--config", path]) == 0
    out = capsys.readouterr().out
    header, row = data_lines(out)
    cols = header.split(",")
    vals = row.split(",")
    record = dict(zip(cols, vals))
    assert record["exists"] == "false"
    assert record["T_c1_K"] == "" and record["T_c2_K"] == ""
    assert record["status"] == "OK"


def test_window_with_strong_coupling(tmp_path, capsys):
    cfg = base_config()
    cfg["interaction"]["g_bf"] = 0.3
    path = write_config(tmp_path, cfg)
    assert cli.main(["window", "--config", path]) == 0
    header, row = data_lines(capsys.readouterr().out)
    record = dict(zip(header.split(","), row.split(",")))
    # one recovery crossing: no full window, only an upper edge
    assert record["exists"] == "false"
    assert record["unstable_at_low_edge"] == "true"
    assert record["T_c1_K"] == ""
    assert float(record["T_c2_K"]) > 0


def test_unexpected_exception_exits_4_on_one_line(tmp_path, capsys,
                                                  monkeypatch):
    def broken(args):
        raise RuntimeError("handler broke\nacross two lines")

    monkeypatch.setitem(cli._DISPATCH, "window", broken)
    path = write_config(tmp_path, base_config())
    assert cli.main(["window", "--config", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: RuntimeError: handler broke across two lines"]


def test_window_missing_t_range(tmp_path, capsys):
    cfg = base_config()
    del cfg["thermal"]["t_range"]
    path = write_config(tmp_path, cfg)
    assert cli.main(["window", "--config", path]) == 1
    assert "thermal.t_range" in capsys.readouterr().err


def test_finite_t_requires_temperature(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["finite-t", "--config", path]) == 1
    assert "thermal.temperature" in capsys.readouterr().err


def test_finite_t_row(tmp_path, capsys):
    cfg = base_config()
    cfg["thermal"]["temperature"] = 5.0
    path = write_config(tmp_path, cfg)
    assert cli.main(["finite-t", "--config", path]) == 0
    header, row = data_lines(capsys.readouterr().out)
    record = dict(zip(header.split(","), row.split(",")))
    assert record["status"] == "OK"
    assert 0.0 < float(record["z_b"]) < 1.0
    assert float(record["z_f"]) > 1.0
    assert record["stable"] in ("true", "false")


def test_zero_t_row(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["zero-t", "--config", path]) == 0
    header, row = data_lines(capsys.readouterr().out)
    record = dict(zip(header.split(","), row.split(",")))
    assert float(record["omega_c"]) < 166.0
    assert record["phase"] == "coexisting"
    assert record["N_b_critical"] == ""  # repulsive g_bb has no collapse


def test_tf_profile_table(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["tf", "--config", path]) == 0
    out = capsys.readouterr().out
    lines = data_lines(out)
    assert lines[0] == "r,n_b,n_f,status"
    assert len(lines) > 1000
    assert any(line.startswith("# regime:") for line in out.splitlines())


def _tf_table(capsys):
    """(provenance fields, [(r, n_b, n_f)]) of a `tf` table on stdout."""
    out = capsys.readouterr().out
    fields = dict(line[2:].split(": ", 1) for line in out.splitlines()
                  if line.startswith("# ") and ": " in line)
    rows = [tuple(float(v) for v in line.split(",")[:3])
            for line in data_lines(out)[1:]]
    return fields, rows


def test_tf_separated_shell(tmp_path, capsys):
    # g_bf = 1e200 empties the condensate of fermions: they fill the bare
    # trap outside R_b, so e_F lies between e_0 and the bound e_1 that
    # counts the whole inside of R_b as lost
    path = write_config(tmp_path, _overflow_config())
    assert cli.main(["tf", "--config", path]) == 0
    fields, rows = _tf_table(capsys)
    assert fields["regime"] == "shell"
    R_b, e_F = (float(fields[k].split()[0]) for k in ("R_b", "e_F"))
    assert all(n_f == 0.0 for r, _, n_f in rows if r < R_b)
    hbar_omega, m_f, N_f = hbar * 166.0, 7.0 * atomic_mass, 10000.0
    e_0 = hbar_omega * (6.0 * N_f) ** (1.0 / 3.0)
    # y = e^(3/2) solves y^2 / (6 (hbar omega)^3) - B y - N_f = 0
    B = (2.0 * m_f / hbar ** 2) ** 1.5 / (6.0 * math.pi ** 2) \
        * 4.0 * math.pi * R_b ** 3 / 3.0
    a = 1.0 / (6.0 * hbar_omega ** 3)
    e_1 = ((B + math.sqrt(B * B + 4.0 * a * N_f)) / (2.0 * a)) ** (2.0 / 3.0)
    assert e_0 <= e_F <= e_1


def test_tf_wide_fermion_cloud(tmp_path, capsys):
    # Li-6 in a trap 1,000x weaker than the Rb-87 condensate's: the bare
    # fermion radius is about 1,190 R_b, and the grid still reaches it
    a0 = 5.29177210903e-11
    path = write_config(tmp_path, {
        "unit_system": "si", "compat_mode": "derived",
        "boson": {"mass_u": 87.0, "omega": 3000.0, "count": 125},
        "fermion": {"mass_u": 6.0, "omega": 3.0, "count": 7e5},
        "interaction": {"a_bb": 100.0 * a0, "a_bf": 20.0 * a0}})
    assert cli.main(["tf", "--config", path]) == 0
    _, rows = _tf_table(capsys)
    assert rows[-1][2] == 0.0
    assert max(n_f for _, _, n_f in rows) > 0.0


def test_scan_subcommand(tmp_path, capsys):
    cfg = base_config()
    cfg["scan"] = {"observable": "omega_c",
                   "variables": [{"field": "interaction.g_bb",
                                  "from": 0.0, "to": 0.1, "points": 4}]}
    path = write_config(tmp_path, cfg)
    assert cli.main(["scan", "--config", path]) == 0
    lines = data_lines(capsys.readouterr().out)
    assert lines[0] == "g_bb,omega_c,status"
    assert len(lines) == 5


_G_BB_SWEEP = {"field": "interaction.g_bb", "from": 0.0, "to": 0.1,
               "points": 4}


@pytest.mark.parametrize("variable, t_range, field", [
    (dict(_G_BB_SWEEP, points=2.5), None, "scan.variables[0].points"),
    (dict(_G_BB_SWEEP, points="10"), None, "scan.variables[0].points"),
    (dict(_G_BB_SWEEP, to="1"), None, "scan.variables[0].to"),
    ({"field": "interaction.g_bb", "values": ["a"]}, None,
     "scan.variables[0].values"),
    (_G_BB_SWEEP, ["a", 2], "scan.t_range[0]"),
    (dict(_G_BB_SWEEP, **{"from": float("nan")}), None,
     "scan.variables[0].from"),
])
def test_bad_scan_value_exit_1_names_field(tmp_path, capsys, variable,
                                           t_range, field):
    cfg = base_config()
    cfg["scan"] = {"observable": "omega_c", "variables": [variable]}
    if t_range is not None:
        cfg["scan"]["t_range"] = t_range
    path = write_config(tmp_path, cfg)  # json writes nan as NaN
    assert cli.main(["scan", "--config", path]) == 1
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def test_scan_requires_section(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["scan", "--config", path]) == 1
    assert "scan" in capsys.readouterr().err


def test_io_error_exit_3(capsys):
    assert cli.main(["fig1", "--out", "/nonexistent/dir/x.csv"]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_missing_config_file_exit_3(capsys):
    assert cli.main(["zero-t", "--config", "/nonexistent/cfg.json"]) == 3


def test_invalid_json_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["zero-t", "--config", str(path)]) == 1
    assert "line" in capsys.readouterr().err


def test_bad_subcommand_exit_1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_preset_rejects_config(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["fig1", "--config", path]) == 1
    assert "embeds its configuration" in capsys.readouterr().err


def test_mode_override(tmp_path, capsys):
    cfg = base_config()
    cfg["thermal"]["temperature"] = 5.0
    path = write_config(tmp_path, cfg)
    assert cli.main(["finite-t", "--config", path,
                     "--mode", "derived"]) == 0
    out = capsys.readouterr().out
    assert "# mode: derived" in out.splitlines()


def test_tol_validation(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["window", "--config", path, "--tol", "2.0"]) == 1
    capsys.readouterr()
    assert cli.main(["window", "--config", path, "--tol", "1e-4"]) == 0


def test_workers_resolution():
    assert cli.resolve_workers(4, "8") == 4
    assert cli.resolve_workers(None, "8") == 8
    assert cli.resolve_workers(None, None) is None
    assert cli.resolve_workers(None, "") is None
    assert cli.resolve_workers(0, "8") == 0
    with pytest.raises(ConfigError):
        cli.resolve_workers(-1, None)
    with pytest.raises(ConfigError):
        cli.resolve_workers(None, "abc")
    with pytest.raises(ConfigError):
        cli.resolve_workers(None, "-2")


def test_workers_env_flows_into_scan(tmp_path, monkeypatch, capsys):
    cfg = base_config()
    cfg["scan"] = {"observable": "omega_c",
                   "variables": [{"field": "interaction.g_bb",
                                  "from": 0.0, "to": 0.1, "points": 4}]}
    path = write_config(tmp_path, cfg)
    monkeypatch.setenv("BFMIX_WORKERS", "not-a-number")
    assert cli.main(["scan", "--config", path]) == 1
    assert "BFMIX_WORKERS" in capsys.readouterr().err
    monkeypatch.setenv("BFMIX_WORKERS", "2")
    assert cli.main(["scan", "--config", path]) == 0
    capsys.readouterr()
    # flag beats environment even when env is invalid
    monkeypatch.setenv("BFMIX_WORKERS", "not-a-number")
    assert cli.main(["scan", "--config", path, "--workers", "1"]) == 0


def test_numeric_error_maps_to_exit_2(monkeypatch, capsys):
    def boom(args):
        raise NumericError("bisection failed in [1, 2]")
    monkeypatch.setitem(cli._DISPATCH, "zero-t", boom)
    assert cli.main(["zero-t", "--config", "ignored"]) == 2
    assert "bisection failed" in capsys.readouterr().err


def test_help_and_version_exit_0(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["--version"]) == 0


def test_help_lists_every_subcommand(capsys):
    assert cli.main(["--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("zero-t", "tf", "finite-t", "window", "scan", *PRESET_TAGS):
        assert any(line.split()[:1] == [name] and len(line.split()) > 1
                   for line in lines), name


@pytest.mark.parametrize("command",
                         ["zero-t", "tf", "finite-t", "window", "scan"])
def test_command_without_config_exit_1_names_it(command, capsys):
    assert cli.main([command]) == 1
    err = capsys.readouterr().err
    assert "--config" in err and len(err.splitlines()) == 1


def test_huge_integer_literal_exit_1_names_field(tmp_path, capsys):
    # 5,000 digits pass the int-from-string limit of 4,300
    cfg = base_config()
    cfg["boson"]["count"] = 0
    text = json.dumps(cfg).replace('"count": 0', '"count": ' + "9" * 5000)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["zero-t", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "boson.count" in err and len(err.splitlines()) == 1


def test_csv_writer_formats_each_object_once(monkeypatch):
    # one float object many times down a column, and values == cannot
    # tell apart (0.0 and -0.0) or match (nan): the bytes are those of
    # formatting every cell, and each object is formatted once
    shared = 0.1 + 0.2
    column = [shared, 0.0, shared, -0.0, float("nan"), shared, math.inf,
              float("nan"), -math.inf, shared, 0.0]
    table = ScanTable(
        columns=("x", "label", "y"),
        rows=tuple((v, "OK" if i % 2 else 'a "b"', float(i))
                   for i, v in enumerate(column)),
        provenance=("line",))
    expected = "# line\nx,label,y\n" + "".join(
        ",".join(map(cli._cell, row)) + "\n" for row in table.rows)
    formatted = []
    cell = cli._cell
    monkeypatch.setattr(cli, "_cell",
                        lambda v: formatted.append(v) or cell(v))
    buf = io.StringIO()
    cli.write_csv(table, buf)
    assert buf.getvalue() == expected
    assert "\n0,OK,1\n" in expected and "\n-0,OK,3\n" in expected
    objects = {id(v) for row in table.rows for v in row}
    assert len(formatted) == len(objects) + len(table.columns)


def test_csv_writer_conventions():
    table = ScanTable(
        columns=("a", "b", "c", "d"),
        rows=((1.0, None, True, 'needs "quotes", commas'),
              (float("nan"), 0.1, False, "plain")),
        provenance=("first line", "second line"))
    buf = io.StringIO()
    cli.write_csv(table, buf)
    text = buf.getvalue()
    assert text.startswith("# first line\n# second line\na,b,c,d\n")
    assert '1,,true,"needs ""quotes"", commas"' in text
    assert "nan,0.10000000000000001,false,plain" in text
    assert "\r" not in text


@pytest.mark.parametrize("tag", PRESET_TAGS)
def test_preset_rows_are_floats_and_read_back_cell_for_cell(tag):
    # write_csv joins cells with commas and quotes none: every value is a
    # Python float but the status, and csv.reader must get back exactly
    # the 17-digit floats and the statuses written
    table = run_scan(figure_preset(tag))
    for *values, status in table.rows:
        assert all(type(v) is float for v in values)
        assert type(status) is str
    buf = io.StringIO()
    cli.write_csv(table, buf)
    lines = [line for line in buf.getvalue().splitlines(keepends=True)
             if not line.startswith("#")]
    assert list(csv.reader(lines)) == [list(table.columns)] + [
        [f"{v:.17g}" for v in values] + [status]
        for *values, status in table.rows]


def test_output_bytes_stable(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["fig3a", "--out", str(out1)]) == 0
    assert cli.main(["fig3a", "--out", str(out2), "--workers", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("section, key, value, field", [
    ("thermal", "temperature", float("inf"), "thermal.temperature"),
    ("boson", "mass_u", "7", "boson.mass_u"),
    ("interaction", "g_bb", "x", "interaction.g_bb"),
    ("thermal", "t_range", ["a", 2], "thermal.t_range"),
    ("fermion", "count", True, "fermion.count"),
    ("thermal", "volume", float("nan"), "thermal.volume"),
])
def test_bad_numeric_field_exit_1_names_field(tmp_path, capsys, section,
                                              key, value, field):
    cfg = base_config()
    cfg["thermal"]["temperature"] = 5.0
    cfg[section][key] = value
    path = write_config(tmp_path, cfg)  # json writes inf/nan as Infinity/NaN
    assert cli.main(["finite-t", "--config", path]) == 1
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def _leaf_paths(node, prefix=()):
    """Every key path and list index of a JSON config, sections too."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _leaf_paths(value, prefix + (key,))


def test_mutated_config_never_exits_4(tmp_path):
    """Any one field of a valid config set to any JSON value, or removed:
    every command exits 0, 1, 2 or 3, never with a traceback.  The scan
    lists its values, so no mutation can ask for a long grid."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    valid = base_config(interaction={"g_bb": 0.05, "g_bf": 0.3,
                                     "g_ff": 0.01})
    valid["thermal"]["temperature"] = 5.0
    valid["scan"] = {"observable": "Z", "variables": [
        {"field": "thermal.temperature", "values": [0.5, 5.0, 50.0]}]}
    paths = list(_leaf_paths(valid))
    removed = object()
    number = st.one_of(st.integers(),
                       st.floats(allow_nan=True, allow_infinity=True))
    json_scalar = st.one_of(number, st.none(), st.booleans(),
                            st.text(max_size=6))
    # most fields are numbers, so numbers come first and most often
    value = st.one_of(
        number, json_scalar, st.just(removed),
        st.lists(json_scalar, max_size=3),
        st.dictionaries(st.text(max_size=4), json_scalar, max_size=2))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(command=st.sampled_from(
                          ["zero-t", "tf", "finite-t", "window", "scan"]),
                      path=st.sampled_from(paths), new=value)
    def check(command, path, new):
        cfg = json.loads(json.dumps(valid))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if new is removed:
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
        config = write_config(tmp_path, cfg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", config,
                             "--out", str(tmp_path / "out.csv")])
        assert code in (0, 1, 2, 3), (command, path, new, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()


def _fresh_env():
    # a fresh interpreter on this checkout
    src = str(Path(bfmix.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _fresh_probe(code, *argv):
    """stdout of `python -c code argv...` in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", code, *argv],
                            env=_fresh_env(), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_loads_no_scipy():
    # scipy costs about 0.4 s of cold start and concurrent.futures (with
    # logging) several ms more; the runtime needs neither
    probe = ("import sys, bfmix.cli; "
             "print(sorted(m for m in sys.modules "
             "if m in ('scipy', 'concurrent.futures') "
             "or m.startswith('scipy.')))")
    assert _fresh_probe(probe) == "[]"


def test_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize (about 4 ms of
    # cold start) and building each record as one costs more; the records
    # are namedtuples, so none of these is loaded
    probe = ("import sys, bfmix.cli; "
             "print(sorted(m for m in sys.modules "
             "if m in ('dataclasses', 'inspect')))")
    assert _fresh_probe(probe) == "[]"


def test_import_loads_no_json(tmp_path):
    # only load_config parses JSON; neither the import nor a preset run
    # loads the json package
    probe = ("import sys, bfmix.cli; "
             "assert bfmix.cli.main(['fig1', '--out', sys.argv[1]]) == 0; "
             "print(sorted(m for m in sys.modules "
             "if m == 'json' or m.startswith('json.')))")
    assert _fresh_probe(probe, str(tmp_path / "fig1.csv")) == "[]"


def test_import_loads_every_bfmix_module():
    # bench/tracer.py wraps the functions of the modules that importing
    # bfmix.cli loads; a module imported later would escape it
    package = Path(bfmix.__file__).resolve().parent
    expected = sorted(f"bfmix.{p.stem}" for p in package.glob("*.py")
                      if p.stem not in ("__init__", "__main__"))
    probe = ("import sys, bfmix.cli; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('bfmix.'))))")
    assert _fresh_probe(probe).split() == expected


def test_every_command_runs_without_numpy(tmp_path):
    # the runtime has no dependencies: with every numpy import made to
    # fail, each subcommand and preset still exits 0 and writes its table
    cfg = base_config(interaction={"g_bb": 0.05, "g_bf": 0.3, "g_ff": 0.01})
    cfg["thermal"]["temperature"] = 5.0
    cfg["scan"] = {"observable": "Z", "variables": [
        {"field": "interaction.g_bb", "from": 0.0, "to": 0.1, "points": 3},
        {"field": "interaction.g_ff", "values": [0.0, 0.01]}]}
    config = write_config(tmp_path, cfg)
    commands = ["zero-t", "tf", "finite-t", "window", "scan", *PRESET_TAGS]
    argvs = [[command, "--out", str(tmp_path / f"{command}.csv")]
             + ([] if command in PRESET_TAGS else ["--config", config])
             for command in commands]
    probe = ("import json, sys; sys.modules['numpy'] = None; "
             "from bfmix import cli; "
             "print([cli.main(argv) for argv in json.loads(sys.argv[1])])")
    assert _fresh_probe(probe, json.dumps(argvs)) == str([0] * len(commands))
    for command in commands:
        text = (tmp_path / f"{command}.csv").read_text()
        assert len(data_lines(text)) >= 2


def _overflow_config(g_bb=0.05, g_ff=0.01, scan=None, g_bf=1e200):
    cfg = base_config(interaction={"g_bb": g_bb, "g_bf": g_bf,
                                   "g_ff": g_ff})
    cfg["thermal"]["temperature"] = 5.0
    if scan is not None:
        cfg["scan"] = scan
    return cfg


_OVERFLOW_SCAN = {"observable": "Z", "variables": [
    {"field": "interaction.g_bb", "values": [0.05, 1e200]}]}


def test_z_overflow_exit_codes(tmp_path, capsys):
    # g_bf = 1e200: the cross term overflows and Z = -inf, a valid result
    path = write_config(tmp_path, _overflow_config(scan=_OVERFLOW_SCAN))
    assert cli.main(["finite-t", "--config", path]) == 0
    header, row = data_lines(capsys.readouterr().out)
    record = dict(zip(header.split(","), row.split(",")))
    assert record["Z"] == "-inf" and record["stable"] == "false"
    assert cli.main(["window", "--config", path]) == 0
    header, row = data_lines(capsys.readouterr().out)
    assert row.endswith(",OK")
    assert cli.main(["scan", "--config", path]) == 0
    out, err = capsys.readouterr()
    assert data_lines(out)[1:] == ["0.050000000000000003,-inf,OK",
                                   "9.9999999999999997e+199,-inf,OK"]
    assert err == ""

    # all three couplings at 1e200: Z = inf - inf is not a number
    path = write_config(tmp_path, _overflow_config(
        g_bb=1e200, g_ff=1e200, scan=_OVERFLOW_SCAN), name="huge.json")
    for command in ("finite-t", "window"):
        assert cli.main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric error:") and "Traceback" not in err
    assert cli.main(["scan", "--config", path]) == 0
    assert data_lines(capsys.readouterr().out)[1:] == [
        "0.050000000000000003,-inf,OK",
        "9.9999999999999997e+199,nan,ERROR:NumericError"]


def test_float_overflow_is_a_numeric_failure(tmp_path, capsys):
    # Python's scalar ** raises OverflowError where numpy would give inf:
    # on its own it exits 2, in a scan it fails only its row
    cfg = base_config(interaction={"g_bb": 0.05, "g_bf": 0.3, "g_ff": 0.01})
    cfg["fermion"]["mass_u"] = 1.5e173
    assert cli.main(["zero-t", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("numeric error: OverflowError")
    cfg["fermion"]["mass_u"] = 7.0
    cfg["scan"] = {"observable": "Y", "variables": [
        {"field": "fermion.mass", "values": [7.0, 1.5e173]}]}
    assert cli.main(["scan", "--config", write_config(tmp_path, cfg)]) == 0
    rows = data_lines(capsys.readouterr().out)[1:]
    assert rows[0].endswith(",OK")
    assert rows[1].endswith(",nan,nan,ERROR:OverflowError")


def _run_fresh(tmp_path, argv):
    # a fresh interpreter on this checkout, with default warning filters
    env = _fresh_env()
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "bfmix", *argv, "--out",
         str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", [*PRESET_TAGS, "overflow-scan"])
def test_fresh_process_writes_nothing_to_stderr(tmp_path, command):
    # no run, the overflowing coupling plane included, may print a
    # warning or anything else to stderr
    argv = [command]
    if command == "overflow-scan":
        argv = ["scan", "--config", write_config(tmp_path, _overflow_config(
            g_ff=1e200, scan=_OVERFLOW_SCAN))]
    result = _run_fresh(tmp_path, argv)
    assert result.returncode == 0
    assert result.stderr == ""
    assert (tmp_path / "out.csv").stat().st_size > 0


def test_fresh_process_tf_overflow_prints_only_the_error(tmp_path):
    # g_bf = -1e200 overflows the fermion density: exit 2 with the error
    # on one line and nothing else on stderr
    path = write_config(tmp_path, _overflow_config(g_bf=-1e200))
    result = _run_fresh(tmp_path, ["tf", "--config", path])
    assert result.returncode == 2
    assert result.stderr.startswith("numeric error: ")
    assert result.stderr == result.stderr.splitlines()[0] + "\n"
