"""CLI tests: exit codes, CSV shape, flag handling, byte stability."""

import contextlib
import csv
import gc
import importlib
import io
import itertools
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import bfmix
from bfmix import cli, commands, thomas_fermi, zero_temperature
from bfmix.config import CompatMode, load_config
from bfmix.constants import atomic_mass, hbar
from bfmix.errors import NumericError
from bfmix.finite_temperature import fermi_temperature
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

    monkeypatch.setitem(cli._COMMANDS, "window",
                        (cli._COMMANDS["window"][0], broken))
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


def test_finite_t_si_couplings_print_the_oscillator_z(tmp_path, capsys):
    # the oscillator config, converted to SI by hand: couplings in J m^3,
    # volume in m^3, temperature in K; the Z cell is the same
    osc = base_config(interaction={"g_bb": 0.05, "g_bf": 0.02,
                                   "g_ff": 0.01})
    osc["thermal"]["temperature"] = 5.0
    osc_path = write_config(tmp_path, osc, "osc.json")
    cfg, _ = load_config(osc_path)
    si = {"unit_system": "si", "compat_mode": "paper",
          "boson": {"mass_kg": cfg.m_b, "omega": cfg.omega_b,
                    "count": cfg.N_b},
          "fermion": {"mass_kg": cfg.m_f, "omega": cfg.omega_f,
                      "count": cfg.N_f},
          "interaction": {"g_bb": cfg.g_bb, "g_bf": cfg.g_bf,
                          "g_ff": cfg.g_ff},
          "thermal": {"volume": cfg.volume,
                      "temperature": cfg.temperature}}
    si_path = write_config(tmp_path, si, "si.json")
    z_cells = []
    for path in (osc_path, si_path):
        assert cli.main(["finite-t", "--config", path]) == 0
        header, row = data_lines(capsys.readouterr().out)
        record = dict(zip(header.split(","), row.split(",")))
        assert record["status"] == "OK"
        z_cells.append(record["Z"])
    assert z_cells[0] == z_cells[1]
    assert float(z_cells[0]) != 0.0


def test_zero_t_row(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["zero-t", "--config", path]) == 0
    header, row = data_lines(capsys.readouterr().out)
    record = dict(zip(header.split(","), row.split(",")))
    assert float(record["omega_c"]) < 166.0
    assert record["phase"] == "coexisting"
    assert record["N_b_critical"] == ""  # repulsive g_bb has no collapse


def test_zero_t_prints_a_row_only_for_a_condensate_that_has_not_collapsed(
        tmp_path, capsys):
    # so every printed row has is_local_minimum = true, and N_b_critical
    # only for an attractive condensate
    cfg = base_config()
    cfg["interaction"]["g_bb"] = -0.001
    path = write_config(tmp_path, cfg)
    assert cli.main(["zero-t", "--config", path]) == 0
    header, row = data_lines(capsys.readouterr().out)
    record = dict(zip(header.split(","), row.split(",")))
    assert record["is_local_minimum"] == "true"
    assert math.isclose(float(record["N_b_critical"]), 4212.96, rel_tol=1e-6)
    cfg["interaction"]["g_bb"] = -1.0
    path = write_config(tmp_path, cfg)
    assert cli.main(["zero-t", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: boson energy functional has no local minimum (collapsed "
        "regime); zero-T classification is undefined\n")


def test_zero_t_solves_its_condensate_once(tmp_path, capsys, monkeypatch):
    calls = []
    solve = zero_temperature.solve_omega_c

    def counted(cfg):
        calls.append(cfg)
        return solve(cfg)
    monkeypatch.setattr(zero_temperature, "solve_omega_c", counted)
    path = write_config(tmp_path, base_config())
    assert cli.main(["zero-t", "--config", path]) == 0
    capsys.readouterr()
    assert len(calls) == 1


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


def _length_config(unit_system, boson_mass, fermion_mass):
    """base_config in unit_system with scattering lengths, each species
    given its mass by the one key of boson_mass and fermion_mass."""
    cfg = base_config(unit_system=unit_system, interaction={
        "a_bb": 1e-9, "a_bf": 1e-9, "a_ff": 1e-9})
    for species, mass in (("boson", boson_mass), ("fermion", fermion_mass)):
        cfg[species] = {**mass, "omega": 166.0,
                        "count": cfg[species]["count"]}
    return cfg


@pytest.mark.parametrize("unit_system", ["si", "oscillator"])
@pytest.mark.parametrize("species, field", [("boson", "m_b"),
                                            ("fermion", "m_f")])
@pytest.mark.parametrize("mass", [{"mass_u": 0}, {"mass_u": -0.0},
                                  {"mass_kg": 0}, {"mass_kg": -0.0}])
def test_zero_mass_with_scattering_lengths_exit_1_names_it(
        tmp_path, capsys, unit_system, species, field, mass):
    # the masses are checked before g = 4 pi hbar^2 a / m divides by them
    masses = {"boson": {"mass_u": 7.0}, "fermion": {"mass_u": 6.0}}
    masses[species] = mass
    path = write_config(tmp_path, _length_config(
        unit_system, masses["boson"], masses["fermion"]))
    for command in ("zero-t", "finite-t", "window", "tf"):
        assert cli.main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert f"{field} must be strictly positive" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("unit_system", ["si", "oscillator"])
def test_opposite_masses_with_scattering_lengths_exit_1(tmp_path, capsys,
                                                        unit_system):
    # m_b + m_f = 0 would divide the reduced mass by zero
    for m_b, m_f, field in ((-7.0, 7.0, "m_b"), (7.0, -7.0, "m_f")):
        path = write_config(tmp_path, _length_config(
            unit_system, {"mass_u": m_b}, {"mass_u": m_f}))
        assert cli.main(["zero-t", "--config", path]) == 1
        err = capsys.readouterr().err
        assert f"{field} must be strictly positive" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("unit_system", ["si", "oscillator"])
def test_underflowing_reduced_mass_with_scattering_lengths_exit_1(
        tmp_path, capsys, unit_system):
    # each mass passes its rule, but m_b m_f underflows to 0, and the
    # reduced mass of g_bf = 2 pi hbar^2 a_bf / m_red with it
    path = write_config(tmp_path, _length_config(
        unit_system, {"mass_kg": 1e-170}, {"mass_kg": 1e-170}))
    for command in ("zero-t", "finite-t", "window", "tf"):
        assert cli.main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert "reduced mass of m_b and m_f" in err
        assert "Traceback" not in err


def test_light_masses_zero_t_reads_as_its_lab_scale_twin(tmp_path,
                                                         capsys):
    # coupling family, both masses 1e-170 kg: every field passes its rule,
    # and hbar (m_f Omega + m_b omega_c)^3 of the SI overlap width
    # underflows; in trap units the row is the one of the twin 1e144 times
    # heavier with couplings of the same oscillator-unit values, Y scaled
    # by m_f
    rows = []
    for mass, g in ((1e-170, 1e-50), (1e-26, 1e-266)):
        cfg = base_config(unit_system="si", interaction={
            "g_bb": g, "g_bf": g, "g_ff": 0.0})
        for species in ("boson", "fermion"):
            cfg[species] = {"mass_kg": mass, "omega": 166.0, "count": 1000}
        path = write_config(tmp_path, cfg, name=f"m{mass}.json")
        assert cli.main(["zero-t", "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows.append(data_lines(captured.out)[1].split(","))
    light, lab = rows
    assert light[1:3] == lab[1:3] and light[5:] == lab[5:]
    for i, scale in ((0, 1.0), (3, 1.0), (4, 1e-144)):
        assert math.isclose(float(light[i]), scale * float(lab[i]),
                            rel_tol=1e-12), (i, light, lab)


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
    ({"field": "interaction.g_bb", "values": [0.1, None]}, None,
     "scan.variables[0].values[1]"),
    (dict(_G_BB_SWEEP, **{"from": None}), None, "scan.variables[0].from"),
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


def test_window_scan_reads_scan_t_range(tmp_path, capsys):
    # a T_c2 scan reads scan.t_range; a config that sets only
    # thermal.t_range fails naming the field the scan reads
    cfg = base_config()
    cfg["scan"] = {"observable": "T_c2", "variables": [
        {"field": "interaction.g_bf", "values": [0.0, 0.5]}]}
    assert "t_range" in cfg["thermal"]
    path = write_config(tmp_path, cfg)
    assert cli.main(["scan", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "scan.t_range" in err and "thermal.t_range" not in err
    cfg["scan"]["t_range"] = [0.5, 50.0]
    path = write_config(tmp_path, cfg)
    assert cli.main(["scan", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "# window scan range: scan.t_range = [0.5, 50] (input units)" in (
        out.splitlines())


def test_out_over_a_longer_file_equals_a_fresh_write(tmp_path):
    fresh = tmp_path / "fresh.csv"
    assert cli.main(["fig3a", "--out", str(fresh)]) == 0
    old = tmp_path / "old.csv"
    assert cli.main(["fig1", "--out", str(old)]) == 0
    old.write_bytes(old.read_bytes() * 3)  # longer than fig3a's table
    link = tmp_path / "link.csv"
    link.symlink_to(old)
    assert cli.main(["fig3a", "--out", str(link)]) == 0
    # a symlink keeps the link and writes its target
    assert link.is_symlink()
    assert old.read_bytes() == fresh.read_bytes()


def test_failed_out_write_leaves_no_old_bytes(tmp_path):
    # a write cut short by the file size limit, in a fresh process: the
    # file holds at most the bytes written, none of the old file's tail
    out = tmp_path / "out.csv"
    out.write_bytes(b"OLD,ROW,DATA\n" * 100_000)
    limit = 300_000

    def limited():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    result = subprocess.run(
        [sys.executable, "-m", "bfmix", "fig5", "--out", str(out)],
        env=_fresh_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=limited)
    assert result.returncode == 3
    assert result.stderr == "i/o error: [Errno 27] File too large\n"
    written = out.read_bytes()
    assert len(written) <= limit
    assert not written.endswith(b"OLD,ROW,DATA\n")


def test_out_to_a_device_or_a_fifo(tmp_path):
    assert cli.main(["fig1", "--out", os.devnull]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
    assert cli.main(["fig3a", "--out", str(fifo)]) == 0
    fresh = tmp_path / "fresh.csv"
    assert cli.main(["fig3a", "--out", str(fresh)]) == 0
    assert reader.communicate(timeout=60)[0] == fresh.read_bytes()


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


_GOOD = json.dumps(base_config())


@pytest.mark.parametrize("text, code, message", [
    ('{"unit_system": "si",}', 1, "is not valid JSON (line 1, column 22): "
     "Expecting property name enclosed in double quotes"),
    ("\ufeff" + _GOOD, 1, "is not valid JSON (line 1, column 1): "
     "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("", 1, "is not valid JSON (line 1, column 1): Expecting value"),
    (" {}\n [] ", 1, "is not valid JSON (line 2, column 2): Extra data"),
    ('{\n"unit_system" "si"}', 1,
     "is not valid JSON (line 2, column 15): Expecting ':' delimiter"),
    ('{"unit_system": "s\x01"}', 1,
     "is not valid JSON (line 1, column 19): Invalid control character at"),
    (_GOOD.replace('"count": 1000', '"count": NaN', 1), 1,
     "config field 'boson.count' must be a finite number, got nan"),
    (_GOOD.replace('"oscillator"', '"\\ud800"'), 1,
     "unit_system must be 'oscillator' or 'si', got '\\ud800'"),
    ("[" * 100_000, 4, "RecursionError: maximum recursion depth exceeded "
     "while decoding a JSON array from a unicode string"),
    (_GOOD.replace('"count": 1000', '"count": 1' + "0" * 400, 1), 1,
     "config field 'boson.count' must be a finite number, got inf"),
])
def test_malformed_json_reads_as_json_loads_reads_it(tmp_path, capsys, text,
                                                     code, message):
    # the scanner path falls back to json.loads on every failure, so each
    # message, its line and column, and the exit code are json.loads'
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["window", "--config", str(path)]) == code
    captured = capsys.readouterr()
    prefix = {1: f"error: config file {path} " if "JSON (" in message
              else "error: ", 4: "internal error: "}[code]
    assert (captured.out, captured.err) == ("", prefix + message + "\n")


def _json_texts():
    """JSON documents, as text with random whitespace between tokens."""
    st = pytest.importorskip("hypothesis.strategies")
    space = st.text(" \t\n\r", max_size=3)
    big = 10 ** 500

    def padded(token):
        return st.builds(lambda a, t, b: a + t + b, space, token, space)

    scalars = st.one_of(
        st.none(), st.booleans(), st.just(-0.0), st.floats(),
        st.integers(-big + 1, big - 1), st.text())
    leaves = padded(st.builds(json.dumps, scalars,
                              ensure_ascii=st.booleans(), allow_nan=st.just(
                                  True)))
    keys = padded(st.builds(json.dumps, st.text(),
                            ensure_ascii=st.booleans()))

    def containers(children):
        arrays = st.builds(lambda items, inner: "[" + (",".join(items)
                                                       or inner) + "]",
                           st.lists(children, max_size=4), space)
        objects = st.builds(
            lambda items, inner: "{" + (",".join(
                k + ":" + v for k, v in items) or inner) + "}",
            st.lists(st.tuples(keys, children), max_size=4), space)
        return padded(st.one_of(arrays, objects))

    return st.recursive(leaves, containers, max_leaves=20)


def test_json_scanner_reads_what_json_loads_reads():
    # with json.loads made to fail, load_config's parse still reads each
    # document, and reads it as json.loads(text, parse_int=...) does
    hypothesis = pytest.importorskip("hypothesis")
    from unittest import mock

    from bfmix import config

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None)
    @hypothesis.given(_json_texts())
    def check(text):
        with mock.patch.object(json, "loads", side_effect=AssertionError):
            fast = config._parse_json(text, "cfg.json")
        assert repr(fast) == repr(
            json.loads(text, parse_int=config._json_int))

    check()


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


def test_preset_mode_override(tmp_path, capsys):
    # fig3a is a paper-mode preset: --mode derived reruns it in that mode
    def y_column(path):
        rows = csv.DictReader(data_lines(path.read_text()))
        return [row["Y"] for row in rows]

    paper, derived, again = (tmp_path / name for name in ("p", "d", "a"))
    assert cli.main(["fig3a", "--out", str(paper)]) == 0
    for out in (derived, again):
        assert cli.main(["fig3a", "--mode", "derived", "--out",
                         str(out)]) == 0
    assert "# mode: derived" in derived.read_text().splitlines()
    assert y_column(derived) != y_column(paper)
    assert derived.read_bytes() == again.read_bytes()


def test_fig5_in_derived_mode_takes_its_own_fermi_temperature(tmp_path):
    # fig5 fixes T = 0.1 T_F, and derived mode's T_F is not paper mode's
    out = tmp_path / "fig5.csv"
    assert cli.main(["fig5", "--mode", "derived", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "# mode: derived" in lines
    echo = next(line for line in lines if "temperature=" in line)
    T = float(echo.split("temperature=")[1].split()[0])
    base = figure_preset("fig5").base.replace(compat_mode=CompatMode.DERIVED)
    assert T == 0.1 * fermi_temperature(base)


@pytest.mark.parametrize("section, key, value, rule", [
    ("boson", "count", -5, "N_b must be strictly positive"),
    ("thermal", "volume", -3, "volume must be positive and finite")])
def test_field_rule_message_names_the_config_field(tmp_path, capsys, section,
                                                   key, value, rule):
    cfg = base_config()
    cfg[section][key] = value
    path = write_config(tmp_path, cfg)
    for command in ("zero-t", "finite-t"):
        assert cli.main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {rule}, got {float(value)!r} "
                       f"(config field '{section}.{key}')\n")


@pytest.mark.parametrize("section, key, value, message", [
    ("boson", "mass_u", -7, "m_b must be strictly positive, got -7"),
    ("boson", "mass_u", 1e-300,
     "m_b must be strictly positive, got 1e-300 u = 0.0 kg"),
    ("fermion", "mass_kg", 0, "m_f must be strictly positive, got 0")])
def test_mass_rule_names_the_key_written(tmp_path, capsys, section, key,
                                         value, message):
    # the schema has mass_u and mass_kg, not mass: the message names the
    # key and echoes the value as written, with its kg value when the
    # conversion from u is what fails
    cfg = base_config()
    del cfg[section]["mass_u"]
    cfg[section][key] = value
    path = write_config(tmp_path, cfg)
    for command in ("zero-t", "finite-t"):
        assert cli.main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {message} "
                       f"(config field '{section}.{key}')\n")


def test_tol_validation(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["window", "--config", path, "--tol", "2.0"]) == 1
    capsys.readouterr()
    assert cli.main(["window", "--config", path, "--tol", "1e-4"]) == 0


def test_workers_env_is_ignored(tmp_path, monkeypatch, capsys):
    cfg = base_config()
    cfg["scan"] = {"observable": "omega_c",
                   "variables": [{"field": "interaction.g_bb",
                                  "from": 0.0, "to": 0.1, "points": 4}]}
    path = write_config(tmp_path, cfg)
    plain, ignored = tmp_path / "plain.csv", tmp_path / "ignored.csv"
    monkeypatch.delenv("BFMIX_WORKERS", raising=False)
    assert cli.main(["scan", "--config", path, "--out", str(plain)]) == 0
    monkeypatch.setenv("BFMIX_WORKERS", "not-a-number")
    assert cli.main(["scan", "--config", path, "--out", str(ignored)]) == 0
    assert capsys.readouterr().err == ""
    assert ignored.read_bytes() == plain.read_bytes()


def test_numeric_error_maps_to_exit_2(monkeypatch, capsys):
    def boom(args):
        raise NumericError("bisection failed in [1, 2]")
    monkeypatch.setitem(cli._COMMANDS, "zero-t",
                        (cli._COMMANDS["zero-t"][0], boom))
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
        ",".join(map(commands._cell, row)) + "\n" for row in table.rows)
    formatted = []
    cell = commands._cell
    monkeypatch.setattr(commands, "_cell",
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

    names = itertools.count()

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
        # a fresh name: rewriting one file in place waits for writeback
        config = write_config(tmp_path, cfg, name=f"cfg{next(names)}.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", config,
                             "--out", str(tmp_path / "out.csv")])
        assert code in (0, 1, 2, 3), (command, path, new, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()


# a config field path as messages write it, e.g. boson.omega
_FIELD = re.compile(r"\b(boson|fermion|interaction|thermal)\.[a-z_]+")


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@pytest.mark.parametrize("g_bf", [0.0, 0.3])
def test_one_field_magnitudes_exit_naming_a_field(tmp_path, g_bf):
    """Each numeric field of an oscillator config, one at a time, set to
    +-1e+-{10, 30, 100, 200, 300}: zero-t, tf, finite-t and window exit 0
    or 1, or 2 with a message that names a config field, and no float
    exception reaches the command line."""
    valid = base_config(interaction={"g_bb": 0.05, "g_bf": g_bf,
                                     "g_ff": 0.01})
    valid["thermal"]["temperature"] = 5.0
    paths = [path for path in _leaf_paths(valid)
             if type(_at(valid, path)) in (int, float)]
    assert len(paths) == 13
    magnitudes = [sign * 10.0 ** (side * e) for e in (10, 30, 100, 200, 300)
                  for side in (1, -1) for sign in (1, -1)]
    names = itertools.count()
    for path, value in itertools.product(paths, magnitudes):
        cfg = json.loads(json.dumps(valid))
        _at(cfg, path[:-1])[path[-1]] = value
        config = write_config(tmp_path, cfg, name=f"cfg{next(names)}.json")
        for command in ("zero-t", "tf", "finite-t", "window"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", config])
            message = err.getvalue()
            where = (command, path, value, message)
            assert code in (0, 1, 2), where
            assert code != 2 or _FIELD.search(message), where
            assert "ZeroDivisionError" not in message, where
            assert "OverflowError" not in message, where


# a message that is only a float exception's type and arguments, as
# "numeric error: OverflowError: (34, 'Numerical result out of range')"
_BARE = re.compile(r"^[a-z/]+ error: [A-Z]\w*Error\b")
# the fields Thomas-Fermi's trap record reads
_TRAP_FIELDS = [("boson", "count"), ("boson", "mass_u"), ("boson", "omega"),
                ("fermion", "count"), ("fermion", "mass_u"),
                ("fermion", "omega"), ("interaction", "g_bb"),
                ("interaction", "g_bf")]


def _exits_naming_a_field(tmp_path, names, cfg, commands):
    """Run each command on cfg: it exits 0 or 1, or 2 with a message that
    names a config field, and no message is a bare exception type; returns
    the exit codes."""
    config = write_config(tmp_path, cfg, name=f"cfg{next(names)}.json")
    codes = []
    for command in commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main([command, "--config", config]))
        message = err.getvalue()
        where = (command, cfg, message)
        assert codes[-1] in (0, 1, 2), where
        assert codes[-1] != 2 or _FIELD.search(message), where
        assert not _BARE.search(message), where
    return codes


@pytest.mark.parametrize("g_bf", [0.0, 0.3])
def test_every_fifth_decade_exits_naming_a_field(tmp_path, g_bf):
    """Each numeric field at +-1e-305 ... +-1e305 in steps of 5 decades
    through zero-t, finite-t and window, and each field the Thomas-Fermi
    trap reads in steps of 20 decades through tf, with the light fermions
    of 1e-220 ... 1e-245 u, which once exited on a bare OverflowError, and
    the traps whose condensate is a tiny fraction of the grid, which tf
    solves."""
    valid = base_config(interaction={"g_bb": 0.05, "g_bf": g_bf,
                                     "g_ff": 0.01})
    valid["thermal"]["temperature"] = 5.0
    paths = [path for path in _leaf_paths(valid)
             if type(_at(valid, path)) in (int, float)]
    assert len(paths) == 13
    names = itertools.count()

    def with_fields(*pairs):
        cfg = json.loads(json.dumps(valid))
        for path, value in pairs:
            _at(cfg, path[:-1])[path[-1]] = value
        return cfg

    for step, fields, commands in ((5, paths, ("zero-t", "finite-t",
                                               "window")),
                                   (20, _TRAP_FIELDS, ("tf",))):
        for path, e, sign in itertools.product(
                fields, range(-305, 306, step), (1, -1)):
            _exits_naming_a_field(tmp_path, names, with_fields(
                (path, sign * 10.0 ** e)), commands)
    for mass in (1e-220, 1e-225, 1e-230, 1e-235, 1e-240, 1e-245):
        _exits_naming_a_field(tmp_path, names, with_fields(
            (("fermion", "mass_u"), mass)), ("tf",))
    for mass, omega in ((1e-200, 1e80), (1e-200, 1e120), (1e-190, 1e140)):
        assert _exits_naming_a_field(tmp_path, names, with_fields(
            (("fermion", "mass_u"), mass), (("boson", "omega"), omega)),
            ("tf",)) == [0]


def test_two_extreme_fields_exit_naming_a_field(tmp_path):
    """Two fields of the traps' eight at log-uniform magnitudes 1e-300 ...
    1e300, in either compat mode and at an attractive, zero or repulsive
    g_bf: all four commands exit as the decade sweep requires."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    names = itertools.count()

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        fields=st.lists(st.sampled_from(_TRAP_FIELDS), min_size=2,
                        max_size=2, unique=True),
        exponents=st.lists(st.floats(-300.0, 300.0), min_size=2,
                           max_size=2),
        mode=st.sampled_from(["paper", "derived"]),
        g_bf=st.sampled_from([0.0, 0.3, -0.3]))
    def check(fields, exponents, mode, g_bf):
        cfg = base_config(compat_mode=mode, interaction={
            "g_bb": 0.05, "g_bf": g_bf, "g_ff": 0.01})
        cfg["thermal"]["temperature"] = 5.0
        for (section, key), e in zip(fields, exponents):
            cfg[section][key] = 10.0 ** e
        _exits_naming_a_field(tmp_path, names, cfg,
                              ("zero-t", "tf", "finite-t", "window"))

    check()


@pytest.mark.parametrize("observable", ["Omega_c", "Y"])
def test_zero_T_scan_on_a_slow_boson_trap(tmp_path, capsys, observable):
    # boson.omega = 1e-100 rad/s: omega^3 of the SI boson slope underflows
    # to 0, while in trap units the condensate solves, and every row does
    cfg = base_config()
    cfg["boson"]["omega"] = 1e-100
    cfg["scan"] = {"observable": observable, "variables": [
        {"field": "interaction.g_bf", "values": [-0.1, 0.0, 0.1]},
        {"field": "boson.count", "values": [1000, 1e6]}]}
    assert cli.main(["scan", "--config", write_config(tmp_path, cfg)]) == 0
    rows = data_lines(capsys.readouterr().out)[1:]
    assert len(rows) == 6
    assert all(row.endswith(",OK") for row in rows), rows


def test_reader_that_stops_early_exits_3_quietly():
    # commands.main's BrokenPipeError branch, which runs only in a fresh
    # process: fig5 writes about 685 kB, far past the 100 bytes read
    proc = subprocess.Popen([sys.executable, "-m", "bfmix", "fig5"],
                            env=_fresh_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 3
    finally:
        proc.kill()
        proc.stderr.close()
    assert len(head) == 100 and err == b""


def test_full_disk_exits_3_with_the_os_error():
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "bfmix", "fig1"],
                                env=_fresh_env(), stdout=full,
                                capture_output=False, stderr=subprocess.PIPE,
                                text=True, timeout=120)
    assert result.returncode == 3
    assert result.stderr == ("i/o error: [Errno 28] No space left on "
                             "device\n")


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


def test_float_overflow_is_a_numeric_failure(tmp_path, capsys,
                                            monkeypatch):
    # Python's scalar ** raises OverflowError where numpy would give inf:
    # on its own it exits 2, in a scan it fails only its row.  At m_f =
    # 1e200 u the Thomas-Fermi fermion density unit overflows, which tf
    # reports naming the trap's fields, while zero-T works in trap units,
    # where this trap is in range; at 1.5e173 u, where only the SI density
    # prefactor overflowed, tf works in trap units too; the bare
    # OverflowError comes from a tf_profiles patched to overflow
    cfg = base_config(interaction={"g_bb": 0.05, "g_bf": 0.3, "g_ff": 0.01})
    cfg["fermion"]["mass_u"] = 1.5e173
    assert cli.main(["tf", "--config", write_config(tmp_path, cfg)]) == 0
    capsys.readouterr()
    cfg["fermion"]["mass_u"] = 1e200
    path = write_config(tmp_path, cfg)
    assert cli.main(["tf", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: mu_b, ") and "fermion.mass" in err
    assert cli.main(["zero-t", "--config", path]) == 0
    assert capsys.readouterr().err == ""
    with monkeypatch.context() as patch:
        patch.setattr(thomas_fermi, "tf_profiles", lambda config: 1e200 ** 2)
        assert cli.main(["tf", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("numeric error: OverflowError")
    cfg["fermion"]["mass_u"] = 7.0
    cfg["scan"] = {"observable": "Y", "variables": [
        {"field": "fermion.mass", "values": [7.0, 1.5e173]}]}
    trap = zero_temperature._fermion_trap

    def overflowing(omega_c, config):
        return trap(omega_c, config) if config.m_f < 1e100 else 1e200 ** 2
    monkeypatch.setattr(zero_temperature, "_fermion_trap", overflowing)
    assert cli.main(["scan", "--config", write_config(tmp_path, cfg)]) == 0
    rows = data_lines(capsys.readouterr().out)[1:]
    assert rows[0].endswith(",OK")
    assert rows[1].endswith(",nan,nan,ERROR:OverflowError")


def test_attraction_beyond_the_Omega_c_bracket_fails_its_row(tmp_path,
                                                              capsys):
    # m_b = 1e-170 kg: q_inf underflows to 0, so at g_bf = -1e300 the
    # attractive bracket's upper end is 0 * inf = nan, not a grid size
    path = write_config(tmp_path, {
        "unit_system": "si", "compat_mode": "derived",
        "boson": {"mass_kg": 1e-170, "omega": 1.0, "count": 1e10},
        "fermion": {"mass_kg": 1e-26, "omega": 1.0, "count": 1},
        "interaction": {"g_bb": 0.0, "g_bf": -1e300, "g_ff": 0.0},
        "scan": {"observable": "Omega_c", "variables": [
            {"field": "interaction.g_bf", "values": [-1e300, -1e-60]}]}})
    assert cli.main(["scan", "--config", path]) == 0
    out, err = capsys.readouterr()
    rows = data_lines(out)[1:]
    assert rows[0] == "-1.0000000000000001e+300,nan,ERROR:NumericError"
    assert rows[1].startswith("-9.9999999999999997e-61,")
    assert rows[1].endswith(",OK")
    assert err == ""


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


def test_fresh_process_tf_overflow_names_the_density_and_field(tmp_path):
    # g_bf = -1e300: the Thomas-Fermi fermion density overflows float
    # range; exit 2 with one line that says so and names the coupling
    path = write_config(tmp_path, _overflow_config(g_bf=-1e300))
    result = _run_fresh(tmp_path, ["tf", "--config", path])
    assert result.returncode == 2
    line, = result.stderr.splitlines()
    assert result.stderr == line + "\n"
    assert line.startswith("numeric error: the Thomas-Fermi fermion "
                           "density overflows")
    assert "interaction.g_bf" in line


def test_tf_overflow_from_a_crowded_condensate_names_the_boson_count(
        tmp_path, capsys):
    # an ordinary coupling, but N_b = 1e300 raises the e_F bound until the
    # fermion density overflows: the message names the count too
    cfg = base_config(interaction={"g_bb": 0.05, "g_bf": 0.3, "g_ff": 0.01})
    cfg["boson"]["count"] = 1e300
    assert cli.main(["tf", "--config", write_config(tmp_path, cfg)]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith("numeric error: the Thomas-Fermi fermion "
                           "density overflows")
    for field in ("boson.count", "fermion.count", "interaction.g_bb",
                  "interaction.g_bf"):
        assert field in line


# ---------------------------------------------------------------------------
# the process entry
# ---------------------------------------------------------------------------

def test_main_leaves_the_collector_as_it_was(tmp_path, capsys):
    # tests and tracers call main in process: it leaves the collector
    # alone
    before = (gc.get_freeze_count(), gc.isenabled())
    for argv in (["fig1", "--out", str(tmp_path / "fig1.csv")],
                 ["fig1"], ["--version"], ["frobnicate"]):
        cli.main(argv)
        assert (gc.get_freeze_count(), gc.isenabled()) == before
    capsys.readouterr()


def test_console_script_is_the_entry_python_m_runs(monkeypatch):
    # pyproject's console script names the function `python -m bfmix`
    # calls, and it ends the process with main's exit code: by os._exit,
    # or by SystemExit under a profiler
    tomllib = pytest.importorskip("tomllib")
    root = Path(bfmix.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["bfmix"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    calls = []
    monkeypatch.setitem(entry.__globals__, "main",
                        lambda: calls.append("main") or 7)
    profile = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        with pytest.raises(SystemExit) as exit_:
            entry()
    finally:
        sys.setprofile(profile)
    assert exit_.value.code == 7
    assert calls == ["main"]
    probe = ("import os, runpy, sys; from bfmix import commands; "
             "calls = []; commands.main = lambda: calls.append('main') or 7; "
             "os._exit = lambda code: calls.append("
             "(sys._getframe(1).f_code, code))\n"
             "try: runpy.run_module('bfmix', run_name='__main__')\n"
             "except SystemExit: "
             "print(calls[0], calls[1][0].co_filename, "
             "calls[1][0].co_name, calls[1][1])")
    code = entry.__code__
    assert _fresh_probe(probe).split() == [
        "main", code.co_filename, code.co_name, "7"]


_WINDOW_MODULES = ["_panels", "brent", "commands", "config", "constants",
                   "errors", "finite_temperature", "specfun"]
_ALL_MODULES = sorted({*_WINDOW_MODULES, "scan_engine", "thomas_fermi",
                       "zero_temperature"})


@pytest.mark.parametrize("command, modules", [
    ("window", _WINDOW_MODULES),
    ("finite-t", _WINDOW_MODULES),
    ("tf", ["commands", "config", "constants", "errors", "thomas_fermi"]),
    ("zero-t", ["brent", "commands", "config", "constants", "errors",
                "zero_temperature"]),
    ("scan", _ALL_MODULES),
    ("fig1", _ALL_MODULES),
])
def test_process_entry_loads_only_the_command_s_modules(tmp_path, command,
                                                        modules):
    # `python -m bfmix COMMAND` imports the modules the command runs, and
    # no json package: the config is read by json's C scanner
    cfg = base_config(interaction={"g_bb": 0.05, "g_bf": 0.3, "g_ff": 0.01})
    cfg["thermal"]["temperature"] = 5.0
    cfg["scan"] = {"observable": "Z", "variables": [
        {"field": "interaction.g_bb", "from": 0.0, "to": 0.1, "points": 3}]}
    argv = [command, "--out", str(tmp_path / "out.csv")]
    if command != "fig1":
        argv += ["--config", write_config(tmp_path, cfg)]
    probe = ("import atexit, runpy, sys; "
             "atexit.register(lambda: print(sorted(m for m in sys.modules "
             "if m.startswith(('bfmix.', 'json'))))); "
             "runpy.run_module('bfmix', run_name='__main__')")
    loaded = _fresh_probe(probe, *argv)
    assert loaded == str([f"bfmix.{name}" for name in modules])
    assert len(data_lines((tmp_path / "out.csv").read_text())) >= 2


def test_process_entry_runs_atexit_handlers(tmp_path):
    # the exit skips the interpreter's teardown, not the atexit handlers
    probe = ("import atexit, runpy, sys; "
             "sys.argv[1:] = ['fig1', '--out', sys.argv[1]]; "
             "atexit.register(print, 'handler ran'); "
             "runpy.run_module('bfmix', run_name='__main__')")
    assert _fresh_probe(probe, str(tmp_path / "fig1.csv")) == "handler ran"


def test_process_entry_under_cprofile_prints_its_stats(tmp_path):
    # under a profiler the process exits normally, so cProfile prints
    # the stats it writes once the run returns, after fig1's table
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--out", str(out)]) == 0
    result = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "bfmix", "fig1"],
        env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    table = out.read_text()
    assert result.stdout.startswith(table)
    assert " function calls " in result.stdout[len(table):]


def test_fresh_process_stdout_matches_out(tmp_path):
    # fig5 through a stdout pipe: the bytes of --out, and nothing on
    # stderr
    env = _fresh_env()
    out = tmp_path / "fig5.csv"
    to_file = subprocess.run(
        [sys.executable, "-m", "bfmix", "fig5", "--out", str(out)],
        env=env, capture_output=True, timeout=120)
    to_pipe = subprocess.run([sys.executable, "-m", "bfmix", "fig5"],
                             env=env, capture_output=True, timeout=120)
    assert (to_file.returncode, to_file.stderr) == (0, b"")
    assert (to_pipe.returncode, to_pipe.stderr) == (0, b"")
    assert to_pipe.stdout == out.read_bytes()


def test_fresh_process_broken_pipe_exits_3_quietly():
    # a reader that stops after one line of fig5 (685 kB, beyond any
    # pipe buffer): exit 3, the I/O code, and nothing on stderr
    proc = subprocess.Popen([sys.executable, "-m", "bfmix", "fig5"],
                            env=_fresh_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# bfmix ")
    proc.stdout.close()
    try:
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    with proc.stderr:
        assert (code, proc.stderr.read()) == (3, b"")


# ---------------------------------------------------------------------------
# the argument grammar
# ---------------------------------------------------------------------------

def _window_rows(argv, capsys):
    assert cli.main(argv) == 0
    return data_lines(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["window", "--config={path}"],
    ["--config", "{path}", "window"],
    ["--config={path}", "--tol", "1e-8", "window"],
    ["window", "--conf", "{path}"],
    ["window", "--c={path}", "--to=1e-8"],
])
def test_option_spellings_read_the_same(tmp_path, capsys, argv):
    # --opt VALUE or --opt=VALUE, before or after the subcommand, and any
    # unique prefix of the option's name
    path = write_config(tmp_path, base_config())
    expected = _window_rows(["window", "--config", path], capsys)
    argv = [arg.format(path=path) for arg in argv]
    assert _window_rows(argv, capsys) == expected


def test_options_after_the_subcommand_set_the_output(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "w.csv"
    assert cli.main(["--out=" + str(out), "window", "--mode=derived",
                     "--config", path]) == 0
    assert capsys.readouterr().out == ""
    assert "# mode: derived" in out.read_text().splitlines()


@pytest.mark.parametrize("argv, names", [
    (["window", "--bogus"], "--bogus"),
    (["window", "--bogus=1"], "--bogus"),
    (["window", "--config"], "--config"),
    (["window", "--config", "--out", "x.csv"], "--config"),
    (["window", "--config", "c.json", "extra"], "extra"),
    (["window", "--tol", "abc"], "--tol"),
    (["window", "--tol=1e-3x"], "--tol"),
    (["scan", "--workers", "two"], "--workers"),
    (["scan", "--workers", "-1"], "--workers"),
    (["scan", "--workers=1.5"], "--workers"),
    (["window", "--mode", "exact"], "--mode"),
    (["window", "--help=yes"], "--help"),
    (["frobnicate"], "frobnicate"),
    (["--", "fig1"], "ambiguous option: -- could match --config, "),
    ([], "SUBCOMMAND"),
])
def test_bad_argument_exit_1_names_it(capsys, argv, names):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: ") and names in line


def test_help_and_version_by_prefix(capsys):
    assert cli.main(["--he"]) == 0
    assert "subcommands:" in capsys.readouterr().out.splitlines()
    assert cli.main(["-h"]) == 0
    assert "subcommands:" in capsys.readouterr().out.splitlines()
    assert cli.main(["--vers"]) == 0
    assert capsys.readouterr().out == f"bfmix {bfmix.__version__}\n"


def test_help_lists_every_option(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("--config", "--out", "--mode", "--tol", "--workers",
                 "--version"):
        assert name in out


def test_preset_run_loads_no_argparse_gettext_locale_or_re(tmp_path):
    # without site (whose .pth hooks may load re themselves), importing
    # bfmix.cli and running a preset loads none of these: the parser is
    # the package's own and no cell is matched by a regular expression
    code = ("import sys, bfmix.cli; "
            "assert bfmix.cli.main(['fig1', '--out', sys.argv[1]]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('argparse', 'gettext', 'locale', 're')))")
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(tmp_path / "fig1.csv")],
        env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
