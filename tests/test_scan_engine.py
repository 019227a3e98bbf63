"""Scan engine tests: grids, presets, determinism, and error rows."""

import io
import itertools
import math
import re

import numpy as np
import pytest

from bfmix import finite_temperature as ft
from bfmix import scan_engine
from bfmix import zero_temperature as zt
from bfmix.cli import write_csv
from bfmix.config import (
    _FIELD_PATHS, CompatMode, MixtureConfig, UnitSystem, config_from_dict)
from bfmix.constants import atomic_mass
from bfmix.errors import ConfigError, DomainError, NumericError
from bfmix.scan_engine import (
    OBSERVABLES,
    PRESET_TAGS,
    ScanRange,
    ScanSpec,
    figure_preset,
    run_scan,
    scan_spec_from_dict,
)
from bfmix.thomas_fermi import classify_tf_regime
from bfmix.zero_temperature import (
    classify_zero_T,
    solve_Omega_c,
    solve_omega_c,
)


def osc_cfg(**kw):
    args = dict(m_b=7.0 * atomic_mass, m_f=7.0 * atomic_mass,
                omega_b=166.0, omega_f=166.0, N_b=1000.0, N_f=100.0,
                g_bb=0.05, g_bf=0.0, g_ff=0.0,
                compat_mode=CompatMode.PAPER)
    args.update(kw)
    return MixtureConfig.from_oscillator(**args)


def test_range_grid_linear():
    r = ScanRange("interaction.g_bb", 0.0, 1.0, 5)
    assert np.allclose(r.grid(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_range_grid_log():
    r = ScanRange("thermal.temperature", 1.0, 100.0, 3, scale="log")
    assert np.allclose(r.grid(), [1.0, 10.0, 100.0])


def test_range_values_override():
    r = ScanRange("boson.count", values=(1000.0, 10000.0))
    assert np.asarray(r.grid()).tolist() == [1000.0, 10000.0]


def test_range_validation():
    with pytest.raises(ConfigError):
        ScanRange("no.such.field", 0.0, 1.0, 5)
    with pytest.raises(ConfigError):
        ScanRange("interaction.g_bb", 0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        ScanRange("interaction.g_bb", 0.3, 0.3, 5)
    with pytest.raises(ConfigError):
        ScanRange("interaction.g_bb", 0.0, 1.0, 5, scale="cubic")
    with pytest.raises(ConfigError):
        ScanRange("interaction.g_bb", 0.0, 1.0, 5, scale="log")
    with pytest.raises(ConfigError):
        ScanRange("interaction.g_bb", values=())


def test_range_replace_and_make_check_like_new():
    # namedtuple's _replace and _make would otherwise skip __new__, and a
    # 0-point axis would scan as one row
    r = ScanRange("interaction.g_bb", 0.0, 0.1, 3)
    with pytest.raises(ConfigError, match="points"):
        r._replace(points=0)
    with pytest.raises(ConfigError, match="unknown scan field 'nope'"):
        ScanRange._make(("nope", 1, 2, 3, "linear", None))
    assert ScanRange._make(r) == r
    assert r._replace(points=5).grid() == ScanRange(
        "interaction.g_bb", 0.0, 0.1, 5).grid()


@pytest.mark.parametrize("kwargs, where", [
    (dict(start=math.nan, stop=1.0, points=4), "scan.interaction.g_bb.from"),
    (dict(start=0.0, stop=math.inf, points=4), "scan.interaction.g_bb.to"),
    (dict(start=-math.inf, stop=1.0, points=4, scale="log"),
     "scan.interaction.g_bb.from"),
    (dict(values=(0.1, math.nan)), "scan.interaction.g_bb.values[1]"),
    (dict(values=(math.inf,)), "scan.interaction.g_bb.values[0]"),
    (dict(values=(True, 0.1)), "scan.interaction.g_bb.values[0]"),
])
def test_range_rejects_non_finite(kwargs, where):
    # built directly, not through scan_spec_from_dict
    with pytest.raises(ConfigError, match=re.escape(where)):
        ScanRange("interaction.g_bb", **kwargs)


@pytest.mark.parametrize("points", [2.5, 4.0, True, "10", None, 1])
def test_range_rejects_non_integer_points(points):
    # built directly; a float count used to reach np.linspace and raise
    # a bare TypeError from grid()
    with pytest.raises(ConfigError,
                       match=re.escape("scan.interaction.g_bb.points")):
        ScanRange("interaction.g_bb", 0.0, 1.0, points)


def test_scan_grid_size_is_capped():
    # only the errors are asserted and no grid is built on the way, so a
    # tree without the cap fails these checks rather than allocating
    with pytest.raises(ConfigError,
                       match=re.escape("scan.interaction.g_bb.points")):
        ScanRange("interaction.g_bb", 0.0, 1.0, 1_000_001)
    assert ScanRange("interaction.g_bb", 0.0, 1.0, 1_000_000).size() \
        == scan_engine.MAX_SCAN_POINTS
    with pytest.raises(ConfigError,
                       match=re.escape("scan.variables[0].points")):
        scan_spec_from_dict(osc_cfg(), {
            "observable": "omega_c",
            "variables": [{"field": "interaction.g_bb", "from": 0.0,
                           "to": 1.0, "points": 10 ** 9}]})
    axis = {"from": 0.0, "to": 1.0, "points": 1001}
    with pytest.raises(ConfigError, match=re.escape(
            "'scan.variables[0]' (interaction.g_bb) x "
            "'scan.variables[1]' (interaction.g_bf) has 1001 x 1001")):
        scan_spec_from_dict(osc_cfg(), {
            "observable": "omega_c",
            "variables": [dict(axis, field="interaction.g_bb"),
                          dict(axis, field="interaction.g_bf")]})
    # a spec built directly meets the same check, which run_scan makes
    # before grid()
    spec = ScanSpec(base=osc_cfg(), observable="omega_c", variables=(
        ScanRange("interaction.g_bb", values=(0.0,) * 1001),
        ScanRange("interaction.g_bf", 0.0, 1.0, 1000)))
    with pytest.raises(ConfigError, match="1001 x 1000 points"):
        scan_engine._validate(spec)


def test_spec_validation_precedes_evaluation():
    base = osc_cfg()
    with pytest.raises(ConfigError):
        run_scan(ScanSpec(base=base,
                          variables=(ScanRange("interaction.g_bb",
                                               0.0, 0.1, 5),),
                          observable="bogus"))
    with pytest.raises(ConfigError):
        run_scan(ScanSpec(base=base, variables=(), observable="omega_c"))
    dup = ScanRange("interaction.g_bb", 0.0, 0.1, 5)
    with pytest.raises(ConfigError):
        run_scan(ScanSpec(base=base, variables=(dup, dup),
                          observable="omega_c"))
    # window observables need a bracketing range up front
    with pytest.raises(ConfigError):
        run_scan(ScanSpec(base=osc_cfg(volume=1000.0),
                          variables=(ScanRange("interaction.g_bf",
                                               0.0, 0.1, 3),),
                          observable="T_c1"))
    # finite-T observables need a volume
    with pytest.raises(ConfigError):
        run_scan(ScanSpec(base=base,
                          variables=(ScanRange("thermal.temperature",
                                               1.0, 10.0, 3),),
                          observable="Z"))
    g_bf = (ScanRange("interaction.g_bf", 0.0, 0.1, 3),)
    with pytest.raises(ConfigError, match="base must be a MixtureConfig"):
        run_scan(ScanSpec(base=base._asdict(), variables=g_bf,
                          observable="omega_c"))
    with pytest.raises(ConfigError, match="must be ScanRange instances"):
        run_scan(ScanSpec(base=base, variables=(("interaction.g_bf",
                                                 0.0, 0.1, 3),),
                          observable="omega_c"))
    with pytest.raises(ConfigError, match=re.escape("got [5.0, 1.0]")):
        run_scan(ScanSpec(base=osc_cfg(volume=1000.0), variables=g_bf,
                          observable="T_c1", t_range=(5.0, 1.0)))
    # Z needs a temperature, set or swept
    with pytest.raises(ConfigError, match="needs thermal.temperature"):
        run_scan(ScanSpec(base=osc_cfg(volume=1000.0), variables=g_bf,
                          observable="Z"))


def test_unknown_preset():
    with pytest.raises(ConfigError):
        figure_preset("fig9")


def test_preset_tags_complete():
    assert PRESET_TAGS == ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5")


def test_fig1_columns_and_monotonicity():
    table = run_scan(figure_preset("fig1"))
    assert table.columns == ("g_bb", "omega_c", "status")
    assert len(table.rows) == 200
    assert all(row[-1] == "OK" for row in table.rows)
    vals = [row[1] for row in table.rows]
    # g_bb = 0 leaves the bare trap frequency untouched
    assert table.rows[0][0] == 0.0
    assert np.isclose(vals[0], 166.0, rtol=1e-12)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_fig2_row_order_and_families():
    table = run_scan(figure_preset("fig2"))
    assert table.columns == ("N_b", "g_bf", "Omega_c", "status")
    assert len(table.rows) == 400
    # outer variable changes slowest
    assert all(row[0] == 1000.0 for row in table.rows[:200])
    assert all(row[0] == 10000.0 for row in table.rows[200:])
    g = [row[1] for row in table.rows[:200]]
    assert g[0] == -0.2 and g[-1] == 0.2
    assert all(row[-1] == "OK" for row in table.rows)
    assert all(row[2] > 0 for row in table.rows)


def test_fig3_sign_column():
    table = run_scan(figure_preset("fig3a"))
    assert table.columns == ("g_bf", "Y", "sign_Y", "status")
    for row in table.rows:
        assert row[2] == np.sign(row[1])
    signs = [row[2] for row in table.rows]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1
    assert signs[0] == 1.0 and signs[-1] == -1.0


def test_sign_Y_holds_where_SI_Y_underflows():
    # N_f = 1e-300: SI Y = hbar m_f omega_f y1 y2 / v^3 underflows to 0,
    # while the brackets' product y1 y2 of the zero-T record is 173.4
    rng = ScanRange("fermion.count", values=(1e-300, 1e-250, 100.0))
    rows = run_scan(ScanSpec(base=osc_cfg(g_bf=0.01), observable="Y",
                             variables=(rng,))).rows
    assert rows[0] == (1e-300, 0.0, 1.0, "OK")
    assert all(row[1] > 0.0 and row[2:] == (1.0, "OK") for row in rows[1:])
    cfg = osc_cfg(g_bf=0.01, N_f=1e-300)
    assert zt._zero_T_classifier(cfg)[1](cfg.g_bf)[1] > 0.0


def test_fig3_thresholds_bracket_frozen_values():
    # separation onset from the discriminant grid, both boson numbers
    expected = {"fig3a": 0.03069, "fig3b": 0.00587}
    for tag, g_star in expected.items():
        table = run_scan(figure_preset(tag))
        pos = [row[0] for row in table.rows
               if row[0] > 0 and row[2] != np.sign(table.rows[0][1])]
        first_flip = min(pos)
        assert abs(first_flip - g_star) < 6e-4  # one grid step


def test_fig4_temperature_columns():
    table = run_scan(figure_preset("fig4"))
    assert table.columns == ("g_bf", "T", "T_K", "T_over_TF", "Z", "status")
    assert len(table.rows) == 600
    spec = figure_preset("fig4")
    for row in table.rows[:5]:
        T_si = spec.base.field_to_si("thermal.temperature", row[1])
        assert np.isclose(row[2], T_si, rtol=1e-14)
        assert row[3] > 0
    # T/T_F tracks the swept axis
    ratios = [row[3] for row in table.rows[:200]]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_fig4_rows_share_each_temperature_cell():
    # the rows at one temperature share its T, T_K and T/T_F objects, so
    # write_csv formats each once per column
    table = run_scan(figure_preset("fig4"))
    for column in (1, 2, 3):
        assert len({id(row[column]) for row in table.rows}) == 200


def test_fig4_stability_families():
    table = run_scan(figure_preset("fig4"))
    by_g = {}
    for row in table.rows:
        by_g.setdefault(row[0], []).append(row[4])
    # strong coupling goes unstable at low T and recovers at high T
    assert any(z < 0 for z in by_g[0.3])
    assert by_g[0.3][-1] > 0
    # the weak couplings stay stable over the whole sweep
    assert all(z > 0 for z in by_g[0.02])
    assert all(z > 0 for z in by_g[0.01])


def test_fig5_z_monotone_in_repulsions():
    table = run_scan(figure_preset("fig5"))
    assert table.columns == ("g_bb", "g_ff", "Z", "status")
    assert len(table.rows) == 10000
    # no repulsion at all cannot hold against g_bf = 0.2
    assert table.rows[0][0] == 0.0 and table.rows[0][1] == 0.0
    assert table.rows[0][2] < 0
    assert any(row[2] > 0 for row in table.rows)
    # at fixed g_bb the determinant grows with g_ff, and vice versa;
    # at g_bb = 0 the condensed boson diagonal vanishes, so the first
    # block is exactly flat rather than strictly increasing
    for block in range(0, 10000, 100):
        z = [row[2] for row in table.rows[block:block + 100]]
        g_bb = table.rows[block][0]
        if g_bb == 0.0:
            assert all(a == b for a, b in zip(z, z[1:]))
        else:
            assert all(a < b for a, b in zip(z, z[1:]))
    for offset in range(0, 100, 17):
        z = [table.rows[block + offset][2]
             for block in range(0, 10000, 100)]
        assert all(a < b for a, b in zip(z, z[1:]))


def test_rerun_identical():
    a = run_scan(figure_preset("fig3a"))
    b = run_scan(figure_preset("fig3a"))
    assert a == b


def test_serial_matches_parallel():
    spec = figure_preset("fig4")
    serial = run_scan(spec)
    parallel = run_scan(spec, workers=8)
    assert serial == parallel


def test_error_rows_keep_their_place():
    base = osc_cfg()
    spec = ScanSpec(base=base,
                    variables=(ScanRange("boson.count",
                                         values=(1000.0, -5.0, 2000.0)),),
                    observable="omega_c")
    table = run_scan(spec)
    assert len(table.rows) == 3
    assert table.rows[0][-1] == "OK"
    assert table.rows[1][-1] == "ERROR:ConfigError"
    assert math.isnan(table.rows[1][1])
    assert table.rows[2][-1] == "OK"


def test_window_observables_report_nan_for_absent_edges():
    base = osc_cfg(N_f=10000.0, g_bb=0.05, g_ff=0.01, volume=1000.0)
    spec = ScanSpec(base=base,
                    variables=(ScanRange("interaction.g_bf",
                                         values=(0.3, 0.01)),),
                    observable="T_c2", t_range=(0.5, 50.0))
    table = run_scan(spec)
    assert table.rows[0][-1] == "OK" and table.rows[0][1] > 0
    assert table.rows[1][-1] == "OK" and math.isnan(table.rows[1][1])
    spec_lo = ScanSpec(base=base, variables=spec.variables,
                       observable="T_c1", t_range=(0.5, 50.0))
    table_lo = run_scan(spec_lo)
    # single crossing: the sweep recovers only an upper edge
    assert math.isnan(table_lo.rows[0][1])
    assert table_lo.rows[0][-1] == "OK"


def test_provenance_content():
    table = run_scan(figure_preset("fig4"))
    text = "\n".join(table.provenance)
    assert "preset: fig4" in text
    assert "mode: paper" in text
    assert "observable: Z" in text
    fixed = [l for l in table.provenance
             if l.startswith("fixed by figure definition:")]
    repro = [l for l in table.provenance
             if l.startswith("reproduction choices:")]
    assert len(fixed) == 1 and "N_b = 1000" in fixed[0]
    assert len(repro) == 1 and "V = 1000 a^3" in repro[0]
    assert any(l.startswith("bfmix ") for l in table.provenance)


def test_spec_from_dict_round_trip():
    base = osc_cfg()
    spec = scan_spec_from_dict(base, {
        "observable": "omega_c",
        "variables": [{"field": "interaction.g_bb",
                       "from": 0.0, "to": 0.1, "points": 5}],
    })
    table = run_scan(spec)
    assert len(table.rows) == 5
    assert all(row[-1] == "OK" for row in table.rows)


def test_spec_from_dict_values_and_t_range():
    base = osc_cfg(N_f=10000.0, g_ff=0.01, volume=1000.0)
    spec = scan_spec_from_dict(base, {
        "observable": "T_c2",
        "variables": [{"field": "interaction.g_bf", "values": [0.3]}],
        "t_range": [0.5, 50.0],
    })
    assert spec.t_range == (0.5, 50.0)
    table = run_scan(spec)
    assert table.rows[0][-1] == "OK"


def test_window_range_converted_once_per_scan(monkeypatch):
    # one conversion of each end of scan.t_range, not one per point
    base = osc_cfg(N_f=10000.0, g_ff=0.01, volume=1000.0)
    spec = ScanSpec(base=base, observable="T_c1", t_range=(0.5, 50.0),
                    variables=(ScanRange("interaction.g_bf",
                                         values=(0.3, 0.2, 0.02, 0.01)),))
    to_si = MixtureConfig.field_to_si
    calls = []
    monkeypatch.setattr(MixtureConfig, "field_to_si",
                        lambda *a: calls.append(a[1:]) or to_si(*a))
    table = run_scan(spec)
    assert calls == [("thermal.temperature", 0.5),
                     ("thermal.temperature", 50.0)]
    assert [row[-1] for row in table.rows] == ["OK"] * 4


def test_spec_from_dict_rejects_unknown_keys():
    base = osc_cfg()
    with pytest.raises(ConfigError, match="'scan' must be an object"):
        scan_spec_from_dict(base, [])
    with pytest.raises(ConfigError):
        scan_spec_from_dict(base, {"observable": "omega_c",
                                   "variables": [], "extra": 1})
    with pytest.raises(ConfigError):
        scan_spec_from_dict(base, {"observable": "omega_c",
                                   "variables": [{"field": "interaction.g_bb",
                                                  "from": 0.0, "to": 0.1,
                                                  "points": 5,
                                                  "step": 0.01}]})
    with pytest.raises(ConfigError):
        scan_spec_from_dict(base, {"observable": "omega_c"})
    with pytest.raises(ConfigError):
        scan_spec_from_dict(base, {"observable": "omega_c",
                                   "variables": [{"field": "interaction.g_bb",
                                                  "from": 0.0, "to": 0.1,
                                                  "points": 5}],
                                   "t_range": [5.0]})


@pytest.mark.parametrize("t_range, message", [
    ([5.0, 1.0], "got [5.0, 1.0]"),
    ([0.0, 1.0], "got [0.0, 1.0]"),
    ([1.0, math.inf], "scan.t_range[1]"),
    ([5.0], "must be [T_lo, T_hi] with 0 < T_lo < T_hi"),
])
def test_one_t_range_rule_for_config_scan_and_library(t_range, message):
    # thermal.t_range, scan.t_range and a ScanSpec built in code all keep
    # the rule of config._t_range, each naming its own field
    data = {"unit_system": "oscillator",
            "boson": {"mass_u": 7.0, "omega": 166.0, "count": 1000},
            "fermion": {"mass_u": 7.0, "omega": 166.0, "count": 10000},
            "interaction": {"g_bb": 0.05, "g_bf": 0.3, "g_ff": 0.01},
            "thermal": {"volume": 1000.0, "t_range": t_range}}
    with pytest.raises(ConfigError, match=re.escape(
            message.replace("scan.", "thermal."))) as thermal:
        config_from_dict(data)
    assert "thermal.t_range" in str(thermal.value)
    base = osc_cfg(N_f=10000.0, g_ff=0.01, volume=1000.0)
    g_bf = {"field": "interaction.g_bf", "values": [0.3]}
    for observable in ("omega_c", "T_c2"):
        with pytest.raises(ConfigError, match=re.escape(message)) as scan:
            scan_spec_from_dict(base, {"observable": observable,
                                       "variables": [g_bf],
                                       "t_range": t_range})
        assert "scan.t_range" in str(scan.value)
    for observable in ("omega_c", "T_c2"):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_scan(ScanSpec(base=base, observable=observable,
                              t_range=t_range,
                              variables=(ScanRange("interaction.g_bf",
                                                   values=(0.3,)),)))


def test_phase_and_regime_observables():
    base = osc_cfg(N_b=10000.0)
    spec = ScanSpec(base=base,
                    variables=(ScanRange("interaction.g_bf",
                                         values=(-0.02, 0.0, 0.04)),),
                    observable="phase")
    table = run_scan(spec)
    labels = [row[1] for row in table.rows]
    assert labels[0] == "coexisting" and labels[1] == "coexisting"
    assert labels[2] != "coexisting"
    spec_r = ScanSpec(base=base, variables=spec.variables,
                      observable="regime")
    table_r = run_scan(spec_r)
    assert all(isinstance(row[1], str) for row in table_r.rows)
    assert all(row[-1] == "OK" for row in table_r.rows)


def test_regime_scan_over_an_extreme_boson_trap_fails_on_its_config():
    # the oscillator length leaves float range at both ends: those rows
    # fail on the ConfigError of tf, not on a bare float error
    spec = ScanSpec(base=osc_cfg(), observable="regime",
                    variables=(ScanRange("boson.omega",
                                         values=(1e-300, 166.0, 1e300)),))
    statuses = [row[-1] for row in run_scan(spec).rows]
    assert statuses == ["ERROR:ConfigError", "OK", "ERROR:ConfigError"]


# ---------------------------------------------------------------------------
# Z over a coupling plane
# ---------------------------------------------------------------------------

def _z_base(unit_system, mode, big=False):
    """A Fig. 5 style box at T = 2 hbar omega_f / k_B.  With big, g_bf
    and g_ff are 1e200, beyond the range where Z is a finite float.  The
    SI box holds the same couplings converted, except 1e200 itself."""
    g_bf, g_ff = (1e200, 1e200) if big else (0.2, 0.0)
    args = dict(m_b=7.0 * atomic_mass, m_f=7.0 * atomic_mass,
                omega_b=166.0, omega_f=166.0, N_b=1000.0, N_f=10000.0,
                g_bb=0.0, compat_mode=mode)
    osc = MixtureConfig.from_oscillator(g_bf=g_bf, g_ff=g_ff, volume=1000.0,
                                        temperature=2.0, **args)
    if unit_system == "oscillator":
        return osc
    return MixtureConfig.from_si(
        g_bf=g_bf if big else osc.g_bf, g_ff=g_ff if big else osc.g_ff,
        volume=osc.volume, temperature=osc.temperature, **args)


_PLANE_AXES = {
    "g_bf": (ScanRange("interaction.g_bf",
                       values=(0.3, 0.02, -0.1, 0.0, 1e200, -1e200)),),
    "g_bb,g_ff": (ScanRange("interaction.g_bb",
                            values=(0.0, 0.05, -0.02, 1e200)),
                  ScanRange("interaction.g_ff",
                            values=(0.0, 0.03, 1e200, 0.1, 0.07))),
    "g_bf,g_bb": (ScanRange("interaction.g_bf", values=(0.2, -0.3, 1e200)),
                  ScanRange("interaction.g_bb",
                            values=(0.01, 1e200, 0.0, -0.05, 0.07))),
    "g_ff,g_bf": (ScanRange("interaction.g_ff", 0.0, 0.1, 4),
                  ScanRange("interaction.g_bf", -0.3, 0.3, 7)),
    # temperatures of 0 and below build no config
    "T": (ScanRange("thermal.temperature",
                    values=(2.0, 0.0, 0.7, -1.0, 5.0)),),
    "g_bf,T": (ScanRange("interaction.g_bf", values=(0.3, -0.1, 1e200)),
               ScanRange("thermal.temperature",
                         values=(0.5, 0.0, 3.0, -2.0, 6.0))),
    "T,g_bb": (ScanRange("thermal.temperature",
                         values=(1.0, -1.0, 0.0, 4.0)),
               ScanRange("interaction.g_bb",
                         values=(0.05, -0.02, 1e200, 0.0))),
}


def _same(a, b):
    """a and b are the same cell: of one type and equal, floats bit for
    bit but for the sign and payload of nan (repr tells -0.0 from 0.0)."""
    return type(a) is type(b) and (repr(a) == repr(b) if type(a) is float
                                   else a == b)


def _point_value(spec, cfg, state):
    """The observable of spec at one point's config, from the public
    functions; Z takes its thermal state from state."""
    observable = spec.observable
    if observable == "Z":
        return ft.stability_matrix(state(cfg, cfg.temperature), cfg).Z
    if observable == "regime":
        return classify_tf_regime(cfg).value
    if observable in ("T_c1", "T_c2"):
        T_range = [spec.base.field_to_si("thermal.temperature", T)
                   for T in spec.t_range]
        T = getattr(ft.critical_window(cfg, T_range), observable)
        return math.nan if T is None else T
    if observable == "omega_c":
        return solve_omega_c(cfg).omega_c
    if observable == "Omega_c":
        return solve_Omega_c(solve_omega_c(cfg).omega_c, cfg)
    result = classify_zero_T(cfg)
    return result.phase.value if observable == "phase" else getattr(
        result, observable)


# what fails one point of a scan
_FAILURES = (ConfigError, DomainError, NumericError, ArithmeticError)


def _per_point_rows(spec, state=ft.thermal_state):
    """The rows of spec, each point evaluated alone on its own config."""
    base, variables = spec.base, spec.variables
    fields = [r.field for r in variables]
    t = (fields.index("thermal.temperature")
         if "thermal.temperature" in fields else None)
    rows = []
    for point in itertools.product(*[r.grid() for r in variables]):
        try:
            cfg = base
            for rng, value in zip(variables, point):
                cfg = cfg.with_field(rng.field,
                                     base.field_to_si(rng.field, value))
        except _FAILURES as exc:
            cfg, failure = None, exc
        if cfg is None:
            value, status = math.nan, f"ERROR:{type(failure).__name__}"
        else:
            try:
                value, status = _point_value(spec, cfg, state), "OK"
            except _FAILURES as exc:
                value, status = math.nan, f"ERROR:{type(exc).__name__}"
        head = point
        if t is not None:
            T_K = base.field_to_si(fields[t], point[t])
            try:
                T_F = ft.fermi_temperature(cfg)
                ratio = T_K / T_F if T_F else math.nan
            except (AttributeError, *_FAILURES):
                ratio = math.nan  # no config, or no T_F
            head = (*point[:t + 1], T_K, ratio, *point[t + 1:])
        if spec.observable == "Y":
            head += (value, math.nan if math.isnan(value)
                     else float(np.sign(value)))
        else:
            head += (value,)
        rows.append((*head, status))
    return rows


def _assert_rows_match(rows, expected):
    """rows and expected hold the same cells, cell for cell."""
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert len(row) == len(want)
        assert all(map(_same, row, want)), (row, want)


@pytest.mark.parametrize("axes", sorted(_PLANE_AXES))
@pytest.mark.parametrize("mode", list(CompatMode))
@pytest.mark.parametrize("unit_system", ["oscillator", "si"])
@pytest.mark.parametrize("big", [False, True])
def test_coupling_plane_matches_per_point(monkeypatch, axes, mode,
                                          unit_system, big):
    base = _z_base(unit_system, mode, big)
    variables = _PLANE_AXES[axes]
    if unit_system == "si":
        osc = _z_base("oscillator", mode)
        variables = tuple(
            ScanRange(r.field, values=tuple(
                v if abs(v) > 1e100 else osc.field_to_si(r.field, v)
                for v in r.grid()))
            for r in variables)
    spec = ScanSpec(base=base, variables=variables, observable="Z")
    fields = [r.field for r in variables]
    t = (fields.index("thermal.temperature")
         if "thermal.temperature" in fields else None)
    temperatures = [base.temperature] if t is None else [
        base.field_to_si(fields[t], v) for v in variables[t].grid() if v > 0]
    # with a temperature axis, the state at its highest temperature fails
    broken = None if t is None else max(temperatures)

    calls = {"state": 0, "matrix": 0}
    stability_matrix = ft.stability_matrix

    def state(cfg, T):
        calls["state"] += 1
        if T == broken:
            raise DomainError("no state at this temperature")
        return ft.thermal_state(cfg, T)

    def matrix(*args):
        calls["matrix"] += 1
        return stability_matrix(*args)
    monkeypatch.setattr(scan_engine, "thermal_state", state)
    monkeypatch.setattr(ft, "stability_matrix", matrix)
    table = run_scan(spec)
    # one thermal state per temperature, no per-point matrix
    assert calls == {"state": len(temperatures), "matrix": 0}

    grids = [r.grid() for r in variables]
    points = ([(u,) for u in grids[0]] if len(grids) == 1 else
              [(u, v) for u in grids[0] for v in grids[1]])
    assert len(table.rows) == len(points)
    statuses = set()
    for point, row in zip(points, table.rows):
        try:
            cfg = base
            for rng, value in zip(variables, point):
                cfg = cfg.with_field(rng.field, base.field_to_si(rng.field,
                                                                 value))
        except ConfigError:
            cfg = None
        expected, status = math.nan, "ERROR:ConfigError"
        if cfg is not None:
            try:
                expected = ft.stability_matrix(state(cfg, cfg.temperature),
                                               cfg).Z
                status = "OK"
            except (DomainError, NumericError) as exc:
                status = f"ERROR:{type(exc).__name__}"
        head = point
        if t is not None:
            T_K = base.field_to_si(fields[t], point[t])
            ratio = (math.nan if cfg is None
                     else T_K / ft.fermi_temperature(cfg))
            head = (*point[:t + 1], T_K, ratio, *point[t + 1:])
        assert len(row) == len(head) + 2
        assert all(map(_same, row, (*head, expected, status))), (row, head)
        statuses.add(status)
    assert "OK" in statuses
    assert ("ERROR:DomainError" in statuses) == (t is not None)
    assert ("ERROR:ConfigError" in statuses) == (t is not None)
    # all three couplings at 1e200 somewhere on the plane: Z = inf - inf
    assert ("ERROR:NumericError" in statuses) == (
        big and axes in ("g_bb,g_ff", "g_bf,g_bb", "T,g_bb"))

    # and the per-point reference gives the same table, cell for cell
    assert table.columns[-2:] == ("Z", "status")
    _assert_rows_match(table.rows, _per_point_rows(spec, state))


def test_coupling_plane_overflow_signs():
    base = _z_base("oscillator", CompatMode.PAPER)
    spec = ScanSpec(base=base, observable="Z", variables=(
        ScanRange("interaction.g_bf", values=(1e200, -1e200, 0.2)),))
    values = [row[1] for row in run_scan(spec).rows]
    # the cross term dominates: Z = -inf is the right sign, not an error
    assert values[:2] == [-math.inf, -math.inf]
    assert math.isfinite(values[2])


def test_light_masses_scan_as_their_lab_scale_twin():
    # masses of 1e-170 kg, where hbar (m_f Omega + m_b omega_c)^3 of the
    # SI overlap width underflows: in trap units every zero-T row reads
    # what the twin 1e144 times heavier reads at the couplings of the same
    # oscillator-unit values, Y scaled by m_f and r_fc by a_f
    twins = ((MixtureConfig.from_si(1e-170, 1e-170, 166.0, 166.0, 1000.0,
                                    100.0, 1e-50, 1e-50), 1e216),
             (MixtureConfig.from_si(1e-26, 1e-26, 166.0, 166.0, 1000.0,
                                    100.0, 1e-266, 1e-266), 1.0))
    rows = []
    for cfg, unit in twins:
        axis = (ScanRange("interaction.g_bf", values=tuple(
            g * unit for g in (1e-266, -1e-266, 1e-46))),)
        rows.append({observable: run_scan(ScanSpec(
            base=cfg, variables=axis, observable=observable)).rows
            for observable in ("omega_c", "Omega_c", "Y", "r_fc", "phase")})
    light, lab = rows
    assert [row[1] for row in light["phase"]] == [
        "coexisting", "coexisting", "shell_separated"]
    assert light["r_fc"][2][1] > 0.0
    scales = {"omega_c": 1.0, "Omega_c": 1.0, "Y": 1e-144, "r_fc": 1e72}
    for observable, scale in scales.items():
        for a, b in zip(light[observable], lab[observable]):
            assert a[-1] == b[-1] == "OK"
            assert abs(a[1] - scale * b[1]) <= 1e-12 * abs(a[1]), (
                observable, a, b)
    assert ([row[1:] for row in light["phase"]]
            == [row[1:] for row in lab["phase"]])


def test_preset_tags_name_every_preset():
    # config.PRESET_TAGS, which the command line reads without loading
    # this module, lists the presets scan_engine builds, sorted
    assert PRESET_TAGS == tuple(sorted(scan_engine._PRESETS))
    for tag in PRESET_TAGS:
        assert figure_preset(tag).preset == tag


def test_coupling_plane_state_error_fails_every_point(monkeypatch):
    def broken(cfg, T):
        raise NumericError("no fugacity")
    monkeypatch.setattr(scan_engine, "thermal_state", broken)
    spec = ScanSpec(base=_z_base("oscillator", CompatMode.PAPER),
                    observable="Z", variables=(
                        ScanRange("interaction.g_bb", 0.0, 0.1, 3),
                        ScanRange("interaction.g_ff", 0.0, 0.1, 2)))
    rows = run_scan(spec).rows
    assert len(rows) == 6
    assert all(math.isnan(row[2]) and row[3] == "ERROR:NumericError"
               for row in rows)


def test_z_scan_over_temperature_builds_one_config_per_temperature(
        monkeypatch):
    # the couplings move neither the config's thermal state nor its T_F,
    # so the points at one temperature share one config and one state
    spec = figure_preset("fig4")
    spec = ScanSpec(base=spec.base, observable="Z", variables=(
        spec.variables[0],
        ScanRange("thermal.temperature", 0.5, 50.0, 4, scale="log")))
    built, states = [], []
    replace = MixtureConfig.replace
    monkeypatch.setattr(MixtureConfig, "replace",
                        lambda *a, **k: built.append(1) or replace(*a, **k))
    monkeypatch.setattr(scan_engine, "thermal_state",
                        lambda *a: states.append(1) or ft.thermal_state(*a))
    table = run_scan(spec)
    assert len(built) == 4 and len(states) == 4
    assert len(table.rows) == 12
    assert all(row[-1] == "OK" and row[3] > 0 for row in table.rows)


def test_coupling_plane_non_finite_si_coupling():
    # with omega_b = 1e-100 rad/s the oscillator coupling unit is
    # ~3e106 J m^3, so an input of 1e203 overflows in SI: that point
    # builds no config, and so fails, beside the finite couplings
    base = osc_cfg(omega_b=1e-100, N_f=10000.0, volume=1000.0,
                   temperature=2.0)
    spec = ScanSpec(base=base, observable="Z", variables=(
        ScanRange("interaction.g_bb", values=(0.1, 1e203)),
        ScanRange("interaction.g_bf", values=(0.0, 0.2))))
    rows = run_scan(spec).rows
    assert [row[-1] for row in rows] == ["OK", "OK", "ERROR:ConfigError",
                                         "ERROR:ConfigError"]
    assert math.isfinite(rows[0][2]) and math.isnan(rows[2][2])
    with pytest.raises(ConfigError):
        base.with_field("interaction.g_bb",
                        base.field_to_si("interaction.g_bb", 1e203))


def test_temperature_plane_fails_a_point_by_its_config_first(monkeypatch):
    # beside a temperature whose state fails, the point whose coupling
    # builds no config is a ConfigError, with T/T_F nan, as per point
    base = osc_cfg(omega_b=1e-100, N_f=10000.0, volume=1000.0)
    broken = base.field_to_si("thermal.temperature", 3.0)

    def state(cfg, T):
        if T == broken:
            raise DomainError("no state at this temperature")
        return ft.thermal_state(cfg, T)
    monkeypatch.setattr(scan_engine, "thermal_state", state)
    spec = ScanSpec(base=base, observable="Z", variables=(
        ScanRange("interaction.g_bb", values=(0.1, 1e203)),
        ScanRange("thermal.temperature", values=(2.0, 3.0))))
    rows = run_scan(spec).rows
    assert [row[-1] for row in rows] == ["OK", "ERROR:DomainError",
                                         "ERROR:ConfigError",
                                         "ERROR:ConfigError"]
    assert [math.isnan(row[3]) for row in rows] == [False, False, True,
                                                     True]
    _assert_rows_match(rows, _per_point_rows(spec, state))


def test_temperature_plane_with_a_vanishing_fermi_temperature():
    # T_F underflows to 0 for a fermion mass of 1e300 kg: T/T_F is nan,
    # as in the per-point reference, where a division by zero would fail
    base = MixtureConfig.from_si(
        m_b=1e-26, m_f=1e300, omega_b=100.0, omega_f=100.0, N_b=1000.0,
        N_f=1000.0, g_bb=1e-50, g_bf=1e-50, volume=1e-12)
    assert ft.fermi_temperature(base) == 0.0
    spec = ScanSpec(base=base, observable="Z", variables=(
        ScanRange("thermal.temperature", values=(1e-6, 2e-6)),))
    rows = run_scan(spec).rows
    assert all(row[-1] == "OK" and math.isnan(row[2]) for row in rows)
    _assert_rows_match(rows, _per_point_rows(spec))


# ---------------------------------------------------------------------------
# zero-T scans, one solve per trap
# ---------------------------------------------------------------------------

_ZERO_T = ("omega_c", "Omega_c", "Y", "r_fc", "phase")

# a N_b of 0 or -5 and a temperature of 0 or below build no trap; g_bb =
# -0.05 is a collapsed condensate at N_b = 1000, g_bb = -0.001 a
# metastable one; N_b = 1e4 >= 100 N_f has no T_F (T_F >= T_c)
_TRAP_AXES = {
    "g_bf": (ScanRange("interaction.g_bf",
                       values=(-0.2, -0.02, 0.0, 0.01, 0.05, 0.3)),),
    "N_b": (ScanRange("boson.count", values=(1000.0, 0.0, 1e4, 50.0)),),
    "N_b,g_bf": (ScanRange("boson.count", values=(1000.0, -5.0, 1e4)),
                 ScanRange("interaction.g_bf", -0.2, 0.3, 6)),
    "g_bb,g_bf": (ScanRange("interaction.g_bb",
                            values=(0.05, -0.05, 0.0, -0.001)),
                  ScanRange("interaction.g_bf",
                            values=(0.04, -0.1, 0.0, 0.2))),
    "g_bf,T": (ScanRange("interaction.g_bf", values=(0.03, -0.15, 0.0)),
               ScanRange("thermal.temperature",
                         values=(0.5, 0.0, 3.0, -2.0))),
}


def _counting_solves(monkeypatch):
    """Count solve_omega_c calls from the scan engine and from
    zero_temperature's own callers."""
    calls = []
    solve = zt.solve_omega_c

    def counted(cfg):
        calls.append(cfg)
        return solve(cfg)
    monkeypatch.setattr(zt, "solve_omega_c", counted)
    monkeypatch.setattr(scan_engine, "solve_omega_c", counted)
    return calls


@pytest.mark.parametrize("axes", sorted(_TRAP_AXES))
@pytest.mark.parametrize("observable", _ZERO_T)
@pytest.mark.parametrize("mode", list(CompatMode))
@pytest.mark.parametrize("unit_system", ["oscillator", "si"])
def test_trap_rows_match_per_point(monkeypatch, axes, observable, mode,
                                   unit_system):
    osc = osc_cfg(g_bf=0.02, volume=1000.0, compat_mode=mode)
    base, variables = osc, _TRAP_AXES[axes]
    if unit_system == "si":
        base = MixtureConfig.from_si(
            m_b=osc.m_b, m_f=osc.m_f, omega_b=osc.omega_b,
            omega_f=osc.omega_f, N_b=osc.N_b, N_f=osc.N_f, g_bb=osc.g_bb,
            g_bf=osc.g_bf, volume=osc.volume, compat_mode=mode)
        variables = tuple(ScanRange(r.field, values=tuple(
            osc.field_to_si(r.field, v) for v in r.grid()))
            for r in variables)
    spec = ScanSpec(base=base, variables=variables, observable=observable)
    with monkeypatch.context() as patch:
        calls = _counting_solves(patch)
        table = run_scan(spec)
    # one boson solve per trap that builds a config
    traps = [r for r in variables if r.field != "interaction.g_bf"]
    valid = 0
    for point in itertools.product(*[r.grid() for r in traps]):
        try:
            base.replace(**{_FIELD_PATHS[r.field]: base.field_to_si(
                r.field, v) for r, v in zip(traps, point)})
            valid += 1
        except ConfigError:
            pass
    assert len(calls) == valid

    _assert_rows_match(table.rows, _per_point_rows(spec))
    statuses = {row[-1] for row in table.rows}
    assert "OK" in statuses
    assert ("ERROR:ConfigError" in statuses) == (axes != "g_bf" and
                                                 axes != "g_bb,g_bf")
    # the collapsed condensate has no classification
    assert ("ERROR:DomainError" in statuses) == (
        axes == "g_bb,g_bf" and observable in ("Y", "r_fc", "phase"))


@pytest.mark.parametrize("observable", _ZERO_T)
def test_trap_rows_fail_as_per_point(observable):
    # with omega_b = 1e-100 rad/s the oscillator coupling unit is ~1e106
    # J m^3, so a g_bf of 1e203 is not finite in SI: that point builds no
    # config, whatever its trap does
    base = osc_cfg(omega_b=1e-100, g_bf=0.02, volume=1000.0)
    spec = ScanSpec(base=base, observable=observable, variables=(
        ScanRange("interaction.g_bf", values=(0.02, 1e203, -0.01)),
        ScanRange("boson.count", values=(1000.0, 0.0))))
    rows = run_scan(spec).rows
    _assert_rows_match(rows, _per_point_rows(spec))
    assert [row[-1] for row in rows][2:4] == ["ERROR:ConfigError"] * 2


@pytest.mark.parametrize("observable", _ZERO_T + ("Z",))
def test_overflowing_input_unit_fails_every_point(observable):
    # an oscillator coupling unit beyond float range fails every point's
    # conversion to SI, so every point's config, as per point
    base = MixtureConfig(m_b=1e-300, m_f=1e-26, omega_b=1e-10,
                         omega_f=100.0, N_b=10.0, N_f=10.0, g_bb=1e-50,
                         g_bf=0.0, volume=1.0, temperature=1.0,
                         unit_system=UnitSystem.OSCILLATOR)
    with pytest.raises(ConfigError, match="boson.mass = 1e-300 kg"):
        base.coupling_unit
    spec = ScanSpec(base=base, observable=observable, variables=(
        ScanRange("interaction.g_bf", values=(0.1, 0.2)),
        ScanRange("thermal.temperature", values=(1.0, 2.0))))
    rows = run_scan(spec).rows
    assert [row[-1] for row in rows] == ["ERROR:ConfigError"] * 4
    assert all(math.isnan(row[3]) for row in rows)  # T/T_F
    _assert_rows_match(rows, _per_point_rows(spec))


# ---------------------------------------------------------------------------
# one config per group, for every observable
# ---------------------------------------------------------------------------

# a N_b of -5, a volume of 0 and a temperature of -1 build no config
_GROUP_AXES = {
    "N_b,g_bf": (ScanRange("boson.count", values=(1000.0, -5.0, 2000.0)),
                 ScanRange("interaction.g_bf", values=(0.3, -0.1, 1e200))),
    "V,T": (ScanRange("thermal.volume", values=(1000.0, 0.0, 500.0)),
            ScanRange("thermal.temperature",
                      values=(0.5, 2.0, -1.0, 6.0))),
    "g_bb,V": (ScanRange("interaction.g_bb", values=(0.05, -0.0, 1e200)),
               ScanRange("thermal.volume", values=(800.0, 1200.0))),
}


@pytest.mark.parametrize("axes", sorted(_GROUP_AXES))
@pytest.mark.parametrize("mode", list(CompatMode))
def test_z_scan_takes_one_state_per_group(monkeypatch, axes, mode):
    spec = ScanSpec(base=_z_base("oscillator", mode), observable="Z",
                    variables=_GROUP_AXES[axes])
    states = []
    monkeypatch.setattr(scan_engine, "thermal_state",
                        lambda *a: states.append(1) or ft.thermal_state(*a))
    table = run_scan(spec)
    # one state per group that builds a config: per N_b, per (V, T)
    # point, per V
    assert len(states) == {"N_b,g_bf": 2, "V,T": 6, "g_bb,V": 2}[axes]
    _assert_rows_match(table.rows, _per_point_rows(spec))
    statuses = {row[-1] for row in table.rows}
    assert "OK" in statuses
    assert ("ERROR:ConfigError" in statuses) == (axes != "g_bb,V")


@pytest.mark.parametrize("observable", ["regime", "T_c1", "T_c2"])
@pytest.mark.parametrize("axes", ["g_bf,T", "g_bb,N_b"])
def test_point_observables_match_per_point(monkeypatch, observable, axes):
    # g_bb = 0 has no regime (a division by zero), nor g_bb < 0
    variables = {
        "g_bf,T": (ScanRange("interaction.g_bf", values=(0.3, 0.01, -0.2)),
                   ScanRange("thermal.temperature", values=(2.0, -1.0))),
        "g_bb,N_b": (ScanRange("interaction.g_bb",
                               values=(0.05, 0.0, -0.01)),
                     ScanRange("boson.count", values=(1000.0, 0.0))),
    }[axes]
    base = osc_cfg(N_f=10000.0, g_bf=0.3, g_ff=0.01, volume=1000.0)
    spec = ScanSpec(base=base, observable=observable, variables=variables,
                    t_range=(0.5, 50.0))
    with monkeypatch.context() as patch:
        built = []
        replace = MixtureConfig.replace
        patch.setattr(MixtureConfig, "replace",
                      lambda *a, **k: built.append(1) or replace(*a, **k))
        table = run_scan(spec)
    # each point is its own group
    assert len(built) == len(table.rows) == 6
    _assert_rows_match(table.rows, _per_point_rows(spec))
    assert "OK" in {row[-1] for row in table.rows}


@pytest.mark.parametrize("tag", PRESET_TAGS)
def test_preset_rows_match_per_point(tag):
    spec = figure_preset(tag)
    _assert_rows_match(run_scan(spec).rows, _per_point_rows(spec))


# input-unit values of each field for the property test below: in range,
# at 0 and below, and 1e200, beyond float range in SI for a coupling
_FIELD_VALUES = {
    "boson.mass": (7.0 * atomic_mass, 40.0 * atomic_mass, 0.0),
    "fermion.mass": (7.0 * atomic_mass, 6.0 * atomic_mass, -1.0),
    "boson.omega": (166.0, 50.0, 0.0),
    "fermion.omega": (166.0, 400.0, -1.0),
    "boson.count": (1000.0, 2e4, 0.0, 1e200),
    "fermion.count": (1e4, 100.0, 0.0),
    "interaction.g_bb": (0.05, 0.0, -0.0, -0.02, 1e200, -1e200),
    "interaction.g_bf": (0.3, 0.02, 0.0, -0.0, -0.1, 1e200, -1e200),
    "interaction.g_ff": (0.01, 0.0, -0.5, 1e200),
    "thermal.volume": (1000.0, 100.0, 0.0, 1e200),
    "thermal.temperature": (2.0, 0.5, 20.0, 0.0, -1.0),
}


def test_scan_rows_match_per_point_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        observable=st.sampled_from(sorted(OBSERVABLES)),
        fields=st.lists(st.sampled_from(sorted(_FIELD_VALUES)), min_size=1,
                        max_size=2, unique=True),
        mode=st.sampled_from(list(CompatMode)),
        si=st.booleans(),
        data=st.data())
    def check(observable, fields, mode, si, data):
        osc = osc_cfg(N_f=1e4, g_bf=0.3, g_ff=0.01, volume=1000.0,
                      temperature=2.0, compat_mode=mode)
        variables = []
        for field in fields:
            values = data.draw(st.lists(st.sampled_from(
                _FIELD_VALUES[field]), min_size=1, max_size=3))
            if si:
                values = [v if abs(v) > 1e100 else osc.field_to_si(field, v)
                          for v in values]
            variables.append(ScanRange(field, values=values))
        t_range = (0.5, 50.0)
        if si:
            t_range = tuple(osc.field_to_si("thermal.temperature", T)
                            for T in t_range)
        spec = ScanSpec(
            base=osc.replace(unit_system=UnitSystem.SI) if si else osc,
            variables=tuple(variables), observable=observable,
            t_range=t_range)
        _assert_rows_match(run_scan(spec).rows, _per_point_rows(spec))

    check()


def test_presets_solve_each_trap_once(monkeypatch):
    calls = _counting_solves(monkeypatch)
    counts = {}
    for tag in ("fig1", "fig2", "fig3a", "fig3b"):
        calls.clear()
        run_scan(figure_preset(tag))
        counts[tag] = len(calls)
    assert counts == {"fig1": 200, "fig2": 2, "fig3a": 1, "fig3b": 1}


def test_range_record_contract():
    r = ScanRange("boson.count", values=[1.0, 2])
    assert r.values == (1.0, 2.0) and type(r.values) is tuple
    assert all(type(v) is float for v in r.values)
    assert repr(r).startswith("ScanRange(field='boson.count'")
    with pytest.raises(AttributeError):
        r.values = (3.0,)
    assert hash(r) == hash(ScanRange("boson.count", values=(1.0, 2.0)))
    for bad in (dict(start=0.0, stop=1.0, points=2.5),
                dict(start=0.0, stop=math.nan, points=4),
                dict(values=[1.0, "x"]), dict(start=1.0, stop=1.0, points=3)):
        with pytest.raises(ConfigError, match=r"scan\.boson\.count"):
            ScanRange("boson.count", **bad)


def test_int_range_ends_are_written_as_floats():
    # int ends are stored as floats, so the grid and the CSV hold floats
    # only, and a log grid keeps no int end
    rng = ScanRange("boson.count", 10 ** 20, 2 * 10 ** 20, 3)
    assert (rng.start, rng.stop) == (1e20, 2e20)
    assert all(type(v) is float for v in rng.grid())
    log = ScanRange("boson.count", 10, 1000, 3, scale="log").grid()
    assert log == [10.0, 100.0, 1000.0]
    assert all(type(v) is float for v in log)
    buf = io.StringIO()
    write_csv(run_scan(ScanSpec(base=osc_cfg(), observable="omega_c",
                                variables=(rng,))), buf)
    rows = [line for line in buf.getvalue().splitlines()
            if not line.startswith("#")][1:]
    assert [row.split(",")[0] for row in rows] == ["1e+20", "1.5e+20",
                                                    "2e+20"]


def test_zero_t_scan_of_a_numpy_float_config():
    # a numpy count is stored as a float: the sign lists of the Omega_c
    # solve and of the sign_Y column subtract Python bools, not numpy ones
    base = osc_cfg(N_f=np.geomspace(1e3, 1e6, 4)[1], g_bf=0.02)
    gbf = ScanRange("interaction.g_bf", -0.1, 0.1, 5)
    table = run_scan(ScanSpec(base=base, observable="Omega_c",
                              variables=(gbf,)))
    assert all(row[-1] == "OK" and row[1] > 0 for row in table.rows)
    table = run_scan(ScanSpec(base=base, observable="Y", variables=(gbf,)))
    assert table.columns == ("g_bf", "Y", "sign_Y", "status")
    assert all(row[2] == np.sign(row[1]) for row in table.rows)
