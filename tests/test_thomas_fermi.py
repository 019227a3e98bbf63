"""Thomas-Fermi profiles against quadrature oracles and closed forms."""

import math
import random
import types

import numpy as np
import pytest

from bfmix import brent, thomas_fermi
from bfmix.config import MixtureConfig
from bfmix.constants import hbar, atomic_mass, pi
from bfmix.errors import ConfigError, DomainError, NumericError
from bfmix.thomas_fermi import (
    TFRegime, tf_boson_profile, tf_fermion_profile, classify_tf_regime,
    tf_profiles, boson_chemical_potential, condensate_radius,
)

from scipy.integrate import simpson

from oracles import bisect_root, kronrod_quad, condensate_number_quadrature

M7 = 7.0 * atomic_mass
A0 = 5.29177210903e-11  # Bohr radius [m]


def make_cfg(g_bb=0.05, g_bf=0.02, N_b=1000.0, N_f=100.0,
             m_f=M7, omega_f=166.0):
    return MixtureConfig.from_oscillator(
        m_b=M7, m_f=m_f, omega_b=166.0, omega_f=omega_f,
        N_b=N_b, N_f=N_f, g_bb=g_bb, g_bf=g_bf)


def test_mu_b_closed_form_matches_normalization_root():
    cfg = make_cfg()
    mu_closed = boson_chemical_potential(cfg)
    mu_root = bisect_root(
        lambda mu: condensate_number_quadrature(
            mu, cfg.m_b, cfg.omega_b, cfg.g_bb) - cfg.N_b,
        0.1 * mu_closed, 10.0 * mu_closed)
    assert np.isclose(mu_closed, mu_root, rtol=1e-8)


def test_mu_b_scaling_with_N_b():
    cfg = make_cfg()
    doubled = cfg.with_field("boson.count", 2.0 * cfg.N_b)
    assert np.isclose(boson_chemical_potential(doubled),
                      2.0 ** 0.4 * boson_chemical_potential(cfg),
                      rtol=1e-13)


def test_boson_profile_endpoints():
    cfg = make_cfg()
    prof = tf_profiles(cfg)
    mu_b, n_b = tf_boson_profile(cfg, prof.radii)
    n_b = np.asarray(n_b)
    assert np.isclose(n_b[0], mu_b / cfg.g_bb, rtol=1e-14)
    # R_b sits on a grid node; the profile is zero there and beyond
    j = int(round(prof.R_b / (prof.radii[1] - prof.radii[0])))
    assert np.isclose(prof.radii[j], prof.R_b, rtol=1e-12)
    assert n_b[j] <= 1e-10 * n_b[0]
    assert np.all(n_b[j + 1:] == 0.0)


def test_boson_profile_requires_repulsion():
    for g_bb in (0.0, -0.01):
        with pytest.raises(DomainError):
            tf_boson_profile(make_cfg(g_bb=g_bb), np.linspace(0, 1e-5, 50))
        with pytest.raises(DomainError):
            classify_tf_regime(make_cfg(g_bb=g_bb))


def test_normalizations_on_grid():
    for g_bf in (-0.03, 0.0, 0.05, 0.1):
        prof = tf_profiles(make_cfg(g_bf=g_bf))
        r = np.asarray(prof.radii)
        # Simpson with the condensate edge snapped to an even node; the
        # trapezoid rule on the same grid misses 1e-6 (error 1.25(h/R_b)^2)
        n_b_int = simpson(4.0 * pi * r * r * prof.n_b, x=r)
        cfg = make_cfg(g_bf=g_bf)
        # independent quadrature of the continuous profiles
        oracle_b = condensate_number_quadrature(
            prof.mu_b, cfg.m_b, cfg.omega_b, cfg.g_bb)
        assert np.isclose(oracle_b, cfg.N_b, rtol=1e-10)

        pref = (2.0 * cfg.m_f / hbar ** 2) ** 1.5 / (6.0 * pi ** 2)

        def n_f_cont(x):
            nb = max(0.0, (prof.mu_b - 0.5 * cfg.m_b * cfg.omega_b ** 2
                           * x * x) / cfg.g_bb)
            V = 0.5 * cfg.m_f * cfg.omega_f ** 2 * x * x + cfg.g_bf * nb
            return 4.0 * pi * x * x * pref * max(0.0, prof.e_F - V) ** 1.5

        # split at the two kink radii so the oracle converges fast
        edges = sorted({0.0, prof.R_b, float(r[-1])})
        oracle_f = sum(
            kronrod_quad(n_f_cont, a, b, abs_tol=1e-11 * cfg.N_f,
                         rel_tol=1e-11)
            for a, b in zip(edges[:-1], edges[1:]))
        assert np.isclose(oracle_f, cfg.N_f, rtol=1e-6)
        assert np.isclose(n_b_int, cfg.N_b, rtol=1e-6)


def test_ideal_fermi_energy():
    cfg = make_cfg(g_bf=0.0)
    prof = tf_profiles(cfg)
    ideal = hbar * cfg.omega_f * (6.0 * cfg.N_f) ** (1.0 / 3.0)
    assert np.isclose(prof.e_F, ideal, rtol=1e-2)


def test_flat_regime_density_constant_inside():
    # coupling ratio equal to the trap ratio flattens the effective
    # potential inside the condensate
    for m_f, omega_f in ((M7, 166.0), (6.0 * atomic_mass, 250.0)):
        base = make_cfg(m_f=m_f, omega_f=omega_f)
        ratio = m_f * omega_f ** 2 / (base.m_b * base.omega_b ** 2)
        cfg = base.with_field("interaction.g_bf", base.g_bb * ratio)
        assert classify_tf_regime(cfg) is TFRegime.FLAT
        prof = tf_profiles(cfg)
        inside = np.asarray(prof.n_f)[np.asarray(prof.radii)
                                      < prof.R_b * (1.0 - 1e-9)]
        spread = (inside.max() - inside.min()) / inside.mean()
        assert spread < 1e-8


def test_core_regime_peaks_at_center():
    for g_bf in (-0.04, 0.0, 0.02):
        cfg = make_cfg(g_bf=g_bf)
        assert classify_tf_regime(cfg) is TFRegime.CORE
        prof = tf_profiles(cfg)
        assert prof.regime is TFRegime.CORE
        assert int(np.argmax(prof.n_f)) == 0


def test_shell_regime_peaks_at_condensate_edge():
    for g_bf in (0.08, 0.15):
        cfg = make_cfg(g_bf=g_bf)
        assert classify_tf_regime(cfg) is TFRegime.SHELL
        prof = tf_profiles(cfg)
        assert prof.regime is TFRegime.SHELL
        r_peak = prof.radii[int(np.argmax(prof.n_f))]
        assert r_peak >= prof.R_b * (1.0 - 1e-6)


def test_regime_boundary_is_the_trap_ratio():
    # equal masses and frequencies: boundary at g_bf = g_bb
    cfg = make_cfg()
    assert classify_tf_regime(cfg.with_field(
        "interaction.g_bf", cfg.g_bb * (1.0 - 1e-9))) is TFRegime.CORE
    assert classify_tf_regime(cfg.with_field(
        "interaction.g_bf", cfg.g_bb)) is TFRegime.FLAT
    assert classify_tf_regime(cfg.with_field(
        "interaction.g_bf", cfg.g_bb * (1.0 + 1e-9))) is TFRegime.SHELL


@pytest.mark.parametrize("g_bf, regime", [(1e60, TFRegime.SHELL),
                                           (-1e60, TFRegime.CORE)])
def test_regime_of_a_coupling_ratio_beyond_float_range(g_bf, regime):
    # g_bf / g_bb = +-inf is no tie with the trap ratio
    cfg = make_cfg(g_bb=1e-250, g_bf=g_bf)
    assert cfg.g_bf / cfg.g_bb in (math.inf, -math.inf)
    assert classify_tf_regime(cfg) is regime


def test_condensate_holds_N_b_at_a_tiny_coupling():
    # m_b g_bb underflows at g_bb = 1e-250 (oscillator units), so mu_b is
    # formed from g_bb / (4 pi hbar^2) first
    cfg = make_cfg(g_bb=1e-250, g_bf=0.0)
    assert np.isclose(boson_chemical_potential(cfg) / hbar / cfg.omega_b,
                      0.5 * (15.0 * cfg.N_b * 1e-250 / (4.0 * pi)) ** 0.4,
                      rtol=1e-12)
    prof = tf_profiles(cfg)
    r = np.asarray(prof.radii) / prof.R_b
    n_b = simpson(4.0 * pi * r * r * np.asarray(prof.n_b), x=r) \
        * prof.R_b ** 3
    assert abs(n_b / cfg.N_b - 1.0) <= 1e-6


@pytest.mark.parametrize("field, value", [
    ("boson.omega", 1e-300), ("boson.omega", 1e300),
    ("fermion.omega", 1e-300), ("fermion.omega", 1e300),
    ("fermion.mass", 1e-300)])
def test_regime_fails_where_the_trap_record_fails(field, value):
    # the regime reads k_f / k_b of _trap, so a trap beyond float range
    # fails it with the error tf_profiles gives, naming the trap's
    # fields, never a bare division by zero or overflow or a label
    cfg = make_cfg().with_field(field, value)
    errors = []
    for analysis in (classify_tf_regime, tf_profiles):
        with pytest.raises((ConfigError, NumericError),
                           match=r"boson\.mass.*boson\.omega") as caught:
            analysis(cfg)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]


def test_peak_location_never_moves_inward():
    # grids differ between configs, so compare peak radii, not indices
    peaks = []
    for g_bf in np.linspace(-0.05, 0.15, 20):
        prof = tf_profiles(make_cfg(g_bf=float(g_bf)))
        peaks.append(prof.radii[int(np.argmax(prof.n_f))])
    scale = max(peaks)
    assert all(b >= a - 1e-12 * scale for a, b in zip(peaks, peaks[1:]))


def test_condensate_radius_consistency():
    cfg = make_cfg()
    R = condensate_radius(cfg)
    mu = boson_chemical_potential(cfg)
    assert np.isclose(0.5 * cfg.m_b * cfg.omega_b ** 2 * R * R, mu,
                      rtol=1e-14)
    prof = tf_profiles(cfg)
    assert prof.R_b == R


def test_densities_nonnegative_and_fermions_decay():
    prof = tf_profiles(make_cfg(g_bf=0.1, N_f=500.0))
    n_b, n_f = np.asarray(prof.n_b), np.asarray(prof.n_f)
    assert np.all(n_b >= 0.0)
    assert np.all(n_f >= 0.0)
    assert n_f[-1] <= 1e-12 * n_f.max()


def test_profiles_hold_python_floats():
    prof = tf_profiles(make_cfg())
    for values in (prof.radii, prof.n_b, prof.n_f):
        assert type(values) is list
        assert all(type(v) is float for v in values)
    for value in (prof.mu_b, prof.e_F, prof.R_b):
        assert type(value) is float


def _wide_mixture(rng):
    """A valid mixture: g_bb > 0, g_bf of either sign, and a bare-trap
    fermion radius 1e-4 to 1e5 times the condensate radius."""
    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
    args = dict(
        m_b=log_uniform(1.0, 200.0) * atomic_mass,
        m_f=log_uniform(1.0, 200.0) * atomic_mass,
        omega_b=log_uniform(1.0, 1e4), N_b=log_uniform(10.0, 1e7),
        N_f=log_uniform(1.0, 1e7), a_bb=log_uniform(1.0, 1e3) * A0,
        a_bf=rng.choice((-1.0, 1.0)) * log_uniform(0.1, 1e3) * A0)
    R_b = condensate_radius(MixtureConfig.from_scattering_lengths(
        omega_f=1.0, **args))
    R_f = log_uniform(1e-4, 1e5) * R_b
    # the bare-trap radius sqrt(2 e_0 / (m_f omega_f^2)) set to R_f
    omega_f = 2.0 * hbar * (6.0 * args["N_f"]) ** (1.0 / 3.0) \
        / (args["m_f"] * R_f ** 2)
    return MixtureConfig.from_scattering_lengths(omega_f=omega_f, **args)


def test_profiles_normalized_for_any_cloud_ratio():
    # one grid holds every cloud, with enough panels on R_b and on a
    # cloud far inside the condensate for Simpson to keep both counts,
    # also with the bosons switched off for the fermions
    rng = random.Random(16)
    mixtures = [_wide_mixture(rng) for _ in range(100)]
    for cfg in mixtures + [cfg.replace(g_bf=0.0) for cfg in mixtures]:
        prof = tf_profiles(cfg)
        r = np.asarray(prof.radii)
        assert prof.n_f[-1] == 0.0
        n_f = simpson(4.0 * pi * r * r * np.asarray(prof.n_f), x=r)
        n_b = simpson(4.0 * pi * r * r * np.asarray(prof.n_b), x=r)
        assert abs(n_f / cfg.N_f - 1.0) <= 1e-13, cfg
        assert abs(n_b / cfg.N_b - 1.0) <= 1e-6, cfg


def _scipy_count(grid, n_f):
    r = np.asarray(grid)
    return simpson(4.0 * pi * r * r * np.asarray(n_f), x=r)


@pytest.mark.parametrize("cfg", [
    make_cfg(g_bf=0.1),
    # bare R_f / R_b about 1,190
    MixtureConfig.from_scattering_lengths(
        m_b=87.0 * atomic_mass, m_f=6.0 * atomic_mass, omega_b=3000.0,
        omega_f=3.0, N_b=125.0, N_f=7e5, a_bb=100.0 * A0, a_bf=20.0 * A0),
])
def test_e_F_from_newton_steps_without_a_root_finder(monkeypatch, cfg):
    # no root finder: each pass of the count checks its count and slope
    # with math.isfinite, so the checks count the passes
    assert not any(value is brent or getattr(value, "__module__", None)
                   == brent.__name__ for value in vars(thomas_fermi).values())
    checks = []
    proxy = types.SimpleNamespace(**{
        name: value for name, value in vars(math).items()
        if not name.startswith("__")})
    proxy.isfinite = lambda x: checks.append(x) or math.isfinite(x)
    monkeypatch.setattr(thomas_fermi, "math", proxy)
    prof = tf_profiles(cfg)
    assert 2 <= len(checks) <= 2 * 16
    assert abs(_scipy_count(prof.radii, prof.n_f) / cfg.N_f - 1.0) <= 1e-13


@pytest.mark.parametrize("g_bf", [-1e200, -1e300])
def test_overflowing_density_names_the_coupling(g_bf):
    with pytest.raises(NumericError, match=r"^the Thomas-Fermi fermion "
                       r"density overflows .* interaction\.g_bf = "):
        tf_profiles(make_cfg(g_bf=g_bf))


def test_overflowing_grid_span_names_the_trap_fields(monkeypatch):
    trap = thomas_fermi._trap(make_cfg())
    assert thomas_fermi._build_grid(trap, 41)[-1] == trap.span < math.inf
    # the radii are a few trap units, so only an infinite factor
    # overflows, and the record's check names the trap's fields
    monkeypatch.setattr(thomas_fermi, "_SPAN", math.inf)
    with pytest.raises(NumericError, match=r"^mu_b, .* radius .* beyond "
                       r"float range: check boson\.count, .* and "
                       r"interaction\.g_bf$"):
        thomas_fermi._trap(make_cfg())


def _fermion_profile_on(cfg, grid):
    _, n_b = tf_boson_profile(cfg, grid)
    return tf_fermion_profile(cfg, n_b, grid)


def test_grid_without_a_fermion_node_raises():
    # the only node inside the cloud is r = 0, whose Simpson weight
    # carries r^2 = 0
    cfg = make_cfg()
    R_b = condensate_radius(cfg)
    grid = [0.0] + [R_b * (100.0 + i) for i in range(40)]
    with pytest.raises(NumericError, match="no node"):
        _fermion_profile_on(cfg, grid)


def test_non_positive_simpson_weight_is_checked():
    # pairs of intervals (a, 2h - a): for a < 2h/3 the longer one is more
    # than twice the shorter and the even nodes take weights < 0, so the
    # count need not be convex; e_F then holds N_f or the solve raises.
    # Over the span of the profile's own grid both happen.
    cfg = make_cfg()
    span = tf_profiles(cfg).radii[-1]
    outcomes = set()
    for frac in (0.05, 0.2, 0.3):
        for n_points in (41, 200, 2001):
            h = span / (n_points - 1)
            grid = [(i - i % 2) * h + (i % 2) * 2.0 * frac * h
                    for i in range(n_points)]
            assert min(thomas_fermi._simpson_weights(grid)) < 0.0
            try:
                e_F, n_f = _fermion_profile_on(cfg, grid)
            except NumericError as exc:
                assert "not convex" in str(exc)
                outcomes.add("raised")
                continue
            assert math.isfinite(e_F)
            assert abs(_scipy_count(grid, n_f) / cfg.N_f - 1.0) <= 1e-12
            outcomes.add("held")
    assert outcomes == {"raised", "held"}
