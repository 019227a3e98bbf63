"""Zero-temperature variational solvers against independent oracles.

Energy closed forms are checked by direct quadrature of the underlying
functionals (tests/oracles.py); stationary points are checked against a
derivative-free golden-section minimizer; all analytic derivatives are
checked against central finite differences.
"""

import itertools
import math
import random
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bfmix.brent import brentq
from bfmix.config import MixtureConfig, CompatMode
from bfmix.constants import hbar, atomic_mass
from bfmix.errors import DomainError, NumericError
from bfmix import scan_engine, zero_temperature as zt
from bfmix.scan_engine import figure_preset
from bfmix.zero_temperature import (
    PhaseLabel, boson_energy, boson_energy_derivatives, solve_omega_c,
    critical_boson_number, overlap_G, overlap_G_derivatives,
    fermion_energy, fermion_energy_gradients, solve_Omega_c,
    separation_radius, coupling_threshold, stability_Y, energy_hessian,
    classify_zero_T,
)

from oracles import (
    bisect_root, gp_energy_quadrature, fermion_energy_quadrature,
    golden_minimize, refine_minimum, central_diff, central_diff2,
    mixed_diff2, least_energy_root, log_scan_sign_changes,
)

M7 = 7.0 * atomic_mass


def make_cfg(g_bb=0.05, g_bf=0.02, N_b=1000.0, N_f=100.0,
             mode=CompatMode.DERIVED, m_b=M7, m_f=M7,
             omega_b=166.0, omega_f=166.0):
    return MixtureConfig.from_oscillator(
        m_b=m_b, m_f=m_f, omega_b=omega_b, omega_f=omega_f,
        N_b=N_b, N_f=N_f, g_bb=g_bb, g_bf=g_bf, compat_mode=mode)


# ---------------------------------------------------------------------------
# boson energy
# ---------------------------------------------------------------------------

def test_noninteracting_boson_energy_is_harmonic_ground_state():
    for mode in CompatMode:
        cfg = make_cfg(g_bb=0.0, mode=mode)
        E = boson_energy(cfg.omega_b, cfg)
        assert np.isclose(E, 1.5 * cfg.N_b * hbar * cfg.omega_b, rtol=1e-14)


def test_derived_boson_energy_matches_functional_quadrature():
    cfg = make_cfg(mode=CompatMode.DERIVED)
    for g_bb in (0.0, 0.02, 0.08):
        c = cfg.with_field("interaction.g_bb",
                           cfg.field_to_si("interaction.g_bb", g_bb))
        for omega in (0.5 * c.omega_b, c.omega_b, 2.3 * c.omega_b):
            ref = gp_energy_quadrature(omega, c.m_b, c.omega_b, c.N_b,
                                       c.g_bb, hbar)
            assert np.isclose(boson_energy(omega, c), ref, rtol=1e-8)


def test_paper_interaction_term_is_twice_derived():
    cfg_d = make_cfg(mode=CompatMode.DERIVED)
    cfg_p = make_cfg(mode=CompatMode.PAPER)
    cfg_0 = make_cfg(g_bb=0.0)
    for omega in (100.0, 166.0, 300.0):
        base = boson_energy(omega, cfg_0)
        int_d = boson_energy(omega, cfg_d) - base
        int_p = boson_energy(omega, cfg_p) - base
        assert np.isclose(int_p, 2.0 * int_d, rtol=1e-12)


def test_boson_energy_rejects_nonpositive_omega():
    cfg = make_cfg()
    with pytest.raises(DomainError):
        boson_energy(0.0, cfg)
    with pytest.raises(DomainError):
        boson_energy(-1.0, cfg)


# ---------------------------------------------------------------------------
# omega_c
# ---------------------------------------------------------------------------

def test_omega_c_equals_omega_b_without_interaction():
    for mode in CompatMode:
        res = solve_omega_c(make_cfg(g_bb=0.0, mode=mode))
        assert res.omega_c == 166.0
        assert res.is_local_minimum
        assert res.N_b_critical is None


def test_omega_c_decreases_with_repulsion():
    values = []
    for g_bb in np.linspace(0.0, 0.12, 20):
        res = solve_omega_c(make_cfg(g_bb=float(g_bb), mode=CompatMode.PAPER))
        assert res.is_local_minimum
        assert res.omega_c <= 166.0
        values.append(res.omega_c)
    assert np.all(np.diff(values) < 0)


def test_omega_c_against_golden_section_oracle():
    for mode in CompatMode:
        cfg = make_cfg(g_bb=0.07, mode=mode)
        res = solve_omega_c(cfg)
        u = golden_minimize(lambda t: boson_energy(math.exp(t), cfg),
                            bracket=(math.log(0.1 * cfg.omega_b),
                                     math.log(cfg.omega_b)))
        omega_ref = refine_minimum(lambda w: boson_energy(w, cfg),
                                   math.exp(u))
        assert np.isclose(res.omega_c, omega_ref, rtol=1e-8)


def test_omega_c_residual_is_tiny():
    for g_bb in (0.01, 0.05, 0.12):
        cfg = make_cfg(g_bb=g_bb)
        res = solve_omega_c(cfg)
        _, dE, _ = boson_energy_derivatives(res.omega_c, cfg)
        # natural slope scale of the functional
        scale = 0.75 * cfg.N_b * hbar
        assert abs(dE) / scale < 1e-9


def _repulsive_traps():
    """The repulsive boson traps of the fig1-fig3 grids, and oscillator-
    unit (g_bb, N_b) from 1e-30 up to (1e12, 1e12) in both modes."""
    traps = {}
    for tag in ("fig1", "fig2", "fig3a", "fig3b"):
        spec = figure_preset(tag)
        axes = [[(rng, float(v)) for v in rng.grid()]
                for rng in spec.variables]
        for assignment in itertools.product(*axes):
            cfg = scan_engine._point_config(spec, assignment)
            traps[(cfg.N_b, cfg.g_bb)] = cfg
    extremes = [make_cfg(g_bb=g_bb, N_b=N_b, mode=mode)
                for g_bb in (1e-30, 1e-12, 1e-6, 1.0, 1e6, 1e12)
                for N_b in (1.0, 1e3, 1e6, 1e12) for mode in CompatMode]
    return [cfg for cfg in list(traps.values()) + extremes if cfg.g_bb > 0]


def test_repulsive_bracket_holds_the_root():
    traps = _repulsive_traps()
    assert len(traps) == 201 + 48
    for cfg in traps:
        def slope(w):
            return boson_energy_derivatives(w, cfg)[1]

        lo, hi = zt._repulsive_bracket(cfg)
        assert hi == cfg.omega_b
        assert slope(lo) <= 0.0 <= slope(hi), (cfg.g_bb, cfg.N_b)
        # the oracle brackets independently of the package
        ref = bisect_root(slope, 1e-12 * cfg.omega_b, cfg.omega_b)
        omega_c = solve_omega_c(cfg).omega_c
        assert abs(omega_c - ref) <= 1e-12 * ref, \
            (cfg.g_bb, cfg.N_b, omega_c, ref)


def _omega_c_oracle(cfg, mp):
    """(omega_c, k) from mpmath in 60 digits: omega_c = omega_b x^2, x
    the root of f(x) = k x^5 + x^4 - 1 next to x = 1, found by geometric
    bisection, with k = 2 s g_bb N_b C sqrt(omega_b) / hbar.  None for
    omega_c where attractive g_bb leaves no root, since f peaks at x_m =
    4 / (5 |k|) below 0."""
    with mp.workdps(60):
        s = mp.mpf(1 if cfg.compat_mode is CompatMode.PAPER else 0.5)
        C = (mp.mpf(cfg.m_b) / (2 * mp.pi * mp.mpf(hbar))) ** 1.5
        k = (2 * s * mp.mpf(cfg.g_bb) * mp.mpf(cfg.N_b) * C
             * mp.sqrt(mp.mpf(cfg.omega_b)) / mp.mpf(hbar))

        def f(x):
            x4 = (x * x) ** 2
            return k * x4 * x + (x4 - 1)

        # the ends move out by 1e-30, clear of rounding for tiny |k|
        pad = mp.mpf(1e-30)
        if k > 0:
            # f < 0 at (1 + k^(4/5))^(-1/4) and f >= 0 at (1 + k)^(-1/5)
            a = (1 + k ** (4 / mp.mpf(5))) ** -0.25 * (1 - pad)
            b = (1 + k) ** (-1 / mp.mpf(5)) * (1 + pad)
        else:
            x_m = 4 / (5 * -k)
            if f(x_m) <= 0:
                return None, k
            # the root has x^4 - 1 = |k| x^5 <= (4/5) x^4 (as x <= x_m), so
            # x^4 <= 5 and |k| <= x^4 - 1 <= 5^(5/4) |k|
            a = (1 - k) ** 0.25 * (1 - pad)
            b = min(x_m, (1 - 5 ** 1.25 * k) ** 0.25 * (1 + pad))
        assert f(a) < 0 < f(b)
        rtol = 1 + mp.mpf(1e-17)
        while b > a * rtol:
            mid = mp.sqrt(a * b)
            a, b = (mid, b) if f(mid) < 0 else (a, mid)
        return mp.mpf(cfg.omega_b) * a * a, k


def _log_uniform_traps(count, seed=7):
    """Boson traps with m_b, omega_b, N_b and |g_bb| drawn log-uniform
    over 1e-40..1e-10 kg, 1e-20..1e20 rad/s, 1..1e30 and 1e-300..1e300
    J m^3, g_bb of either sign, in a random mode."""
    rng = random.Random(seed)
    traps = []
    for _ in range(count):
        m_b, omega_b, N_b, g = (10.0 ** rng.uniform(lo, hi) for lo, hi in
                                ((-40, -10), (-20, 20), (0, 30),
                                 (-300, 300)))
        traps.append(MixtureConfig.from_si(
            m_b=m_b, m_f=m_b, omega_b=omega_b, omega_f=omega_b, N_b=N_b,
            N_f=1.0, g_bb=rng.choice((1.0, -1.0)) * g, g_bf=0.0,
            compat_mode=rng.choice(list(CompatMode))))
    return traps


def test_omega_c_against_mpmath_root():
    mp = pytest.importorskip("mpmath")
    attractive = []
    for mode in CompatMode:
        for g_bb in (-1e-30, -1e-6, -1e-3, -1.0, -1e6):
            N_c = solve_omega_c(make_cfg(g_bb=g_bb, mode=mode)).N_b_critical
            attractive += [make_cfg(g_bb=g_bb, N_b=ratio * N_c, mode=mode)
                           for ratio in (1e-6, 0.1, 0.5, 0.9, 0.99,
                                         1.01, 1.1, 2.0, 1e6)]
    tiny, huge = sys.float_info.min, sys.float_info.max
    solved = failed = 0
    for cfg in _repulsive_traps() + attractive + _log_uniform_traps(300):
        ref, k = _omega_c_oracle(cfg, mp)
        with mp.workdps(60):
            w_b = mp.mpf(cfg.omega_b)
            # the inflection, where x^5 = 4 / |k|
            infl = w_b * (4 / abs(k)) ** (2 / mp.mpf(5))
            omega = infl if ref is None else ref
            formed = [omega ** 3, w_b ** 2 / omega ** 3]
            if k < 0:
                # and the collapse threshold's s |g_bb| C (sqrt5 w_b)^(5/2)
                formed += [infl ** 3, abs(k) * hbar * (5 * w_b ** 2) ** 1.25
                           / (2 * cfg.N_b * mp.sqrt(w_b))]
        try:
            res = solve_omega_c(cfg)
        except (NumericError, ArithmeticError):
            # a numeric failure, never a DomainError: a number the solve
            # forms lies beyond float range
            failed += 1
            assert not all(tiny <= abs(v) <= huge for v in formed), cfg
            continue
        solved += 1
        assert res.is_local_minimum == (ref is not None), cfg
        # a collapsed trap returns the closed-form inflection X^0.4, whose
        # float exponent is off 2/5 by 2.2e-17: up to 3.1e-14 at |ln X|
        # <= 1,400
        bound = 1e-14 if res.is_local_minimum else 1e-13
        assert abs(res.omega_c - omega) <= bound * omega, (cfg, res, omega)
    assert solved > 249 + 90 and failed > 0


def test_attractive_branch_minimum_and_collapse():
    cfg = make_cfg(g_bb=-0.001, N_b=100.0)
    res = solve_omega_c(cfg)
    assert res.is_local_minimum
    assert res.omega_c > cfg.omega_b            # attraction squeezes
    assert res.omega_c < math.sqrt(5.0) * cfg.omega_b
    assert res.N_b_critical is not None and res.N_b_critical > 0
    # push far beyond the critical number: the minimum disappears
    collapsed = solve_omega_c(make_cfg(g_bb=-0.001,
                                       N_b=50.0 * res.N_b_critical))
    assert not collapsed.is_local_minimum
    assert collapsed.second_derivative <= 0.0


def test_second_derivative_flag_consistency():
    for g_bb in (-0.002, 0.0, 0.03):
        res = solve_omega_c(make_cfg(g_bb=g_bb, N_b=500.0))
        assert res.is_local_minimum == (res.second_derivative > 0)


# ---------------------------------------------------------------------------
# critical boson number
# ---------------------------------------------------------------------------

def test_critical_number_requires_attraction():
    with pytest.raises(DomainError):
        critical_boson_number(make_cfg(g_bb=0.05))
    with pytest.raises(DomainError):
        critical_boson_number(make_cfg(g_bb=0.0))


def test_critical_number_against_closed_form():
    cfg = make_cfg(g_bb=-0.002)
    n_bisect = critical_boson_number(cfg)
    probe = solve_omega_c(cfg.with_field("boson.count", 10.0))
    assert np.isclose(n_bisect, probe.N_b_critical, rtol=0.01)
    # largest passing count really does pass, the next one fails
    assert solve_omega_c(cfg.with_field(
        "boson.count", float(math.floor(n_bisect)))).is_local_minimum
    assert not solve_omega_c(cfg.with_field(
        "boson.count", float(math.ceil(n_bisect) + 1))).is_local_minimum


def test_critical_number_scales_inversely_with_coupling():
    cfg1 = make_cfg(g_bb=-0.002)
    cfg2 = make_cfg(g_bb=-0.004)
    n1 = critical_boson_number(cfg1)
    n2 = critical_boson_number(cfg2)
    assert np.isclose(n1, 2.0 * n2, rtol=0.01)


def test_critical_number_frequency_scaling_matches_closed_form():
    # N^c scales as omega_b^2 * omega_c^{-5/2} ~ omega_b^{-1/2}, but the
    # oscillator coupling unit also moves; compare against the closed
    # form re-evaluated at the doubled frequency instead of an exponent.
    cfg1 = make_cfg(g_bb=-0.002)
    cfg2 = make_cfg(g_bb=-0.002, omega_b=332.0)
    for cfg in (cfg1, cfg2):
        n_bisect = critical_boson_number(cfg)
        closed = solve_omega_c(cfg.with_field("boson.count", 10.0)
                               ).N_b_critical
        assert np.isclose(n_bisect, closed, rtol=0.01)
    assert critical_boson_number(cfg2) != critical_boson_number(cfg1)


# ---------------------------------------------------------------------------
# overlap width G
# ---------------------------------------------------------------------------

def test_overlap_symmetric_reduction():
    cfg = make_cfg()
    w = 200.0
    assert np.isclose(overlap_G(w, w, cfg), cfg.m_b * w / (2.0 * hbar),
                      rtol=1e-14)


def test_overlap_saturates_at_large_Omega():
    cfg = make_cfg(m_f=6.0 * atomic_mass)
    sat = cfg.m_b * 166.0 / hbar
    assert np.isclose(overlap_G(1e9 * 166.0, 166.0, cfg), sat, rtol=1e-6)


def test_overlap_derivatives_match_finite_differences():
    cfg = make_cfg(m_f=6.0 * atomic_mass)
    for Omega in (50.0, 166.0, 700.0):
        G, dG, d2G = overlap_G_derivatives(Omega, 166.0, cfg)
        fd1 = central_diff(lambda w: overlap_G(w, 166.0, cfg), Omega)
        fd2 = central_diff2(lambda w: overlap_G(w, 166.0, cfg), Omega)
        assert np.isclose(dG, fd1, rtol=1e-6)
        assert np.isclose(d2G, fd2, rtol=1e-4)


# ---------------------------------------------------------------------------
# fermion energy
# ---------------------------------------------------------------------------

def test_decoupled_fermion_energy_is_P_only():
    for mode in CompatMode:
        cfg = make_cfg(g_bf=0.0, mode=mode)
        E = fermion_energy(200.0, 0.0, 166.0, cfg)
        res = classify_zero_T(cfg)
        assert np.isclose(fermion_energy(res.Omega_c, 0.0, 166.0, cfg),
                          res.P, rtol=1e-12)
        assert E > 0


def test_derived_fermion_energy_matches_functional_quadrature():
    cfg = make_cfg(g_bf=0.03, N_f=50.0, mode=CompatMode.DERIVED)
    omega_c = 150.0
    a = cfg.osc_length
    for Omega in np.linspace(60.0, 400.0, 5):
        for r_f in np.linspace(0.0, 2.0 * a, 5):
            ref = fermion_energy_quadrature(
                float(Omega), float(r_f), omega_c, cfg.m_b, cfg.m_f,
                cfg.omega_f, cfg.N_b, cfg.N_f, cfg.g_bf, hbar)
            val = fermion_energy(float(Omega), float(r_f), omega_c, cfg)
            assert np.isclose(val, ref, rtol=1e-6), (Omega, r_f)


def test_fermion_energy_large_displacement_limit():
    cfg = make_cfg(g_bf=0.5)
    omega_c = 166.0
    r_far = 60.0 * cfg.osc_length
    expected = (fermion_energy(200.0, 0.0, omega_c, make_cfg(g_bf=0.0))
                + 0.5 * cfg.m_f * cfg.omega_f ** 2 * r_far ** 2 * cfg.N_f)
    assert np.isclose(fermion_energy(200.0, r_far, omega_c, cfg),
                      expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# Omega_c
# ---------------------------------------------------------------------------

def test_decoupled_Omega_c_closed_form():
    for mode, A in ((CompatMode.PAPER, 2.0), (CompatMode.DERIVED, 1.0)):
        A_val = A * (6.0 * math.pi ** 2) ** (2.0 / 3.0) * 0.6 ** 1.5 \
            / (2.0 * math.pi)
        cfg = make_cfg(g_bf=0.0, mode=mode)
        closed = cfg.omega_f * math.sqrt(0.75 / A_val) * cfg.N_f ** (-1.0 / 3.0)
        assert np.isclose(solve_Omega_c(166.0, cfg), closed, rtol=1e-10)


def test_reference_width_is_the_decoupled_root():
    # classify_zero_T takes the g_bf = 0 width in closed form.  It is the
    # exact root to a few ulp: 5/3 is inexact in binary, so N_f ** (5/3)
    # alone drifts by up to ~2 ulp at N_f = 1e6, and five more roundings
    # follow (at most 6.1 ulp on 1001 points over [1, 1e6]).  It is the
    # solver's root to the solver's tolerance: xtol = 1e-15 omega_f, so
    # at N_f ~ 3000 Brent stops up to ~27 ulp away.
    for mode, A in ((CompatMode.PAPER, 2.0), (CompatMode.DERIVED, 1.0)):
        A_val = A * (6.0 * math.pi ** 2) ** (2.0 / 3.0) * 0.6 ** 1.5 \
            / (2.0 * math.pi)
        for omega_f in (50.0, 166.0, 1000.0):
            for N_f in np.geomspace(1.0, 1e6, 19):
                cfg = make_cfg(g_bf=0.03, N_f=float(N_f), omega_f=omega_f,
                               mode=mode)
                closed = classify_zero_T(cfg).Omega_c
                with localcontext() as ctx:
                    ctx.prec = 50
                    N = Decimal(cfg.N_f)
                    exact = Decimal(omega_f) * (
                        Decimal(0.75) * N
                        / (Decimal(A_val) * N ** (Decimal(5) / 3))).sqrt()
                    error = abs(Decimal(closed) - exact)
                assert error <= 8 * Decimal(math.ulp(closed)), (mode, N_f)
                omega_c = solve_omega_c(cfg).omega_c
                solved = solve_Omega_c(
                    omega_c, cfg.with_field("interaction.g_bf", 0.0))
                assert abs(closed - solved) <= (1e-15 * omega_f
                                                + 8.0 * math.ulp(solved))


def test_Omega_c_rises_with_attraction():
    values = [solve_Omega_c(166.0, make_cfg(g_bf=float(g)))
              for g in (0.0, -0.05, -0.1, -0.2)]
    assert np.all(np.diff(values) > 0)


def test_Omega_c_against_golden_section_oracle():
    cfg = make_cfg(g_bf=0.04)
    Omega_c = solve_Omega_c(166.0, cfg)
    u = golden_minimize(
        lambda t: fermion_energy(math.exp(t), 0.0, 166.0, cfg),
        bracket=(math.log(0.1 * Omega_c), math.log(Omega_c)))
    Omega_ref = refine_minimum(
        lambda w: fermion_energy(w, 0.0, 166.0, cfg), math.exp(u))
    assert np.isclose(Omega_c, Omega_ref, rtol=1e-8)


def test_Omega_c_residual_is_tiny():
    cfg = make_cfg(g_bf=0.04)
    Omega_c = solve_Omega_c(166.0, cfg)
    slope, _ = fermion_energy_gradients(Omega_c, 0.0, 166.0, cfg)
    scale = hbar * cfg.N_f ** (5.0 / 3.0)   # kinetic-term slope scale
    assert abs(slope) / scale < 1e-9


def test_Omega_c_of_a_numpy_float_count():
    # the config stores numpy numbers as floats, so the bracket's sign
    # list subtracts Python bools (numpy bools refuse subtraction)
    N_f = np.geomspace(1e3, 1e6, 4)[1]
    cfg = make_cfg(N_f=N_f)
    assert type(cfg.N_f) is float
    assert solve_Omega_c(166.0, cfg) == solve_Omega_c(
        166.0, make_cfg(N_f=float(N_f)))


def _least_energy_Omega(r_f, omega_c, cfg):
    """The oracle's least-energy root of dE_f/dOmega at fixed r_f, from
    a 4001-node scan over [1e-6, 1e6] omega_f."""
    return least_energy_root(
        lambda w: fermion_energy_gradients(w, r_f, omega_c, cfg)[0],
        lambda w: fermion_energy(w, r_f, omega_c, cfg),
        1e-6 * cfg.omega_f, 1e6 * cfg.omega_f)


def _slope_and_q(Omega, omega_c, cfg):
    """dE_f/dOmega at r_f = 0 and q = (3/2) Omega^2 sqrt(G) dG/dOmega on
    an array of Omega, written out from E_f and G."""
    _, A, kappa = zt._mode_factors(cfg)
    B = cfg.m_b * omega_c
    u = cfg.m_f * Omega + B
    G = cfg.m_f * B * Omega / (hbar * u)
    dG = cfg.m_f * B * B / (hbar * u * u)
    q = 1.5 * Omega ** 2 * np.sqrt(G) * dG
    N_f = cfg.N_f
    slope = (A * hbar * N_f ** (5.0 / 3.0)
             + (cfg.g_bf * kappa * cfg.N_b * N_f * q
                - 0.75 * hbar * cfg.omega_f ** 2 * N_f) / Omega ** 2)
    return slope, q


def _exact_slope_sign(Omega, omega_c, cfg):
    """Sign of dE_f/dOmega at r_f = 0 in 50-digit decimals of the float
    inputs, free of the rounding that blurs it near Omega_0 for weak
    g_bf."""
    _, A, kappa = zt._mode_factors(cfg)
    D = Decimal
    with localcontext() as ctx:
        ctx.prec = 50
        W, B, m_f, h = D(Omega), D(cfg.m_b) * D(omega_c), D(cfg.m_f), D(hbar)
        u = m_f * W + B
        sqrtG = (m_f * B * W / (h * u)).sqrt()
        dG = m_f * B * B / (h * u * u)
        N = D(cfg.N_f)
        slope = (D(A) * h * N ** (D(5) / 3)
                 - D(0.75) * h * D(cfg.omega_f) ** 2 * N / (W * W)
                 + D(cfg.g_bf) * D(kappa) * D(cfg.N_b) * N
                 * D(1.5) * sqrtG * dG)
    return (slope > 0) - (slope < 0)


def _fermion_cases():
    """The fig1-fig3 grid points, and oscillator-unit configs with N_b,
    N_f in {1, 1e6}, omega_f in {10, 3000} rad/s and g_bf = +-1e-30 up
    to +-1e6 in both modes."""
    cases = []
    for tag in ("fig1", "fig2", "fig3a", "fig3b"):
        spec = figure_preset(tag)
        axes = [[(rng, float(v)) for v in rng.grid()]
                for rng in spec.variables]
        cases += [scan_engine._point_config(spec, assignment)
                  for assignment in itertools.product(*axes)]
    cases += [make_cfg(g_bf=sign * g, N_b=N_b, N_f=N_f, omega_f=omega_f,
                       mode=mode)
              for g in (1e-30, 1e-12, 1e-3, 1.0, 1e6) for sign in (1, -1)
              for N_b in (1.0, 1e6) for N_f in (1.0, 1e6)
              for omega_f in (10.0, 3000.0) for mode in CompatMode]
    return cases


def test_Omega_bracket_holds_every_root():
    cases = _fermion_cases()
    assert len(cases) == 1000 + 160
    for cfg in cases:
        omega_c = solve_omega_c(cfg).omega_c
        _, A, _ = zt._mode_factors(cfg)
        Omega_0 = cfg.omega_f * math.sqrt(
            0.75 * cfg.N_f / (A * cfg.N_f ** (5.0 / 3.0)))
        Omega_c = solve_Omega_c(omega_c, cfg)
        if cfg.g_bf == 0.0:
            assert Omega_c == Omega_0
            continue
        _, lo, hi = zt._bracketed_h(omega_c, cfg)(cfg.g_bf)
        assert (lo if cfg.g_bf < 0.0 else hi) == Omega_0
        assert lo <= Omega_c <= hi, (cfg.g_bf, cfg.N_b, cfg.N_f)
        nodes = np.geomspace(1e-6, 1e6, 4001) * cfg.omega_f
        _, q = _slope_and_q(nodes, omega_c, cfg)
        assert np.all(np.diff(q) > 0.0)
        # the proven signs, at the ends moved out by their own rounding
        assert _exact_slope_sign(lo - 8.0 * math.ulp(lo), omega_c, cfg) < 0
        assert _exact_slope_sign(hi + 8.0 * math.ulp(hi), omega_c, cfg) > 0
        cells = log_scan_sign_changes(
            lambda w: _slope_and_q(w, omega_c, cfg)[0],
            1e-6 * cfg.omega_f, 1e6 * cfg.omega_f)
        assert cells
        for a, b in cells:
            assert a <= hi and b >= lo, (cfg.g_bf, cfg.N_b, a, b, lo, hi)


def test_repulsive_Omega_c_takes_one_brent_call(monkeypatch):
    # g_bf > 0 has one root in the bracket: h is evaluated at its two
    # ends, and one Brent call over the whole bracket refines it
    evals, brent = [], []
    bracketed = zt._bracketed_h

    def counted_h(omega_c, cfg):
        bracket = bracketed(omega_c, cfg)

        def counted(g_bf):
            h, lo, hi = bracket(g_bf)
            return lambda w: evals.append(w) or h(w), lo, hi
        return counted

    def recording(f, a, b, xtol, maxiter, fa=None, fb=None):
        brent.append((a, b, len(evals)))
        root = brentq(f, a, b, xtol=xtol, maxiter=maxiter, fa=fa, fb=fb)
        brent.append(len(evals))
        return root

    spec = figure_preset("fig2")
    for N_b in (1000.0, 10000.0):
        for g_bf in (0.002, 0.05, 0.2):
            cfg = spec.base.with_field("boson.count", N_b).with_field(
                "interaction.g_bf",
                spec.base.field_to_si("interaction.g_bf", g_bf))
            omega_c = solve_omega_c(cfg).omega_c
            expected = solve_Omega_c(omega_c, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(zt, "_bracketed_h", counted_h)
                patch.setattr(zt, "brentq", recording)
                evals.clear()
                brent.clear()
                assert solve_Omega_c(omega_c, cfg) == expected
            _, lo, hi = zt._bracketed_h(omega_c, cfg)(cfg.g_bf)
            # the two ends, then Brent over [lo, hi], then nothing more
            assert evals[:2] == [lo, hi]
            assert brent == [(lo, hi, 2), len(evals)]


@pytest.mark.parametrize("g_bf", [1e-30, -1e-30])
def test_Omega_c_at_a_vanishing_coupling(g_bf):
    # the bracket rounds to within ulps of Omega_0 and the computed slope
    # there is rounding noise: an end contradicting its proven sign is
    # the root
    for mode in CompatMode:
        for N_f in np.geomspace(1.0, 1e6, 25):
            for omega_f in (10.0, 166.0, 3000.0):
                cfg = make_cfg(g_bf=g_bf, N_f=float(N_f), omega_f=omega_f,
                               mode=mode)
                omega_c = solve_omega_c(cfg).omega_c
                Omega_0 = solve_Omega_c(
                    omega_c, cfg.with_field("interaction.g_bf", 0.0))
                assert Omega_0 == zt._decoupled_Omega(cfg)
                Omega_c = solve_Omega_c(omega_c, cfg)
                assert abs(Omega_c - Omega_0) <= 1e-15 * omega_f


def test_Omega_c_picks_the_least_energy_of_three_roots():
    # q is a sigmoid in ln x, so strong attraction on a wide trap gives
    # the slope three roots; the least energy is the lowest root in one
    # case and the highest in the other
    for g_bf, N_b, pick in ((-3.16, 1e4, 0), (-31.6, 1e3, 2)):
        cfg = make_cfg(g_bf=g_bf, N_b=N_b, N_f=1000.0, omega_f=10.0)
        omega_c = solve_omega_c(cfg).omega_c
        cells = log_scan_sign_changes(
            lambda w: _slope_and_q(w, omega_c, cfg)[0],
            1e-6 * cfg.omega_f, 1e6 * cfg.omega_f)
        assert len(cells) == 3
        ref = _least_energy_Omega(0.0, omega_c, cfg)
        assert cells[pick][0] <= ref <= cells[pick][1]
        Omega_c = solve_Omega_c(omega_c, cfg)
        assert abs(Omega_c - ref) <= 1e-15 * cfg.omega_f + 8.0 * math.ulp(ref)


def test_Omega_c_is_the_least_energy_root():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        mode=st.sampled_from(list(CompatMode)),
        N_b=st.floats(1.0, 1e6),
        N_f=st.floats(1.0, 1e6),
        omega_f=st.floats(10.0, 3000.0),
        log_g=st.floats(-30.0, 6.0),
        sign=st.sampled_from([1.0, -1.0]))
    def check(mode, N_b, N_f, omega_f, log_g, sign):
        cfg = make_cfg(g_bf=sign * 10.0 ** log_g, N_b=N_b, N_f=N_f,
                       omega_f=omega_f, mode=mode)
        omega_c = solve_omega_c(cfg).omega_c
        ref = _least_energy_Omega(0.0, omega_c, cfg)
        Omega_c = solve_Omega_c(omega_c, cfg)
        assert abs(Omega_c - ref) <= 1e-15 * omega_f + 8.0 * math.ulp(ref)

    check()


# ---------------------------------------------------------------------------
# threshold, separation radius, Y
# ---------------------------------------------------------------------------

def test_separation_radius_closed_points():
    cfg = make_cfg(g_bf=0.0)
    res = classify_zero_T(cfg)
    omega_c = solve_omega_c(cfg).omega_c
    assert separation_radius(res.Omega_c, omega_c, cfg) == 0.0
    g_star = coupling_threshold(res.Omega_c, omega_c, cfg)
    at = cfg.with_field("interaction.g_bf", g_star)
    assert separation_radius(res.Omega_c, omega_c, at) == 0.0
    just_above = cfg.with_field("interaction.g_bf", math.e * g_star)
    G = overlap_G(res.Omega_c, omega_c, cfg)
    assert np.isclose(separation_radius(res.Omega_c, omega_c, just_above),
                      1.0 / math.sqrt(G), rtol=1e-12)


def test_decoupled_Y_closed_form():
    cfg = make_cfg(g_bf=0.0)
    omega_c = solve_omega_c(cfg).omega_c
    Omega_c = solve_Omega_c(omega_c, cfg)
    expected = (hbar * cfg.omega_f ** 2 / Omega_c ** 3) \
        * (cfg.m_f * cfg.omega_f ** 2)
    assert np.isclose(stability_Y(Omega_c, omega_c, cfg), expected,
                      rtol=1e-12)
    assert stability_Y(Omega_c, omega_c, cfg) > 0


def test_second_bracket_flips_exactly_at_threshold():
    cfg = make_cfg()
    omega_c = solve_omega_c(cfg).omega_c
    Omega_c = solve_Omega_c(omega_c, cfg)
    g_star = coupling_threshold(Omega_c, omega_c, cfg)
    eps = 1e-12 * g_star
    below = cfg.with_field("interaction.g_bf", g_star - eps)
    above = cfg.with_field("interaction.g_bf", g_star + eps)
    # bracket2 = m_f w_f^2 - 2 g kappa N_b G^{5/2} crosses zero at g*
    _, _, det_below = energy_hessian(Omega_c, omega_c, below)
    _, _, det_above = energy_hessian(Omega_c, omega_c, above)
    assert det_below > 0 > det_above
    assert separation_radius(Omega_c, omega_c, below) == 0.0
    assert separation_radius(Omega_c, omega_c, above) > 0.0


def test_hessian_against_finite_differences():
    cfg = make_cfg(g_bf=0.03)
    omega_c = solve_omega_c(cfg).omega_c
    Omega_c = solve_Omega_c(omega_c, cfg)
    d2_OO, d2_rr, det = energy_hessian(Omega_c, omega_c, cfg)

    fd_OO = central_diff2(
        lambda w: fermion_energy(w, 0.0, omega_c, cfg), Omega_c)
    assert np.isclose(d2_OO, fd_OO, rtol=1e-4)

    # r_f = 0 sits on the boundary of the domain; use the even extension
    # E(Omega, |r|), valid because E depends on r_f^2 only
    a = cfg.osc_length
    fd_rr = central_diff2(
        lambda r: fermion_energy(Omega_c, abs(r), omega_c, cfg), 0.0,
        rel_h=1.0)   # rel_h * max(|x|, 1e-30) would underflow at x = 0
    fd_rr = (fermion_energy(Omega_c, 1e-4 * a, omega_c, cfg)
             - 2.0 * fermion_energy(Omega_c, 0.0, omega_c, cfg)
             + fermion_energy(Omega_c, 1e-4 * a, omega_c, cfg)) / (1e-4 * a) ** 2
    assert np.isclose(d2_rr, fd_rr, rtol=1e-4)

    mixed = mixed_diff2(
        lambda w, r: fermion_energy(w, abs(r), omega_c, cfg),
        Omega_c, 0.25 * a)
    # at r_f = 0 the mixed term vanishes; det is the diagonal product
    assert np.isclose(det, d2_OO * d2_rr, rtol=1e-14)
    assert np.isclose(stability_Y(Omega_c, omega_c, cfg) > 0, det > 0)


def test_separation_radius_continuous_and_increasing():
    cfg = make_cfg()
    omega_c = solve_omega_c(cfg).omega_c
    Omega_c = solve_Omega_c(omega_c, cfg)
    g_star = coupling_threshold(Omega_c, omega_c, cfg)
    radii = []
    for factor in np.linspace(1.0, 6.0, 30):
        c = cfg.with_field("interaction.g_bf", factor * g_star)
        radii.append(separation_radius(Omega_c, omega_c, c))
    assert radii[0] == 0.0
    assert radii[1] < 0.3 * radii[-1]       # gentle takeoff, no jump
    assert np.all(np.diff(radii) > 0)


# ---------------------------------------------------------------------------
# gradient cloud
# ---------------------------------------------------------------------------

def test_gradient_cloud_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(100):
        mode = CompatMode.PAPER if rng.uniform() < 0.5 else CompatMode.DERIVED
        cfg = make_cfg(
            g_bb=float(rng.uniform(-0.02, 0.1)),
            g_bf=float(rng.uniform(-0.15, 0.15)),
            N_b=float(rng.integers(50, 5000)),
            N_f=float(rng.integers(10, 500)),
            m_f=float(rng.uniform(3.0, 40.0)) * atomic_mass,
            omega_f=float(rng.uniform(80.0, 400.0)),
            mode=mode)
        omega = float(rng.uniform(0.3, 3.0)) * cfg.omega_b
        _, dE, d2E = boson_energy_derivatives(omega, cfg)
        assert np.isclose(dE, central_diff(
            lambda w: boson_energy(w, cfg), omega), rtol=1e-6, atol=1e-40)

        Omega = float(rng.uniform(0.3, 3.0)) * cfg.omega_f
        r_f = float(rng.uniform(0.1, 2.5)) * cfg.osc_length
        omega_c = float(rng.uniform(0.5, 2.0)) * cfg.omega_b
        dE_dO, dE_dr = fermion_energy_gradients(Omega, r_f, omega_c, cfg)
        fd_O = central_diff(
            lambda w: fermion_energy(w, r_f, omega_c, cfg), Omega)
        fd_r = central_diff(
            lambda r: fermion_energy(Omega, r, omega_c, cfg), r_f)
        assert np.isclose(dE_dO, fd_O, rtol=1e-6, atol=1e-40)
        assert np.isclose(dE_dr, fd_r, rtol=1e-6, atol=1e-40)


def test_bracketed_Omega_is_a_root_of_the_slope():
    # solve_Omega_c at r_f = 0, and the oracle's scan at r_f > 0, must
    # find a root of the slope at that r_f; at g_bf = -0.2, N_b = 1e4
    # the root moves by 30% between r_f = 0 and r_f = 1.5 a
    for cfg in [make_cfg(g_bf=g_bf, N_b=N_b, mode=mode)
                for mode in CompatMode
                for g_bf, N_b in ((0.04, 1000.0), (-0.2, 1e4))]:
        omega_c = solve_omega_c(cfg).omega_c
        scale = hbar * cfg.N_f ** (5.0 / 3.0)
        for r_f in (0.0, 0.4 * cfg.osc_length, 1.5 * cfg.osc_length):
            Omega = (_least_energy_Omega(r_f, omega_c, cfg) if r_f > 0.0
                     else solve_Omega_c(omega_c, cfg))
            slope, _ = fermion_energy_gradients(Omega, r_f, omega_c, cfg)
            assert abs(slope) <= 1e-9 * scale


def test_boson_solve_ignores_fermion_fields_and_g_bf():
    # solve_omega_c reads (m_b, omega_b, N_b, g_bb, compat_mode) only:
    # a sweep over anything else gives the same solve bit for bit
    cfg = make_cfg(g_bb=0.0317)
    first = solve_omega_c(cfg)
    for path, value in (("interaction.g_bf", -0.3 * cfg.g_bf),
                        ("interaction.g_ff", 1e-50),
                        ("fermion.count", 7.0),
                        ("fermion.omega", 90.0),
                        ("fermion.mass", 6.0 * atomic_mass),
                        ("thermal.volume", 1e-15)):
        assert solve_omega_c(cfg.with_field(path, value)) == first
    # every field the boson functional reads moves the solve
    for path, value in (("interaction.g_bb", 1.01 * cfg.g_bb),
                        ("boson.count", 999.0),
                        ("boson.omega", 160.0),
                        ("boson.mass", 6.0 * atomic_mass)):
        other = cfg.with_field(path, value)
        assert solve_omega_c(other).omega_c != first.omega_c, path
    paper = solve_omega_c(cfg.replace(compat_mode=CompatMode.PAPER))
    assert paper.omega_c != first.omega_c
    assert solve_omega_c(cfg) == first


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_attractive_cross_coupling_coexists():
    res = classify_zero_T(make_cfg(g_bf=-0.02))
    assert res.phase is PhaseLabel.COEXISTING
    assert res.r_fc == 0.0
    assert res.Y > 0 and res.hessian_det > 0


def test_strong_repulsion_shell_separates():
    cfg = make_cfg()
    omega_c = solve_omega_c(cfg).omega_c
    # classification judges stability at the decoupled reference width
    Omega_ref = classify_zero_T(cfg).Omega_c
    g_star = coupling_threshold(Omega_ref, omega_c, cfg)
    strong = cfg.with_field("interaction.g_bf", 10.0 * g_star)
    res = classify_zero_T(strong)
    assert res.phase is PhaseLabel.SHELL_SEPARATED
    assert res.Omega_c == Omega_ref
    assert np.isclose(res.r_fc, math.sqrt(math.log(10.0) / res.G),
                      rtol=1e-12)
    assert np.isclose(res.r_fc,
                      separation_radius(Omega_ref, omega_c, strong),
                      rtol=1e-12)


def test_coexisting_interval_broadens_for_smaller_N_b():
    def interval(N_b):
        grid = np.linspace(-0.05, 0.05, 41)
        labels = [classify_zero_T(
            make_cfg(g_bf=float(g), N_b=N_b, mode=CompatMode.PAPER)).phase
            for g in grid]
        inside = grid[[p is PhaseLabel.COEXISTING for p in labels]]
        return inside.min(), inside.max()

    lo_small, hi_small = interval(1000.0)
    lo_large, hi_large = interval(10000.0)
    # proper containment: the attractive side stays coexisting for both,
    # the repulsive edge moves in as N_b grows
    assert lo_small <= lo_large and hi_small >= hi_large
    assert hi_small > hi_large


def test_modes_agree_without_interactions():
    res_p = classify_zero_T(make_cfg(g_bb=0.0, g_bf=0.0,
                                     mode=CompatMode.PAPER))
    res_d = classify_zero_T(make_cfg(g_bb=0.0, g_bf=0.0,
                                     mode=CompatMode.DERIVED))
    # kinetic prefactors differ, so Omega_c differ; both must coexist
    assert res_p.phase is PhaseLabel.COEXISTING
    assert res_d.phase is PhaseLabel.COEXISTING


def alternating_minimization(cfg):
    """Joint (Omega, r_f) minimum of E_f by coordinate descent; returns
    (Omega, r_f, E_f).  Each Omega step takes the oracle's least-energy
    root at the current r_f."""
    omega_c = solve_omega_c(cfg).omega_c
    Omega, r_f = solve_Omega_c(omega_c, cfg), 0.0
    for _ in range(200):
        # best r_f at fixed Omega: r = 0 or the displaced root
        r_new = min((0.0, separation_radius(Omega, omega_c, cfg)),
                    key=lambda r: fermion_energy(Omega, r, omega_c, cfg))
        Omega_new = _least_energy_Omega(r_new, omega_c, cfg)
        converged = (abs(Omega_new - Omega) <= 1e-12 * Omega
                     and abs(r_new - r_f) <= 1e-12 * max(r_f, 1e-300))
        Omega, r_f = Omega_new, r_new
        if converged:
            break
    return Omega, r_f, fermion_energy(Omega, r_f, omega_c, cfg)


def test_alternating_minimization_fixed_point():
    # the joint minimizer works on the fully coupled functional:
    # its fixed point is the re-solved width at r_f = 0
    for g_bf in (0.0, 0.01, -0.05):
        cfg = make_cfg(g_bf=g_bf)
        omega_c = solve_omega_c(cfg).omega_c
        Omega, r_f, E = alternating_minimization(cfg)
        assert r_f == 0.0
        assert np.isclose(Omega, solve_Omega_c(omega_c, cfg), rtol=1e-10)
        assert np.isclose(E, fermion_energy(Omega, 0.0, omega_c, cfg),
                          rtol=1e-12)
        slope, _ = fermion_energy_gradients(Omega, 0.0, omega_c, cfg)
        assert abs(slope) / (hbar * cfg.N_f ** (5.0 / 3.0)) < 1e-9

    # attraction sharpens the coupled cloud relative to the decoupled one
    Omega_att, _, _ = alternating_minimization(make_cfg(g_bf=-0.05))
    Omega_dec, _, _ = alternating_minimization(make_cfg(g_bf=0.0))
    assert Omega_att > Omega_dec


def test_alternating_minimization_strong_repulsion_stays_centered():
    # on the coupled functional the swelling width keeps the threshold
    # ahead of the coupling, so the joint minimum never displaces; the
    # frozen-width classification is what flags the shell instability
    cfg = make_cfg()
    omega_c = solve_omega_c(cfg).omega_c
    ref = classify_zero_T(cfg)
    g_star = coupling_threshold(ref.Omega_c, omega_c, cfg)
    strong = cfg.with_field("interaction.g_bf", 5.0 * g_star)
    assert classify_zero_T(strong).phase is PhaseLabel.SHELL_SEPARATED
    Omega_s, r_s, E_s = alternating_minimization(strong)
    assert r_s == 0.0
    assert Omega_s < ref.Omega_c        # swollen relative to the reference
    assert E_s <= fermion_energy(ref.Omega_c, 0.0, omega_c, strong)
