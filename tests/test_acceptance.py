"""Acceptance gate: eleven criteria, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v` for the per-criterion verdicts
(add -s to see the printed measurement lines).  Reference values come
from the independent oracles in tests/oracles.py.

Criterion 8 checks the finite-T finding at the Fig. 4 parameters: the
homogeneous stability determinant crosses zero exactly once in
temperature, a recovery from an unstable cold end, so no two-sided
window [T_c1, T_c2] opens there.  The reason is physical, not numerical;
see the criterion docstring.
"""

import math
import time

import numpy as np
from scipy.integrate import simpson

from bfmix import cli
from bfmix import finite_temperature as ft
from bfmix.config import CompatMode, MixtureConfig
from bfmix.constants import atomic_mass, hbar, pi
from bfmix.scan_engine import PRESET_TAGS
from bfmix.specfun import (
    PolyOrder,
    bose_fugacity_from_density,
    bose_g,
    fermi_f,
    fermi_f_log,
    fermi_fugacity_from_density,
)
from bfmix.thomas_fermi import TFRegime, classify_tf_regime, tf_profiles
from bfmix.zero_temperature import (
    PhaseLabel,
    boson_energy,
    boson_energy_derivatives,
    classify_zero_T,
    coupling_threshold,
    critical_boson_number,
    energy_hessian,
    fermion_energy,
    fermion_energy_gradients,
    overlap_G,
    overlap_G_derivatives,
    separation_radius,
    solve_Omega_c,
    solve_omega_c,
)

from oracles import central_diff, fermi_f_quadrature, bose_g_quadrature, \
    gp_energy_quadrature, fermion_energy_quadrature, homogeneous_z

M7 = 7.0 * atomic_mass


def osc_cfg(N_b=1000.0, N_f=100.0, g_bb=0.05, g_bf=0.0, g_ff=0.0,
            volume=None, temperature=None, m_b_u=7.0, m_f_u=7.0,
            omega=166.0, mode=CompatMode.PAPER):
    return MixtureConfig.from_oscillator(
        m_b=m_b_u * atomic_mass, m_f=m_f_u * atomic_mass,
        omega_b=omega, omega_f=omega, N_b=N_b, N_f=N_f,
        g_bb=g_bb, g_bf=g_bf, g_ff=g_ff, volume=volume,
        temperature=temperature, compat_mode=mode)


def report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def bisect_boundary(predicate, lo, hi, rel=1e-14):
    """Smallest x in (lo, hi] where predicate flips from False to True."""
    assert not predicate(lo) and predicate(hi)
    while hi - lo > rel * hi:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_01():
    """Condensate width: free limit exact, repulsion narrows it."""
    t0 = time.perf_counter()
    free = osc_cfg(g_bb=0.0)
    res = solve_omega_c(free)
    rel = abs(res.omega_c - free.omega_b) / free.omega_b
    widths = [solve_omega_c(osc_cfg(g_bb=float(g))).omega_c
              for g in np.linspace(0.002, 0.12, 20)]
    decreasing = all(a > b for a, b in zip(widths, widths[1:]))
    elapsed = time.perf_counter() - t0
    report(1, rel <= 1e-9 and decreasing and elapsed < 1.0,
           f"omega_c(g_bb=0) = omega_b to {rel:.1e}; strictly decreasing "
           f"over 20 repulsive couplings; {elapsed:.2f}s")


def test_criterion_02():
    """Attractive-boson collapse threshold for the 7u / -1.45 nm gas."""
    t0 = time.perf_counter()
    cfg = MixtureConfig.from_scattering_lengths(
        m_b=M7, m_f=6.0 * atomic_mass, omega_b=166.0, omega_f=166.0,
        N_b=1000.0, N_f=100.0, a_bb=-1.45e-9, a_bf=0.0, a_ff=0.0,
        compat_mode=CompatMode.PAPER)
    n_bisect = critical_boson_number(cfg)
    closed = solve_omega_c(cfg.with_field("boson.count", 10.0)).N_b_critical
    rel = abs(n_bisect - closed) / closed
    elapsed = time.perf_counter() - t0
    report(2, 1050.0 <= n_bisect <= 1750.0 and rel <= 0.01
           and elapsed < 5.0,
           f"N_b^c = {n_bisect:.1f} in [1050, 1750]; bisection vs closed "
           f"form {rel:.1e}; {elapsed:.2f}s")


def test_criterion_03():
    """Energy functionals vs quadrature; every gradient vs central FD."""
    failures = []

    cfg_b = osc_cfg(mode=CompatMode.DERIVED)
    count_b = 0
    for g in (0.0, 0.01, 0.03, 0.06, 0.12):
        c = cfg_b.with_field("interaction.g_bb",
                             cfg_b.field_to_si("interaction.g_bb", g))
        for omega in np.linspace(0.5, 2.5, 5) * c.omega_b:
            ref = gp_energy_quadrature(float(omega), c.m_b, c.omega_b,
                                       c.N_b, c.g_bb, hbar)
            if not np.isclose(boson_energy(float(omega), c), ref,
                              rtol=1e-6):
                failures.append(f"E_b at g_bb={g}, omega={omega:.0f}")
            count_b += 1

    cfg_f = osc_cfg(g_bf=0.03, N_f=50.0, mode=CompatMode.DERIVED)
    omega_c = 150.0
    a = cfg_f.osc_length
    count_f = 0
    for Omega in np.linspace(60.0, 400.0, 5):
        for r_f in np.linspace(0.0, 2.0 * a, 5):
            ref = fermion_energy_quadrature(
                float(Omega), float(r_f), omega_c, cfg_f.m_b, cfg_f.m_f,
                cfg_f.omega_f, cfg_f.N_b, cfg_f.N_f, cfg_f.g_bf, hbar)
            val = fermion_energy(float(Omega), float(r_f), omega_c, cfg_f)
            if not np.isclose(val, ref, rtol=1e-6):
                failures.append(f"E_f at Omega={Omega:.0f}, r_f={r_f:.2e}")
            count_f += 1

    grad_checks = 0
    for mode in CompatMode:
        cb = osc_cfg(g_bb=0.04, mode=mode)
        for omega in np.linspace(0.6, 2.0, 5) * cb.omega_b:
            analytic = boson_energy_derivatives(float(omega), cb)[1]
            fd = central_diff(lambda w: boson_energy(w, cb), float(omega))
            if not np.isclose(analytic, fd, rtol=1e-6):
                failures.append(f"dE_b/domega at {omega:.0f} ({mode.value})")
            grad_checks += 1
        cf = osc_cfg(g_bf=0.03, N_f=50.0, mode=mode)
        for Omega in np.linspace(80.0, 350.0, 4):
            for r_f in np.linspace(0.3, 2.0, 3) * a:
                dO, dr = fermion_energy_gradients(
                    float(Omega), float(r_f), omega_c, cf)
                fd_O = central_diff(
                    lambda w: fermion_energy(w, float(r_f), omega_c, cf),
                    float(Omega))
                fd_r = central_diff(
                    lambda r: fermion_energy(float(Omega), r, omega_c, cf),
                    float(r_f))
                if not np.isclose(dO, fd_O, rtol=1e-6):
                    failures.append(f"dE_f/dOmega at {Omega:.0f}")
                if not np.isclose(dr, fd_r, rtol=1e-6):
                    failures.append(f"dE_f/dr_f at {r_f:.2e}")
                grad_checks += 2
            _, dG, d2G = overlap_G_derivatives(float(Omega), omega_c, cf)
            fd_G = central_diff(
                lambda w: overlap_G(w, omega_c, cf), float(Omega))
            fd_G2 = central_diff(
                lambda w: overlap_G_derivatives(w, omega_c, cf)[1],
                float(Omega))
            if not np.isclose(dG, fd_G, rtol=1e-6):
                failures.append(f"dG/dOmega at {Omega:.0f}")
            if not np.isclose(d2G, fd_G2, rtol=1e-6):
                failures.append(f"d2G/dOmega2 at {Omega:.0f}")
            grad_checks += 2

    report(3, not failures,
           f"{count_b}+{count_f} functional points vs quadrature at 1e-6; "
           f"{grad_checks} gradients vs central FD at 1e-6"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_04():
    """Three independent routes to the separation threshold agree."""
    cfg = osc_cfg(g_bf=0.02)
    omega_c = solve_omega_c(cfg).omega_c
    Omega_c = solve_Omega_c(omega_c, cfg.with_field("interaction.g_bf",
                                                    0.0))
    g_expr = coupling_threshold(Omega_c, omega_c, cfg)

    def with_g(g):
        return cfg.with_field("interaction.g_bf", g)

    g_det = bisect_boundary(
        lambda g: energy_hessian(Omega_c, omega_c, with_g(g))[2] < 0.0,
        0.5 * g_expr, 2.0 * g_expr)
    g_onset = bisect_boundary(
        lambda g: separation_radius(Omega_c, omega_c, with_g(g)) > 0.0,
        0.5 * g_expr, 2.0 * g_expr)
    spread = max(abs(g_det - g_expr), abs(g_onset - g_expr),
                 abs(g_det - g_onset)) / g_expr

    radii = [separation_radius(Omega_c, omega_c, with_g(f * g_expr))
             for f in np.linspace(1.0, 6.0, 30)]
    continuous = radii[0] == 0.0 and radii[1] < 0.3 * radii[-1]
    increasing = bool(np.all(np.diff(radii) > 0.0))

    report(4, spread <= 1e-12 and continuous and increasing,
           f"threshold routes (bracket sign, r_fc onset, closed "
           f"expression) agree to {spread:.1e}; r_fc continuous at g* "
           f"and increasing beyond")


def test_criterion_05():
    """The coexisting coupling interval shrinks as N_b grows."""
    t0 = time.perf_counter()
    grid = np.linspace(-0.05, 0.05, 41)

    def coexisting_set(N_b):
        cfg = osc_cfg(N_b=N_b)
        flags = []
        for g in grid:
            c = cfg.with_field("interaction.g_bf",
                               cfg.field_to_si("interaction.g_bf",
                                               float(g)))
            flags.append(classify_zero_T(c).phase is PhaseLabel.COEXISTING)
        return flags

    def repulsive_threshold(N_b):
        cfg = osc_cfg(N_b=N_b)

        def separated(g):
            c = cfg.with_field("interaction.g_bf",
                               cfg.field_to_si("interaction.g_bf", g))
            return classify_zero_T(c).phase is not PhaseLabel.COEXISTING

        return bisect_boundary(separated, 0.0, 0.05, rel=1e-10)

    small, large = coexisting_set(1000.0), coexisting_set(10000.0)
    contained = all(s for s, l in zip(small, large) if l)
    strict = sum(small) > sum(large)
    g_small, g_large = repulsive_threshold(1000.0), \
        repulsive_threshold(10000.0)
    elapsed = time.perf_counter() - t0
    report(5, contained and strict and g_small > g_large
           and elapsed < 10.0,
           f"N_b=10000 interval inside N_b=1000 interval on a 41-point "
           f"grid; repulsive edges {g_large:.5f} < {g_small:.5f}; "
           f"{elapsed:.2f}s")


def test_criterion_06():
    """Semiclassical profiles: regime placement and normalization."""
    checks = []

    flat_base = osc_cfg(g_bf=0.02, m_f_u=6.0)
    ratio = flat_base.m_f * flat_base.omega_f ** 2 \
        / (flat_base.m_b * flat_base.omega_b ** 2)
    flat = flat_base.with_field("interaction.g_bf", flat_base.g_bb * ratio)
    prof = tf_profiles(flat)
    inside = np.asarray(prof.n_f)[np.asarray(prof.radii)
                                  < prof.R_b * (1.0 - 1e-9)]
    spread = (inside.max() - inside.min()) / inside.mean()
    checks.append(("flat variation", classify_tf_regime(flat)
                   is TFRegime.FLAT and spread < 1e-8))

    core = osc_cfg(g_bf=0.02)
    prof_c = tf_profiles(core)
    checks.append(("core peak", prof_c.regime is TFRegime.CORE
                   and int(np.argmax(prof_c.n_f)) == 0))

    shell = osc_cfg(g_bf=0.08)
    prof_s = tf_profiles(shell)
    r_peak = prof_s.radii[int(np.argmax(prof_s.n_f))]
    checks.append(("shell peak", prof_s.regime is TFRegime.SHELL
                   and r_peak >= prof_s.R_b * (1.0 - 1e-6)))

    for name, prof_x, cfg_x in (("flat", prof, flat), ("core", prof_c,
                                                       core),
                                ("shell", prof_s, shell)):
        r = np.asarray(prof_x.radii)
        nb = simpson(4.0 * pi * r * r * prof_x.n_b, x=r)
        nf = simpson(4.0 * pi * r * r * prof_x.n_f, x=r)
        checks.append((f"{name} norms",
                       abs(nb - cfg_x.N_b) <= 1e-6 * cfg_x.N_b
                       and abs(nf - cfg_x.N_f) <= 1e-6 * cfg_x.N_f))

    bad = [name for name, ok in checks if not ok]
    report(6, not bad,
           f"flat variation {spread:.1e} < 1e-8 inside R_b; core peak at "
           f"r=0; shell peak at the condensate edge; all six "
           f"normalizations to 1e-6"
           + (f"; failures: {bad}" if bad else ""))


def test_criterion_07():
    """Polylog evaluations, oracle agreement, fugacity round trips."""
    failures = []
    zeta_err = abs(bose_g(PolyOrder.THREE_HALVES, 1.0) - 2.612)
    if zeta_err > 1e-3:
        failures.append("g_32(1)")

    zs_b = np.linspace(0.005, 0.9995, 75)
    for z in zs_b:
        ref = bose_g_quadrature(1.5, float(z))
        if not np.isclose(bose_g(PolyOrder.THREE_HALVES, float(z)), ref,
                          rtol=1e-10):
            failures.append(f"g_32({z:.3f})")
    zs_f = 10.0 ** np.linspace(-3.0, 4.0, 75)
    for z in zs_f:
        ref = fermi_f_quadrature(1.5, float(z))
        if not np.isclose(fermi_f(PolyOrder.THREE_HALVES, float(z)), ref,
                          rtol=1e-10):
            failures.append(f"f_32({z:.3f})")

    for x in np.linspace(0.05, 2.55, 12):
        fug = bose_fugacity_from_density(float(x))
        if not np.isclose(bose_g(PolyOrder.THREE_HALVES, fug.z), x,
                          rtol=1e-10):
            failures.append(f"bose round trip x={x:.2f}")
    for x in 10.0 ** np.linspace(-3.0, 3.0, 13):
        fug = fermi_fugacity_from_density(float(x))
        if not np.isclose(fermi_f_log(PolyOrder.THREE_HALVES, fug.ln_z),
                          x, rtol=1e-10):
            failures.append(f"fermi round trip x={x:.2e}")

    report(7, not failures,
           f"g_32(1) - 2.612 = {zeta_err:.1e}; 150 oracle points at "
           f"1e-10; 25 fugacity round trips at 1e-10"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_08():
    """Finite-T window at the strong-coupling figure parameters.

    Z(T) has a single recovery crossing here, and no two-sided window.
    In J m^3 the cross entry g_bf of the stability matrix does not depend
    on T, while each diagonal entry is its coupling plus the ideal-gas
    term k_B T lambda^3/g_(1/2) (f_(1/2) for the fermions), which grows
    with T at fixed density.  Wherever both diagonal entries are
    positive, Z (k_B T)^2 therefore does not decrease, so Z can change
    sign at most once, from unstable to stable.  At g_bf = 0.3 the bosons
    are condensed at the cold extreme and ell_bf^2 = 0.09 a^2 far exceeds
    ell_bb (ell_ff + lambda_f/f_(1/2)), so Z < 0 there (the sign that
    low_T_criterion gives); the one crossing is the recovery temperature
    T_c2, reported with exists=False.  The weak couplings (0.02, 0.01)
    are stable over the whole range, so the nesting clause holds with
    empty unstable sets for them.  The crossing is checked against Z
    rebuilt by oracles.homogeneous_z.  A two-sided window [T_c1, T_c2]
    needs the trap: criterion 09 checks it in the local-density
    criterion off the trap center.
    """
    t0 = time.perf_counter()
    rtol = 1e-8
    unit = osc_cfg(volume=1000.0).temperature_unit
    a6 = osc_cfg().osc_length ** 6
    lo, hi = 0.5 * unit, 50.0 * unit
    couplings = (0.3, 0.02, 0.01)

    def cfg_for(g_bf):
        return osc_cfg(N_f=10000.0, g_bb=0.05, g_bf=g_bf, g_ff=0.01,
                       volume=1000.0)

    def z_program(c, T):
        return ft.stability_matrix(ft.thermal_state(c, T), c).Z

    def z_oracle(c, T):
        # paper mode: an oscillator-unit coupling g is the length g * a
        ells = [g / c.coupling_unit * c.osc_length
                for g in (c.g_bb, c.g_bf, c.g_ff)]
        return homogeneous_z(T, c.m_b, c.m_f, c.N_b / c.volume,
                             c.N_f / c.volume, *ells)

    windows = {}
    z_extremes = {}
    unstable_sets = {}
    oracle_cold_err = {}
    t_grid = np.geomspace(lo, hi, 60)
    for g in couplings:
        c = cfg_for(g)
        windows[g] = ft.critical_window(c, (lo, hi), rtol=rtol)
        z_extremes[g] = (z_program(c, lo), z_program(c, hi))
        unstable_sets[g] = [z_program(c, float(T)) < 0.0 for T in t_grid]
        oracle_cold_err[g] = abs(z_oracle(c, lo) / z_extremes[g][0] - 1.0)

    nesting = all(
        (not u1) or u2
        for u1, u2 in zip(unstable_sets[0.01], unstable_sets[0.02])) \
        and all(
        (not u2) or u3
        for u2, u3 in zip(unstable_sets[0.02], unstable_sets[0.3]))
    z_high_ok = all(z_extremes[g][1] > 0.0 for g in couplings)
    z_low_ok = (z_extremes[0.3][0] < 0.0
                and z_extremes[0.02][0] > 0.0 and z_extremes[0.01][0] > 0.0)
    oracle_cold_ok = all(e <= 1e-8 for e in oracle_cold_err.values())

    w = windows[0.3]
    single_recovery = (not w.exists and w.n_sign_changes == 1
                       and w.unstable_at_low_edge and w.T_c1 is None
                       and w.T_c2 is not None and lo < w.T_c2 < hi)
    z_below = z_above = float("nan")
    if single_recovery:
        strong = cfg_for(0.3)
        z_below = z_oracle(strong, w.T_c2 * (1.0 - 2.0 * rtol))
        z_above = z_oracle(strong, w.T_c2 * (1.0 + 2.0 * rtol))
    oracle_crossing = z_below < 0.0 < z_above
    weak_stable = all(windows[g].n_sign_changes == 0 for g in (0.02, 0.01))
    elapsed = time.perf_counter() - t0

    t_c2 = w.T_c2 / unit if w.T_c2 is not None else float("nan")
    detail = (
        "unstable grid points (of 60) "
        + ", ".join(f"g_bf={g}: {sum(unstable_sets[g])}" for g in couplings)
        + f", nested={nesting}; Z/a^6 at T = 0.5 and 50 hbar*omega_f/k_B: "
        + ", ".join(f"g_bf={g}: {z_extremes[g][0] / a6:.3g}, "
                    f"{z_extremes[g][1] / a6:.3g}" for g in couplings)
        + "; |oracle Z / Z - 1| at the cold extreme: "
        + ", ".join(f"{oracle_cold_err[g]:.1e}" for g in couplings)
        + "; g_bf=0.3: "
        f"{w.n_sign_changes} sign change(s), exists={w.exists}, "
        f"unstable at low edge={w.unstable_at_low_edge}, "
        f"T_c2 = {t_c2:.4f} hbar*omega_f/k_B, oracle Z at "
        f"T_c2*(1 -/+ 2 rtol) = {z_below / a6:.2g}, {z_above / a6:.2g} a^6; "
        f"sign changes at g_bf=0.02, 0.01: {windows[0.02].n_sign_changes}, "
        f"{windows[0.01].n_sign_changes}; {elapsed:.2f}s")
    report(8, nesting and z_high_ok and z_low_ok and oracle_cold_ok
           and single_recovery and oracle_crossing and weak_stable
           and elapsed < 30.0, detail)


def test_criterion_09():
    """Trap curvature shrinks the unstable temperature region."""
    t0 = time.perf_counter()
    cfg = osc_cfg(N_f=10000.0, g_bb=0.05, g_bf=0.02, g_ff=0.01,
                  volume=3e-3, m_b_u=41.0, m_f_u=6.0)
    unit = cfg.temperature_unit
    a = cfg.osc_length
    span = (1e2 * unit, 1e7 * unit)

    w0 = ft.critical_window(cfg, span)
    w_trap = ft.critical_window(cfg, span, r=100.0 * a)
    # center: unstable from the low edge up to one recovery crossing
    center_ok = w0.unstable_at_low_edge and w0.T_c2 is not None
    trap_ok = w_trap.exists and w_trap.T_c1 is not None
    contained = (trap_ok and center_ok
                 and span[0] < w_trap.T_c1
                 and w_trap.T_c2 < w0.T_c2)

    edges = []
    for r_a in (50.0, 100.0, 200.0):
        w = ft.critical_window(cfg, span, r=r_a * a)
        edges.append((w.T_c1, w.T_c2))
    shrinking = all(a1 < a2 and b1 > b2
                    for (a1, b1), (a2, b2) in zip(edges, edges[1:]))
    elapsed = time.perf_counter() - t0

    report(9, contained and shrinking,
           f"window at r=100a = [{w_trap.T_c1 / unit:.0f}, "
           f"{w_trap.T_c2 / unit:.0f}] (trap units) strictly inside the "
           f"center region (upper edge {w0.T_c2 / unit:.0f}); edges "
           f"shrink monotonically over r = 50a, 100a, 200a; "
           f"{elapsed:.2f}s")


def test_criterion_10():
    """Z sign vs the coupling-only criterion on 20 seeded triples."""
    rng = np.random.default_rng(7)
    N, V = 6.4e14, 1e-15
    agreements = 0
    disagreements = []
    for _ in range(20):
        a_bb = 10.0 ** rng.uniform(math.log10(1e-9), math.log10(2e-9))
        v = 10.0 ** rng.uniform(math.log10(0.25), math.log10(4.0))
        u = 10.0 ** rng.uniform(math.log10(0.25), math.log10(4.0))
        a_ff = a_bb * v
        a_bf = math.sqrt(u * a_bb * a_ff)
        cfg = MixtureConfig.from_scattering_lengths(
            m_b=M7, m_f=M7, omega_b=166.0, omega_f=166.0, N_b=N, N_f=N,
            a_bb=a_bb, a_bf=a_bf, a_ff=a_ff, volume=V,
            compat_mode=CompatMode.DERIVED)
        T = 0.01 * ft.fermi_temperature(cfg)
        state = ft.thermal_state(cfg, T)
        Z = ft.stability_matrix(state, cfg).Z
        crit = ft.low_T_criterion(cfg)
        if (Z >= 0.0) == (crit >= 0.0):
            agreements += 1
        else:
            ell_F = state.lambda_f / fermi_f_log(PolyOrder.ONE_HALF,
                                                 state.z_f.ln_z)
            disagreements.append((u, a_ff, ell_F))

    in_band = True
    for u, a_ff, ell_F in disagreements:
        band_hi = 1.0 + ell_F / a_ff
        print(f"  disagreement: u = a_bf^2/(a_bb a_ff) = {u:.4f} inside "
              f"(1, {band_hi:.4f}) - Z keeps the ideal fermion "
              f"compressibility lambda_f^3/f_12, widening the stable "
              f"side by ell_F/a_ff = {ell_F / a_ff:.4f}")
        in_band = in_band and 1.0 < u < band_hi * 1.05

    report(10, agreements >= 16 and in_band,
           f"{agreements}/20 sign agreements (>= 16 required); "
           f"{len(disagreements)} disagreements, all inside the "
           f"thermal-pressure band u in (1, 1 + ell_F/a_ff)")


def test_criterion_11(tmp_path):
    """Preset CSVs are byte-identical across runs and schedules."""
    t0 = time.perf_counter()
    unstable = []
    for tag in PRESET_TAGS:
        paths = [tmp_path / f"{tag}_{label}.csv"
                 for label in ("serial_a", "serial_b", "parallel")]
        assert cli.main([tag, "--out", str(paths[0])]) == 0
        assert cli.main([tag, "--out", str(paths[1])]) == 0
        assert cli.main([tag, "--out", str(paths[2]),
                         "--workers", "4"]) == 0
        blobs = [p.read_bytes() for p in paths]
        if not (blobs[0] == blobs[1] == blobs[2]):
            unstable.append(tag)
    elapsed = time.perf_counter() - t0
    report(11, not unstable,
           f"all {len(PRESET_TAGS)} preset CSVs byte-identical across "
           f"two serial runs and one 4-worker run; {elapsed:.2f}s"
           + (f"; unstable: {unstable}" if unstable else ""))
