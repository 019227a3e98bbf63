"""Homogeneous finite-temperature thermodynamics and stability.

Reference values come from the independent oracles in tests/oracles.py
(quadrature polylogarithms, finite differences) and from closed-form
limits of the free energy.
"""

import math

import numpy as np
import pytest

from bfmix.config import CompatMode, MixtureConfig
from bfmix.brent import brentq
from bfmix.constants import atomic_mass, h, hbar, k_B, pi
from bfmix.errors import ConfigError, DomainError, NumericError
from bfmix import finite_temperature as ft
from bfmix.scan_engine import figure_preset
from bfmix.specfun import Fugacity, PolyOrder, Species, fermi_f_log

from oracles import bose_g_quadrature, central_diff, fermi_f_quadrature, \
    fermi_f_quadrature_log, homogeneous_z


def make_cfg(N_b=1000.0, N_f=10000.0, g_bb=0.05, g_bf=0.3, g_ff=0.01,
             volume=1000.0, m_b_u=7.0, m_f_u=7.0, omega=166.0,
             mode=CompatMode.PAPER):
    """Fig. 4 style homogeneous box: oscillator-unit couplings and volume."""
    return MixtureConfig.from_oscillator(
        m_b=m_b_u * atomic_mass, m_f=m_f_u * atomic_mass,
        omega_b=omega, omega_f=omega, N_b=N_b, N_f=N_f,
        g_bb=g_bb, g_bf=g_bf, g_ff=g_ff, volume=volume, compat_mode=mode)


# ---------------------------------------------------------------------------
# thermal_state
# ---------------------------------------------------------------------------

def test_boltzmann_limit_fugacity():
    cfg = make_cfg()
    T = 25.0 * ft.bec_temperature(cfg)
    st = ft.thermal_state(cfg, T)
    x = st.rho_b * st.lambda_b ** 3
    assert not st.condensed
    assert np.isclose(st.z_b.z, x, rtol=1e-2)


def test_state_at_condensation_temperature():
    cfg = make_cfg()
    st = ft.thermal_state(cfg, ft.bec_temperature(cfg))
    assert np.isclose(st.rho_b * st.lambda_b ** 3, 2.612, atol=1e-3)
    assert st.z_b.z == 1.0
    assert st.condensed


def test_state_ignores_couplings():
    # the state depends on masses, densities and T only, so a coupling
    # sweep may share one fugacity inversion per temperature
    cfg = make_cfg()
    T = 3.0 * cfg.temperature_unit
    first = ft.thermal_state(cfg, T)
    for mode in (CompatMode.PAPER, CompatMode.DERIVED):
        other = make_cfg(g_bb=-0.02, g_bf=0.1, g_ff=0.5, mode=mode)
        assert ft.thermal_state(other, T) == first


def test_z_overflow_is_minus_inf_or_numeric_error():
    # the cross term alone overflowing gives Z = -inf, the right sign;
    # every coupling overflowing gives inf - inf, which is an error
    T = 2.0 * make_cfg().temperature_unit
    for mode in CompatMode:
        cfg = make_cfg(g_bf=1e200, mode=mode)
        report = ft.stability_matrix(ft.thermal_state(cfg, T), cfg)
        assert report.Z == -math.inf
        assert math.isfinite(report.dmu_b_drho_f)
        assert not report.stable
        huge = make_cfg(g_bb=1e200, g_bf=1e200, g_ff=1e200, mode=mode)
        with pytest.raises(NumericError, match="not a number"):
            ft.stability_matrix(ft.thermal_state(huge, T), huge)
        with pytest.raises(NumericError, match="not a number"):
            ft.stability_entries(ft.thermal_state(huge, T), huge, huge.g_bb,
                                 huge.g_bf, huge.g_ff)
        with pytest.raises(NumericError):
            ft.critical_window(huge, (T, 10.0 * T))


def _light_boson_cfg(g_bf, mode):
    # a 1e-200 kg boson has lambda_b ~ 1e81 m, so (lb^2 + lf^2)^2
    # overflows at any coupling
    return MixtureConfig.from_si(
        m_b=1e-200, m_f=7.0 * atomic_mass, omega_b=166.0, omega_f=166.0,
        N_b=1000.0, N_f=10000.0, g_bb=1e-50, g_bf=g_bf, g_ff=1e-51,
        volume=1e-12, compat_mode=mode), 1e-7


def _long_cross_length_cfg(mode):
    # ell_bf ~ 1e155 m squares to inf; at a physical wavelength the
    # cross term ell_bf lam2 ~ 1e145 squares to a finite ~1e291
    ell_per_unit = ft.coupling_lengths(make_cfg(g_bf=1.0, mode=mode))[1]
    return (make_cfg(g_bf=1e155 / ell_per_unit, mode=mode),
            2.0 * make_cfg().temperature_unit)


@pytest.mark.parametrize("mode", list(CompatMode))
@pytest.mark.parametrize("case", ["decoupled", "weak g_bf", "long ell_bf"])
def test_z_finite_where_a_factor_square_overflows(mode, case):
    # Z squares the rounded cross term, so it is finite wherever that
    # square is, whichever of ell_bf^2 and lam2^2 overflows on its own
    cfg, T = {"decoupled": lambda: _light_boson_cfg(0.0, mode),
              "weak g_bf": lambda: _light_boson_cfg(1e-100, mode),
              "long ell_bf": lambda: _long_cross_length_cfg(mode)}[case]()
    state = ft.thermal_state(cfg, T)
    ell_bf = ft.coupling_lengths(cfg)[1]
    lam2 = state.lambda_b ** 2 + state.lambda_f ** 2
    assert math.inf in (ell_bf * ell_bf, lam2 * lam2)
    bb, ff, cross, Z = ft.stability_entries(state, cfg, cfg.g_bb, cfg.g_bf,
                                            cfg.g_ff)
    assert math.isfinite(cross * cross)
    assert Z == bb * ff - cross * cross
    if case == "decoupled":
        assert cross == 0.0 and Z == bb * ff
    assert -math.inf < Z < math.inf and (Z < 0.0) == (case == "long ell_bf")
    report = ft.stability_matrix(state, cfg)
    assert report.Z == Z
    assert report.stable == (Z > 0.0)


def test_fermion_round_trip():
    cfg = make_cfg()
    for ttilde in (2.0, 20.0, 200.0):
        st = ft.thermal_state(cfg, ttilde * cfg.temperature_unit)
        x = st.rho_f * st.lambda_f ** 3
        assert np.isclose(fermi_f_quadrature(1.5, st.z_f.z), x, rtol=1e-10)


def test_fig5_fermi_fugacity_against_mpmath():
    # ln z_f = 15.8 at the fig5 state: ln z and f_(1/2), which every Z
    # of fig5 divides by, to within 1e-15 of the exact inversion
    mp = pytest.importorskip("mpmath")
    cfg = figure_preset("fig5").base
    st = ft.thermal_state(cfg, cfg.temperature)
    x = st.rho_f * st.lambda_f ** 3
    with mp.workdps(40):
        mu = mp.findroot(
            lambda m: mp.re(-mp.polylog(1.5, -mp.exp(m))) - x, st.z_f.ln_z)
        f12 = float(mp.re(-mp.polylog(0.5, -mp.exp(mu))))
        mu = float(mu)
    assert abs(st.z_f.ln_z - mu) <= 1e-15 * mu
    assert abs(fermi_f_log(0.5, st.z_f.ln_z) - f12) <= 1e-15 * f12


def test_thermal_state_input_validation():
    cfg = make_cfg()
    with pytest.raises(DomainError):
        ft.thermal_state(cfg, 0.0)
    with pytest.raises(DomainError):
        ft.thermal_state(cfg, -1e-9)
    for T in (math.inf, math.nan):
        with pytest.raises(DomainError, match="positive and finite"):
            ft.thermal_state(cfg, T)
    with pytest.raises(ConfigError):
        ft.thermal_state(make_cfg(volume=None), 1e-9)


def test_wavelength_convention():
    cfg = make_cfg(m_f_u=6.0)
    T = 5.0 * cfg.temperature_unit
    st = ft.thermal_state(cfg, T)
    h = 2.0 * pi * hbar
    assert np.isclose(st.lambda_b, h / math.sqrt(2 * pi * cfg.m_b * k_B * T),
                      rtol=1e-14)
    assert np.isclose(st.lambda_f, h / math.sqrt(2 * pi * cfg.m_f * k_B * T),
                      rtol=1e-14)


# ---------------------------------------------------------------------------
# free energy and chemical potentials
# ---------------------------------------------------------------------------

def test_free_energy_ideal_decomposition():
    """With all couplings off, beta F is the sum of the two canonical
    ideal-gas free energies, term by term against quadrature."""
    cfg = make_cfg(g_bb=0.0, g_bf=0.0, g_ff=0.0)
    T = 8.0 * cfg.temperature_unit
    st = ft.thermal_state(cfg, T)
    V = cfg.volume
    fermi_part = (cfg.N_f * st.z_f.ln_z
                  - V / st.lambda_f ** 3 * fermi_f_quadrature(2.5, st.z_f.z))
    bose_part = (cfg.N_b * st.z_b.ln_z
                 - V / st.lambda_b ** 3 * bose_g_quadrature(2.5, st.z_b.z)
                 + math.log1p(-st.z_b.z))
    total = ft.helmholtz_free_energy(st, cfg)
    assert np.isclose(total, fermi_part + bose_part, rtol=1e-10)


@pytest.mark.parametrize("eps", [1.5e-15, 3e-15, 6e-15, 1e-13])
def test_free_energy_just_above_condensation(eps):
    """Just above T_c, z_b rounds to 1 while the gas is not condensed;
    ln(1 - z_b) must come from ln z_b, not from the rounded z_b."""
    cfg = make_cfg()
    T_c = ft.bec_temperature(cfg)
    st = ft.thermal_state(cfg, T_c * (1.0 + eps))
    assert st.z_b.z == 1.0 and not st.condensed
    total = ft.helmholtz_free_energy(st, cfg)
    # the sub-extensive ln(1 - z_b) is all that separates the two sides
    below = ft.helmholtz_free_energy(
        ft.thermal_state(cfg, T_c * (1.0 - 1e-13)), cfg)
    assert math.isfinite(total)
    assert np.isclose(total, below, rtol=1e-3)


@pytest.mark.parametrize("eps", [3e-7, 2e-7, 1e-8, 1e-10])
def test_bose_entry_just_above_condensation_against_mpmath(eps):
    """Within about 2.5e-7 of T_c, z_b rounds to 1 - 1e-13 or above,
    where bose_g signals the divergence of g_(1/2), and the rounded z_b
    is coarse just outside it.  The bb entry takes g_(1/2) from ln z_b,
    which stays accurate, so it keeps lambda_b^3 / g_(1/2)."""
    mp = pytest.importorskip("mpmath")
    cfg = figure_preset("fig4").base
    st = ft.thermal_state(cfg, ft.bec_temperature(cfg) * (1.0 + eps))
    assert not st.condensed
    bb = ft.stability_entries(st, cfg, cfg.g_bb, cfg.g_bf, cfg.g_ff)[0]
    ell_bb = ft.coupling_lengths(cfg)[0]
    lb = st.lambda_b
    with mp.workdps(60):
        g12 = mp.polylog(0.5, mp.exp(st.z_b.ln_z))
        ref = float(4 * mp.mpf(ell_bb) * mp.mpf(lb) ** 2
                    + mp.mpf(lb) ** 3 / g12)
    assert abs(bb - ref) <= 1e-12 * ref, (bb, ref)


def test_free_energy_cross_term_structure():
    # fugacities ignore the couplings, so beta F is exactly linear in g_bf
    # and the cross term is proportional to N_b N_f / V
    base = make_cfg(g_bf=0.0)
    T = 8.0 * base.temperature_unit
    unit = base.coupling_unit

    def bF(gtilde):
        cfg = base.with_field("interaction.g_bf", gtilde * unit)
        return ft.helmholtz_free_energy(ft.thermal_state(cfg, T), cfg)

    f0, f1, f2 = bF(0.0), bF(0.1), bF(0.2)
    assert np.isclose(f2 - f0, 2.0 * (f1 - f0), rtol=1e-12)

    half_v = base.with_field("thermal.volume", base.volume / 2.0)
    st_full = ft.thermal_state(base.with_field("interaction.g_bf", 0.1 * unit), T)
    cfg_full = base.with_field("interaction.g_bf", 0.1 * unit)
    cfg_half = half_v.with_field("interaction.g_bf", 0.1 * unit)
    st_half = ft.thermal_state(cfg_half, T)
    cross_full = (ft.helmholtz_free_energy(st_full, cfg_full)
                  - ft.helmholtz_free_energy(
                      ft.thermal_state(base, T), base))
    cross_half = (ft.helmholtz_free_energy(st_half, cfg_half)
                  - ft.helmholtz_free_energy(
                      ft.thermal_state(half_v, T), half_v))
    assert np.isclose(cross_half, 2.0 * cross_full, rtol=1e-12)


def test_free_energy_number_derivative_is_chemical_potential():
    """d(beta F)/dN_i at fixed T, V equals beta mu_i away from T_c.

    The ln(1 - z_b) piece of beta F contributes a sub-extensive
    O(1/N_b) slope the chemical potential deliberately omits, so the
    check needs enough particles for that term to drop below the
    tolerance."""
    cfg = make_cfg(N_b=2e5, N_f=1e5)
    T = 300.0 * cfg.temperature_unit
    st = ft.thermal_state(cfg, T)
    assert not st.condensed
    mu_b, mu_f = ft.chemical_potentials(st, cfg)

    def bF_of_Nb(nb):
        c = cfg.with_field("boson.count", nb)
        return ft.helmholtz_free_energy(ft.thermal_state(c, T), c)

    def bF_of_Nf(nf):
        c = cfg.with_field("fermion.count", nf)
        return ft.helmholtz_free_energy(ft.thermal_state(c, T), c)

    assert np.isclose(central_diff(bF_of_Nb, cfg.N_b), st.beta * mu_b,
                      rtol=1e-5)
    assert np.isclose(central_diff(bF_of_Nf, cfg.N_f), st.beta * mu_f,
                      rtol=1e-5)


def test_chemical_potentials_decouple_without_cross_coupling():
    cfg = make_cfg(g_bf=0.0)
    T = 10.0 * cfg.temperature_unit
    mu_b_ref, _ = ft.chemical_potentials(ft.thermal_state(cfg, T), cfg)
    grown = cfg.with_field("fermion.count", 4.0 * cfg.N_f)
    mu_b, _ = ft.chemical_potentials(ft.thermal_state(grown, T), grown)
    assert mu_b == mu_b_ref


def test_condensed_ideal_contribution_vanishes():
    # z_b = 1 makes the ln z_b part of mu_b exactly zero; with all
    # couplings off, the boson chemical potential is exactly zero
    cfg = make_cfg(g_bb=0.0, g_bf=0.0, g_ff=0.0)
    st = ft.thermal_state(cfg, 0.25 * ft.bec_temperature(cfg))
    assert st.condensed
    mu_b, mu_f = ft.chemical_potentials(st, cfg)
    assert mu_b == 0.0
    assert mu_f < 0.0 or mu_f > 0.0  # fermions keep their ideal part


def test_chemical_potential_double_entry():
    """Re-derive both potentials from scratch, starting at the SI
    couplings, and compare with the production evaluation."""
    for mode in (CompatMode.PAPER, CompatMode.DERIVED):
        cfg = make_cfg(mode=mode)
        T = 7.0 * cfg.temperature_unit
        st = ft.thermal_state(cfg, T)
        if mode is CompatMode.PAPER:
            a = cfg.osc_length
            lbb = cfg.g_bb / cfg.coupling_unit * a
            lbf = cfg.g_bf / cfg.coupling_unit * a
            lff = cfg.g_ff / cfg.coupling_unit * a
        else:
            lbb = cfg.m_b * cfg.g_bb / (4.0 * pi * hbar ** 2)
            lff = cfg.m_f * cfg.g_ff / (4.0 * pi * hbar ** 2)
            lbf = cfg.reduced_mass * cfg.g_bf / (2.0 * pi * hbar ** 2)
        lb2, lf2 = st.lambda_b ** 2, st.lambda_f ** 2
        want_b = (st.z_b.ln_z + 4.0 * lbb * st.rho_b * lb2
                  + lbf * (lb2 + lf2) * st.rho_f) / st.beta
        want_f = (st.z_f.ln_z + lff * st.rho_f * lf2
                  + lbf * (lb2 + lf2) * st.rho_b) / st.beta
        mu_b, mu_f = ft.chemical_potentials(st, cfg)
        assert np.isclose(mu_b, want_b, rtol=1e-14)
        assert np.isclose(mu_f, want_f, rtol=1e-14)


def test_derived_mode_cross_shift_matches_si_coupling():
    # beta g_bf = ell_bf (lambda_b^2 + lambda_f^2) is exact in derived
    # mode, so the cross shift equals g_bf N_f / V in energy units
    cfg = make_cfg(mode=CompatMode.DERIVED, m_f_u=6.0)
    T = 9.0 * cfg.temperature_unit
    st = ft.thermal_state(cfg, T)
    decoupled = cfg.with_field("interaction.g_bf", 0.0)
    mu_b, _ = ft.chemical_potentials(st, cfg)
    mu_b0, _ = ft.chemical_potentials(ft.thermal_state(decoupled, T),
                                      decoupled)
    assert np.isclose(mu_b - mu_b0, cfg.g_bf * st.rho_f, rtol=1e-13)


# ---------------------------------------------------------------------------
# stability matrix
# ---------------------------------------------------------------------------

def test_stability_entries_match_finite_differences():
    """All three distinct entries against central differences of the
    chemical potentials in (rho_b, rho_f), away from T_c."""
    cfg = make_cfg()
    T = 10.0 * cfg.temperature_unit
    rep = ft.stability_matrix(ft.thermal_state(cfg, T), cfg)
    V = cfg.volume

    def mu(which, field, count):
        c = cfg.with_field(field, count)
        pair = ft.chemical_potentials(ft.thermal_state(c, T), c)
        return pair[0] if which == "b" else pair[1]

    d_bb = V * central_diff(lambda n: mu("b", "boson.count", n), cfg.N_b)
    d_ff = V * central_diff(lambda n: mu("f", "fermion.count", n), cfg.N_f)
    d_bf = V * central_diff(lambda n: mu("b", "fermion.count", n), cfg.N_f)
    d_fb = V * central_diff(lambda n: mu("f", "boson.count", n), cfg.N_b)
    assert np.isclose(rep.dmu_b_drho_b, d_bb, rtol=1e-5)
    assert np.isclose(rep.dmu_f_drho_f, d_ff, rtol=1e-5)
    assert np.isclose(rep.dmu_b_drho_f, d_bf, rtol=1e-5)
    assert np.isclose(rep.dmu_f_drho_b, d_fb, rtol=1e-5)


def test_cross_entries_agree():
    # the matrix is symmetric: both fields report the one entry Z uses.
    # T = 0.5 in derived mode is a point where two roundings of that
    # formula differ by 1 ulp
    for mode in (CompatMode.PAPER, CompatMode.DERIVED):
        cfg = make_cfg(mode=mode, m_f_u=6.0)
        for ttilde in (0.5, 0.8, 5.0, 60.0):
            st = ft.thermal_state(cfg, ttilde * cfg.temperature_unit)
            rep = ft.stability_matrix(st, cfg)
            assert rep.dmu_b_drho_f == rep.dmu_f_drho_b


def test_condensed_boson_diagonal_is_pure_interaction():
    cfg = make_cfg()
    st = ft.thermal_state(cfg, 1.0 * cfg.temperature_unit)
    assert st.condensed
    rep = ft.stability_matrix(st, cfg)
    a = cfg.osc_length
    lbb = cfg.g_bb / cfg.coupling_unit * a
    assert rep.dmu_b_drho_b * st.beta == 4.0 * lbb * st.lambda_b ** 2


def test_decoupled_repulsive_mixture_stable_at_every_temperature():
    cfg = make_cfg(g_bf=0.0)
    for ttilde in np.geomspace(0.3, 300.0, 12):
        rep = ft.stability_matrix(
            ft.thermal_state(cfg, ttilde * cfg.temperature_unit), cfg)
        assert rep.stable
        assert all(rep.diagonal_ok)
        assert rep.Z > 0.0


def test_high_temperature_always_stable():
    cfg = make_cfg()  # g_bf = 0.3, unstable when cold
    unit = cfg.temperature_unit
    cold = ft.stability_matrix(ft.thermal_state(cfg, 1.0 * unit), cfg)
    assert not cold.stable
    for ttilde in (1e3, 1e4, 1e5):
        rep = ft.stability_matrix(ft.thermal_state(cfg, ttilde * unit), cfg)
        assert rep.stable and rep.Z > 0.0


def test_high_temperature_asymptote_of_z():
    # Z ~ 1/(rho_b rho_f): the product Z rho_b rho_f settles to a
    # positive constant at high T
    cfg = make_cfg()
    products = []
    for ttilde in np.geomspace(1e3, 1e5, 9):
        st = ft.thermal_state(cfg, ttilde * cfg.temperature_unit)
        rep = ft.stability_matrix(st, cfg)
        products.append(rep.Z * st.rho_b * st.rho_f)
    products = np.asarray(products)
    assert np.all(products > 0.0)
    assert products.max() / products.min() < 1.2
    assert abs(products[-1] - 1.0) < 0.1


def test_z_continuous_across_condensation():
    """lambda_b^3/g_(1/2) -> 0 as z_b -> 1, so Z crosses T_c without a
    jump; the kink leaves the one-sided limits equal."""
    cfg = make_cfg()
    Tc = ft.bec_temperature(cfg)

    def Z(T):
        return ft.stability_matrix(ft.thermal_state(cfg, T), cfg).Z

    scale = abs(Z(Tc))
    below = Z(Tc * (1.0 - 1e-9))
    above = Z(Tc * (1.0 + 1e-9))
    assert abs(above - below) <= 1e-6 * scale
    # the gap shrinks with the offset, as a finite kink must
    gap_wide = abs(Z(Tc * (1.0 + 1e-5)) - Z(Tc * (1.0 - 1e-5)))
    gap_narrow = abs(Z(Tc * (1.0 + 1e-7)) - Z(Tc * (1.0 - 1e-7)))
    assert gap_narrow < 0.1 * gap_wide


def test_stable_flag_definition():
    cfg = make_cfg()
    unit = cfg.temperature_unit
    for ttilde in (1.0, 10.0, 100.0):
        rep = ft.stability_matrix(ft.thermal_state(cfg, ttilde * unit), cfg)
        assert rep.stable == (all(rep.diagonal_ok) and rep.Z >= 0.0)


# ---------------------------------------------------------------------------
# critical window
# ---------------------------------------------------------------------------

def test_window_absent_without_cross_coupling():
    cfg = make_cfg(g_bf=0.0)
    unit = cfg.temperature_unit
    w = ft.critical_window(cfg, (0.5 * unit, 50.0 * unit))
    assert not w.exists
    assert w.n_sign_changes == 0
    assert not w.unstable_at_low_edge
    assert w.T_c1 is None and w.T_c2 is None


def test_single_crossing_structure():
    """At the strong cross coupling the gas is unstable from the low
    edge and recovers once: one root, stored as the recovery
    temperature T_c2."""
    cfg = make_cfg(g_bf=0.3)
    unit = cfg.temperature_unit
    w = ft.critical_window(cfg, (0.5 * unit, 50.0 * unit))
    assert not w.exists
    assert w.n_sign_changes == 1
    assert w.unstable_at_low_edge
    assert w.T_c1 is None and w.T_c2 is not None

    def Z(T):
        return ft.stability_matrix(ft.thermal_state(cfg, T), cfg).Z

    assert Z(0.99 * w.T_c2) < 0.0 < Z(1.01 * w.T_c2)
    assert abs(Z(w.T_c2)) < abs(Z(0.9 * w.T_c2))


def test_recovery_temperature_shrinks_with_weaker_coupling():
    unit = make_cfg().temperature_unit
    span = (0.5 * unit, 50.0 * unit)
    roots = []
    for g_bf in (0.3, 0.25, 0.2):
        w = ft.critical_window(make_cfg(g_bf=g_bf), span)
        assert w.n_sign_changes == 1 and w.unstable_at_low_edge
        roots.append(w.T_c2)
    assert roots[0] > roots[1] > roots[2]
    for g_bf in (0.02, 0.01):
        w = ft.critical_window(make_cfg(g_bf=g_bf), span)
        assert w.n_sign_changes == 0
        assert not w.exists
        assert not w.unstable_at_low_edge


def test_window_nesting():
    # the unstable set only grows with |g_bf|
    unit = make_cfg().temperature_unit
    grid = np.geomspace(0.5 * unit, 50.0 * unit, 60)
    unstable = {}
    for g_bf in (0.01, 0.02, 0.3):
        cfg = make_cfg(g_bf=g_bf)
        unstable[g_bf] = np.array([
            ft.stability_matrix(ft.thermal_state(cfg, T), cfg).Z < 0.0
            for T in grid])
    assert not unstable[0.01].any()
    assert not unstable[0.02].any()
    assert unstable[0.3].any()
    assert np.all(unstable[0.01] <= unstable[0.02])
    assert np.all(unstable[0.02] <= unstable[0.3])


def test_window_input_validation():
    cfg = make_cfg()
    with pytest.raises(DomainError):
        ft.critical_window(cfg, (1e-9, 1e-9))
    with pytest.raises(DomainError):
        ft.critical_window(cfg, (0.0, 1e-9))
    # a non-finite edge is refused before any Z is evaluated
    for span in ((1e-9, math.inf), (1e-9, math.nan), (math.nan, 1e-9),
                 (math.inf, math.inf)):
        with pytest.raises(DomainError, match="< inf"):
            ft.critical_window(cfg, span)
    # a radius that is not >= 0 is refused, as lda_local_stability does
    unit = cfg.temperature_unit
    for r in (-1.0, math.nan):
        with pytest.raises(DomainError, match="radius"):
            ft.critical_window(cfg, (0.5 * unit, 50.0 * unit), r=r)
    # the edge tolerance is relative: 0 and 1 are refused
    for rtol in (0.0, 1.0):
        with pytest.raises(ConfigError, match=r"rtol must be in \(0, 1\)"):
            ft.critical_window(cfg, (0.5 * unit, 50.0 * unit), rtol=rtol)


def test_window_deterministic():
    cfg = make_cfg()
    unit = cfg.temperature_unit
    w1 = ft.critical_window(cfg, (0.5 * unit, 50.0 * unit))
    w2 = ft.critical_window(cfg, (0.5 * unit, 50.0 * unit))
    assert w1.T_c2 == w2.T_c2
    assert w1 == w2


# (label, make_cfg overrides, t_range in hbar omega_f / k_B)
_ORACLE_WINDOWS = [
    ("repulsive-paper", dict(g_bf=0.3), (0.5, 50.0)),
    ("repulsive-heavy-fermion", dict(g_bf=0.3, m_f_u=40.0), (0.5, 50.0)),
    ("attractive-derived", dict(g_bb=-0.03, g_ff=-10.0, g_bf=0.025,
                                m_f_u=6.0, mode=CompatMode.DERIVED),
     (0.5, 80.0)),
    ("attractive-paper", dict(g_bb=-0.03, g_ff=-10.0, g_bf=0.025,
                              m_f_u=6.0), (0.5, 80.0)),
]


@pytest.mark.parametrize("overrides, span",
                         [case[1:] for case in _ORACLE_WINDOWS],
                         ids=[case[0] for case in _ORACLE_WINDOWS])
def test_window_edges_bracket_oracle_sign_change(overrides, span):
    # each edge lies within rtol T of a sign change of the independent Z
    rtol = 1e-8
    cfg = make_cfg(**overrides)
    unit = cfg.temperature_unit
    w = ft.critical_window(cfg, (span[0] * unit, span[1] * unit), rtol=rtol)
    edges = [(T, sign) for T, sign in ((w.T_c1, -1.0), (w.T_c2, 1.0))
             if T is not None]
    assert edges
    ells = ft.coupling_lengths(cfg)

    def z_oracle(T):
        return homogeneous_z(T, cfg.m_b, cfg.m_f, cfg.N_b / cfg.volume,
                             cfg.N_f / cfg.volume, *ells)

    for T, sign in edges:
        # Z rises through T_c2 (recovery) and falls through T_c1 (onset)
        assert sign * z_oracle(T * (1.0 - 2.0 * rtol)) < 0.0
        assert sign * z_oracle(T * (1.0 + 2.0 * rtol)) > 0.0


def test_single_onset_crossing_structure():
    """Cut just above its lower root, a two-sided window keeps one
    stable-to-unstable crossing: T_c1 only, stable at the low edge."""
    cfg = lda_cfg()
    unit = cfg.temperature_unit
    r = 100.0 * cfg.osc_length
    full = ft.critical_window(cfg, (1e2 * unit, 1e7 * unit), r=r)
    assert full.exists
    w = ft.critical_window(cfg, (1e2 * unit, 1.1 * full.T_c1), r=r)
    assert w.n_sign_changes == 1
    assert not w.exists and not w.multi_root
    assert not w.unstable_at_low_edge
    assert w.T_c2 is None
    assert w.T_c1 == pytest.approx(full.T_c1, rel=2e-8)
    assert ft.lda_local_stability(cfg, 0.99 * w.T_c1, r).Z > 0.0
    assert ft.lda_local_stability(cfg, 1.01 * w.T_c1, r).Z < 0.0


# ---------------------------------------------------------------------------
# the monotone structure that lets critical_window sample two ends
# ---------------------------------------------------------------------------

def _ideal_term(mass, rho, phase_density, slope):
    """(T, k_B T lambda^3 / slope) at the T where rho lambda^3 equals
    phase_density, for number density rho of one species."""
    lam = (phase_density / rho) ** (1.0 / 3.0)
    T = h ** 2 / (2.0 * pi * mass * k_B * lam ** 2)
    return T, k_B * T * lam ** 3 / slope


def _assert_rising(Ts, terms):
    assert all(a < b for a, b in zip(Ts, Ts[1:]))
    assert all(a <= b for a, b in zip(terms, terms[1:]))


@pytest.mark.parametrize("m_f_u", [6.0, 40.0])
def test_fermion_ideal_term_does_not_decrease_in_T(m_f_u):
    """k_B T lambda_f^3 / f_(1/2)(z_f) at fixed density, from the
    quadrature oracles, from the deeply degenerate gas (ln z_f = 1e3)
    to the classical one (ln z_f = -30); the package's ff entry agrees
    at every one of these temperatures."""
    cfg = make_cfg(m_f_u=m_f_u, g_bb=0.0, g_bf=0.0, g_ff=0.0)
    rho = cfg.N_f / cfg.volume
    Ts, terms = [], []
    for ln_z in (1e3, 300.0, 100.0, 30.0, 10.0, 3.0, 1.0, 0.0, -1.0,
                 -3.0, -10.0, -30.0):
        T, term = _ideal_term(cfg.m_f, rho,
                              fermi_f_quadrature_log(1.5, ln_z, 0.0),
                              fermi_f_quadrature_log(0.5, ln_z, 0.0))
        ff = ft.stability_entries(ft.thermal_state(cfg, T), cfg,
                                  0.0, 0.0, 0.0)[1]
        assert k_B * T * ff == pytest.approx(term, rel=1e-11)
        Ts.append(T)
        terms.append(term)
    _assert_rising(Ts, terms)


@pytest.mark.parametrize("m_b_u", [7.0, 40.0])
def test_boson_ideal_term_does_not_decrease_in_T(m_b_u):
    """k_B T lambda_b^3 / g_(1/2)(z_b) at fixed density: exactly zero
    in the condensed gas, then rising from the condensation edge
    (ln z_b = -1e-4) to the classical gas (ln z_b = -30), from the
    quadrature oracles; the package's bb entry agrees throughout."""
    cfg = make_cfg(m_b_u=m_b_u, g_bb=0.0, g_bf=0.0, g_ff=0.0)
    rho = cfg.N_b / cfg.volume
    T_c = ft.bec_temperature(cfg)
    Ts = [0.1 * T_c, 0.5 * T_c, 0.99 * T_c]
    terms = [0.0, 0.0, 0.0]
    for T in Ts:
        state = ft.thermal_state(cfg, T)
        assert state.condensed
        assert ft.stability_entries(state, cfg, 0.0, 0.0, 0.0)[0] == 0.0
    for ln_z in (-1e-4, -1e-3, -1e-2, -0.1, -1.0, -3.0, -10.0, -30.0):
        z = math.exp(ln_z)
        T, term = _ideal_term(cfg.m_b, rho, bose_g_quadrature(1.5, z, 0.0),
                              bose_g_quadrature(0.5, z, 0.0))
        bb = ft.stability_entries(ft.thermal_state(cfg, T), cfg,
                                  0.0, 0.0, 0.0)[0]
        assert k_B * T * bb == pytest.approx(term, rel=1e-11)
        Ts.append(T)
        terms.append(term)
    _assert_rising(Ts, terms)


@pytest.mark.parametrize("mode", list(CompatMode))
def test_scaled_coupling_parts_do_not_depend_on_T(mode):
    # k_B T times each entry, less its ideal part, is the coupling in
    # J m^3 (a fixed multiple of it in paper mode) at every T
    cfg = make_cfg(g_bb=0.05, g_bf=-0.3, g_ff=0.01, mode=mode)
    unit = cfg.temperature_unit
    parts = []
    for ttilde in (0.5, 5.0, 50.0):
        state = ft.thermal_state(cfg, ttilde * unit)
        bb, ff, cross, _ = ft.stability_entries(state, cfg, cfg.g_bb,
                                                cfg.g_bf, cfg.g_ff)
        bb0, ff0, _, _ = ft.stability_entries(state, cfg, 0.0, 0.0, 0.0)
        kT = k_B * state.T
        parts.append((kT * (bb - bb0), kT * (ff - ff0), kT * cross))
    assert parts[0][0] > 0.0 and parts[0][1] > 0.0 and parts[0][2] < 0.0
    for later in parts[1:]:
        assert later == pytest.approx(parts[0], rel=1e-9)


@pytest.mark.parametrize("g_ff", [0.0, -1e-6])
def test_zero_z_stretch_is_no_window(g_ff):
    """An ideal condensate without g_bf has Z = 0 exactly below T_c and
    Z > 0 above it.  Z >= 0 is stable, so no edge is reported, whether
    g_ff = 0 or g_ff < 0 (whose ff entry is positive throughout)."""
    cfg = make_cfg(g_bb=0.0, g_bf=0.0, g_ff=g_ff)
    unit = cfg.temperature_unit
    span = (0.5 * unit, 50.0 * unit)
    assert span[0] < ft.bec_temperature(cfg) < span[1]
    assert ft._z_of_T(cfg, span[0]) == 0.0 < ft._z_of_T(cfg, span[1])
    w = ft.critical_window(cfg, span)
    assert (w.n_sign_changes, w.exists, w.unstable_at_low_edge) \
        == (0, False, False)
    assert w.T_c1 is None and w.T_c2 is None


def _grid_window(cfg, T_range, rtol):
    """(n_sign_changes, unstable_at_low_edge, roots) of 400 log-spaced
    samples of Z, each change between Z < 0 and Z >= 0 refined by Brent
    to rtol T.  Brent reads a Z of exactly 0 as positive, so a stretch
    of Z = 0 (an ideal condensate without g_bf) ends where Z < 0
    starts, not at the last sample."""
    grid = np.geomspace(*T_range, 400).tolist()
    values = [ft._z_of_T(cfg, T) for T in grid]
    roots = [brentq(lambda T: ft._z_of_T(cfg, T) or 1.0, lo, hi,
                    xtol=0.5 * rtol * lo, maxiter=200)
             for lo, hi, z_lo, z_hi in zip(grid, grid[1:], values,
                                           values[1:])
             if (z_lo < 0.0) != (z_hi < 0.0)]
    return len(roots), values[0] < 0.0, roots


def _assert_window_matches_grid(cfg, span, rtol=1e-8):
    n, unstable_low, roots = _grid_window(cfg, span, rtol)
    w = ft.critical_window(cfg, span, rtol=rtol)
    assert (w.n_sign_changes, w.exists, w.multi_root,
            w.unstable_at_low_edge) == (n, n >= 2, n > 2, unstable_low)
    edges = [T for T in (w.T_c1, w.T_c2) if T is not None]
    assert len(edges) == min(n, 2)
    for edge, root in zip(edges, roots[:1] + roots[-1:]):
        assert abs(edge - root) <= 2.0 * rtol * root


def _either_sign(hi, lo=None):
    """Couplings of either sign up to hi (down to -hi, or to lo), with
    exact zeros drawn on purpose."""
    st = pytest.importorskip("hypothesis.strategies")
    return st.one_of(st.just(0.0), st.floats(-hi if lo is None else lo, hi))


def test_window_matches_grid_scan():
    """At r = 0, for couplings of any sign, exact zeros and g_bf = 0
    included, the window from the pieces between the cuts has the
    crossings, flags and edges of a 400-sample scan."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        mode=st.sampled_from(list(CompatMode)),
        m_b_u=st.sampled_from([6.0, 7.0, 40.0]),
        m_f_u=st.sampled_from([6.0, 7.0, 40.0]),
        N_b=st.floats(300.0, 3000.0),
        N_f=st.floats(1e3, 3e4),
        volume=st.floats(500.0, 2000.0),
        g_bb=_either_sign(0.1),
        g_ff=_either_sign(0.05, lo=-12.0),
        g_bf=_either_sign(0.5),
        t_lo=st.floats(0.3, 1.0),
        t_hi=st.floats(10.0, 80.0))
    def check(mode, m_b_u, m_f_u, N_b, N_f, volume, g_bb, g_ff, g_bf,
              t_lo, t_hi):
        cfg = make_cfg(N_b=N_b, N_f=N_f, g_bb=g_bb, g_bf=g_bf, g_ff=g_ff,
                       volume=volume, m_b_u=m_b_u, m_f_u=m_f_u, mode=mode)
        span = (t_lo * cfg.temperature_unit, t_hi * cfg.temperature_unit)
        _assert_window_matches_grid(cfg, span)

    check()


@pytest.mark.parametrize("empty", ["N_b", "N_f"])
@pytest.mark.parametrize("g_bf", [0.0, 0.025])
def test_window_of_an_empty_gas(empty, g_bf):
    """A gas so dilute that rho lambda^3 underflows to 0 has an infinite
    ideal term, so its diagonal entry is +inf at every T; the window
    still matches the grid scan."""
    cfg = make_cfg(g_bb=-0.03, g_ff=-10.0, g_bf=g_bf, m_f_u=6.0,
                   mode=CompatMode.DERIVED, **{empty: 5e-324})
    unit = cfg.temperature_unit
    span = (0.5 * unit, 80.0 * unit)
    entries = ft.stability_entries(ft.thermal_state(cfg, span[0]), cfg,
                                   cfg.g_bb, cfg.g_bf, cfg.g_ff)
    assert entries[0 if empty == "N_b" else 1] == math.inf
    _assert_window_matches_grid(cfg, span)


def test_attractive_window_takes_few_z_evaluations(monkeypatch):
    """Both diagonal couplings attractive (the bench's li7-li6-attractive
    stratum): Z at the 4 piece ends and in 2 Brent calls, not at 400
    samples."""
    cfg = make_cfg(g_bb=-0.03, g_ff=-10.0, g_bf=0.025, m_f_u=6.0,
                   mode=CompatMode.DERIVED)
    unit = cfg.temperature_unit
    calls = []
    z_of_T = ft._z_of_T
    monkeypatch.setattr(ft, "_z_of_T",
                        lambda *args: calls.append(args) or z_of_T(*args))
    w = ft.critical_window(cfg, (0.5 * unit, 80.0 * unit))
    assert w.exists and w.n_sign_changes == 2
    assert len(calls) <= 20


def test_z_does_not_decrease_in_a_diagonal_coupling():
    """dZ/dg_bb has the sign of ff, and dZ/dg_ff that of bb: Z does not
    decrease in g_bb where D_ff > 0, nor in g_ff where D_bb > 0."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cfg = make_cfg(m_f_u=6.0)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        ttilde=st.floats(0.3, 80.0),
        g=st.lists(_either_sign(12.0), min_size=4, max_size=4),
        g_bf=_either_sign(0.5))
    def check(ttilde, g, g_bf):
        state = ft.thermal_state(cfg, ttilde * cfg.temperature_unit)
        unit = cfg.coupling_unit
        (lo_bb, hi_bb), (lo_ff, hi_ff) = sorted(g[:2]), sorted(g[2:])
        bb, ff, _, Z_lo = ft.stability_entries(
            state, cfg, lo_bb * unit, g_bf * unit, lo_ff * unit)
        if ff > 0.0:
            Z_hi = ft.stability_entries(state, cfg, hi_bb * unit,
                                        g_bf * unit, lo_ff * unit)[3]
            assert Z_hi >= Z_lo
        if bb > 0.0:
            Z_hi = ft.stability_entries(state, cfg, lo_bb * unit,
                                        g_bf * unit, hi_ff * unit)[3]
            assert Z_hi >= Z_lo

    check()


# ---------------------------------------------------------------------------
# T_c and T_F text formulas
# ---------------------------------------------------------------------------

def test_bec_temperature_volume_scaling():
    cfg = make_cfg()
    quad = cfg.with_field("thermal.volume", 4.0 * cfg.volume)
    ratio = ft.bec_temperature(quad) / ft.bec_temperature(cfg)
    assert np.isclose(ratio, 4.0 ** (-2.0 / 3.0), rtol=1e-12)


def test_bec_temperature_vanishing_boson_limit():
    # counts are validated strictly positive, so N_b = 0 is read as the
    # limit: T_c ~ N_b^(2/3) -> 0
    cfg = make_cfg()
    tiny = cfg.with_field("boson.count", 1e-12 * cfg.N_b)
    assert ft.bec_temperature(tiny) < 1e-7 * ft.bec_temperature(cfg)
    assert np.isclose(ft.bec_temperature(tiny) / ft.bec_temperature(cfg),
                      1e-8, rtol=1e-10)


def test_fermi_temperature_density_scaling():
    cfg = make_cfg()
    ten = cfg.with_field("fermion.count", 10.0 * cfg.N_f)
    assert np.isclose(ft.fermi_temperature(ten) / ft.fermi_temperature(cfg),
                      10.0 ** (2.0 / 3.0), rtol=1e-12)
    tiny = cfg.with_field("fermion.count", 1e-9 * cfg.N_f)
    assert ft.fermi_temperature(tiny) < 1e-5 * ft.fermi_temperature(cfg)


def test_fermi_temperature_mode_coefficients():
    paper = make_cfg(mode=CompatMode.PAPER)
    derived = make_cfg(mode=CompatMode.DERIVED)
    ratio = ft.fermi_temperature(paper) / ft.fermi_temperature(derived)
    assert np.isclose(ratio, 0.5 ** (2.0 / 3.0), rtol=1e-14)


def test_fermi_temperature_sommerfeld_round_trip():
    """Deeply degenerate: ln z_f at T = 0.01 T_F is T_F/T up to the
    Sommerfeld correction, which is below 3%."""
    cfg = make_cfg(mode=CompatMode.DERIVED)
    T_F = ft.fermi_temperature(cfg)
    st = ft.thermal_state(cfg, 0.01 * T_F)
    assert np.isclose(st.z_f.ln_z, T_F / (0.01 * T_F), rtol=0.03)


def test_fermi_temperature_ordering_guard():
    # boson-dominated mixtures must sit in the T_F < T_c regime; a light
    # fermion species can break the ordering and is rejected
    ok = make_cfg(N_b=1e5, N_f=1e3, mode=CompatMode.DERIVED)
    assert ft.fermi_temperature(ok) < ft.bec_temperature(ok)
    bad = make_cfg(N_b=1e5, N_f=1e3, m_b_u=87.0, m_f_u=6.0,
                   mode=CompatMode.DERIVED)
    with pytest.raises(DomainError):
        ft.fermi_temperature(bad)


# ---------------------------------------------------------------------------
# low-T criterion and the sign study
# ---------------------------------------------------------------------------

def test_low_t_criterion_boundary_case():
    for mode in (CompatMode.PAPER, CompatMode.DERIVED):
        cfg = make_cfg(g_bb=1.0, g_bf=1.0, g_ff=1.0, mode=mode)
        assert ft.low_T_criterion(cfg) == 0.0


def test_low_t_criterion_signs():
    stable = make_cfg(g_bb=0.05, g_ff=0.01, g_bf=0.02)  # 5e-4 > 4e-4
    assert ft.low_T_criterion(stable) > 0.0
    unstable = make_cfg(g_bb=0.05, g_ff=0.01, g_bf=0.03)
    assert ft.low_T_criterion(unstable) < 0.0


def test_low_t_criterion_mass_precondition():
    cfg = make_cfg(m_f_u=6.0)
    with pytest.raises(DomainError):
        ft.low_T_criterion(cfg)


def test_low_t_sign_study():
    """sign(Z) at T = 0.01 T_F against the coupling-only label for 20
    seeded triples; disagreements must sit in the band the fermion
    thermal-pressure length lambda_f^3/f_(1/2) predicts."""
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
            m_b=7.0 * atomic_mass, m_f=7.0 * atomic_mass,
            omega_b=166.0, omega_f=166.0, N_b=N, N_f=N,
            a_bb=a_bb, a_bf=a_bf, a_ff=a_ff, volume=V,
            compat_mode=CompatMode.DERIVED)
        T = 0.01 * ft.fermi_temperature(cfg)
        st = ft.thermal_state(cfg, T)
        rep = ft.stability_matrix(st, cfg)
        crit = ft.low_T_criterion(cfg)
        if (rep.Z >= 0.0) == (crit >= 0.0):
            agreements += 1
        else:
            ell_F = st.lambda_f / fermi_f_log(PolyOrder.ONE_HALF,
                                              st.z_f.ln_z)
            disagreements.append((u, a_ff, ell_F))
    assert agreements >= 16  # 80% of 20
    for u, a_ff, ell_F in disagreements:
        # Z keeps the ideal fermion compressibility, shifting the
        # boundary from u = 1 to u = 1 + ell_F/a_ff
        assert 1.0 < u < 1.0 + ell_F / a_ff * 1.05


# ---------------------------------------------------------------------------
# local-density approximation
# ---------------------------------------------------------------------------

def lda_cfg(mode=CompatMode.PAPER):
    # heavy boson, light fermion: the mass asymmetry opens a genuinely
    # unstable low-T region at these couplings
    return make_cfg(N_b=1000.0, N_f=10000.0, g_bb=0.05, g_bf=0.02,
                    g_ff=0.01, volume=3e-3, m_b_u=41.0, m_f_u=6.0,
                    mode=mode)


def test_lda_matches_homogeneous_at_center():
    cfg = lda_cfg()
    T = 1e4 * cfg.temperature_unit
    assert (ft.lda_local_stability(cfg, T, 0.0)
            == ft.stability_matrix(ft.thermal_state(cfg, T), cfg))


@pytest.mark.parametrize("mode", list(CompatMode))
def test_lda_report_is_the_matrix_of_the_shifted_state(mode):
    # off center, the report is stability_matrix of the homogeneous state
    # with both ln z shifted by the trap and no condensate, field for
    # field, whether or not the center is condensed
    cfg = lda_cfg(mode)
    a = cfg.osc_length
    T_c = ft.bec_temperature(cfg)
    centers = set()
    for T in (0.3 * T_c, 0.9 * T_c, 1.5 * T_c, 30.0 * T_c):
        base = ft.thermal_state(cfg, T)
        centers.add(base.condensed)
        beta = base.beta
        for r in (1.0 * a, 100.0 * a, 3000.0 * a):
            ln_zb = (base.z_b.ln_z
                     - 0.5 * beta * cfg.m_b * cfg.omega_b ** 2 * r ** 2)
            ln_zf = (base.z_f.ln_z
                     - 0.5 * beta * cfg.m_f * cfg.omega_f ** 2 * r ** 2)
            z_b = Fugacity(math.exp(ln_zb), Species.BOSE, ln_z=ln_zb)
            z_f = Fugacity(math.exp(ln_zf) if ln_zf < 709.0 else math.inf,
                           Species.FERMI, ln_z=ln_zf)
            local = base._replace(z_b=z_b, z_f=z_f, condensed=False)
            assert (ft.lda_local_stability(cfg, T, r)
                    == ft.stability_matrix(local, cfg))
    assert centers == {True, False}


def test_lda_rejects_negative_radius():
    cfg = lda_cfg()
    with pytest.raises(DomainError):
        ft.lda_local_stability(cfg, 1e4 * cfg.temperature_unit, -1e-9)


def test_lda_window_contained_in_center_window():
    cfg = lda_cfg()
    unit = cfg.temperature_unit
    a = cfg.osc_length
    grid = np.geomspace(1e2 * unit, 1e7 * unit, 50)
    center = np.array([ft.lda_local_stability(cfg, T, 0.0).Z < 0.0
                       for T in grid])
    shifted = np.array([ft.lda_local_stability(cfg, T, 100.0 * a).Z < 0.0
                        for T in grid])
    assert center.any() and shifted.any()
    assert np.all(shifted <= center)
    assert shifted.sum() < center.sum()


def test_lda_two_sided_window_off_center():
    cfg = lda_cfg()
    unit = cfg.temperature_unit
    span = (1e2 * unit, 1e7 * unit)
    w0 = ft.critical_window(cfg, span)
    assert w0.unstable_at_low_edge and not w0.exists
    wr = ft.critical_window(cfg, span, r=100.0 * cfg.osc_length)
    assert wr.exists and wr.n_sign_changes == 2
    assert w0.T_c2 > wr.T_c2 > wr.T_c1


def test_lda_large_radius_stabilizes():
    cfg = lda_cfg()
    unit = cfg.temperature_unit
    T = 5e3 * unit
    assert ft.lda_local_stability(cfg, T, 0.0).Z < 0.0
    far = ft.lda_local_stability(cfg, T, 3000.0 * cfg.osc_length)
    assert far.Z > 0.0
    assert far.stable
