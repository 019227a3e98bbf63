"""Homogeneous finite-temperature thermodynamics of the mixture.

Free energy, chemical potentials, the stability matrix and its Z
criterion, the critical-temperature window, the T_c / T_F text formulas,
the low-temperature coupling criterion, and the local-density extension.
"""

import math
from collections import namedtuple

from .brent import brentq
from .config import CompatMode, MixtureConfig
from .constants import h, hbar, k_B, pi
from .errors import ConfigError, DomainError, NumericError
from .specfun import (
    ZETA_3_2,
    Fugacity,
    PolyOrder,
    Species,
    _bose_g_of_mu,
    bose_fugacity_from_density,
    bose_g,
    fermi_f_log,
    fermi_fugacity_from_density,
)

__all__ = [
    "ThermalState", "StabilityReport", "TemperatureWindow",
    "coupling_lengths", "thermal_state", "helmholtz_free_energy",
    "chemical_potentials", "stability_matrix", "stability_entries",
    "critical_window",
    "bec_temperature", "fermi_temperature", "low_T_criterion",
    "lda_local_stability",
]

_WINDOW_SAMPLES = 400
_ROOT_RTOL = 1e-8


def coupling_lengths(cfg):
    """Couplings as lengths (ell_bb, ell_bf, ell_ff) for the finite-T
    formulas, which carry every g with two powers of a thermal
    wavelength.

    Derived mode maps each SI coupling to the scattering length of its
    channel: ell_bb = m_b g_bb / 4 pi hbar^2 and likewise for ff, with
    ell_bf = m_red g_bf / 2 pi hbar^2.  The identities
    beta g_bb = 2 ell_bb lambda_b^2 and
    beta g_bf = ell_bf (lambda_b^2 + lambda_f^2)
    are then exact, so the printed interaction terms reproduce the SI
    mean-field energies.  Paper mode reads the dimensionless coupling as
    the length in units of the boson oscillator length, which is what
    the figure captions quote.
    """
    return _coupling_lengths(cfg, cfg.g_bb, cfg.g_bf, cfg.g_ff)


def _coupling_lengths(cfg, g_bb, g_bf, g_ff):
    # the couplings are given in J m^3; cfg fixes the mapping
    if cfg.compat_mode is CompatMode.PAPER:
        a = cfg.osc_length
        unit = cfg.coupling_unit
        return (g_bb / unit * a, g_bf / unit * a, g_ff / unit * a)
    ell_bb = cfg.m_b * g_bb / (4.0 * pi * hbar ** 2)
    ell_ff = cfg.m_f * g_ff / (4.0 * pi * hbar ** 2)
    ell_bf = cfg.reduced_mass * g_bf / (2.0 * pi * hbar ** 2)
    return (ell_bb, ell_bf, ell_ff)


class ThermalState(namedtuple("ThermalState", (
        "T",            # K
        "beta",         # 1/(k_B T)
        "lambda_b",     # thermal wavelengths [m]
        "lambda_f",
        "z_b",          # Fugacity
        "z_f",
        "rho_b",        # densities [1/m^3]
        "rho_f",
        "condensed",
))):
    """Homogeneous equilibrium state at one temperature."""
    __slots__ = ()


class StabilityReport(namedtuple("StabilityReport", (
        "dmu_b_drho_b", "dmu_f_drho_f", "dmu_b_drho_f", "dmu_f_drho_b",
        "Z", "diagonal_ok", "stable"))):
    """Stability-matrix entries and the determinant criterion.

    The derivative entries are d mu_i / d rho_j in J m^3.  The matrix is
    symmetric: both cross fields hold the one off-diagonal entry, the
    value Z is built from.  Z is the determinant form assembled from the
    beta-scaled, coupling-as-length entries, so it carries m^6.
    """
    __slots__ = ()


class TemperatureWindow(namedtuple("TemperatureWindow", (
        "T_c1", "T_c2", "exists", "n_sign_changes", "multi_root",
        "unstable_at_low_edge"))):
    """Roots of Z(T) = 0 inside a scanned range.

    exists is True only when two roots bracket an unstable interval.  A
    single sign change leaves one root in whichever slot matches its
    direction: Z < 0 at the low edge fills T_c2 (the recovery
    temperature) and sets unstable_at_low_edge.  More than two sign
    changes set multi_root and keep the outermost pair.
    """
    __slots__ = ()


def _thermal_wavelength(mass, T):
    return h / math.sqrt(2.0 * pi * mass * k_B * T)


def thermal_state(cfg, T):
    """Wavelengths, densities, and fugacities at temperature T [K],
    both fugacities inverted afresh on every call."""
    if not 0.0 < T < math.inf:
        raise DomainError(f"temperature must be positive and finite, "
                          f"got {T}")
    V = cfg.require_volume()
    T = float(T)
    rho_b, rho_f = cfg.N_b / V, cfg.N_f / V
    lambda_b = _thermal_wavelength(cfg.m_b, T)
    lambda_f = _thermal_wavelength(cfg.m_f, T)
    z_b = bose_fugacity_from_density(rho_b * lambda_b ** 3)
    z_f = fermi_fugacity_from_density(rho_f * lambda_f ** 3)
    return ThermalState(T=T, beta=1.0 / (k_B * T), lambda_b=lambda_b,
                        lambda_f=lambda_f, z_b=z_b, z_f=z_f, rho_b=rho_b,
                        rho_f=rho_f, condensed=z_b.condensed)


def helmholtz_free_energy(state, cfg):
    """beta F of the homogeneous mixture.

    Ideal parts are the canonical N ln z - (V/lambda^3) h_(5/2)(z)
    combinations; the saddle-point identity N = (V/lambda^3) h_(3/2)(z)
    then makes d(beta F)/dN_i equal ln z_i plus the interaction shifts,
    which is what the chemical potentials report.  The number-fixing
    N ln z pieces ride along for exactly that reason.  In the condensed
    phase ln z_b = 0 and the sub-extensive ln(1 - z_b) is dropped.
    """
    V = cfg.require_volume()
    ell_bb, ell_bf, ell_ff = coupling_lengths(cfg)
    lb, lf = state.lambda_b, state.lambda_f
    z_b, z_f = state.z_b, state.z_f

    out = -(V / lf ** 3) * fermi_f_log(PolyOrder.FIVE_HALVES, z_f.ln_z)
    out += cfg.N_f * z_f.ln_z
    out -= (V / lb ** 3) * bose_g(PolyOrder.FIVE_HALVES, z_b.z)
    if not state.condensed:
        # ln(1 - z_b) from ln z_b: just above T_c, z_b rounds to 1
        out += cfg.N_b * z_b.ln_z + math.log(-math.expm1(z_b.ln_z))
    out += 0.5 * ell_ff * state.rho_f * cfg.N_f * lf ** 2
    out += 2.0 * ell_bb * state.rho_b * cfg.N_b * lb ** 2
    out += ell_bf * (lb ** 2 + lf ** 2) * cfg.N_f * cfg.N_b / V
    return out


def chemical_potentials(state, cfg):
    """(mu_b, mu_f) in joules: ideal ln z parts plus mean-field shifts."""
    ell_bb, ell_bf, ell_ff = coupling_lengths(cfg)
    lb, lf = state.lambda_b, state.lambda_f
    # condensed phase: z_b = 1, so the ideal part ln z_b vanishes on its own
    beta_mu_b = (state.z_b.ln_z + 4.0 * ell_bb * state.rho_b * lb ** 2
                 + ell_bf * (lb ** 2 + lf ** 2) * state.rho_f)
    beta_mu_f = (state.z_f.ln_z + ell_ff * state.rho_f * lf ** 2
                 + ell_bf * (lb ** 2 + lf ** 2) * state.rho_b)
    return (beta_mu_b / state.beta, beta_mu_f / state.beta)


def stability_matrix(state, cfg):
    """Matrix entries and the determinant criterion Z.

    The beta-scaled entries are 4 ell_bb lambda_b^2 + lambda_b^3/g_(1/2)
    (second term exactly zero in the condensed phase), ell_ff lambda_f^2
    + lambda_f^3/f_(1/2), and ell_bf (lambda_b^2 + lambda_f^2); Z is
    their determinant combination.  Z may be -inf, when the square of
    the cross term overflows; a Z that is not a number raises
    NumericError.
    """
    bb, ff, cross, Z = stability_entries(state, cfg, cfg.g_bb, cfg.g_bf,
                                         cfg.g_ff)
    if math.isnan(Z):
        raise NumericError(
            "the stability determinant Z is not a number: its terms "
            f"overflow (entries bb = {bb:.3g}, ff = {ff:.3g}, "
            f"cross = {cross:.3g} m^3)")
    diagonal_ok = (bb >= 0.0, ff >= 0.0)
    kT = 1.0 / state.beta
    return StabilityReport(
        dmu_b_drho_b=bb * kT,
        dmu_f_drho_f=ff * kT,
        dmu_b_drho_f=cross * kT,
        dmu_f_drho_b=cross * kT,
        Z=Z,
        diagonal_ok=diagonal_ok,
        stable=all(diagonal_ok) and Z >= 0.0,
    )


def _bose_ideal(lb, z_b):
    # lambda_b^3 / g_(1/2)(z_b), exactly zero in the condensed phase;
    # g_(1/2) from ln z, which stays accurate where z rounds to 1
    if z_b.condensed:
        return 0.0
    g12 = _bose_g_of_mu(PolyOrder.ONE_HALF, z_b.ln_z)
    if g12 == 0.0:
        return math.inf  # empty gas: ideal compressibility diverges
    return lb ** 3 / g12 if math.isfinite(g12) else 0.0


def _fermi_ideal(lf, z_f):
    f12 = fermi_f_log(PolyOrder.ONE_HALF, z_f.ln_z)
    return math.inf if f12 == 0.0 else lf ** 3 / f12


def stability_entries(state, cfg, g_bb, g_bf, g_ff):
    """The beta-scaled entries (bb, ff, cross) and Z of stability_matrix
    at the couplings g_bb, g_bf, g_ff [J m^3]; every other input comes
    from state and cfg."""
    ell_bb, ell_bf, ell_ff = _coupling_lengths(cfg, g_bb, g_bf, g_ff)
    lb, lf = state.lambda_b, state.lambda_f
    bb = 4.0 * ell_bb * lb ** 2 + _bose_ideal(lb, state.z_b)
    ff = ell_ff * lf ** 2 + _fermi_ideal(lf, state.z_f)
    lam2 = lb ** 2 + lf ** 2
    cross = ell_bf * lam2
    # square the rounded cross term as a product: a float product
    # overflows to inf where ** raises, and no factor of it overflows
    # unless cross^2 does (so g_bf = 0 gives Z = bb ff, never nan)
    Z = bb * ff - cross * cross
    return bb, ff, cross, Z


def _z_of_T(cfg, T, r=0.0):
    if r > 0.0:
        return lda_local_stability(cfg, T, r).Z
    return stability_matrix(thermal_state(cfg, T), cfg).Z


def _log_grid(lo, hi, n):
    """n points from lo to hi, evenly spaced in log T, the ends exact."""
    a = math.log10(lo)
    step = (math.log10(hi) - a) / (n - 1)
    return [lo] + [10.0 ** (a + i * step) for i in range(1, n - 1)] + [hi]


def _turn(entry, T_lo, T_hi, e_lo, e_hi, xtol):
    """The least T that Brent evaluates with entry(T) > 0, where entry
    does not decrease and e_lo = entry(T_lo) <= 0 < e_hi = entry(T_hi):
    within xtol of where entry turns positive, on its positive side."""
    above = [T_hi]

    def f(T):
        e = entry(T)
        if e > 0.0:
            above.append(T)
        # a stretch at exactly 0 (an ideal condensate) lies below the turn
        return e if e != 0.0 else -e_hi

    brentq(f, T_lo, T_hi, xtol=xtol, maxiter=200, fa=e_lo or -e_hi, fb=e_hi)
    return min(above)


def _cuts(cfg, T_lo, T_hi, xtol, no_cross):
    """The T in (T_lo, T_hi] where bb or ff turns positive, sorted, each
    from _turn on that entry alone, which needs only its own species'
    fugacity inversion.  An entry of a repulsive coupling never turns,
    and one of g = 0 turns only from a stretch at exactly 0 (bb of an
    ideal condensate), which matters only without a cross entry."""
    V = cfg.require_volume()
    ell_bb, _, ell_ff = coupling_lengths(cfg)
    rho_b, rho_f = cfg.N_b / V, cfg.N_f / V

    def bb(T):
        lb = _thermal_wavelength(cfg.m_b, T)
        z_b = bose_fugacity_from_density(rho_b * lb ** 3)
        return 4.0 * ell_bb * lb ** 2 + _bose_ideal(lb, z_b)

    def ff(T):
        lf = _thermal_wavelength(cfg.m_f, T)
        z_f = fermi_fugacity_from_density(rho_f * lf ** 3)
        return ell_ff * lf ** 2 + _fermi_ideal(lf, z_f)

    cuts = []
    for ell, entry in ((ell_bb, bb), (ell_ff, ff)):
        if ell < 0.0 or (ell == 0.0 and no_cross):
            e_lo, e_hi = entry(T_lo), entry(T_hi)
            if e_lo <= 0.0 < e_hi:
                cuts.append(_turn(entry, T_lo, T_hi, e_lo, e_hi, xtol))
    return sorted(cuts)


def critical_window(cfg, T_range, r=0.0, rtol=None):
    """Edges of the unstable set Z < 0 inside T_range.

    Z is evaluated at the ends of a few pieces of T_range, and each
    change between Z < 0 and Z >= 0 across a piece is refined by Brent's
    method (bfmix.brent) to within rtol T (rtol 1e-8 by default).  The
    optional r evaluates the local-density criterion at radius r instead
    of the homogeneous one.

    The homogeneous criterion (r = 0) cuts T_range where a diagonal
    entry turns positive (_cuts), so into at most 3 pieces and 4 ends.
    In J m^3 the cross entry C does not depend on T, each diagonal entry
    is its coupling plus an ideal-gas term that does not decrease with
    T, and Z (k_B T)^2 = D_bb D_ff - C^2.  On a piece where both D keep
    one sign their product is monotone, so Z changes sign at most once;
    where their signs differ, Z < 0.  With g_bb, g_ff >= 0 nothing is
    cut: Z is sampled at the two ends of T_range and changes sign at
    most once, from negative to positive.  With C = 0, Z = bb ff keeps
    its sign on each piece, and the edges are the cuts themselves.

    The trap-damped fugacities of r > 0 have no such structure: Z is
    sampled at 400 points evenly spaced in log T.
    """
    T_lo, T_hi = T_range
    if not (0.0 < T_lo < T_hi < math.inf):
        raise DomainError(
            f"need 0 < T_lo < T_hi < inf, got [{T_lo}, {T_hi}]")
    if not r >= 0.0:
        raise DomainError(f"radius must be >= 0, got {r}")
    if rtol is None:
        rtol = _ROOT_RTOL
    elif not 0.0 < rtol < 1.0:
        raise ConfigError(f"window rtol must be in (0, 1), got {rtol}")
    no_cross = coupling_lengths(cfg)[1] == 0.0
    if r > 0.0:
        ends = _log_grid(T_lo, T_hi, _WINDOW_SAMPLES)
    else:
        ends = [T_lo, *_cuts(cfg, T_lo, T_hi, 0.5 * rtol * T_lo, no_cross),
                T_hi]
    values = [_z_of_T(cfg, T, r) for T in ends]

    # Z >= 0 is stable, so an edge is where Z < 0 starts or stops; a
    # stretch of Z = 0 (an ideal condensate without g_bf) is no edge
    changes = [i for i in range(len(ends) - 1)
               if (values[i] < 0.0) != (values[i + 1] < 0.0)]
    if r == 0.0 and no_cross:
        # each cut lies on the positive side of its turn, so Z there has
        # the sign of the piece it starts
        roots = [ends[i + 1] for i in changes]
    else:
        roots = [brentq(lambda T: _z_of_T(cfg, T, r), ends[i], ends[i + 1],
                        xtol=0.5 * rtol * ends[i], maxiter=200,
                        fa=values[i], fb=values[i + 1])
                 for i in changes]
    n = len(roots)
    unstable_low = values[0] < 0.0
    lower, upper = (roots[0], roots[-1]) if roots else (None, None)
    # one crossing only: the root closes an interval open at an edge
    return TemperatureWindow(
        T_c1=None if n == 1 and unstable_low else lower,
        T_c2=None if n == 1 and not unstable_low else upper,
        exists=n >= 2, n_sign_changes=n, multi_root=n > 2,
        unstable_at_low_edge=unstable_low)


def bec_temperature(cfg):
    """Ideal-gas condensation temperature of the boson component."""
    V = cfg.require_volume()
    return (h ** 2 / (2.0 * pi * cfg.m_b * k_B)
            * (cfg.N_b / (ZETA_3_2 * V)) ** (2.0 / 3.0))


def fermi_temperature(cfg):
    """Fermi temperature of the fermion component.

    Paper mode keeps the printed (3 N_f / 8 pi V)^(2/3) coefficient;
    derived mode uses (3 N_f / 4 pi V)^(2/3), which is E_F/k_B for a
    single spin component and what the degenerate-limit checks assume.
    When the boson gas dominates (N_b >= 100 N_f) the stated ordering
    T_F < T_c is asserted.
    """
    V = cfg.require_volume()
    denom = 8.0 if cfg.compat_mode is CompatMode.PAPER else 4.0
    T_F = (h ** 2 / (2.0 * cfg.m_f * k_B)
           * (3.0 * cfg.N_f / (denom * pi * V)) ** (2.0 / 3.0))
    if cfg.N_b >= 100.0 * cfg.N_f:
        T_c = bec_temperature(cfg)
        if T_F >= T_c:
            raise DomainError(
                f"expected T_F < T_c for a boson-dominated mixture, got "
                f"T_F={T_F:.6g} K >= T_c={T_c:.6g} K")
    return T_F


def low_T_criterion(cfg):
    """The T << T_F stability label ell_bb ell_ff - ell_bf^2 [m^2].

    Only its sign is meaningful; it is the coupling-space boundary the
    full Z criterion approaches in the deeply degenerate regime, up to
    wavelength prefactors that do not cancel exactly.
    """
    if not math.isclose(cfg.m_f, cfg.m_b, rel_tol=1e-12):
        raise DomainError(
            f"the low-T criterion assumes m_f = m_b, got m_b={cfg.m_b}, "
            f"m_f={cfg.m_f}")
    ell_bb, ell_bf, ell_ff = coupling_lengths(cfg)
    return ell_bb * ell_ff - ell_bf ** 2


def lda_local_stability(cfg, T, r):
    """Stability matrix at radius r with trap-damped local fugacities.

    ln z_i is shifted by -beta m_i omega_i^2 r^2 / 2 and the local
    densities are recomputed from the ideal relations.  Working on ln z
    keeps the deeply degenerate fermion branch finite.
    """
    if not r >= 0.0:
        raise DomainError(f"radius must be >= 0, got {r}")
    base = thermal_state(cfg, T)
    if r == 0.0:
        return stability_matrix(base, cfg)
    beta = base.beta
    ln_zb = base.z_b.ln_z - 0.5 * beta * cfg.m_b * cfg.omega_b ** 2 * r ** 2
    ln_zf = base.z_f.ln_z - 0.5 * beta * cfg.m_f * cfg.omega_f ** 2 * r ** 2
    zb_local = math.exp(ln_zb)
    z_b = Fugacity(zb_local, Species.BOSE, ln_z=ln_zb)
    z_f = Fugacity(math.exp(ln_zf) if ln_zf < 709.0 else math.inf,
                   Species.FERMI, ln_z=ln_zf)
    rho_b = bose_g(PolyOrder.THREE_HALVES, zb_local) / base.lambda_b ** 3
    rho_f = (fermi_f_log(PolyOrder.THREE_HALVES, ln_zf)
             / base.lambda_f ** 3)
    local = ThermalState(T=base.T, beta=beta, lambda_b=base.lambda_b,
                         lambda_f=base.lambda_f, z_b=z_b, z_f=z_f,
                         rho_b=rho_b, rho_f=rho_f, condensed=False)
    return stability_matrix(local, cfg)
