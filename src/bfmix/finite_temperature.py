"""Homogeneous finite-temperature thermodynamics of the mixture.

Free energy, chemical potentials, the stability matrix and its Z
criterion, the critical-temperature window, the T_c / T_F text formulas,
the low-temperature coupling criterion, and the local-density extension.

Each species is built once: _species gives its wavelength and fugacity,
and _bose_entry or _fermi_entry its diagonal stability entry.  _parts
adds the cross entry and _determinant Z; thermal_state, the window cuts,
every stability result and the Z scan observable go through them.
"""

import math
from collections import namedtuple

from .brent import brentq
from .config import CompatMode, MixtureConfig
from .constants import h, hbar, k_B, pi
from .errors import ConfigError, DomainError, NumericError
from .specfun import (
    ZETA_3_2,
    PolyOrder,
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
# Brent in ln T: the widest span, -745 to 710, takes 63 halvings to a
# double's resolution of T, and up to 3 times as many steps at a flat root
_LOG_STEPS = 200


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
    to_bb, to_bf, to_ff = _lengths(cfg)
    return (to_bb(cfg.g_bb), to_bf(cfg.g_bf), to_ff(cfg.g_ff))


def _lengths(cfg):
    """Each channel's map from a coupling [J m^3] to its length, in the
    order of coupling_lengths: (bb, bf, ff)."""
    if cfg.compat_mode is CompatMode.PAPER:
        a = cfg.osc_length
        unit = cfg.coupling_unit
        return (lambda g: g / unit * a,) * 3
    m_b, m_red, m_f = cfg.m_b, cfg.reduced_mass, cfg.m_f
    four, two = 4.0 * pi * hbar ** 2, 2.0 * pi * hbar ** 2
    return (lambda g: m_b * g / four, lambda g: m_red * g / two,
            lambda g: m_f * g / four)


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


def _species(mass, rho, T, invert):
    """(thermal wavelength [m], invert(rho lambda^3)) of one species.  A
    NumericError names the temperature where 2 pi m k_B T underflows, or
    where lambda^3 or a Fermi gas's rho lambda^3 overflows."""
    try:
        lam = h / math.sqrt(2.0 * pi * mass * k_B * T)
        return lam, invert(rho * lam ** 3)
    except (ArithmeticError, NumericError):
        raise NumericError(
            f"thermal.temperature = {T!r} K puts the phase-space density of "
            f"the count over thermal.volume, {rho!r} m^-3, beyond float "
            "range") from None


def thermal_state(cfg, T):
    """Wavelengths, densities, and fugacities at temperature T [K],
    both fugacities inverted afresh on every call."""
    if not 0.0 < T < math.inf:
        raise DomainError(f"temperature must be positive and finite, "
                          f"got {T}")
    V = cfg.require_volume()
    T = float(T)
    rho_b, rho_f = cfg.N_b / V, cfg.N_f / V
    lambda_b, z_b = _species(cfg.m_b, rho_b, T, bose_fugacity_from_density)
    lambda_f, z_f = _species(cfg.m_f, rho_f, T, fermi_fugacity_from_density)
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
    return _report(cfg, state.beta, state.lambda_b, state.lambda_f,
                   state.z_b.ln_z, state.z_f.ln_z)


def stability_entries(state, cfg, g_bb, g_bf, g_ff):
    """The beta-scaled entries (bb, ff, cross) and Z of stability_matrix
    at the couplings g_bb, g_bf, g_ff [J m^3]; every other input comes
    from state and cfg.  A Z that is not a number raises the NumericError
    of stability_matrix."""
    bb, ff, cross = _parts(cfg, state.lambda_b, state.lambda_f,
                           state.z_b.ln_z, state.z_f.ln_z)
    bb, ff, cross = bb(g_bb), ff(g_ff), cross(g_bf)
    return bb, ff, cross, _determinant(bb, ff, cross)


def _report(cfg, beta, lb, lf, ln_zb, ln_zf):
    """The StabilityReport at cfg's couplings, from the inverse
    temperature, thermal wavelengths and ln fugacities of a state,
    homogeneous or local."""
    bb, ff, cross = _parts(cfg, lb, lf, ln_zb, ln_zf)
    bb, ff, cross = bb(cfg.g_bb), ff(cfg.g_ff), cross(cfg.g_bf)
    Z = _determinant(bb, ff, cross)
    diagonal_ok = (bb >= 0.0, ff >= 0.0)
    kT = 1.0 / beta
    return StabilityReport(
        dmu_b_drho_b=bb * kT,
        dmu_f_drho_f=ff * kT,
        dmu_b_drho_f=cross * kT,
        dmu_f_drho_b=cross * kT,
        Z=Z,
        diagonal_ok=diagonal_ok,
        stable=all(diagonal_ok) and Z >= 0.0,
    )


def _parts(cfg, lb, lf, ln_zb, ln_zf):
    """The beta-scaled entries at thermal wavelengths lb, lf and ln
    fugacities ln_zb, ln_zf, each a function of its own coupling [J m^3]:
    (bb of g_bb, ff of g_ff, cross of g_bf)."""
    to_bb, to_bf, to_ff = _lengths(cfg)
    lam2 = lb ** 2 + lf ** 2
    return (_bose_entry(to_bb, lb, ln_zb), _fermi_entry(to_ff, lf, ln_zf),
            lambda g: to_bf(g) * lam2)


def _bose_entry(to_bb, lb, ln_z):
    """bb = 4 ell_bb lambda_b^2 + lambda_b^3 / g_(1/2)(z_b) as a function
    of g_bb; no coupling moves the ideal term, so it is computed once."""
    # g_(1/2) from ln z stays accurate where z rounds to 1; a condensate
    # (g_(1/2) = inf) adds exactly 0, an empty gas (g_(1/2) = 0) inf
    g12 = _bose_g_of_mu(PolyOrder.ONE_HALF, ln_z)
    ideal = (math.inf if g12 == 0.0
             else lb ** 3 / g12 if math.isfinite(g12) else 0.0)
    lb2 = lb ** 2
    return lambda g: 4.0 * to_bb(g) * lb2 + ideal


def _fermi_entry(to_ff, lf, ln_z):
    """ff = ell_ff lambda_f^2 + lambda_f^3 / f_(1/2)(z_f), as _bose_entry."""
    f12 = fermi_f_log(PolyOrder.ONE_HALF, ln_z)
    ideal = math.inf if f12 == 0.0 else lf ** 3 / f12
    lf2 = lf ** 2
    return lambda g: to_ff(g) * lf2 + ideal


def _determinant(bb, ff, cross):
    """Z from the entries; NumericError where it is not a number."""
    # square the rounded cross term as a product: a float product
    # overflows to inf where ** raises, and no factor of it overflows
    # unless cross^2 does (so g_bf = 0 gives Z = bb ff, never nan)
    Z = bb * ff - cross * cross
    if Z != Z:
        raise NumericError(
            "the stability determinant Z is not a number: its terms "
            f"overflow (entries bb = {bb:.3g}, ff = {ff:.3g}, "
            f"cross = {cross:.3g} m^3 of interaction.g_bb, interaction.g_ff "
            "and interaction.g_bf at thermal.temperature)")
    return Z


def _log_grid(lo, hi, n):
    """n points from lo to hi, evenly spaced in log T, the ends exact."""
    a = math.log10(lo)
    step = (math.log10(hi) - a) / (n - 1)
    return [lo] + [10.0 ** (a + i * step) for i in range(1, n - 1)] + [hi]


def _log_root(f, T_a, T_b, f_a, f_b, zero, rtol):
    """The T between T_a and T_b where f changes sign, to within rtol T,
    by Brent's method (bfmix.brent) on s = ln T; f_a and f_b are f at
    the ends, and an f of exactly 0 is read as zero, a value of the sign
    of one end.  The tolerance in s, rtol / 2, stops at a double's own
    resolution of T."""
    s = brentq(lambda s: f(math.exp(s)) or zero, math.log(T_a),
               math.log(T_b), xtol=max(0.5 * rtol, 2.0 ** -52),
               maxiter=_LOG_STEPS, fa=f_a or zero, fb=f_b or zero)
    return math.exp(s)


def _turn(entry, T_lo, T_hi, e_lo, e_hi, rtol):
    """The least T that Brent evaluates with entry(T) > 0, where entry
    does not decrease and e_lo = entry(T_lo) <= 0 < e_hi = entry(T_hi):
    within rtol T of where entry turns positive, on its positive side."""
    above = [T_hi]

    def f(T):
        e = entry(T)
        if e > 0.0:
            above.append(T)
        return e

    # a stretch at exactly 0 (an ideal condensate) lies below the turn
    _log_root(f, T_lo, T_hi, e_lo, e_hi, -e_hi, rtol)
    return min(above)


def _cuts(cfg, T_lo, T_hi, rtol):
    """The T in (T_lo, T_hi] where bb or ff turns positive, sorted, each
    from _turn on that entry alone, built by _species and _bose_entry or
    _fermi_entry from its own species.  An entry of a repulsive coupling
    never turns, and one of zero length turns only from a stretch at
    exactly 0 (bb of an ideal condensate)."""
    V = cfg.require_volume()
    to_bb, _, to_ff = _lengths(cfg)
    rho_b, rho_f = cfg.N_b / V, cfg.N_f / V

    def bb(T):
        lb, z_b = _species(cfg.m_b, rho_b, T, bose_fugacity_from_density)
        return _bose_entry(to_bb, lb, z_b.ln_z)(cfg.g_bb)

    def ff(T):
        lf, z_f = _species(cfg.m_f, rho_f, T, fermi_fugacity_from_density)
        return _fermi_entry(to_ff, lf, z_f.ln_z)(cfg.g_ff)

    cuts = []
    for ell, entry in ((to_bb(cfg.g_bb), bb), (to_ff(cfg.g_ff), ff)):
        if ell <= 0.0:
            e_lo, e_hi = entry(T_lo), entry(T_hi)
            if e_lo <= 0.0 < e_hi:
                cuts.append(_turn(entry, T_lo, T_hi, e_lo, e_hi, rtol))
    return sorted(cuts)


def critical_window(cfg, T_range, r=0.0, rtol=None):
    """Edges of the unstable set Z < 0 inside T_range.

    Z is evaluated at the ends of a few pieces of T_range, and each
    change between Z < 0 and Z >= 0 across a piece is refined by Brent's
    method in ln T (_log_root) to within rtol T (rtol 1e-8 by default).
    The optional r evaluates the local-density criterion at radius r
    instead of the homogeneous one.

    The homogeneous criterion (r = 0) cuts T_range where a diagonal entry,
    built for its species alone, turns positive (_cuts), so into at most 3
    pieces and 4 ends.  In J m^3 the cross entry C does not depend on T,
    each diagonal entry is its coupling plus an ideal-gas term that does
    not decrease with T, and Z (k_B T)^2 = D_bb D_ff - C^2.  On a piece
    where both D keep one sign their product is monotone, so Z changes sign
    at most once; where their signs differ, Z < 0.  With g_bb, g_ff >= 0
    nothing is cut: Z is sampled at the two ends of T_range and changes
    sign at most once, from negative to positive.  With C = 0, a cut on
    the positive side of its turn leaves one sign change of Z per piece.

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
    if r > 0.0:
        ends = _log_grid(T_lo, T_hi, _WINDOW_SAMPLES)
    else:
        ends = [T_lo, *_cuts(cfg, T_lo, T_hi, rtol), T_hi]

    def Z(T):
        return lda_local_stability(cfg, T, r).Z

    values = [Z(T) for T in ends]
    # Z >= 0 is stable, so an edge is where Z < 0 starts or stops; a
    # stretch of Z = 0 (an ideal condensate without g_bf) is no edge
    roots = [_log_root(Z, a, b, z_a, z_b, -min(z_a, z_b), rtol)
             for a, b, z_a, z_b in zip(ends, ends[1:], values, values[1:])
             if (z_a < 0.0) != (z_b < 0.0)]
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
    """Stability matrix at radius r with trap-damped local fugacities;
    at r = 0, stability_matrix of thermal_state(cfg, T).

    ln z_i is shifted by -beta m_i omega_i^2 r^2 / 2, at the wavelengths
    of the homogeneous state.  The entries read ln z alone, which keeps
    the deeply degenerate fermion branch finite.
    """
    if not r >= 0.0:
        raise DomainError(f"radius must be >= 0, got {r}")
    base = thermal_state(cfg, T)
    if r == 0.0:
        return stability_matrix(base, cfg)
    beta = base.beta
    ln_zb = base.z_b.ln_z - 0.5 * beta * cfg.m_b * cfg.omega_b ** 2 * r ** 2
    ln_zf = base.z_f.ln_z - 0.5 * beta * cfg.m_f * cfg.omega_f ** 2 * r ** 2
    return _report(cfg, beta, base.lambda_b, base.lambda_f, ln_zb, ln_zf)
