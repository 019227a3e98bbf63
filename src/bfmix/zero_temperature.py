"""Zero-temperature variational analysis of the trapped mixture.

Boson side: a Gaussian condensate ansatz with variational frequency
omega gives

    E_b(omega) = (3/4) N_b hbar omega + (3/4) N_b hbar omega_b^2 / omega
                 + s g_bb N_b^2 (m_b omega / 2 pi hbar)^(3/2)

The stationary point omega_c (local minimum) defines the condensate
width; for attractive g_bb the minimum disappears above a critical atom
number N_b^c (collapse).

Fermion side: a displaced Thomas-Fermi-weighted Gaussian with
variational frequency Omega and center offset r_f gives

    E_f(Omega, r_f) = A hbar Omega N_f^(5/3) + (3 hbar omega_f^2 / 4 Omega) N_f
                      + (1/2) m_f omega_f^2 r_f^2 N_f
                      + g_bf kappa N_b N_f G^(3/2) e^(-G r_f^2)

with the Gaussian-overlap width G = m_f m_b omega_c Omega /
(hbar (m_f Omega + m_b omega_c)).  At r_f = 0 every root of
dE_f/dOmega lies in a closed-form bracket (_bracketed_h): a unique one
between a lower bound and the g_bf = 0 root Omega_0 for repulsive g_bf,
and at most three, split at the <= 2 turns of h, between Omega_0 and an
upper bound for attractive g_bf; solve_Omega_c keeps the root of least
energy.  The sign structure of the Hessian at (Omega_c, r_f = 0) (the
product Y of its two diagonal brackets) and the displaced root r_fc of
dE_f/dr_f = 0 classify the phase.

compat_mode fixes three prefactors that differ between the two published
forms of these functionals:

                      Paper                      Derived
    boson s           1                          1/2   (Hartree factor)
    fermion A         (1/pi)(6pi^2)^(2/3)(3/5)^(3/2)   half of that
    interaction kappa pi^(3/2)                   pi^(-3/2)

Derived mode matches direct quadrature of the underlying functionals
with the same ansatz (verified in tests); Paper mode reproduces the
printed equations for figure comparison.
"""

import enum
import math
from collections import namedtuple

from .brent import brentq
from .config import MixtureConfig, CompatMode
from .constants import hbar
from .errors import DomainError, NumericError

__all__ = [
    "PhaseLabel", "BosonVariationalResult", "FermionVariationalResult",
    "boson_energy", "boson_energy_derivatives", "solve_omega_c",
    "critical_boson_number", "overlap_G", "overlap_G_derivatives",
    "fermion_energy", "fermion_energy_gradients", "solve_Omega_c",
    "separation_radius", "coupling_threshold", "stability_Y",
    "energy_hessian", "classify_zero_T",
]

_A_DERIVED = (6.0 * math.pi ** 2) ** (2.0 / 3.0) * 0.6 ** 1.5 / (2.0 * math.pi)
_A_PAPER = 2.0 * _A_DERIVED
_KAPPA_PAPER = math.pi ** 1.5
_KAPPA_DERIVED = math.pi ** -1.5


def _mode_factors(cfg):
    """(s, A, kappa) prefactors for the configured compat mode."""
    if cfg.compat_mode is CompatMode.PAPER:
        return 1.0, _A_PAPER, _KAPPA_PAPER
    return 0.5, _A_DERIVED, _KAPPA_DERIVED


class PhaseLabel(enum.Enum):
    COEXISTING = "coexisting"
    SHELL_SEPARATED = "shell_separated"
    NO_MINIMUM = "no_minimum"


BosonVariationalResult = namedtuple("BosonVariationalResult", (
    "omega_c",            # stationary variational frequency [rad/s]
    "energy",             # E_b(omega_c) [J]
    "second_derivative",  # d2 E_b / d omega^2 at omega_c
    "is_local_minimum",
    "N_b_critical",       # collapse threshold, attractive g_bb only
), defaults=(None,))

FermionVariationalResult = namedtuple("FermionVariationalResult", (
    "Omega_c",      # stationary fermion frequency [rad/s]
    "r_fc",         # cloud-center displacement [m]
    "G",            # overlap width parameter [1/m^2]
    "P",            # Omega-only energy part at Omega_c [J]
    "Y",            # product of the two Hessian brackets
    "hessian_det",  # det of the (Omega, r_f) Hessian at (Omega_c, 0)
    "phase",        # PhaseLabel
))


# ---------------------------------------------------------------------------
# boson side
# ---------------------------------------------------------------------------

def _interaction_C(cfg):
    return (cfg.m_b / (2.0 * math.pi * hbar)) ** 1.5


def boson_energy(omega, cfg):
    """Variational condensate energy E_b(omega)."""
    return boson_energy_derivatives(omega, cfg)[0]


def boson_energy_derivatives(omega, cfg):
    """(E_b, dE_b/domega, d2E_b/domega2) with analytic derivatives."""
    if not omega > 0:
        raise DomainError(f"omega must be positive, got {omega}")
    s, _, _ = _mode_factors(cfg)
    N = cfg.N_b
    C = _interaction_C(cfg)
    wb2 = cfg.omega_b ** 2
    E = (0.75 * N * hbar * (omega + wb2 / omega)
         + s * cfg.g_bb * N * N * C * omega ** 1.5)
    dE = (0.75 * N * hbar * (1.0 - wb2 / omega ** 2)
          + 1.5 * s * cfg.g_bb * N * N * C * math.sqrt(omega))
    d2E = (1.5 * N * hbar * wb2 / omega ** 3
           + 0.75 * s * cfg.g_bb * N * N * C / math.sqrt(omega))
    return E, dE, d2E


def _repulsive_bracket(trap):
    """[omega_b / sqrt(1 + u), omega_b], u = k^(4/5) + 1e-12 with k =
    2 s g_bb N_b C sqrt(omega_b) / hbar.  The slope is (3/4) N_b hbar (k
    (1 + u)^(-1/4) - u) <= (3/4) N_b hbar (k u^(-1/4) - u) <= -(3/4) N_b
    hbar 1e-12 at the lower end, clear of rounding however weak g_bb is,
    and > 0 at omega_b.  The root lies within a factor (1 + k^(-4/5))^(1/2)
    above the lower end."""
    s, _, _ = _mode_factors(trap)
    k = (2.0 * s * trap.g_bb * trap.N_b * _interaction_C(trap)
         * math.sqrt(trap.omega_b) / hbar)
    return trap.omega_b / math.sqrt(1.0 + k ** 0.8 + 1e-12), trap.omega_b


def _critical_number_closed_form(cfg):
    """Collapse threshold from the closed form: at the critical point
    omega_c = sqrt(5) omega_b and N_b^c = 2 hbar omega_b^2 /
    (s |g_bb| C omega_c^(5/2))."""
    s, _, _ = _mode_factors(cfg)
    omega_crit = math.sqrt(5.0) * cfg.omega_b
    return (2.0 * hbar * cfg.omega_b ** 2
            / (s * abs(cfg.g_bb) * _interaction_C(cfg) * omega_crit ** 2.5))


def _in_float_range(omega):
    """omega, unless an extreme g_bb N_b rounded it to 0 or inf."""
    if not 0.0 < omega < math.inf:
        raise NumericError(f"condensate frequency {omega} is beyond float "
                           "range")
    return omega


def solve_omega_c(cfg):
    """Stationary point of E_b continuously connected to omega_b.

    Repulsive g_bb: the unique root, always a minimum, below omega_b.
    Attractive g_bb: the lower root (a local minimum between omega_b and
    the inflection frequency) when it exists; otherwise the inflection
    frequency itself with is_local_minimum = False (collapsed regime).

    Newton steps omega <- omega - dE/d2E from a start where dE < 0 (the
    lower end of _repulsive_bracket, or omega_b for attractive g_bb) rise
    to the root and never pass it: left of the root dE rises and is
    concave, as both terms of d3E are negative for repulsive g_bb, and
    d3E = N_b hbar omega_b^2 omega^-4 (-9/2 + (3/4) (omega /
    omega_infl)^(5/2)) < 0 below the inflection for attractive g_bb.
    The first step that does not rise ends the solve.  A non-finite dE
    or d2E, or a start or inflection beyond float range, raises
    NumericError.
    """
    N_crit = None
    omega = cfg.omega_b
    if cfg.g_bb > 0.0:
        omega = _in_float_range(_repulsive_bracket(cfg)[0])
    elif cfg.g_bb < 0.0:
        N_crit = _critical_number_closed_form(cfg)
        s, _, _ = _mode_factors(cfg)
        # inflection: d2E = 0 at omega^(5/2) = 2 hbar omega_b^2 / (s|g|N C)
        omega_infl = _in_float_range(
            (2.0 * hbar * cfg.omega_b ** 2
             / (s * abs(cfg.g_bb) * cfg.N_b * _interaction_C(cfg))) ** 0.4)
        E, dE, d2E = boson_energy_derivatives(omega_infl, cfg)
        if dE <= 0.0:
            # slope never reaches zero from below: no stationary minimum
            return BosonVariationalResult(
                omega_c=omega_infl, energy=E, second_derivative=d2E,
                is_local_minimum=False, N_b_critical=N_crit)
    while True:
        E, dE, d2E = boson_energy_derivatives(omega, cfg)
        if not (math.isfinite(dE) and math.isfinite(d2E)):
            raise NumericError(
                f"boson energy slope not finite at omega = {omega}")
        # d2E <= 0 only by rounding next to the collapse: stop there
        ahead = omega - dE / d2E if d2E > 0.0 else omega
        if not ahead > omega:
            break
        omega = ahead
    return BosonVariationalResult(
        omega_c=omega, energy=E, second_derivative=d2E,
        is_local_minimum=d2E > 0.0, N_b_critical=N_crit)


def critical_boson_number(cfg):
    """Largest N_b retaining a metastable minimum (attractive g_bb only),
    found by integer-resolution bisection on N_b."""
    if cfg.g_bb >= 0.0:
        raise DomainError(
            "critical_boson_number requires attractive g_bb < 0 "
            f"(got g_bb = {cfg.g_bb})")

    def has_minimum(n):
        return solve_omega_c(cfg.with_field("boson.count", float(n))
                             ).is_local_minimum

    if not has_minimum(1):
        return 1.0
    lo, hi = 1, 2
    for _ in range(60):
        if not has_minimum(hi):
            break
        lo, hi = hi, hi * 2
    else:
        raise NumericError("critical boson number exceeds 2^60; "
                           "check the coupling magnitude")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if has_minimum(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# fermion side
# ---------------------------------------------------------------------------

def overlap_G(Omega, omega_c, cfg):
    """Gaussian-overlap width G = m_f m_b omega_c Omega /
    (hbar (m_f Omega + m_b omega_c))."""
    return overlap_G_derivatives(Omega, omega_c, cfg)[0]


def overlap_G_derivatives(Omega, omega_c, cfg):
    """(G, dG/dOmega, d2G/dOmega2), quotient-rule closed forms.  A
    NumericError naming the masses when hbar u^3, the least of the three
    denominators, underflows to 0."""
    if not (Omega > 0 and omega_c > 0):
        raise DomainError("overlap_G requires positive frequencies")
    m_f, m_b = cfg.m_f, cfg.m_b
    u = m_f * Omega + m_b * omega_c
    if hbar * u ** 3 == 0.0:
        raise NumericError(
            "the overlap width G of the two clouds is beyond float range: "
            f"hbar (m_f Omega + m_b omega_c)^3 underflows to 0 at m_b = "
            f"{m_b!r} kg and m_f = {m_f!r} kg")
    return (m_f * m_b * omega_c * Omega / (hbar * u),
            m_f * (m_b * omega_c) ** 2 / (hbar * u * u),
            -2.0 * m_f ** 2 * (m_b * omega_c) ** 2 / (hbar * u ** 3))


def _P_part(Omega, cfg):
    _, A, _ = _mode_factors(cfg)
    N = cfg.N_f
    return (A * hbar * Omega * N ** (5.0 / 3.0)
            + 0.75 * hbar * cfg.omega_f ** 2 / Omega * N)


def fermion_energy(Omega, r_f, omega_c, cfg):
    """Variational fermion energy E_f(Omega, r_f) at condensate width
    set by omega_c."""
    return _fermion_energy(Omega, r_f, omega_c, cfg, cfg.g_bf)


def _fermion_energy(Omega, r_f, omega_c, cfg, g_bf):
    # E_f with the coupling g_bf in place of cfg's
    if not Omega > 0:
        raise DomainError(f"Omega must be positive, got {Omega}")
    if not r_f >= 0:
        raise DomainError(f"r_f must be non-negative, got {r_f}")
    _, _, kappa = _mode_factors(cfg)
    G = overlap_G(Omega, omega_c, cfg)
    return (_P_part(Omega, cfg)
            + 0.5 * cfg.m_f * cfg.omega_f ** 2 * r_f ** 2 * cfg.N_f
            + g_bf * kappa * cfg.N_b * cfg.N_f
            * G ** 1.5 * math.exp(-G * r_f ** 2))


def fermion_energy_gradients(Omega, r_f, omega_c, cfg):
    """(dE_f/dOmega, dE_f/dr_f), analytic."""
    if not Omega > 0:
        raise DomainError(f"Omega must be positive, got {Omega}")
    if not r_f >= 0:
        raise DomainError(f"r_f must be non-negative, got {r_f}")
    _, A, kappa = _mode_factors(cfg)
    G, dG, _ = overlap_G_derivatives(Omega, omega_c, cfg)
    N_f = cfg.N_f
    dE_dO = (A * hbar * N_f ** (5.0 / 3.0)
             - 0.75 * hbar * cfg.omega_f ** 2 / Omega ** 2 * N_f
             + cfg.g_bf * kappa * cfg.N_b * N_f * math.exp(-G * r_f ** 2)
             * dG * (1.5 * math.sqrt(G) - G ** 1.5 * r_f ** 2))
    dE_dr = N_f * r_f * (cfg.m_f * cfg.omega_f ** 2
                         - 2.0 * cfg.g_bf * kappa * cfg.N_b
                         * G ** 2.5 * math.exp(-G * r_f ** 2))
    return dE_dO, dE_dr


def _hessian_brackets(Omega, omega_c, cfg):
    """brackets(g_bf) -> the two diagonal factors of the (Omega, r_f)
    Hessian at r_f = 0 on the trap of cfg, whose g_bf-free parts are
    computed here once: bracket1 = (2 / 3 N_f) d2E/dOmega2, bracket2 =
    (1 / N_f) d2E/dr_f2.  Each is linear in g_bf.  The cross derivative
    vanishes at r_f = 0."""
    _, _, kappa = _mode_factors(cfg)
    G, dG, d2G = overlap_G_derivatives(Omega, omega_c, cfg)
    sqrtG = math.sqrt(G)
    free1 = hbar * cfg.omega_f ** 2 / Omega ** 3
    slope1 = sqrtG * d2G + dG * dG / (2.0 * sqrtG)
    free2 = cfg.m_f * cfg.omega_f ** 2
    G52 = G ** 2.5
    N_b = cfg.N_b

    def brackets(g_bf):
        return (free1 + g_bf * kappa * N_b * slope1,
                free2 - 2.0 * g_bf * kappa * N_b * G52)
    return brackets


def _hessian_diagonal(b1, b2, N_f):
    """(d2E/dOmega2, d2E/dr_f2, determinant) from the two brackets."""
    d2_OO = 1.5 * N_f * b1
    d2_rr = N_f * b2
    return d2_OO, d2_rr, d2_OO * d2_rr


def stability_Y(Omega_c, omega_c, cfg):
    """Product of the two Hessian brackets at (Omega_c, r_f = 0);
    positive means the undisplaced stationary point is a true minimum."""
    b1, b2 = _hessian_brackets(Omega_c, omega_c, cfg)(cfg.g_bf)
    return b1 * b2


def energy_hessian(Omega_c, omega_c, cfg):
    """(d2E/dOmega2, d2E/dr_f2, determinant) at (Omega_c, r_f = 0);
    the mixed derivative is identically zero there."""
    b1, b2 = _hessian_brackets(Omega_c, omega_c, cfg)(cfg.g_bf)
    return _hessian_diagonal(b1, b2, cfg.N_f)


def _decoupled_Omega(cfg):
    """Omega_0 = omega_f sqrt((3/4) N_f / (A N_f^(5/3))), the unique root
    of dE_f/dOmega at r_f = 0 and g_bf = 0."""
    _, A, _ = _mode_factors(cfg)
    return cfg.omega_f * math.sqrt(
        0.75 * cfg.N_f / (A * cfg.N_f ** (5.0 / 3.0)))


def _h_coefficients(omega_c, cfg):
    _, A, kappa = _mode_factors(cfg)
    B, N_b, N_f, omega_f = cfg.m_b * omega_c, cfg.N_b, cfg.N_f, cfg.omega_f
    return (A * hbar * N_f ** (5.0 / 3.0), 0.75 * hbar * omega_f ** 2 * N_f,
            cfg.m_f / B, 1.5 * math.sqrt(B / hbar) * B * B / (hbar * cfg.m_f),
            lambda g_bf: g_bf * kappa * N_b * N_f)


def _bracketed_h(omega_c, cfg):
    """bracket(g_bf) -> (h, lo, hi) on the trap of cfg, whose g_bf-free
    coefficients are computed here once: h(Omega) = Omega^2 dE_f/dOmega
    at r_f = 0, and [lo, hi] holding every root of dE_f/dOmega at r_f =
    0.  In exact arithmetic the slope is < 0 at lo and > 0 at hi for
    g_bf != 0; for g_bf = 0 the bracket is the point Omega_0.

    h(Omega) = a Omega^2 - b + c q(Omega), with a = A hbar N_f^(5/3),
    b = (3/4) hbar omega_f^2 N_f, c = g_bf kappa N_b N_f and q = (3/2)
    Omega^2 sqrt(G) dG/dOmega = q_inf (x / (1 + x))^(5/2), x = k Omega,
    k = m_f / (m_b omega_c), which rises from 0 to q_inf.  Omega_0 =
    sqrt(b / a) is the root at c = 0.  Only c moves with g_bf.

    c > 0: the sum rises, so the root is unique, and it is c q > 0 at
    Omega_0.  Below Omega_0 / sqrt(2), a Omega^2 <= b / 2, and as G <=
    m_f Omega / hbar and dG/dOmega <= m_f / hbar, c q < b / 2 below
    (b / (3 c (m_f / hbar)^(3/2)))^(2/5).
    c <= 0: below Omega_0 the sum is negative, and at and above
    sqrt((b + |c| q_inf) / a) it is at least |c| (q_inf - q) > 0.  That
    end is written Omega_0 sqrt(1 + |c| q_inf / b), which never rounds
    below Omega_0.
    """
    a, b, k, q_inf, coupling = _h_coefficients(omega_c, cfg)
    Omega_0 = _decoupled_Omega(cfg)
    low = Omega_0 / math.sqrt(2.0)

    def bracket(g_bf):
        c = coupling(g_bf)
        cq = c * q_inf

        def h(Omega):
            x = k * Omega
            return a * Omega * Omega - b + cq * (x / (1.0 + x)) ** 2.5

        if c > 0.0:
            # (m_f / hbar)^(3/2) stays here: it overflows for m_f above
            # ~1e171 kg, which must fail only the points of repulsive g_bf
            lo = min(low, (b / (3.0 * c * (cfg.m_f / hbar) ** 1.5)) ** 0.4)
            return h, lo, Omega_0
        hi = Omega_0 * math.sqrt(1.0 - c * q_inf / b)
        if not hi < math.inf:
            raise NumericError(f"interaction.g_bf = {g_bf:g} J m^3 is out of "
                               f"float range: Omega_c's bracket ends at {hi}")
        return h, Omega_0, hi
    return bracket


def _h_turns(K):
    """The roots (t, 1 - t^2) of t (1 - t^2)^3 = K < 216 / 7^(7/2), its peak
    at t^2 = 1/7, by Newton steps from 0 on it and on s (1 - s)^(1/6) =
    K^(1/3), s = 1 - t^2: concave and rising up to the peak, so one-sided."""
    def rise(f, y, top, x=0.0):
        value, slope = f(x)
        ahead = min(x + (y - value) / slope, top) if slope > 0.0 else x
        return rise(f, y, top, ahead) if ahead > x else x
    if not 0.0 < K < 216.0 / 7.0 ** 3.5:
        return ()
    t = rise(lambda t: (t * (1 - t * t) ** 3,
                        (1 - t * t) ** 2 * (1 - 7 * t * t)), K, 7 ** -0.5)
    c = K ** (1 / 3)  # pow rounds the exponent 1/3: one Newton step on c
    c = (c + c + K / (c * c)) / 3
    s = rise(lambda s: (s * (1 - s) ** (1 / 6), (1 - 7 / 6 * s)
                        / (1 - s) ** (5 / 6)), c, 6 / 7)
    return (t, 1 - t * t), (math.sqrt(1 - s), s)


def _Omega_c_solver(omega_c, cfg):
    """solve(g_bf) -> the Omega_c of solve_Omega_c for cfg with the
    coupling g_bf, on the trap of cfg, whose bracket coefficients are
    computed here once.  h' = 2 a Omega (1 - t (1 - t^2)^3 / K), t^2 = x /
    (1 + x), K = 4 a / (5 |c| q_inf k^2), for c < 0, and h' > 0 for c >= 0."""
    bracket = _bracketed_h(omega_c, cfg)
    a, _, k, q_inf, coupling = _h_coefficients(omega_c, cfg)
    xtol = 1e-15 * cfg.omega_f

    def solve(g_bf):
        h, lo, hi = bracket(g_bf)
        cqk2 = -coupling(g_bf) * q_inf * k * k
        turns = _h_turns(4.0 * a / (5.0 * cqk2) if cqk2 > 0.0 else math.inf)
        grid = [lo, *(w for w in (t * t / k / v for t, v in turns)
                      if lo < w < hi), hi]
        values = list(map(h, grid))
        signs = [(v > 0) - (v < 0) for v in values]
        roots = [w for w, wrong in ((lo, signs[0] >= 0),
                                    (hi, signs[-1] <= 0)) if wrong]
        roots += [brentq(h, grid[i], grid[i + 1], xtol=xtol, maxiter=300,
                         fa=values[i], fb=values[i + 1])
                  for i in range(len(grid) - 1) if signs[i] != signs[i + 1]]
        return min(roots, key=lambda w: _fermion_energy(
            w, 0.0, omega_c, cfg, g_bf)) if roots[1:] else roots[0]
    return solve


def solve_Omega_c(omega_c, cfg):
    """Root of dE_f/dOmega = 0 at r_f = 0; with several roots, the one
    of least energy is returned.

    Brent refines each sign change of h = Omega^2 dE_f/dOmega on the
    bracket of _bracketed_h split at the <= 2 turns of h inside it: at
    most three monotone pieces, so at most three roots.  An end whose
    computed h contradicts its proven sign is within rounding of a root,
    so a candidate too.  A bracket that is the single point Omega_0 (g_bf
    = 0, or a coupling too weak to move the root by an ulp) thus returns
    Omega_0.  An attractive g_bf whose bracket end is not a finite number
    raises NumericError.  This is the per-trap solver of _Omega_c_solver,
    which a scan builds once, at cfg.g_bf.
    """
    return _Omega_c_solver(omega_c, cfg)(cfg.g_bf)


def _threshold(G, cfg):
    _, _, kappa = _mode_factors(cfg)
    return cfg.m_f * cfg.omega_f ** 2 / (2.0 * cfg.N_b * kappa * G ** 2.5)


def _radius(g_bf, g_star, G):
    """r_fc at the coupling g_bf, given the threshold g_star and G."""
    if g_bf <= g_star:
        return 0.0
    return math.sqrt(math.log(g_bf / g_star) / G)


def coupling_threshold(Omega_c, omega_c, cfg):
    """g_bf* = m_f omega_f^2 / (2 N_b kappa G^(5/2)), the coupling at
    which r_f = 0 stops being a minimum of E_f."""
    return _threshold(overlap_G(Omega_c, omega_c, cfg), cfg)


def separation_radius(Omega_c, omega_c, cfg):
    """Displaced root of dE_f/dr_f = 0: r_fc = sqrt((1/G) ln(g_bf/g_bf*))
    for g_bf > g_bf*, else 0.  Continuous at the threshold."""
    G = overlap_G(Omega_c, omega_c, cfg)
    return _radius(cfg.g_bf, _threshold(G, cfg), G)


def _zero_T_classifier(cfg):
    """classify(g_bf) -> the result of classify_zero_T for cfg with the
    coupling g_bf.  Everything but the coupling's share is computed here
    once per trap: the condensate width, the reference width, G, the
    g_bf-free parts of both Hessian brackets, the threshold g_bf* and P.
    """
    boson = solve_omega_c(cfg)
    if not boson.is_local_minimum:
        raise DomainError(
            "boson energy functional has no local minimum (collapsed "
            "regime); zero-T classification is undefined")
    omega_c = boson.omega_c
    Omega_c = _decoupled_Omega(cfg)
    brackets = _hessian_brackets(Omega_c, omega_c, cfg)
    G = overlap_G(Omega_c, omega_c, cfg)
    g_star = _threshold(G, cfg)
    P = _P_part(Omega_c, cfg)
    N_f = cfg.N_f

    def classify(g_bf):
        b1, b2 = brackets(g_bf)
        Y = b1 * b2
        _, _, det = _hessian_diagonal(b1, b2, N_f)
        r_fc = _radius(g_bf, g_star, G)
        if r_fc > 0.0:
            phase = PhaseLabel.SHELL_SEPARATED
        elif Y > 0.0 and det > 0.0:
            phase = PhaseLabel.COEXISTING
        else:
            phase = PhaseLabel.NO_MINIMUM
        return FermionVariationalResult(
            Omega_c=Omega_c, r_fc=r_fc, G=G, P=P, Y=Y, hessian_det=det,
            phase=phase)
    return classify


def classify_zero_T(cfg):
    """Sequential minimization (omega_c, then the reference width, then
    the r_f root) and phase assignment.

    Stability is judged at the cross-coupling-free reference width.  At
    the fully re-solved width the criterion degenerates: repulsion swells
    the cloud, G drops, and the threshold g_bf* rises ahead of g_bf, so
    the second bracket would never change sign and every configuration
    would be labelled coexisting.  Freezing the width at its g_bf = 0
    value, the closed form Omega_0 of _decoupled_Omega, keeps the sweep
    of Y and r_fc over g_bf meaningful.  This is the per-trap classifier
    of _zero_T_classifier, which a scan builds once, at cfg.g_bf.
    """
    return _zero_T_classifier(cfg)(cfg.g_bf)
