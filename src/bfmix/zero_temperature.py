"""Zero-temperature variational analysis of the trapped mixture, in trap
units: a few dimensionless numbers per trap, SI only at the edges.

Boson side: a Gaussian condensate of variational frequency omega = u
omega_b has, in units of N_b hbar omega_b, with a_b = sqrt(hbar / (m_b
omega_b)),

    e_b(u) = (3/4) (u + 1/u) + K u^(3/2),
    K = s N_b g_bb / ((2 pi)^(3/2) hbar omega_b a_b^3).

Its local minimum u_c is the condensate width.  For attractive g_bb it
disappears at K = -K_c, K_c = 2 5^(-5/4), u = sqrt 5: N_b^c = N_b K_c /
|K|.  In derived mode K = N_b a_bb / (sqrt(2 pi) a_b), and K_c is the
Gaussian-ansatz threshold N_b |a_bb| / a_b = 0.671 of Baym and Pethick
(PRL 76, 6 (1996)).

Fermion side: a displaced Thomas-Fermi-weighted Gaussian of variational
frequency Omega = v omega_f and center offset r_f = r a_f, a_f =
sqrt(hbar / (m_f omega_f)), has in units of N_f hbar omega_f

    e_f(v, r) = a v + b / v + r^2 / 2 + c g^(3/2) e^(-g r^2),
    a = A N_f^(2/3),  b = 3/4,  c = g_bf kappa N_b / (hbar omega_f a_f^3),

with the overlap width G = g / a_f^2, g = v / (1 + rho v), rho = m_f
omega_f / (m_b omega_c).  Every root of de_f/dv at r = 0 lies in a
closed-form bracket (_bracketed_h); solve_Omega_c keeps the one of least
energy.  The (v, r) Hessian at r = 0 is diagonal, its brackets' product
is Y, and the second, 1 - p, turns negative past p = 2 c g^(5/2) = g_bf
/ g_bf* = 1, where r_fc = a_f sqrt(ln(p) / g) opens (shell separation).

_boson_K, _fermion_trap and _coupling build these numbers once per trap
and coupling, and only they raise NumericError.  Each SI result is one
multiply of a trap-unit one; at r = 0, _fermion_record forms them all.

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
import sys
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
_K_C = 2.0 * 5.0 ** -1.25


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


def _boson_K(cfg):
    """K of the trap of cfg, from its checked oscillator length; a
    NumericError naming the boson fields when it is not finite."""
    s, _, _ = _mode_factors(cfg)
    # divisions by positive numbers, a^3 first (g_bb / a^3 is an energy):
    # an extreme input overflows to inf
    K = (s * cfg.N_b * (cfg.g_bb / cfg.osc_length ** 3 / hbar / cfg.omega_b)
         / (2.0 * math.pi) ** 1.5)
    if not math.isfinite(K):
        raise NumericError(
            f"the boson coupling number K = {K} is beyond float range: "
            "check boson.count, interaction.g_bb, boson.mass, boson.omega")
    return K


_FermionTrap = namedtuple("_FermionTrap", (
    "a",      # A N_f^(2/3)
    "rho",    # m_f omega_f / (m_b omega_c)
    "v0",     # sqrt(b / a), the root at g_bf = 0
    "unit",   # hbar omega_f a_b^3 [J m^3], the oscillator coupling unit
    "scale",  # kappa N_b (a_b / a_f)^3: c = g_bf / unit * scale
))


def _fermion_trap(omega_c, cfg):
    """The fermion numbers of cfg's trap next to a condensate of width
    omega_c; a NumericError naming the trap's fields when the scale is not
    a normal float or rho is 0."""
    _, A, kappa = _mode_factors(cfg)
    mu = cfg.m_f / cfg.m_b * (cfg.omega_f / cfg.omega_b)  # (a_b / a_f)^2
    scale = kappa * cfg.N_b * mu * math.sqrt(mu)
    rho = mu * (cfg.omega_b / omega_c)
    if not (sys.float_info.min <= scale < math.inf and rho > 0.0):
        raise NumericError(
            f"kappa N_b (a_b / a_f)^3 = {scale!r} or rho = {rho!r} is beyond "
            "float range: check boson.count, boson.mass, boson.omega, "
            "fermion.mass, fermion.omega")
    a = A * cfg.N_f ** (2.0 / 3.0)
    return _FermionTrap(a, rho, math.sqrt(0.75 / a), cfg.coupling_unit,
                        scale)


def _coupling(trap, g_bf):
    """(c, hi) at the coupling g_bf [J m^3]: c, and the upper end of the
    bracket of every root of h, v_0 sqrt(1 - 2 c rho^(-5/2)) for c < 0 and
    v_0 otherwise.  A NumericError names the coupling when either is not
    finite."""
    c = g_bf / trap.unit * trap.scale
    rho = trap.rho
    hi = trap.v0 * math.sqrt(1.0 - 2.0 * min(c, 0.0) / rho / rho
                             / math.sqrt(rho))
    if not (abs(c) < math.inf and hi < math.inf):
        raise NumericError(
            f"interaction.g_bf = {g_bf:g} J m^3 is beyond float range in "
            f"trap units: c = {c}, and Omega_c's bracket ends at v = {hi}")
    return c, hi


# ---------------------------------------------------------------------------
# boson side
# ---------------------------------------------------------------------------

def _boson_terms(u, K):
    """(e_b, u^2 e_b', u^3 e_b'') at u: with w = K u^(5/2), the last two
    are (3/4) (u^2 - 1) + (3/2) w and 3/2 + (3/4) w, O(1) near the root
    however large |K| is."""
    w = K * u * u * math.sqrt(u)
    return (0.75 * (u + 1.0 / u) + w / u, 0.75 * (u * u - 1.0) + 1.5 * w,
            1.5 + 0.75 * w)


def _boson_si(u, terms, cfg):
    """(E_b, dE_b/domega, d2E_b/domega2) of the terms at omega = u
    omega_b."""
    e, slope, curve = terms
    unit = cfg.N_b * hbar
    return (unit * cfg.omega_b * e, unit * slope / u / u,
            unit / cfg.omega_b * curve / u / u / u)


def boson_energy(omega, cfg):
    """Variational condensate energy E_b(omega)."""
    return boson_energy_derivatives(omega, cfg)[0]


def boson_energy_derivatives(omega, cfg):
    """(E_b, dE_b/domega, d2E_b/domega2) with analytic derivatives."""
    if not omega > 0:
        raise DomainError(f"omega must be positive, got {omega}")
    u = omega / cfg.omega_b
    return _boson_si(u, _boson_terms(u, _boson_K(cfg)), cfg)


def solve_omega_c(cfg):
    """Stationary point of E_b continuously connected to omega_b.

    Repulsive g_bb: the unique root, always a minimum, below omega_b.
    Attractive g_bb: the lower root (a local minimum between omega_b and
    the inflection) while |K| < K_c; otherwise the inflection u = (2 /
    |K|)^(2/5) itself, where u^3 e_b'' = 0, with is_local_minimum = False
    (collapsed regime).

    Newton steps u <- u - u (u^2 e_b') / (u^3 e_b'') rise to the root and
    never pass it from a start where e_b' < 0: u = 1 / sqrt(1 + (2
    K)^(4/5) + 1e-12) for K > 0, where u^2 e_b' <= -(3/4) 1e-12 u^2, clear
    of rounding however weak g_bb is, and u = 1 for K < 0.  Left of the
    root e_b' rises and is concave: both terms of e_b''' are negative for
    K > 0, and e_b''' = u^-4 (-9/2 + (3/4) w) < 0 below the inflection for
    K < 0.  The first step that does not rise ends the solve.
    """
    K = _boson_K(cfg)
    if K <= -_K_C:
        u = (2.0 / -K) ** 0.4
        terms = (*_boson_terms(u, K)[:2], 0.0)
    else:
        u = 1.0 / math.sqrt(1.0 + 2.0 ** 0.8 * K ** 0.8 + 1e-12) \
            if K > 0.0 else 1.0
        while True:
            terms = _boson_terms(u, K)
            _, slope, curve = terms
            # curve <= 0 only by rounding next to the collapse: stop there
            ahead = u - u * slope / curve if curve > 0.0 else u
            if not ahead > u:
                break
            u = ahead
    E, _, d2E = _boson_si(u, terms, cfg)
    return BosonVariationalResult(
        omega_c=u * cfg.omega_b, energy=E, second_derivative=d2E,
        is_local_minimum=terms[2] > 0.0,
        N_b_critical=cfg.N_b * (_K_C / -K) if K < 0.0 else None)


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
    """(G, dG/dOmega, d2G/dOmega2) of G = g / a_f^2, g = v / (1 + rho
    v), G the one of _fermion_record."""
    if not (Omega > 0 and omega_c > 0):
        raise DomainError("overlap_G requires positive frequencies")
    v, trap = _width(Omega, omega_c, cfg)
    d = 1.0 / (1.0 + trap.rho * v)
    unit = cfg.m_f / hbar  # 1 / (a_f^2 omega_f)
    return (_fermion_record(v, trap, cfg)(cfg.g_bf)[0].G, unit * d * d,
            -2.0 * unit / cfg.omega_f * trap.rho * d * d * d)


def _fermion_point(Omega, r_f, omega_c, cfg):
    """(v, r^2, a, g, dg/dv, c) of E_f at (Omega, r_f) in trap units."""
    if not Omega > 0:
        raise DomainError(f"Omega must be positive, got {Omega}")
    if not r_f >= 0:
        raise DomainError(f"r_f must be non-negative, got {r_f}")
    trap = _fermion_trap(omega_c, cfg)
    v = Omega / cfg.omega_f
    x = 1.0 + trap.rho * v
    return (v, r_f * r_f * cfg.m_f * cfg.omega_f / hbar, trap.a, v / x,
            1.0 / x / x, _coupling(trap, cfg.g_bf)[0])


def fermion_energy(Omega, r_f, omega_c, cfg):
    """Variational fermion energy E_f(Omega, r_f) at condensate width
    set by omega_c."""
    v, rr, a, g, _, c = _fermion_point(Omega, r_f, omega_c, cfg)
    return cfg.N_f * hbar * cfg.omega_f * (
        a * v + 0.75 / v + 0.5 * rr + c * g * math.sqrt(g)
        * math.exp(-g * rr))


def fermion_energy_gradients(Omega, r_f, omega_c, cfg):
    """(dE_f/dOmega, dE_f/dr_f), analytic."""
    v, rr, a, g, dg, c = _fermion_point(Omega, r_f, omega_c, cfg)
    damped = c * math.exp(-g * rr)
    return (cfg.N_f * hbar * (a - 0.75 / (v * v) + damped * dg
                              * math.sqrt(g) * (1.5 - g * rr)),
            cfg.N_f * cfg.m_f * cfg.omega_f ** 2 * r_f
            * (1.0 - 2.0 * damped * g * g * math.sqrt(g)))


def _bracketed_h(trap):
    """bracket(g_bf) -> (h, lo, hi, c) on trap, a _fermion_trap record:
    h(v) = v^2 de_f/dv at r = 0, [lo, hi] holding its every root, with h
    < 0 at lo and > 0 at hi in exact arithmetic, and c of _coupling; for
    g_bf = 0 the bracket is the point v_0 = sqrt(b / a).

    h(v) = a v^2 - b + (3/2) c g^(5/2), as dg/dv = (1 + rho v)^-2, and
    g^(5/2) rises from 0 to rho^(-5/2).  c > 0: h rises, so the root is
    unique, and h(v_0) > 0.  Below v_0 / sqrt(2), a v^2 <= b / 2, and as g
    <= v, (3/2) c g^(5/2) < b / 2 below (b / (3 c))^(2/5).  c <= 0: h < 0
    below v_0, and h > 0 from v_0 sqrt(1 - 2 c rho^(-5/2)) (the hi of
    _coupling) on, as g < 1 / rho.
    """
    a, rho, v0 = trap.a, trap.rho, trap.v0
    low = v0 / math.sqrt(2.0)

    def bracket(g_bf):
        c, hi = _coupling(trap, g_bf)

        def h(v):
            g = v / (1.0 + rho * v)
            # c g first: no partial product passes |c| or |c| rho^(-5/2)
            return a * v * v - 0.75 + c * g * g * math.sqrt(g) * 1.5

        return h, min(low, (0.25 / c) ** 0.4) if c > 0.0 else v0, hi, c
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
    coupling g_bf, on the trap of cfg, whose trap-unit numbers are
    computed here once.  h' = 2 a v (1 - t (1 - t^2)^3 / K), t^2 = x / (1
    + x), x = rho v, K = 8 a sqrt(rho) / (15 |c|), for c < 0, and h' > 0
    for c >= 0."""
    trap = _fermion_trap(omega_c, cfg)
    bracket = _bracketed_h(trap)
    a, rho = trap.a, trap.rho

    def solve(g_bf):
        h, lo, hi, c = bracket(g_bf)

        def energy(v):
            g = v / (1.0 + rho * v)
            return a * v + 0.75 / v + c * g * math.sqrt(g)
        turns = _h_turns(8.0 * a * math.sqrt(rho) / (15.0 * -c)
                         if c < 0.0 else math.inf)
        grid = [lo, *(w for w in (t * t / rho / s for t, s in turns)
                      if lo < w < hi), hi]
        values = list(map(h, grid))
        signs = [(v > 0) - (v < 0) for v in values]
        roots = [w for w, wrong in ((lo, signs[0] >= 0),
                                    (hi, signs[-1] <= 0)) if wrong]
        roots += [brentq(h, grid[i], grid[i + 1], xtol=1e-15, maxiter=300,
                         fa=values[i], fb=values[i + 1])
                  for i in range(len(grid) - 1) if signs[i] != signs[i + 1]]
        v = min(roots, key=energy) if roots[1:] else roots[0]
        return v * cfg.omega_f
    return solve


def solve_Omega_c(omega_c, cfg):
    """Root of dE_f/dOmega = 0 at r_f = 0; with several roots, the one
    of least energy is returned.

    Brent refines each sign change of h = v^2 de_f/dv on the bracket of
    _bracketed_h split at the <= 2 turns of h inside it: at most three
    monotone pieces, so at most three roots.  An end whose computed h
    contradicts its proven sign is within rounding of a root, so a
    candidate too.  A bracket that is the single point v_0 (g_bf = 0, or
    a coupling too weak to move the root by an ulp) thus returns v_0
    omega_f.  A coupling whose c or bracket end is not a finite number
    raises NumericError.  This is the per-trap solver of _Omega_c_solver,
    which a scan builds once, at cfg.g_bf.
    """
    return _Omega_c_solver(omega_c, cfg)(cfg.g_bf)


def _stability(v, trap):
    """(at, g, q) at the width v, g = G a_f^2: at(g_bf) -> (y1, y2, r),
    the Hessian brackets at r = 0 in units of hbar / (omega_f v^3) and m_f
    omega_f^2, and r_fc / a_f = sqrt(ln(p) / g) past the threshold ratio
    p = q g_bf = g_bf / g_bf* = 1, else 0.  Only p moves with g_bf."""
    x = trap.rho * v
    g = v / (1.0 + x)
    q = 2.0 * trap.scale * g * g * math.sqrt(g) / trap.unit
    tilt = 0.5 * (2.5 / (1.0 + x) - 2.0)

    def at(g_bf):
        p = g_bf * q
        return (1.0 + p * tilt, 1.0 - p,
                math.sqrt(math.log(p) / g) if p > 1.0 else 0.0)
    return at, g, q


def _fermion_record(v, trap, cfg):
    """classify(g_bf) -> (the FermionVariationalResult at the width v on
    trap, a _fermion_trap record, and y1 y2, Y in trap units, whose sign
    holds where SI Y underflows to 0): the one place Y, the determinant,
    G, r_fc and a_f are formed, all but g_bf's share once.  P = a v + b /
    v holds at v_0, where a v_0 = b / v_0."""
    at, g, _ = _stability(v, trap)
    Omega_c = v * cfg.omega_f
    G = g * cfg.m_f * cfg.omega_f / hbar
    P = 1.5 * cfg.N_f * hbar * cfg.omega_f / v
    Y_unit = hbar * cfg.m_f * cfg.omega_f / v / v / v
    det_unit = 1.5 * cfg.N_f * cfg.N_f * Y_unit
    a_f = math.sqrt(hbar / cfg.m_f / cfg.omega_f)

    def classify(g_bf):
        y1, y2, r = at(g_bf)
        phase = (PhaseLabel.SHELL_SEPARATED if r > 0.0 else
                 PhaseLabel.COEXISTING if y1 * y2 > 0.0 else
                 PhaseLabel.NO_MINIMUM)
        return FermionVariationalResult(
            Omega_c=Omega_c, r_fc=a_f * r, G=G, P=P, Y=Y_unit * y1 * y2,
            hessian_det=det_unit * y1 * y2, phase=phase), y1 * y2
    return classify


def _width(Omega_c, omega_c, cfg):
    """(v, trap) at (Omega_c, omega_c): v is v_0 where v_0 omega_f rounds
    to Omega_c, as classify_zero_T's does, else Omega_c / omega_f, which
    misses v_0 by an ulp for about one trap in ten."""
    trap = _fermion_trap(omega_c, cfg)
    v = trap.v0
    return (v if v * cfg.omega_f == Omega_c else Omega_c / cfg.omega_f), trap


def stability_Y(Omega_c, omega_c, cfg):
    """Product of the two Hessian brackets at (Omega_c, r_f = 0);
    positive means the undisplaced stationary point is a true minimum."""
    return _fermion_record(*_width(Omega_c, omega_c, cfg),
                           cfg)(cfg.g_bf)[0].Y


def energy_hessian(Omega_c, omega_c, cfg):
    """(d2E/dOmega2, d2E/dr_f2, determinant) at (Omega_c, r_f = 0);
    the mixed derivative is identically zero there."""
    v, trap = _width(Omega_c, omega_c, cfg)
    y1, y2, _ = _stability(v, trap)[0](cfg.g_bf)
    return (1.5 * cfg.N_f * (hbar / cfg.omega_f * y1 / v / v / v),
            cfg.N_f * (cfg.m_f * cfg.omega_f ** 2 * y2),
            _fermion_record(v, trap, cfg)(cfg.g_bf)[0].hessian_det)


def coupling_threshold(Omega_c, omega_c, cfg):
    """g_bf* = m_f omega_f^2 / (2 N_b kappa G^(5/2)), the coupling at
    which r_f = 0 stops being a minimum of E_f."""
    return 1.0 / _stability(*_width(Omega_c, omega_c, cfg))[2]


def separation_radius(Omega_c, omega_c, cfg):
    """Displaced root of dE_f/dr_f = 0: r_fc = sqrt((1/G) ln(g_bf/g_bf*))
    for g_bf > g_bf*, else 0.  Continuous at the threshold, and 0 at g_bf
    = coupling_threshold, as fl(fl(1 / q) q) <= 1."""
    return _fermion_record(*_width(Omega_c, omega_c, cfg),
                           cfg)(cfg.g_bf)[0].r_fc


def _zero_T_classifier(cfg):
    """(boson, classify): the solve_omega_c result of cfg and the
    _fermion_record at its trap's reference width v_0, which
    classify_zero_T reads at cfg.g_bf."""
    boson = solve_omega_c(cfg)
    if not boson.is_local_minimum:
        raise DomainError(
            "boson energy functional has no local minimum (collapsed "
            "regime); zero-T classification is undefined")
    trap = _fermion_trap(boson.omega_c, cfg)
    return boson, _fermion_record(trap.v0, trap, cfg)


def classify_zero_T(cfg):
    """Sequential minimization (omega_c, then the reference width, then
    the r_f root) and phase assignment.

    Stability is judged at the cross-coupling-free reference width.  At
    the fully re-solved width the criterion degenerates: repulsion swells
    the cloud, G drops, and the threshold g_bf* rises ahead of g_bf, so
    the second bracket would never change sign and every configuration
    would be labelled coexisting.  Freezing the width at its g_bf = 0
    value, the closed form v_0 = sqrt(b / a), keeps the sweep of Y and
    r_fc over g_bf meaningful.  A scan builds _zero_T_classifier once per
    trap; this reads it at cfg.g_bf."""
    return _zero_T_classifier(cfg)[1](cfg.g_bf)[0]
