"""Semiclassical density profiles of the trapped mixture, in trap units.

The condensate is an inverted parabola fixed by its normalization; the
fermions fill the trap plus g_bf n_b(r) up to the Fermi energy at which
Newton steps make their Simpson count N_f; that potential's shape inside
the condensate sets where they gather.  SI enters only in _trap, whose
units are the bare Fermi gas's: its Fermi energy E = hbar omega_f (6
N_f)^(1/3), its radius R, where the bare trap is r^2, and its central
density n_f0, so that n_f = n_f0 (e - V)^(3/2).  The grid, the Simpson
weights, V_eff, the count and its slope run in these units, and SI
leaves by one multiply per printed column.  Only _trap raises the
NumericError that names the trap's fields; the count raises the ones
that name the cloud's.
"""

import enum
import math
import sys
from collections import namedtuple

from .constants import hbar, pi
from .errors import DomainError, NumericError

__all__ = ["TFRegime", "TFProfiles", "tf_boson_profile",
           "tf_fermion_profile", "classify_tf_regime", "tf_profiles"]

_GRID_POINTS = 2000
_MIN_PANELS = 64  # the least panels a segment below R_b has: N_b to ~6e-8
_SPAN = 1.5  # the grid's last radius over the larger cloud radius
_N_F = pi * pi / 8.0  # the bare count at e = 1, N_f in units of n_f0 R^3
# the inputs that squeeze the cloud and, with g_bb, set its e_F bound
_CLOUD = "interaction.g_bf, boson.count and fermion.count"
_SQUEEZE = (f"check {_CLOUD}, which can squeeze the fermion cloud between "
            "the grid's nodes")


class TFRegime(enum.Enum):
    CORE = "core"
    FLAT = "flat"
    SHELL = "shell"


# a trap: the units R [m] and E [J], the density units n_b0 = mu_b / g_bb
# and n_f0 [1/m^3], mu_b [J], the condensate radius R_b and the grid's last
# radius [R], the e_F bound and s = g_bf n_b0 [E]
_Trap = namedtuple("_Trap", "R E n_b0 n_f0 mu_b R_b span e_max shift regime")

# radii [m], n_b and n_f on them [1/m^3], mu_b and e_F [J], R_b [m], regime
TFProfiles = namedtuple("TFProfiles", "radii n_b n_f mu_b e_F R_b regime")


def _simpson_weights(x):
    """Weights w on the strictly increasing grid x such that sum(w_i y_i)
    is scipy.integrate.simpson(y, x=x): composite Simpson on pairs of
    intervals and, for an even number of samples, Cartwright's correction
    on the last interval; each a step times a function of step ratios."""
    h = [b - a for a, b in zip(x, x[1:])]
    n = len(x)
    w = [0.0] * n
    for i in range(0, n - 3 if n % 2 == 0 else n - 2, 2):
        h0, h1 = h[i], h[i + 1]
        c = (h0 + h1) / 6.0
        w[i] += c * (2.0 - h1 / h0)
        w[i + 1] += c * (2.0 + h0 / h1 + h1 / h0)
        w[i + 2] += c * (2.0 - h0 / h1)
    if n % 2 == 0:
        hm1 = h[-1]
        t = hm1 / h[-2]
        w[-1] += hm1 * (2.0 * t + 3.0) / (6.0 * (1.0 + t))
        w[-2] += hm1 * (t + 3.0) / 6.0
        w[-3] -= hm1 * t * t / (6.0 * (1.0 + t))
    return w


def boson_chemical_potential(cfg):
    """(hbar omega_b / 2) (15 N_b)^(2/5) (a_bb / a)^(2/5), the condensate's
    normalization, with a_bb / a = m_b g_bb / (4 pi hbar^2 a) rounded once."""
    if cfg.g_bb <= 0.0:
        raise DomainError(
            "interaction.g_bb must be > 0: the semiclassical condensate "
            "profile exists only for a repulsive Bose gas")
    (m, i), (g, j), (a, k) = map(math.frexp,
                                 (cfg.m_b, cfg.g_bb, cfg.osc_length))
    ratio = math.ldexp(m * g / a / (4.0 * pi * hbar ** 2), i + j - k)
    return 0.5 * hbar * cfg.omega_b * (15.0 * cfg.N_b) ** 0.4 * ratio ** 0.4


def _trap(cfg):
    """The trap of cfg; n_b = n_b0 (1 - r^2 / R_b^2) shifts V by s n_b /
    n_b0.  e_F <= 1, where the bare count pi^2 e^3 / 8 is N_f, for s <= 0,
    else <= min(1 + s, e_1): beyond R_b the trap is bare, so the count is
    at least pi^2 e^3 / 8 - (4 pi / 3) R_b^3 e^(3/2), N_f at e_1.  The
    regime is the sign of g_bf / g_bb - k_f / k_b, k = m omega^2 / 2.  A
    number of the record, or the last radius or e_max in SI, that is 0,
    subnormal or beyond float range is a NumericError naming the fields."""
    try:
        mu_b = boson_chemical_potential(cfg)
        k_b = 0.5 * cfg.m_b * cfg.omega_b ** 2
        t = (6.0 * cfg.N_f) ** (1.0 / 3.0)
        k_F = math.sqrt(2.0 * t * cfg.m_f * cfg.omega_f / hbar)
        R, E = 2.0 * t / k_F, hbar * cfg.omega_f * t
        n_b0 = mu_b / cfg.g_bb
        R_b = cfg.osc_length * math.sqrt(2.0 * mu_b / cfg.omega_b / hbar) / R
        shift = cfg.g_bf * n_b0 / E
        beta = 4.0 * pi / 3.0 * (R_b * R_b * R_b)
        e_max = 1.0 if shift <= 0.0 else min(1.0 + shift, (4.0 / pi / pi * (
            beta + math.hypot(beta, pi * pi / 4.0))) ** (2.0 / 3.0))
        span = _SPAN * max(R_b, math.sqrt(e_max))
        ratio, k = cfg.g_bf / cfg.g_bb, 0.5 * cfg.m_f * cfg.omega_f ** 2 / k_b
        regime = (TFRegime.FLAT if abs(ratio - k) <= 1e-12 * max(
            abs(ratio), k) < math.inf else TFRegime.SHELL if ratio > k
            else TFRegime.CORE)
        trap = _Trap(R, E, n_b0, k_F * k_F * k_F / (6.0 * pi * pi), mu_b,
                     R_b, span, e_max, shift, regime)
    except ArithmeticError:
        trap = None
    if not (trap and shift > -math.inf and all(
            sys.float_info.min <= x < math.inf
            for x in (*trap[:8], R * span, E * e_max))):
        raise NumericError(
            "mu_b, the e_F bound, a radius or a density unit is 0 or beyond "
            "float range: check boson.count, boson.mass, boson.omega, "
            "fermion.count, fermion.mass, fermion.omega, interaction.g_bb "
            "and interaction.g_bf")
    return trap


def condensate_radius(cfg):
    trap = _trap(cfg)
    return trap.R * trap.R_b


def tf_boson_profile(cfg, grid):
    """(mu_b, n_b): the condensate density on the radial grid [m]."""
    trap = _trap(cfg)
    return trap.mu_b, [trap.n_b0 * (1.0 - q * q) if (
        q := r / trap.R / trap.R_b) < 1.0 else 0.0 for r in grid]


def _fermions(cfg, trap, depth, grid):
    """tf_fermion_profile on the grid [R], with 1 - n_b / n_b0 on it.  e and
    V are from the bottom of V_eff where the cloud is: s if the dip holds N_f
    below the rim R_b^2, R_b^2 (R_b^2 - s) >= 1; R_b^2 for s > R_b^2; else
    0.  So e - V needs no cancellation where the cloud is thin."""
    s, R_b = trap.shift, trap.R_b
    rim = R_b * R_b
    if s <= rim and rim * (rim - s) >= 1.0:
        low, V_eff = s, [r * r - s * d for r, d in zip(grid, depth)]
    else:
        low, a = (rim, R_b) if s > rim else (0.0, 0.0)
        # s acts inside the condensate only, also where it is infinite
        V_eff = [(r - a) * (r + a) + (s * (1.0 - d) if d < 1.0 else 0.0)
                 for r, d in zip(grid, depth)]
    V_min = min(V_eff)
    weights = [4.0 * pi * (r * r) * w
               for r, w in zip(grid, _simpson_weights(grid))]

    def count(e):
        """(count, d count / d e), one sqrt a node that holds fermions."""
        n = slope = 0.0
        for w, V in zip(weights, V_eff):
            if e > V:
                root = math.sqrt(e - V)
                n += w * ((e - V) * root)
                slope += w * root
        top = max(0.0, e - V_min)  # the largest density, in SI too
        if not (math.isfinite(n) and math.isfinite(slope)
                and trap.n_f0 * (top * math.sqrt(top)) < math.inf):
            raise NumericError(
                f"the Thomas-Fermi fermion density overflows at e_F = "
                f"{(e + low) * trap.E:g} J, interaction.g_bf = {cfg.g_bf:g} "
                f"J m^3: check interaction.g_bb, {_CLOUD}, which set the e_F "
                f"bound and the shift g_bf n_b")
        if slope == 0.0:
            raise NumericError(f"no node of the Thomas-Fermi grid holds "
                               f"fermions at e_F = {(e + low) * trap.E:g} J: "
                               f"{_SQUEEZE}")
        return n, 1.5 * slope

    e = trap.e_max - low
    n, slope = count(e)
    if n < _N_F:
        e += (_N_F - n) / slope
        n, slope = count(e)
    # stop within 1e-14 N_f; a count below N_f after a fall is rounding
    while n - _N_F > 1e-14 * _N_F and (step := e - (n - _N_F) / slope) < e:
        e = step
        n, slope = count(e)
    if abs(n - _N_F) > 1e-12 * _N_F:
        raise NumericError(
            f"Newton steps on the Simpson count stop at e_F = "
            f"{(e + low) * trap.E:g} J, {n / _N_F - 1.0:.2g} relative off "
            f"N_f = {cfg.N_f:g}: the count is not convex on this grid; "
            f"{_SQUEEZE}")
    # the densities the last count summed, each finite in SI
    return (e + low) * trap.E, [trap.n_f0 * ((e - V) * math.sqrt(e - V))
                                if e > V else 0.0 for V in V_eff]


def tf_fermion_profile(cfg, n_b, grid):
    """(e_F, n_f) on the radial grid [m] in the trap plus g_bf n_b(r), e_F
    where the grid's Simpson count of n_f is N_f, by Newton steps.  With
    weights >= 0, as on every grid of _build_grid, the count is convex and
    increasing: a step from below lands above the root, and from above none
    passes it.  A density beyond float range, no node below e_F, or a count
    off N_f by over 1e-12 N_f is a NumericError."""
    trap = _trap(cfg)
    return _fermions(cfg, trap, [1.0 - nb / trap.n_b0 for nb in n_b],
                     [r / trap.R for r in grid])


def classify_tf_regime(cfg):
    """The fermion arrangement inside the condensate, read from _trap."""
    return _trap(cfg).regime


def _build_grid(trap, n_points):
    """n_points radii [R] to the span, uniform between the edges min(R_f,
    R_b), R_b and the span, R_f = sqrt(e_max), each an even node at least
    _MIN_PANELS panels above the one before: both density kinks fall on a
    Simpson panel boundary, and a cloud far inside the condensate spans
    that many panels."""
    span, R_b = trap.span, trap.R_b
    grid, start, low = [], 0, 0.0
    for edge in sorted({min(math.sqrt(trap.e_max), R_b), R_b, span}):
        stop = n_points - 1 if edge == span else max(
            start + _MIN_PANELS, 2 * round(edge / span * (n_points - 1) / 2))
        grid += [low + (edge - low) * (i / (stop - start))
                 for i in range(stop - start)]
        start, low = stop, edge
    return grid + [span]


def tf_profiles(cfg):
    """Both density profiles on one grid that holds the whole cloud,
    e_F from Newton steps on its Simpson count, and the regime."""
    trap = _trap(cfg)
    grid = _build_grid(trap, _GRID_POINTS)
    depth = [q * q if (q := r / trap.R_b) < 1.0 else 1.0 for r in grid]
    e_F, n_f = _fermions(cfg, trap, depth, grid)
    return TFProfiles([trap.R * r for r in grid],
                      [trap.n_b0 * (1.0 - d) for d in depth], n_f,
                      trap.mu_b, e_F, trap.R * trap.R_b, trap.regime)
