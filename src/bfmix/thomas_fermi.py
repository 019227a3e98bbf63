"""Semiclassical density profiles of the trapped mixture.

The condensate is an inverted parabola fixed by its normalization; the
fermions fill the trap plus the mean-field shift g_bf n_b(r) up to the
Fermi energy at which Newton steps make their Simpson count N_f.  The
shape of the combined potential inside the condensate decides whether the
fermions gather at the center, spread evenly, or sit at its edge.
"""

import enum
import math
import sys
from collections import namedtuple

from .constants import hbar, pi
from .errors import DomainError, NumericError

__all__ = [
    "TFRegime", "TFProfiles", "tf_boson_profile", "tf_fermion_profile",
    "classify_tf_regime", "tf_profiles",
]

_GRID_POINTS = 2000
# each grid segment below R_b spans at least this many panels: Simpson
# N_b to ~6e-8, and a cloud far inside the condensate stays resolved
_MIN_PANELS = 64
# the inputs that squeeze the fermion cloud and, with interaction.g_bb,
# set its e_F bound
_CLOUD = "interaction.g_bf, boson.count and fermion.count"
_SQUEEZE = (f"check {_CLOUD}, which can squeeze the fermion cloud between "
            "the grid's nodes")


class TFRegime(enum.Enum):
    CORE = "core"
    FLAT = "flat"
    SHELL = "shell"


_Trap = namedtuple("_Trap", ("mu_b", "k_b", "k_f", "pref", "e_max"))

TFProfiles = namedtuple("TFProfiles", (
    "radii",    # grid radii [m]
    "n_b",      # densities on the grid [1/m^3]
    "n_f",
    "mu_b",     # boson chemical potential [J]
    "e_F",      # Fermi energy [J]
    "R_b",      # condensate radius [m]
    "regime",   # TFRegime
))


def _simpson_weights(x):
    """Weights w on the strictly increasing grid x such that sum(w_i y_i)
    is scipy.integrate.simpson(y, x=x): composite Simpson on pairs of
    intervals and, for an even number of samples, Cartwright's
    three-point correction on the last interval."""
    h = [b - a for a, b in zip(x, x[1:])]
    n = len(x)
    w = [0.0] * n
    for i in range(0, n - 3 if n % 2 == 0 else n - 2, 2):
        h0, h1 = h[i], h[i + 1]
        c = (h0 + h1) / 6.0
        w[i] += c * (2.0 - h1 / h0)
        w[i + 1] += c * (h0 + h1) ** 2 / (h0 * h1)
        w[i + 2] += c * (2.0 - h0 / h1)
    if n % 2 == 0:
        hm2, hm1 = h[-2], h[-1]
        w[-1] += (2 * (hm1 * hm1) + 3 * hm2 * hm1) / (6 * (hm1 + hm2))
        w[-2] += (hm1 * hm1 + 3.0 * hm2 * hm1) / (6 * hm2)
        w[-3] -= hm1 ** 3 / (6 * hm2 * (hm2 + hm1))
    return w


def boson_chemical_potential(cfg):
    """mu_b = (hbar omega_b / 2) (15 N_b a_bb / a)^(2/5), the inverted
    parabola's normalization in closed form."""
    if cfg.g_bb <= 0.0:
        raise DomainError(
            "interaction.g_bb must be > 0: the semiclassical condensate "
            "profile exists only for a repulsive Bose gas")
    a_bb = cfg.m_b * cfg.g_bb / (4.0 * pi * hbar ** 2)
    return 0.5 * hbar * cfg.omega_b \
        * (15.0 * cfg.N_b * a_bb / cfg.osc_length) ** 0.4


def _trap(cfg):
    """The numbers of cfg's trap, each formed once: mu_b [J], k_b and k_f
    = m omega^2 / 2 [J/m^2], the fermion density prefactor pref [J^-3/2
    m^-3] and e_max, the e_F bound [J].  A NumericError names the trap's
    fields when one is 0, subnormal or beyond float range."""
    try:
        mu_b = boson_chemical_potential(cfg)
        trap = _Trap(mu_b, 0.5 * cfg.m_b * cfg.omega_b ** 2,
                     0.5 * cfg.m_f * cfg.omega_f ** 2,
                     (2.0 * cfg.m_f / hbar ** 2) ** 1.5 / (6.0 * pi ** 2),
                     _fermi_energy_bound(cfg, mu_b))
    except ArithmeticError:
        trap = ()
    if not (trap and all(sys.float_info.min <= x < math.inf for x in trap)):
        raise NumericError(
            "mu_b, m omega^2 / 2 of a species, the fermion density "
            "prefactor or the e_F bound is 0 or beyond float range: check "
            "boson.count, boson.mass, boson.omega, fermion.count, "
            "fermion.mass, fermion.omega, interaction.g_bb and "
            "interaction.g_bf")
    return trap


def condensate_radius(cfg):
    return _radii(_trap(cfg))[0]


def _radii(trap):
    """(R_b, R_f): the condensate radius, the fermion one at e_max."""
    return math.sqrt(trap.mu_b / trap.k_b), math.sqrt(trap.e_max / trap.k_f)


def tf_boson_profile(cfg, grid):
    """Condensate density on the given radial grid; returns (mu_b, n_b)."""
    trap = _trap(cfg)
    return trap.mu_b, [max(0.0, (trap.mu_b - trap.k_b * (r * r)) / cfg.g_bb)
                       for r in grid]


def _fermi_energy_bound(cfg, mu_b):
    """Upper bound on the continuum e_F from 0 <= n_b <= mu_b / g_bb: with
    e_0 = hbar omega_f (6 N_f)^(1/3) and shift = g_bf mu_b / g_bb, e_0
    for g_bf <= 0, else min(e_0 + shift, e_1).  The trap is bare outside
    R_b, so with x = (e / hbar omega_f)^(3/2) the count is at least
    x^2/6 - b x, where b x bounds the bare count inside R_b; e_1 is
    where that reaches N_f."""
    hw = hbar * cfg.omega_f
    e_0 = hw * (6.0 * cfg.N_f) ** (1.0 / 3.0)
    shift = cfg.g_bf * mu_b / cfg.g_bb
    if shift <= 0.0:
        return e_0
    b = 2.0 / (9.0 * pi) * (4.0 * cfg.m_f * cfg.omega_f * mu_b
                            / (hbar * cfg.m_b * cfg.omega_b ** 2)) ** 1.5
    x = 3.0 * (b + math.hypot(b, math.sqrt(2.0 * cfg.N_f / 3.0)))
    return min(e_0 + shift, hw * x ** (2.0 / 3.0))


def tf_fermion_profile(cfg, n_b, grid):
    """Fermion density on the grid for the potential trap + g_bf n_b(r);
    returns (e_F, n_f), e_F where the grid's Simpson count of n_f is N_f,
    by Newton steps from _fermi_energy_bound.  With weights >= 0, as on
    every grid of _build_grid, the count is convex and increasing: a
    step from below lands above the root, and from above none passes it.
    A density beyond float range, no node below e_F, or a count off N_f
    by over 1e-12 N_f is a NumericError, never the answer."""
    trap = _trap(cfg)
    V_eff = [trap.k_f * (r * r) + cfg.g_bf * nb for r, nb in zip(grid, n_b)]
    pref = trap.pref
    weights = [4.0 * pi * (r * r) * w
               for r, w in zip(grid, _simpson_weights(grid))]

    def count(e_F):
        """(count, d count / d e_F), one sqrt a node that holds fermions."""
        n = s = 0.0
        for w, V in zip(weights, V_eff):
            if e_F > V:
                root = math.sqrt(e_F - V)
                n += w * (pref * (e_F - V) * root)
                s += w * root
        slope = 1.5 * pref * s
        if not (math.isfinite(n) and math.isfinite(slope)):
            raise NumericError(
                f"the Thomas-Fermi fermion density overflows at e_F = "
                f"{e_F:g} J, interaction.g_bf = {cfg.g_bf:g} J m^3: check "
                f"interaction.g_bb, {_CLOUD}, which set the e_F bound and "
                f"the shift g_bf n_b")
        if slope == 0.0:
            raise NumericError(f"no node of the Thomas-Fermi grid holds "
                               f"fermions at e_F = {e_F:g} J: {_SQUEEZE}")
        return n, slope

    e_F = trap.e_max
    n, slope = count(e_F)
    if n < cfg.N_f:
        e_F += (cfg.N_f - n) / slope
        n, slope = count(e_F)
    # a count below N_f after a fall is rounding at the root: keep it
    while n >= cfg.N_f and (step := e_F - (n - cfg.N_f) / slope) < e_F:
        e_F = step
        n, slope = count(e_F)
    if abs(n - cfg.N_f) > 1e-12 * cfg.N_f:
        raise NumericError(
            f"Newton steps on the Simpson count stop at e_F = {e_F:g} J, "
            f"{n / cfg.N_f - 1.0:.2g} relative off N_f = {cfg.N_f:g}: the "
            f"count is not convex on this grid; {_SQUEEZE}")
    # the densities the last count summed, each finite
    return e_F, [pref * (e_F - V) * math.sqrt(e_F - V) if e_F > V else 0.0
                 for V in V_eff]


def classify_tf_regime(cfg):
    """Sign of g_bf/g_bb - m_f omega_f^2 / (m_b omega_b^2) decides the
    fermion arrangement inside the condensate; the trap ratio is k_f /
    k_b of _trap, whose factors 1/2 cancel exactly."""
    trap = _trap(cfg)
    coupling_ratio = cfg.g_bf / cfg.g_bb
    trap_ratio = trap.k_f / trap.k_b
    if abs(coupling_ratio - trap_ratio) \
            <= 1e-12 * max(abs(coupling_ratio), trap_ratio):
        return TFRegime.FLAT
    if coupling_ratio > trap_ratio:
        return TFRegime.SHELL
    return TFRegime.CORE


def _build_grid(trap, span_factor, n_points):
    """(grid, R_b): n_points radii up to span_factor times the larger of
    R_b and the fermion radius R_f at the upper e_F bound, uniform
    between the edges min(R_f, R_b), R_b and the span.  Each edge sits
    on an even node at least _MIN_PANELS panels above the one before, so
    the kink of both profiles falls on a Simpson panel boundary and a
    cloud far inside the condensate still spans that many panels."""
    R_b, R_f = _radii(trap)
    span = span_factor * max(R_b, R_f)
    if not (0.0 < R_f and 0.0 < R_b <= span < math.inf):
        raise NumericError(
            f"cloud radii out of float range: R_b = {R_b:g} m, "
            f"R_f = {R_f:g} m")
    grid, start, low = [], 0, 0.0
    for edge in sorted({min(R_f, R_b), R_b, span}):
        stop = n_points - 1 if edge == span else max(
            start + _MIN_PANELS, 2 * round(edge / span * (n_points - 1) / 2))
        grid += [low + (edge - low) * (i / (stop - start))
                 for i in range(stop - start)]
        start, low = stop, edge
    return grid + [span], R_b


def tf_profiles(cfg):
    """Both density profiles on one grid that holds the whole cloud,
    e_F from Newton steps on the grid's Simpson count, plus the regime
    label."""
    grid, R_b = _build_grid(_trap(cfg), 1.5, _GRID_POINTS)
    mu_b, n_b = tf_boson_profile(cfg, grid)
    e_F, n_f = tf_fermion_profile(cfg, n_b, grid)
    return TFProfiles(radii=grid, n_b=n_b, n_f=n_f, mu_b=mu_b, e_F=e_F,
                      R_b=R_b, regime=classify_tf_regime(cfg))
