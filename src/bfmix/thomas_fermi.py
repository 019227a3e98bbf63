"""Semiclassical density profiles of the trapped mixture.

The condensate is an inverted parabola fixed by its normalization; the
fermions fill the bare trap plus the mean-field shift g_bf n_b(r) up to a
Fermi energy fixed by their own normalization.  The shape of the combined
potential inside the condensate decides whether the fermions concentrate
at the trap center, spread evenly, or get pushed to the condensate edge.
"""

import enum
import math
from collections import namedtuple

from .brent import RootError, brentq
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
# Brent searches this fraction of max(|bound|, e_0) past each e_F bound,
# room for Simpson's error on a cloud that few nodes resolve
_BRACKET_PAD = 1e-2


class TFRegime(enum.Enum):
    CORE = "core"
    FLAT = "flat"
    SHELL = "shell"


TFProfiles = namedtuple("TFProfiles", (
    "radii",    # grid radii [m]
    "n_b",      # densities on the grid [1/m^3]
    "n_f",
    "mu_b",     # boson chemical potential [J]
    "e_F",      # Fermi energy [J]
    "R_b",      # condensate radius [m]
    "regime",   # TFRegime
))


def _pairwise_sum(v):
    """sum(v) in numpy's pairwise order, equal to numpy.sum bit for bit:
    eight running sums on up to 128 terms, longer lists halved."""
    n = len(v)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])
    total = 0.0
    if n >= 8:
        r = v[:8]
        for i in range(8, n - n % 8, 8):
            r = [a + b for a, b in zip(r, v[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5])
                                                   + (r[6] + r[7]))
    for term in v[n - n % 8:]:
        total += term
    return total


def simpson(y, x):
    """Composite Simpson integral of samples y on the strictly
    increasing grid x, computed as scipy.integrate.simpson does: for an
    even number of samples the last interval takes Cartwright's
    three-point correction."""
    h = [b - a for a, b in zip(x, x[1:])]
    n = len(y)
    stop = n - 3 if n % 2 == 0 else n - 2
    terms = []
    for i in range(0, stop, 2):
        h0, h1 = h[i], h[i + 1]
        hsum, h0divh1 = h0 + h1, h0 / h1
        terms.append(hsum / 6.0 * (y[i] * (2.0 - 1.0 / h0divh1)
                                   + y[i + 1] * (hsum * (hsum / (h0 * h1)))
                                   + y[i + 2] * (2.0 - h0divh1)))
    result = _pairwise_sum(terms)
    if n % 2 == 0:
        hm2, hm1 = h[-2], h[-1]
        alpha = (2 * (hm1 * hm1) + 3 * hm2 * hm1) / (6 * (hm1 + hm2))
        beta = (hm1 * hm1 + 3.0 * hm2 * hm1) / (6 * hm2)
        eta = hm1 ** 3 / (6 * hm2 * (hm2 + hm1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def _require_repulsive_bosons(cfg):
    if cfg.g_bb <= 0.0:
        raise DomainError(
            "interaction.g_bb must be > 0: the semiclassical condensate "
            "profile exists only for a repulsive Bose gas")


def boson_chemical_potential(cfg):
    """mu_b = (hbar omega_b / 2) (15 N_b a_bb / a)^(2/5), the inverted
    parabola's normalization in closed form."""
    _require_repulsive_bosons(cfg)
    a_bb = cfg.m_b * cfg.g_bb / (4.0 * pi * hbar ** 2)
    return 0.5 * hbar * cfg.omega_b \
        * (15.0 * cfg.N_b * a_bb / cfg.osc_length) ** 0.4


def condensate_radius(cfg):
    mu_b = boson_chemical_potential(cfg)
    return math.sqrt(2.0 * mu_b / (cfg.m_b * cfg.omega_b ** 2))


def tf_boson_profile(cfg, grid):
    """Condensate density on the given radial grid; returns (mu_b, n_b)."""
    mu_b = boson_chemical_potential(cfg)
    k = 0.5 * cfg.m_b * cfg.omega_b ** 2
    return mu_b, [max(0.0, (mu_b - k * (r * r)) / cfg.g_bb) for r in grid]


def _fermi_energy_bounds(cfg, mu_b):
    """(lo, hi) around the continuum e_F, from 0 <= n_b <= mu_b / g_bb.

    With e_0 = hbar omega_f (6 N_f)^(1/3) and shift = g_bf mu_b / g_bb:
    [e_0 + shift, e_0] for g_bf <= 0, else [e_0, min(e_0 + shift, e_1)].
    The trap is bare outside R_b, so with x = (e / hbar omega_f)^(3/2)
    the count is at least x^2/6 - b x, where b x bounds the bare count
    inside R_b; e_1 is where that reaches N_f.
    """
    hw = hbar * cfg.omega_f
    e_0 = hw * (6.0 * cfg.N_f) ** (1.0 / 3.0)
    shift = cfg.g_bf * mu_b / cfg.g_bb
    if shift <= 0.0:
        return e_0 + shift, e_0
    b = 2.0 / (9.0 * pi) * (4.0 * cfg.m_f * cfg.omega_f * mu_b
                            / (hbar * cfg.m_b * cfg.omega_b ** 2)) ** 1.5
    x = 3.0 * (b + math.hypot(b, math.sqrt(2.0 * cfg.N_f / 3.0)))
    return e_0, min(e_0 + shift, hw * x ** (2.0 / 3.0))


def tf_fermion_profile(cfg, mu_b, n_b, grid):
    """Fermion density on the grid for the potential trap + g_bf n_b(r);
    returns (e_F, n_f), e_F fixed by the normalization to N_f with one
    Brent call to 1e-10 e_0 between the padded _fermi_energy_bounds.
    An end of wrong sign or NaN is a NumericError, never the answer, and
    so is a density beyond float range."""
    k = 0.5 * cfg.m_f * cfg.omega_f ** 2
    V_eff = [k * (r * r) + cfg.g_bf * nb for r, nb in zip(grid, n_b)]
    pref = (2.0 * cfg.m_f / hbar ** 2) ** 1.5 / (6.0 * pi ** 2)
    shell = [4.0 * pi * (r * r) for r in grid]

    def density(e_F):
        try:
            return [pref * max(0.0, e_F - V) ** 1.5 for V in V_eff]
        except OverflowError:
            raise NumericError(
                f"the Thomas-Fermi fermion density overflows at e_F = "
                f"{e_F:g} J: interaction.g_bf = {cfg.g_bf:g} J m^3 is out "
                f"of float range") from None

    def excess(e_F):
        return simpson([s * d for s, d in zip(shell, density(e_F))],
                       grid) - cfg.N_f

    e_0 = hbar * cfg.omega_f * (6.0 * cfg.N_f) ** (1.0 / 3.0)
    lo, hi = _fermi_energy_bounds(cfg, mu_b)
    lo -= _BRACKET_PAD * max(abs(lo), e_0)
    hi += _BRACKET_PAD * max(abs(hi), e_0)
    try:
        e_F = brentq(excess, lo, hi, xtol=1e-10 * e_0, maxiter=200)
    except RootError as exc:
        raise NumericError(f"no e_F on the padded bounds [{lo:g}, {hi:g}] "
                           f"J: {exc}") from None
    return e_F, density(e_F)


def classify_tf_regime(cfg):
    """Sign of g_bf/g_bb - m_f omega_f^2 / (m_b omega_b^2) decides the
    fermion arrangement inside the condensate."""
    _require_repulsive_bosons(cfg)
    coupling_ratio = cfg.g_bf / cfg.g_bb
    trap_ratio = cfg.m_f * cfg.omega_f ** 2 / (cfg.m_b * cfg.omega_b ** 2)
    if abs(coupling_ratio - trap_ratio) \
            <= 1e-12 * max(abs(coupling_ratio), trap_ratio):
        return TFRegime.FLAT
    if coupling_ratio > trap_ratio:
        return TFRegime.SHELL
    return TFRegime.CORE


def _build_grid(cfg, mu_b, span_factor, n_points):
    """(grid, R_b): n_points radii up to span_factor times the larger of
    R_b and the fermion radius R_f at the upper e_F bound, uniform
    between the edges min(R_f, R_b), R_b and the span.  Each edge sits
    on an even node at least _MIN_PANELS panels above the one before, so
    the kink of both profiles falls on a Simpson panel boundary and a
    cloud far inside the condensate still spans that many panels."""
    R_b = math.sqrt(2.0 * mu_b / (cfg.m_b * cfg.omega_b ** 2))
    R_f = math.sqrt(2.0 * _fermi_energy_bounds(cfg, mu_b)[1]
                    / (cfg.m_f * cfg.omega_f ** 2))
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
    e_F from one Brent call between proven bounds, plus the regime
    label."""
    mu_b = boson_chemical_potential(cfg)
    grid, R_b = _build_grid(cfg, mu_b, 1.5, _GRID_POINTS)
    _, n_b = tf_boson_profile(cfg, grid)
    e_F, n_f = tf_fermion_profile(cfg, mu_b, n_b, grid)
    return TFProfiles(radii=grid, n_b=n_b, n_f=n_f, mu_b=mu_b, e_F=e_F,
                      R_b=R_b, regime=classify_tf_regime(cfg))
