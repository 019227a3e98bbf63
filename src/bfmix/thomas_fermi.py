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

from .brent import brentq
from .constants import hbar, pi
from .errors import DomainError, NumericError

__all__ = [
    "TFRegime", "TFProfiles", "tf_boson_profile", "tf_fermion_profile",
    "classify_tf_regime", "tf_profiles",
]


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


def tf_fermion_profile(cfg, mu_b, n_b, grid):
    """Fermion density on the grid for the potential trap + g_bf n_b(r);
    returns (e_F, n_f) with e_F fixed by the normalization to N_f: a
    doubling search brackets it, Brent's method (bfmix.brent) refines it
    to 1e-10 relative."""
    k = 0.5 * cfg.m_f * cfg.omega_f ** 2
    V_eff = [k * (r * r) + cfg.g_bf * nb for r, nb in zip(grid, n_b)]
    pref = (2.0 * cfg.m_f / hbar ** 2) ** 1.5 / (6.0 * pi ** 2)
    shell = [4.0 * pi * (r * r) for r in grid]

    def density(e_F):
        return [pref * max(0.0, e_F - V) ** 1.5 for V in V_eff]

    def count(e_F):
        return simpson([s * d for s, d in zip(shell, density(e_F))], grid)

    lo = min(V_eff)
    # plateau height of the mean-field shift plus the ideal-gas guess
    step = hbar * cfg.omega_f * (6.0 * cfg.N_f) ** (1.0 / 3.0) \
        + max(0.0, cfg.g_bf * mu_b / cfg.g_bb) + hbar * cfg.omega_f
    hi = lo + step
    for _ in range(80):
        if count(hi) >= cfg.N_f:
            break
        step *= 2.0
        hi = lo + step
    else:
        raise NumericError(
            "fermion normalization bracket failed to capture N_f; the "
            "grid span may not cover the cloud")

    e_F = brentq(lambda e: count(e) - cfg.N_f, lo, hi,
                 xtol=1e-10 * max(abs(hi), abs(lo)), maxiter=200)
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
    # R_b is snapped onto an even-index node so the kink of both density
    # profiles falls on a quadrature panel boundary
    R_b = math.sqrt(2.0 * mu_b / (cfg.m_b * cfg.omega_b ** 2))
    e_guess = hbar * cfg.omega_f * (6.0 * cfg.N_f) ** (1.0 / 3.0) \
        + max(0.0, cfg.g_bf * mu_b / cfg.g_bb)
    R_f = math.sqrt(2.0 * e_guess / (cfg.m_f * cfg.omega_f ** 2))
    span = span_factor * max(R_b, R_f)
    if not 0.0 < R_b <= span < math.inf:
        raise NumericError(
            f"cloud radii out of float range: R_b = {R_b:g} m, "
            f"R_f = {R_f:g} m")
    j = int(round(R_b / (span / (n_points - 1))))
    j = max(2, j + (j % 2))
    h = R_b / j
    return [h * i for i in range(n_points)], R_b


_GRID_POINTS = 2000


def tf_profiles(cfg):
    """Both density profiles on a shared grid, plus the regime label.

    The grid spans 1.5x the larger estimated cloud radius and is widened
    when the fermion density has not decayed at the outer edge.
    """
    mu_b = boson_chemical_potential(cfg)
    span_factor = 1.5
    for _ in range(8):
        grid, R_b = _build_grid(cfg, mu_b, span_factor, _GRID_POINTS)
        _, n_b = tf_boson_profile(cfg, grid)
        e_F, n_f = tf_fermion_profile(cfg, mu_b, n_b, grid)
        if n_f[-1] <= 1e-12 * max(n_f):
            break
        span_factor *= 1.5
    else:
        raise NumericError(
            "fermion cloud still reaches the grid edge after 8 span "
            "expansions")
    return TFProfiles(radii=grid, n_b=n_b, n_f=n_f, mu_b=mu_b, e_F=e_F,
                      R_b=R_b, regime=classify_tf_regime(cfg))
