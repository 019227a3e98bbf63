"""The runtime stands on numpy alone: its constants, tables, root finder
and Simpson rule replace scipy.  Each replacement is pinned here against
the scipy routine it replaces; scipy is a test dependency.
"""

import math
import sys

import numpy as np
import pytest
import scipy.constants as sc
import scipy.integrate
import scipy.optimize
import scipy.special

from bfmix import constants, specfun, thomas_fermi, zero_temperature
from bfmix.brent import _RTOL, brentq
from bfmix.config import MixtureConfig
from bfmix.errors import NumericError
from bfmix.specfun import PolyOrder

M7 = 7.0 * sc.atomic_mass


def test_constants_equal_scipy_codata():
    assert constants.h == sc.h
    assert constants.hbar == sc.hbar
    assert constants.k_B == sc.k
    assert constants.atomic_mass == sc.atomic_mass
    assert constants.pi == sc.pi


def test_zeta_and_eta_literals_equal_scipy():
    assert specfun._ETA_EVEN[0] == 0.5
    for k, value in enumerate(specfun._ETA_EVEN[1:], start=1):
        assert value == (1.0 - 2.0 ** (1 - 2 * k)) * float(
            scipy.special.zeta(2 * k)), k
    assert specfun.ZETA_3_2 == float(scipy.special.zeta(1.5))


# ---------------------------------------------------------------------------
# brentq: the package's own residuals, bit for bit
# ---------------------------------------------------------------------------

def _zero_t_cfg(g_bb=0.05, g_bf=0.3):
    return MixtureConfig.from_oscillator(
        m_b=M7, m_f=M7, omega_b=166.0, omega_f=166.0, N_b=1000.0,
        N_f=10000.0, g_bb=g_bb, g_bf=g_bf, g_ff=0.01)


def _residual_cases():
    """(f, a, b, xtol, maxiter) of each brentq call the package makes
    while it solves the boson and fermion frequencies, recorded from the
    package itself so the pins follow its residuals, brackets and
    settings.  The boson solve and the fugacity inversion take no Brent
    call."""
    cases = []

    def recording(f, a, b, xtol, maxiter, fa=None, fb=None):
        cases.append((f, a, b, xtol, maxiter))
        return brentq(f, a, b, xtol=xtol, maxiter=maxiter, fa=fa, fb=fb)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zero_temperature, "brentq", recording)
        for g_bb in (0.05, 2.0, -1e-4):
            zero_temperature.solve_omega_c(_zero_t_cfg(g_bb=g_bb))
        cfg = _zero_t_cfg()
        zero_temperature.solve_Omega_c(
            zero_temperature.solve_omega_c(cfg).omega_c, cfg)
    return cases


def test_brentq_roots_equal_scipy_on_package_residuals():
    cases = _residual_cases()
    # the root of the solve_Omega_c bracket scan
    assert len(cases) == 1
    for f, a, b, xtol, maxiter in cases:
        ours = brentq(f, a, b, xtol=xtol, maxiter=maxiter)
        theirs = scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=_RTOL,
                                       maxiter=maxiter)
        assert ours == theirs, (a, b, ours, theirs)


def test_solvers_unchanged_with_scipy_brentq(monkeypatch):
    cfg = _zero_t_cfg()
    ours = (zero_temperature.classify_zero_T(cfg),
            zero_temperature.solve_omega_c(_zero_t_cfg(g_bb=-1e-4)),
            [specfun.fermi_fugacity_from_density(x) for x in (0.5, 40.0)],
            specfun.bose_fugacity_from_density(1.2))

    def scipy_brentq(f, a, b, xtol, maxiter, fa=None, fb=None):
        # scipy takes no end values; it evaluates f at a and b itself
        return scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=_RTOL,
                                     maxiter=maxiter)

    monkeypatch.setattr(zero_temperature, "brentq", scipy_brentq)
    theirs = (zero_temperature.classify_zero_T(cfg),
              zero_temperature.solve_omega_c(_zero_t_cfg(g_bb=-1e-4)),
              [specfun.fermi_fugacity_from_density(x) for x in (0.5, 40.0)],
              specfun.bose_fugacity_from_density(1.2))
    assert ours == theirs


def _brent_ln_z(species, x):
    """ln z by the root finder the inversion replaced: scipy's brentq on
    ln h_(3/2)(e^mu) = ln x (mu - ln x below mu = -40), from
    min(ln x, 0) - 1 up to 0 (Bose) or up to the Fermi bound
    (3 sqrt(pi) x / 4)^(2/3), which f_(3/2)(e^mu) >= mu^(3/2) / Gamma(5/2)
    proves.  The replaced code added 1 to that bound; here it is also
    scaled by 1 + 1e-9 and formed without overflow, since above
    x ~ 2e22 the +1 alone left the residual there within its rounding
    of 0 (so the replaced code raised for some x), and above
    x ~ 1.35e308 it overflowed.  An f_(3/2) past the float range
    exceeds every x, so the residual reads +inf there."""
    ln_x = math.log(x)
    if species is specfun.Species.BOSE:
        hi, xtol = 0.0, 1e-300

        def h32(mu):
            return specfun._bose_g_of_mu(PolyOrder.THREE_HALVES, mu)
    else:
        hi = ((0.75 * math.sqrt(math.pi)) ** (2.0 / 3.0) * x ** (2.0 / 3.0)
              * (1.0 + 1e-9) + 1.0)
        xtol = 1e-16

        def h32(mu):
            return specfun.fermi_f_log(1.5, mu)

    def resid(mu):
        if mu < -40.0:
            return mu - ln_x
        try:
            return math.log(h32(mu)) - ln_x
        except NumericError:
            return math.inf
    return scipy.optimize.brentq(resid, min(ln_x, 0.0) - 1.0, hi,
                                 xtol=xtol, rtol=_RTOL, maxiter=200)


@pytest.mark.parametrize("species, top", [
    (specfun.Species.BOSE, math.nextafter(specfun.ZETA_3_2, 0.0)),
    (specfun.Species.FERMI, sys.float_info.max),
])
def test_ln_z_equals_scipy_brentq_root(species, top):
    """The panel guess and its Newton step give Brent's root, from a
    subnormal density up to the top of the range.  Brent's root is
    resolved only to the band where its residual reads 0 in floats:
    one ulp of ln x over the residual's slope h_(1/2) / h_(3/2), up to
    7.6e-14 relative near the largest float, where the new ln z is
    within 1e-15 of mpmath (test_specfun)."""
    with np.errstate(over="ignore"):
        xs = [float(x) for x in np.geomspace(5e-324, top, 500)] + [top]
    if species is specfun.Species.BOSE:  # and 2 to 40 ulp below zeta(3/2)
        xs += [top - k * math.ulp(top) for k in range(1, 40)]
    worst = 0.0
    for x in xs:
        ours = specfun._ln_fugacity(species, x)
        theirs = _brent_ln_z(species, x)
        if species is specfun.Species.BOSE:
            slope = (specfun._bose_g_of_mu(PolyOrder.ONE_HALF, ours)
                     / specfun._bose_g_of_mu(PolyOrder.THREE_HALVES, ours))
        elif ours > 1e100:  # the Sommerfeld slope, where f_(3/2) may
            slope = 1.5 / ours  # pass the float range
        else:
            slope = (specfun.fermi_f_log(0.5, ours)
                     / specfun.fermi_f_log(1.5, ours))
        gap = abs(ours - theirs)
        worst = max(worst, gap / max(1.0, abs(theirs)))
        bound = 1e-14 * max(1.0, abs(theirs)) + math.ulp(math.log(x)) / slope
        assert gap <= bound, (x, ours, theirs)
    print(f"{species.value}: largest |d ln z| / max(1, |ln z|) = {worst:.2e}")


@pytest.mark.parametrize("f, xtol, maxiter, exc", [
    (lambda x: x * x + 1.0, 1e-12, 100, ValueError),   # no sign change
    (lambda x: math.nan, 1e-12, 100, ValueError),      # NaN value
    (lambda x: x - 0.3, 0.0, 100, ValueError),         # xtol not positive
    (lambda x: x ** 3 - 0.2, 1e-12, 3, RuntimeError),  # maxiter runs out
])
def test_brentq_raises_like_scipy(f, xtol, maxiter, exc):
    with pytest.raises(exc):
        scipy.optimize.brentq(f, 0.0, 1.0, xtol=xtol, rtol=_RTOL,
                              maxiter=maxiter)
    with pytest.raises(exc):
        brentq(f, 0.0, 1.0, xtol, maxiter)
    # and, to the CLI and the scans, a numeric failure
    with pytest.raises(NumericError):
        brentq(f, 0.0, 1.0, xtol, maxiter)


def test_brentq_exact_endpoint_roots():
    assert brentq(lambda x: x, 0.0, 1.0, 1e-12, 100) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-12, 100) == 1.0


# ---------------------------------------------------------------------------
# Simpson on the Thomas-Fermi grid
# ---------------------------------------------------------------------------

def test_pairwise_sum_equals_numpy_sum():
    # every branch: fewer than 8 terms, one block with and without a
    # remainder, and the halving above 128 terms
    rng = np.random.default_rng(11)
    for n in [*range(0, 140), 255, 256, 257, 999, 1000, 4001]:
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
        assert thomas_fermi._pairwise_sum(v.tolist()) == np.sum(v), n


@pytest.mark.parametrize("n_points", [2000, 2001])
def test_simpson_equals_scipy_on_tf_grid(n_points):
    cfg = MixtureConfig.from_oscillator(
        m_b=M7, m_f=M7, omega_b=166.0, omega_f=166.0, N_b=1000.0,
        N_f=100.0, g_bb=0.05, g_bf=0.02)
    mu_b = thomas_fermi.boson_chemical_potential(cfg)
    grid, _ = thomas_fermi._build_grid(cfg, mu_b, 1.5, n_points)
    _, n_b = thomas_fermi.tf_boson_profile(cfg, grid)
    e_F, n_f = thomas_fermi.tf_fermion_profile(cfg, mu_b, n_b, grid)
    for density in (n_b, n_f):
        y = 4.0 * math.pi * np.asarray(grid) ** 2 * np.asarray(density)
        assert thomas_fermi.simpson(y.tolist(), grid) == \
            scipy.integrate.simpson(y, x=np.asarray(grid))
    # the even-length rule keeps scipy's last-interval correction, which
    # makes it exact for quadratics on any grid
    x = np.sort(np.random.default_rng(5).uniform(0.0, 3.0, 10))
    assert np.isclose(thomas_fermi.simpson((x * x).tolist(), x.tolist()),
                      (x[-1] ** 3 - x[0] ** 3) / 3.0, rtol=1e-13)
