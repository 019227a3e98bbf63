"""The runtime stands on numpy alone: its constants, tables, root finder
and Simpson rule replace scipy.  Each replacement is pinned here against
the scipy routine it replaces; scipy is a test dependency.
"""

import math

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
from bfmix.specfun import PolyOrder, bose_g, fermi_f

M7 = 7.0 * sc.atomic_mass


def test_constants_equal_scipy_codata():
    assert constants.h == sc.h
    assert constants.hbar == sc.hbar
    assert constants.k_B == sc.k
    assert constants.atomic_mass == sc.atomic_mass
    assert constants.pi == sc.pi


def test_zeta_and_eta_literals_equal_scipy():
    for j, value in enumerate(specfun._ZETA_5_2_MINUS_J):
        assert value == float(scipy.special.zeta(2.5 - j)), j
    for order in PolyOrder:
        assert specfun._ZETA_TABLE[order] == [
            float(scipy.special.zeta(order.value - k))
            for k in range(specfun._K_MAX + 1)]
    assert specfun._ETA_EVEN[0] == 0.5
    for k, value in enumerate(specfun._ETA_EVEN[1:], start=1):
        assert value == (1.0 - 2.0 ** (1 - 2 * k)) * float(
            scipy.special.zeta(2 * k)), k
    assert specfun.ZETA_3_2 == float(scipy.special.zeta(1.5))


def test_short_tables_match_full_scipy_tables(monkeypatch):
    # the tables stop at k = _K_MAX = 26; scipy's tables to k = 80 give
    # bit-identical Robinson and eta expansions over their whole domains
    zs = np.concatenate([np.linspace(0.5 + 1e-12, 1.0, 400), [0.5000001]])
    shorter = [(bose_g(nu, z), fermi_f(nu, z))
               for nu in (0.5, 1.5, 2.5) for z in zs if z < 1.0 - 1e-13]
    full_zeta = {order: [float(scipy.special.zeta(order.value - k))
                         for k in range(81)] for order in PolyOrder}
    monkeypatch.setattr(specfun, "_K_MAX", 80)
    monkeypatch.setattr(specfun, "_ZETA_TABLE", full_zeta)
    monkeypatch.setattr(specfun, "_ETA_TABLE", {
        order: [(1.0 - 2.0 ** (1.0 - (order.value - k))) * row[k]
                for k in range(81)]
        for order, row in full_zeta.items()})
    full = [(bose_g(nu, z), fermi_f(nu, z))
            for nu in (0.5, 1.5, 2.5) for z in zs if z < 1.0 - 1e-13]
    assert shorter == full


# ---------------------------------------------------------------------------
# brentq: the package's own residuals, bit for bit
# ---------------------------------------------------------------------------

def _zero_t_cfg(g_bb=0.05, g_bf=0.3):
    return MixtureConfig.from_oscillator(
        m_b=M7, m_f=M7, omega_b=166.0, omega_f=166.0, N_b=1000.0,
        N_f=10000.0, g_bb=g_bb, g_bf=g_bf, g_ff=0.01)


def _residual_cases():
    """(f, a, b, xtol, maxiter) of each brentq call the package makes
    while it inverts fugacities and solves the boson and fermion
    frequencies, recorded from the package itself so the pins follow
    its residuals, brackets and settings."""
    cases = []

    def recording(f, a, b, xtol, maxiter):
        cases.append((f, a, b, xtol, maxiter))
        return brentq(f, a, b, xtol=xtol, maxiter=maxiter)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specfun, "brentq", recording)
        patch.setattr(zero_temperature, "brentq", recording)
        zero_temperature._solve_omega_c.cache_clear()
        for x in (1e-310, 1e-4, 0.3, 1.7, 2.6):
            specfun.bose_fugacity_from_density(x)
        for x in (1e-310, 1e-4, 0.3, 0.76, 0.9, 5.0, 300.0, 1e6, 1e30):
            specfun.fermi_fugacity_from_density(x)
        for g_bb in (0.05, 2.0, -1e-4):
            zero_temperature.solve_omega_c(_zero_t_cfg(g_bb=g_bb))
        cfg = _zero_t_cfg()
        zero_temperature.solve_Omega_c(
            zero_temperature.solve_omega_c(cfg).omega_c, cfg)
    zero_temperature._solve_omega_c.cache_clear()
    return cases


def test_brentq_roots_equal_scipy_on_package_residuals():
    cases = _residual_cases()
    # 14 fugacity inversions, 3 boson roots and the roots of the
    # solve_Omega_c bracket scan
    assert len(cases) == 18
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

    def scipy_brentq(f, a, b, xtol, maxiter):
        return scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=_RTOL,
                                     maxiter=maxiter)

    monkeypatch.setattr(zero_temperature, "brentq", scipy_brentq)
    monkeypatch.setattr(specfun, "brentq", scipy_brentq)
    # the boson solve is memoised; solve it again under scipy's brentq
    zero_temperature._solve_omega_c.cache_clear()
    theirs = (zero_temperature.classify_zero_T(cfg),
              zero_temperature.solve_omega_c(_zero_t_cfg(g_bb=-1e-4)),
              [specfun.fermi_fugacity_from_density(x) for x in (0.5, 40.0)],
              specfun.bose_fugacity_from_density(1.2))
    assert ours == theirs


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
