"""Tests for the Bose/Fermi integrals and fugacity inversion.

Reference values were computed with the independent quadrature and
series-acceleration oracles in tests/oracles.py (G7-K15 adaptive
quadrature of the integral representations; Euler-averaged alternating
series), then frozen here as literals.
"""

import importlib.util
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bfmix import _panels, specfun
from bfmix.errors import DomainError, NumericError
from bfmix.specfun import (
    PolyOrder, Species, Fugacity, ZETA_3_2,
    bose_g, fermi_f, fermi_f_log,
    bose_fugacity_from_density, fermi_fugacity_from_density,
)

from oracles import (
    bose_g_quadrature, fermi_f_quadrature, fermi_f_alternating,
    boltzmann_fugacity_series,
)


def test_poly_order_accepts_only_half_integer_orders():
    assert PolyOrder(0.5) is PolyOrder.ONE_HALF
    assert PolyOrder(1.5) is PolyOrder.THREE_HALVES
    assert PolyOrder(2.5) is PolyOrder.FIVE_HALVES
    for bad in (0.0, 1.0, 2.0, 3.5, -0.5):
        with pytest.raises(ValueError):
            PolyOrder(bad)


# frozen from bose_g_quadrature / fermi_f_quadrature (tests/oracles.py)
FROZEN_BOSE = {
    (0.5, 0.5): 0.8061267230428497,
    (1.5, 0.5): 0.6248370208199121,
    (2.5, 0.5): 0.5549972787175106,
    (1.5, 0.999): 2.501708465341344,
}
FROZEN_FERMI = {
    (1.5, 1.0): 0.7651470246254077,    # eta(3/2), closed form
    (2.5, 1.0): 0.8671998890121818,
    (0.5, 1.0): 0.604898643421615,
    (1.5, 10.0): 3.2856840823338835,
}


def test_bose_g_frozen_values():
    for (nu, z), ref in FROZEN_BOSE.items():
        assert np.isclose(bose_g(nu, z), ref, rtol=1e-12, atol=0.0)


def test_fermi_f_frozen_values():
    for (nu, z), ref in FROZEN_FERMI.items():
        assert np.isclose(fermi_f(nu, z), ref, rtol=1e-12, atol=0.0)


def test_bose_g_against_quadrature_oracle():
    # 50 points per order, spanning both evaluation branches
    zs = np.concatenate([np.linspace(0.005, 0.9995, 46),
                         [0.5 - 1e-9, 0.5 + 1e-9, 1e-6, 0.99]])
    for nu in (0.5, 1.5, 2.5):
        for z in zs:
            ref = bose_g_quadrature(nu, float(z))
            assert np.isclose(bose_g(nu, float(z)), ref,
                              rtol=1e-10, atol=1e-300), (nu, z)


def test_fermi_f_against_quadrature_oracle():
    zs = np.concatenate([10.0 ** np.linspace(-3, 4, 46),
                         [0.5 - 1e-9, 0.5 + 1e-9, 1.0, 1.0 + 1e-9]])
    for nu in (0.5, 1.5, 2.5):
        for z in zs:
            ref = fermi_f_quadrature(nu, float(z))
            assert np.isclose(fermi_f(nu, float(z)), ref,
                              rtol=1e-10, atol=1e-300), (nu, z)


def test_fermi_f_half_degenerate_matches_sommerfeld_leading_term():
    z = math.exp(20.0)
    lead = 2.0 / math.sqrt(math.pi) * 20.0 ** 0.5
    assert np.isclose(fermi_f(0.5, z), lead, rtol=0.01)
    assert np.isclose(fermi_f(0.5, z), 5.041018507535313, rtol=1e-12)


def test_fermi_f_against_alternating_series_oracle():
    # independent of any integral representation
    for nu in (0.5, 1.5, 2.5):
        for z in (0.3, 0.7, 1.0):
            ref = fermi_f_alternating(nu, z)
            assert np.isclose(fermi_f(nu, z), ref, rtol=1e-11, atol=0.0)


def test_bose_g_series_robinson_seam_is_continuous():
    # the evaluation strategy switches at z = 0.5; both sides must agree
    for nu in (0.5, 1.5, 2.5):
        below = bose_g(nu, 0.5 - 1e-12)
        above = bose_g(nu, 0.5 + 1e-12)
        assert np.isclose(below, above, rtol=1e-10)


def test_fermi_f_seams_are_continuous():
    for nu in (0.5, 1.5, 2.5):
        assert np.isclose(fermi_f(nu, 0.5 - 1e-12), fermi_f(nu, 0.5 + 1e-12),
                          rtol=1e-10)
        assert np.isclose(fermi_f(nu, 1.0 - 1e-12), fermi_f(nu, 1.0 + 1e-12),
                          rtol=1e-10)


def test_bose_g_half_divergence_signal():
    assert bose_g(0.5, 1.0) == math.inf
    assert bose_g(0.5, 1.0 - 1e-14) == math.inf
    # the ln z kernel of the stability matrix signals it only at ln z = 0
    assert specfun._bose_g_of_mu(PolyOrder.ONE_HALF, 0.0) == math.inf
    # just outside the signal window the value is large but finite
    val = bose_g(0.5, 1.0 - 1e-12)
    assert math.isfinite(val) and val > 1e5


def test_bose_g_at_unity_matches_zeta():
    assert np.isclose(bose_g(1.5, 1.0), 2.612375348685488, rtol=1e-13)
    assert np.isclose(bose_g(2.5, 1.0), 1.3414872572509173, rtol=1e-13)
    assert np.isclose(ZETA_3_2, 2.612375348685488, rtol=1e-15)


def test_domain_errors():
    with pytest.raises(DomainError):
        bose_g(1.5, -0.1)
    with pytest.raises(DomainError):
        bose_g(1.5, 1.1)
    with pytest.raises(DomainError):
        fermi_f(1.5, -1e-9)
    with pytest.raises(DomainError):
        bose_fugacity_from_density(-1.0)
    with pytest.raises(DomainError):
        fermi_fugacity_from_density(-1.0)


def test_zero_density_gives_zero_fugacity():
    assert bose_fugacity_from_density(0.0).z == 0.0
    assert fermi_fugacity_from_density(0.0).z == 0.0
    assert bose_g(1.5, 0.0) == 0.0
    assert fermi_f(1.5, 0.0) == 0.0


def test_bose_fugacity_round_trip():
    rng = np.random.default_rng(7)
    for x in rng.uniform(1e-3, ZETA_3_2 * 0.999, size=30):
        fug = bose_fugacity_from_density(float(x))
        assert not fug.condensed
        assert np.isclose(bose_g(1.5, fug.z), x, rtol=1e-11)


def test_bose_fugacity_condensed_marker():
    fug = bose_fugacity_from_density(ZETA_3_2)
    assert fug.z == 1.0 and fug.condensed
    fug = bose_fugacity_from_density(10.0)
    assert fug.z == 1.0 and fug.condensed
    # near saturation 1 - z ~ ((zeta - x) / 2 sqrt(pi))^2, so the offset
    # must be well above 1e-8 for 1 - z to be representable
    below = bose_fugacity_from_density(ZETA_3_2 * (1.0 - 1e-4))
    assert not below.condensed and below.z < 1.0


def test_fermi_fugacity_round_trip():
    rng = np.random.default_rng(11)
    # spans classical through moderately degenerate
    for x in 10.0 ** rng.uniform(-3, 3, size=30):
        fug = fermi_fugacity_from_density(float(x))
        assert np.isclose(fermi_f_log(1.5, fug.ln_z), x, rtol=1e-10)
    fug = fermi_fugacity_from_density(10.0)
    assert abs(fermi_f(1.5, fug.z) - 10.0) < 1e-10
    # unity density round-trips through z = 1 exactly
    fug1 = fermi_fugacity_from_density(fermi_f(1.5, 1.0))
    assert np.isclose(fug1.z, 1.0, rtol=1e-11)


def test_fermi_fugacity_dilute_limit_matches_boltzmann_series():
    x = 1e-4
    fug = fermi_fugacity_from_density(x)
    assert np.isclose(fug.z, boltzmann_fugacity_series(x), rtol=1e-10)
    bfug = bose_fugacity_from_density(x)
    # Bose correction has the opposite sign: z = x + x^2/2^1.5 + ...
    assert np.isclose(bfug.z, x + x * x / 2.0 ** 1.5, rtol=1e-6)


def test_fermi_fugacity_degenerate_regime_uses_log_scale():
    # rho lambda^3 = 1e6 -> ln z ~ (3 sqrt(pi) x / 4)^(2/3) ~ 1.2e4;
    # z itself overflows, ln_z must stay usable
    x = 1.0e6
    fug = fermi_fugacity_from_density(x)
    assert fug.z == math.inf
    assert fug.ln_z > 1e4
    assert np.isclose(fermi_f_log(1.5, fug.ln_z), x, rtol=1e-9)
    # Sommerfeld leading order: f_(3/2)(e^mu) ~ 4 mu^(3/2) / (3 sqrt(pi))
    mu_somm = (0.75 * math.sqrt(math.pi) * x) ** (2.0 / 3.0)
    assert np.isclose(fug.ln_z, mu_somm, rtol=0.01)


# ln z from the classical edge of the z > 1 branch to deep degeneracy,
# with the seam between the Chebyshev panels and the Sommerfeld series
ORACLE_LN_Z = [float(mu) for mu in 10.0 ** np.linspace(-4.0, 12.0, 33)] \
    + [1.0, 39.999999, 40.0, 40.000001, 1e6, 1e9]
# the Chebyshev kernel's panels [2p, 2p + 2] for 0 < ln z < 40: every
# midpoint, and one ulp on each side of every seam from 0 to 40
PANEL_LN_Z = [2.0 * p + 1.0 for p in range(20)] + [
    math.nextafter(2.0 * p, side) for p in range(21)
    for side in (-math.inf, math.inf)]
# ln z <= 0 from -745, where z is the least subnormal, up to 0, and one
# ulp on each side of ln 1/2 and of 0
NEGATIVE_LN_Z = [-float(m) for m in np.geomspace(1e-12, 745.0, 20)] + [
    math.nextafter(edge, side) for edge in (math.log(0.5), 0.0)
    for side in (-math.inf, math.inf)]


def test_fermi_f_log_against_mpmath_polylog():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30), warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (0.5, 1.5, 2.5):
            for mu in ORACLE_LN_Z + PANEL_LN_Z + NEGATIVE_LN_Z:
                ref = float(mp.re(-mp.polylog(nu, -mp.exp(mu))))
                got = fermi_f_log(nu, mu)
                assert abs(got - ref) <= 1e-14 * ref, (nu, mu, got, ref)


def test_bose_g_against_mpmath_polylog():
    """The z panel below z = 0.5, the alpha panel above it, up to one ulp
    below where g_(1/2) signals its divergence, and below z = 1."""
    mp = pytest.importorskip("mpmath")
    zs = np.linspace(0.0, 1.0, 201)[1:-1].tolist() + [
        1e-300, 1e-8, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
        0.9999, 1.0 - 1e-8, 1.0 - 1e-12]
    top = {0.5: math.nextafter(1.0 - 1e-13, 0.0),
           1.5: math.nextafter(1.0, 0.0), 2.5: math.nextafter(1.0, 0.0)}
    with mp.workdps(30):
        for nu in (0.5, 1.5, 2.5):
            for z in zs + [top[nu]]:
                ref = float(mp.polylog(nu, z))
                got = bose_g(nu, z)
                assert abs(got - ref) <= 1e-14 * ref, (nu, z, got, ref)


@pytest.mark.parametrize("eps, bound", [(1e-10, 1e-6), (1e-13, 1e-2),
                                        (1.5e-15, 5e-2)])
def test_bose_ln_z_just_above_condensation_against_mpmath(eps, bound):
    """At T = T_c (1 + eps), x = zeta(3/2) (1 + eps)^(-3/2) and ln z is
    of order -eps^2, where z rounds to 1.  The bounds widen toward T_c
    with the rounding of ln g_(3/2) - ln x near zeta(3/2)."""
    mp = pytest.importorskip("mpmath")
    x = ZETA_3_2 / (1.0 + eps) ** 1.5
    with mp.workdps(60):
        X = mp.mpf(x)
        # Robinson: g_(3/2)(e^-alpha) = zeta(3/2) - 2 sqrt(pi alpha) + ...
        guess = ((mp.zeta(1.5) - X) / (2 * mp.sqrt(mp.pi))) ** 2
        alpha = mp.findroot(lambda a: mp.polylog(1.5, mp.exp(-a)) - X,
                            (guess / 2, 2 * guess), solver="anderson")
    ref = -float(alpha)
    got = bose_fugacity_from_density(x).ln_z
    assert abs(got - ref) <= bound * abs(ref), (got, ref)


def _load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _refit_ends(fit, families):
    """Refit the first and the last panel of each family; each must equal
    the frozen one bit for bit."""
    for name in families:
        degree, tol, panels = fit.FAMILIES[name]
        frozen = getattr(_panels, name)
        assert len(frozen) == len(panels), name
        for i in sorted({0, len(panels) - 1}):
            assert fit.panel_coefficients(panels[i], degree, tol) == \
                frozen[i], (name, panels[i].label)


def test_chebyshev_literals_refit_from_mpmath():
    """tools/fit_panels.py reproduces the frozen forward panels bit for
    bit (the first and the last panel of each family)."""
    pytest.importorskip("mpmath")
    fit = _load_tool("fit_panels")
    _refit_ends(fit, ("BOSE_Z", "BOSE_ALPHA", "FERMI_Z", "FERMI_MU"))


def test_inverse_panels_refit_from_mpmath():
    """tools/fit_panels.py reproduces the frozen inverse panels bit for
    bit (the first and the last panel of each family, and the low part
    of zeta(3/2)), and renders the frozen numbers of every family into
    the module's exact bytes."""
    pytest.importorskip("mpmath")
    fit = _load_tool("fit_panels")
    _refit_ends(fit, ("FERMI_INVERSE", "BOSE_INVERSE", "BOSE_ZETA"))
    assert fit.zeta_3_2_lo() == _panels.ZETA_3_2_LO
    frozen = {name: getattr(_panels, name) for name in fit.FAMILIES}
    path = Path(_panels.__file__)
    assert fit.render(frozen).encode("utf-8") == path.read_bytes()


# from e^8 up: the Sommerfeld series to k = 7 leaves f_(3/2)(e^mu)
# exact to far below an ulp (terms ~ Gamma(2k - 3/2) mu^(-2k))
@pytest.mark.parametrize("x", [float(x) for x in np.geomspace(3e3, 1e308, 40)]
                         + [1.7e308, sys.float_info.max])
def test_fermi_ln_z_against_mpmath_sommerfeld(x):
    mp = pytest.importorskip("mpmath")
    got = fermi_fugacity_from_density(x).ln_z
    with mp.workdps(40):
        def f32(mu):
            return mp.fsum(2 * mp.altzeta(2 * k) * mu ** (1.5 - 2 * k)
                           / mp.gamma(2.5 - 2 * k) for k in range(8))
        # solved for ln z / got, since findroot's step tolerance is absolute
        ref = got * mp.findroot(lambda r: mp.log(f32(r * got) / x), 1)
        assert abs(got - ref) <= 1e-15 * ref, (x, got, ref)
        # the round trip through mpmath's forward formula
        assert abs(f32(mp.mpf(got)) / x - 1) <= 2e-15


@pytest.mark.parametrize("x", [1.7e308, sys.float_info.max])
def test_fermi_ln_z_at_the_top_of_the_float_range(x):
    """Every finite density inverts.  At 1.7e308 the forward kernel
    returns x; at the largest float f_(3/2) of the nearest double to
    ln z is itself past the float range, and one ulp below it is x."""
    mu = fermi_fugacity_from_density(x).ln_z
    assert math.isfinite(mu)
    if x < sys.float_info.max:
        assert abs(fermi_f_log(1.5, mu) / x - 1.0) <= 4.5e-16
    else:
        below = fermi_f_log(1.5, math.nextafter(mu, 0.0))
        assert abs(below / x - 1.0) <= 4.5e-16


def test_infinite_density_is_an_error_naming_it():
    with pytest.raises(NumericError, match="phase-space density"):
        fermi_fugacity_from_density(math.inf)
    assert bose_fugacity_from_density(math.inf).condensed


def test_fermi_fugacity_round_trip_up_to_ln_z_1e12():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu in ORACLE_LN_Z:
            x = fermi_f_log(1.5, mu)
            fug = fermi_fugacity_from_density(x)
            assert abs(fug.ln_z - mu) <= 1e-12 * max(1.0, mu), (mu, fug)
            assert np.isclose(fermi_f_log(1.5, fug.ln_z), x, rtol=1e-12)


# log-spaced from a subnormal density to the top of each range: near
# Bose saturation, and ln z ~ 1.2e8 for the Fermi gas
SWEEPS = [
    (bose_fugacity_from_density, lambda fug: bose_g(1.5, fug.z),
     ZETA_3_2 * (1.0 - 1e-4)),
    (fermi_fugacity_from_density, lambda fug: fermi_f_log(1.5, fug.ln_z),
     1e12),
]


@pytest.mark.parametrize("invert, h32, top", SWEEPS)
def test_ln_z_over_the_whole_density_range(invert, h32, top):
    xs = [float(x) for x in np.geomspace(1e-320, top, 400)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fugs = [invert(x) for x in xs]
    ln_z = np.array([fug.ln_z for fug in fugs])
    assert np.all(np.isfinite(ln_z))
    assert np.all(np.diff(ln_z) > 0)
    for x, fug in zip(xs, fugs):
        if x <= 1e-200:
            # h_(3/2)(z) = z to double precision this deep
            assert abs(fug.ln_z - math.log(x)) <= 1e-12 * abs(math.log(x))
        assert np.isclose(h32(fug), x, rtol=1e-12), (x, fug)


@pytest.mark.parametrize("x", [1e-300, 1e-305, 1e-310, 1e-320])
@pytest.mark.parametrize("invert", [bose_fugacity_from_density,
                                    fermi_fugacity_from_density])
def test_subnormal_density_keeps_a_positive_fugacity(invert, x):
    fug = invert(x)
    assert fug.z > 0.0
    assert abs(fug.ln_z - math.log(x)) <= 1e-12 * abs(math.log(x))


def test_fugacity_monotone_in_density():
    xs = np.linspace(1e-3, ZETA_3_2 * 0.999, 50)
    zs = [bose_fugacity_from_density(float(x)).z for x in xs]
    assert np.all(np.diff(zs) > 0)
    xs = 10.0 ** np.linspace(-3, 4, 50)
    mus = [fermi_fugacity_from_density(float(x)).ln_z for x in xs]
    assert np.all(np.diff(mus) > 0)


def test_monotonicity_and_order_of_integrals():
    # strict increase in z on 1000 random ordered pairs per order
    rng = np.random.default_rng(3)
    for nu in (0.5, 1.5, 2.5):
        pairs = np.sort(rng.uniform(0.0, 0.999, size=(1000, 2)), axis=1)
        for z1, z2 in pairs[np.abs(pairs[:, 1] - pairs[:, 0]) > 1e-9]:
            assert bose_g(nu, float(z1)) < bose_g(nu, float(z2))
        fpairs = np.sort(10.0 ** rng.uniform(-2, 2, size=(1000, 2)), axis=1)
        for z1, z2 in fpairs[np.abs(np.log(fpairs[:, 1] / fpairs[:, 0])) > 1e-9]:
            assert fermi_f(nu, float(z1)) < fermi_f(nu, float(z2))
    for z in (0.2, 0.8):
        # all Bose terms positive: lower order dominates; the alternating
        # Fermi sum orders the other way for z <= 1
        assert bose_g(0.5, z) > bose_g(1.5, z) > bose_g(2.5, z)
        assert fermi_f(0.5, z) < fermi_f(1.5, z) < fermi_f(2.5, z)
        # Bose exceeds Fermi at equal argument
        assert bose_g(1.5, z) > fermi_f(1.5, z)


def test_fugacity_dataclass_invariants():
    with pytest.raises(DomainError):
        Fugacity(1.2, Species.BOSE)
    with pytest.raises(DomainError):
        Fugacity(-0.1, Species.FERMI)
    fug = Fugacity(0.5, Species.FERMI)
    assert np.isclose(fug.ln_z, math.log(0.5), rtol=1e-15)


def test_fugacity_replace_and_make_check_like_new():
    # namedtuple's _replace and _make would otherwise skip __new__
    with pytest.raises(DomainError):
        Fugacity(0.5, Species.BOSE)._replace(z=5.0)
    with pytest.raises(DomainError):
        Fugacity._make((-0.1, Species.FERMI, False, None))
    fug = Fugacity(0.5, Species.BOSE)
    assert Fugacity._make(fug) == fug
    assert fug._replace(condensed=True).condensed is True


def test_fugacity_replace_keeps_z_and_ln_z_one_number():
    # a change to z or ln_z alone sets the other; namedtuple's _replace
    # would keep the other field's stale value
    fug = Fugacity(0.5, Species.BOSE)
    assert fug._replace(z=0.25).ln_z == math.log(0.25)
    assert fug._replace(ln_z=-5.0).z == math.exp(-5.0)
    with pytest.raises(DomainError, match="Bose fugacity"):
        fug._replace(ln_z=1.0)
    # a degenerate Fermi fugacity, z past exp's range, keeps its pair
    deep = Fugacity(math.inf, Species.FERMI, ln_z=800.0)
    assert deep._replace(condensed=True) == (math.inf, Species.FERMI,
                                             True, 800.0)
    assert deep._replace(ln_z=720.0).z == math.inf
    assert deep._replace(ln_z=2.0).z == math.exp(2.0)
    with pytest.raises(DomainError, match="Fermi fugacity"):
        deep._replace(ln_z=math.nan)


@pytest.mark.parametrize("nu, ln_z", [
    (nu, ln_z) for nu in (0.5, 1.5, 2.5) for ln_z in (math.inf, math.nan)
] + [(nu, ln_z) for nu in (1.5, 2.5) for ln_z in (1e300, 1e308)])
def test_fermi_f_log_past_float_range_raises(nu, ln_z):
    # f_(1/2) stays finite up to ln z = 1e308; f_(3/2) and f_(5/2) pass
    # the float range there
    with pytest.raises(NumericError, match=re.escape(f"ln z={ln_z}")):
        fermi_f_log(nu, ln_z)
    if ln_z == 1e308:
        assert math.isfinite(fermi_f_log(0.5, ln_z))


def test_fermi_f_log_catches_the_sommerfeld_overflow():
    # past mu = 2e123 the series forms mu^(nu/2) twice; for nu = 5/2 and
    # mu = 1e300 that power itself leaves the float range and raises
    with pytest.raises(OverflowError):
        specfun._sommerfeld(PolyOrder.FIVE_HALVES, 1e300)
    with pytest.raises(NumericError, match="not finite at nu=2.5"):
        fermi_f_log(2.5, 1e300)
