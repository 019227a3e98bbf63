"""Bose and Fermi integrals g_nu, f_nu and fugacity inversion.

Conventions (the standard polylogarithm ones, the only choice that
reproduces the textbook ideal-gas relations and the 2.612 condensation
constant):

    g_nu(z) =  sum_{k>=1} z^k / k^nu          (= Li_nu(z)),   0 <= z <= 1
    f_nu(z) = -sum_{k>=1} (-z)^k / k^nu       (= -Li_nu(-z)),  z >= 0

Only the orders 1/2, 3/2, 5/2 are supported; they are the only ones the
thermodynamics of this package needs.

Evaluation strategy
-------------------
Every g_nu, and f_nu for ln z < 40, is a Chebyshev series sum_j c_j T_j(u)
on a panel of its argument, -1 <= u <= 1, summed by Clenshaw's
recurrence.  The piecewise approach follows T. Fukushima, Appl. Math.
Comput. 259 (2015) 708.  Each panel is fitted against mpmath by
tools/fit_panels.py, which writes the generated module _panels:
* Bose, z <= 1/2      g_nu(z) / z in u = 4z - 1 (18 to 21 terms).
* Bose, z > 1/2       g_nu(e^-alpha) = Gamma(1-nu) alpha^(nu-1) + R_nu(alpha),
                      alpha = -ln z <= ln 2: the singular term is explicit,
                      R_nu is a series in u = 2 alpha / ln 2 - 1 (10 or 11
                      terms).  R_nu = sum_k zeta(nu-k) (-alpha)^k / k! is
                      the regular part of Robinson's expansion, analytic
                      for |alpha| < 2 pi.  The Bose kernels that take
                      mu = ln z itself use the same two panels, so g_nu
                      stays accurate where z = e^mu rounds to 1.
* Fermi, ln z <= 0    f_nu(z) / z in u = 2z - 1 (18 to 21 terms).
* Fermi, 0 < ln z < 40  f_nu(e^mu) on the panels [2p, 2p + 2] that hold
                      mu = ln z, p = 0..19, in u = mu - 2p - 1 (7 to 19
                      terms).  The panels are 2 wide because the branch
                      cuts of Li_nu(-e^mu) run along Im mu = +-pi.
* Fermi, z >= e^40    Sommerfeld series
                      f_nu(e^mu) = sum_k 2 eta(2k) mu^(nu-2k) / Gamma(nu+1-2k),
                      at most 13 terms; the neglected part is O(e^-mu).
Against mpmath the relative error of every panel stays below 1.5e-15.
The eta(2k) values and zeta(3/2) are frozen literals pinned against
scipy, and a test refits panels of _panels from mpmath bit for bit.

Fugacity inversion
------------------
rho lambda^3 = x = h_(3/2)(z), h = g or f, is solved for mu = ln z
without a root finder, after T. Fukushima, Appl. Math. Comput. 259 (2015)
698 (his F_(1/2) inverse is the f_(3/2) one up to Gamma(3/2)).  Chebyshev
panels, fitted from mpmath by the same generator into _panels, give mu:
* x < e^-40: h_(3/2)(z) = z to double precision, so mu = ln x, exact
  even for subnormal x, whose z rounds to a coarse grid;
* Fermi, x <= 1: mu - ln x as a series in x; 1 < x < e^8: mu on the
  panels p <= t = ln x <= p + 1, p = 0..7;
* Bose, x <= 2: mu - ln x as a series in x.
These guesses are good to about 1e-10.  One Newton step on
ln h_(3/2)(e^mu) = ln x, whose slope is h_(1/2) / h_(3/2), squares their
error for two kernel calls.  The Bose kernels take mu itself, not
z = e^mu.  Two ranges need no step:
* Bose, 2 < x < zeta(3/2): sqrt(-mu) is s times a series in
  s = zeta(3/2) - x, kept to 1e-17.  Near condensation
  sqrt(-mu) = s / (2 sqrt(pi)) + O(s^2), the square-root law of the
  Robinson expansion, so the series keeps its relative accuracy as
  s -> 0.  s is formed as (ZETA_3_2 - x) + ZETA_3_2_LO, the low part of
  zeta(3/2), so it is exact to rounding even an ulp below ZETA_3_2,
  where z = e^mu rounds to 1: just above T_c, ln z is about -1e-26.
* Fermi, x >= e^8 (mu > 250): the Sommerfeld series reversed,
  mu = y (1 - (pi^2/12) y^-2 - (pi^4/80) y^-4 - (247 pi^6/25920) y^-6
  - (16291 pi^8/777600) y^-8), y = (3 sqrt(pi) x / 4)^(2/3), is exact to
  double precision for every finite x.

g_(1/2) diverges at z = 1.  For z >= 1 - 1e-13 bose_g returns
``math.inf`` as the documented divergence signal.  The stability matrix
takes g_(1/2) from ln z instead (_bose_g_of_mu), which is finite for
every ln z < 0 and inf only at ln z = 0, where lambda^3/g_(1/2) -> 0.
"""

import enum
import math
from collections import namedtuple

from ._panels import (
    BOSE_ALPHA, BOSE_INVERSE, BOSE_X_SPLIT, BOSE_Z, BOSE_ZETA, FERMI_INVERSE,
    FERMI_MU, FERMI_T_MAX, FERMI_X_MAX, FERMI_Z, ZETA_3_2_LO)
from .errors import DomainError, NumericError

__all__ = [
    "PolyOrder", "Species", "Fugacity",
    "bose_g", "fermi_f", "fermi_f_log",
    "bose_fugacity_from_density", "fermi_fugacity_from_density",
    "ZETA_3_2",
]


class PolyOrder(enum.Enum):
    """Order nu of g_nu/f_nu; construction rejects anything but the
    three orders used by the physics."""
    ONE_HALF = 0.5
    THREE_HALVES = 1.5
    FIVE_HALVES = 2.5


def _as_order(nu):
    if isinstance(nu, PolyOrder):
        return nu
    return PolyOrder(float(nu))  # ValueError for unsupported orders


class Species(enum.Enum):
    BOSE = "bose"
    FERMI = "fermi"


class Fugacity(namedtuple("Fugacity", "z species condensed ln_z")):
    """Fugacity z = exp(beta mu0) of one component.

    ``ln_z`` duplicates log(z) but stays finite deep in the degenerate
    Fermi regime where z itself overflows to inf (ln z ~ E_F/k_B T can
    exceed 710).  ``condensed`` marks the Bose z = 1 saturation.
    """
    __slots__ = ()

    def __new__(cls, z, species, condensed=False, ln_z=None):
        if species is Species.BOSE and not 0.0 <= z <= 1.0:
            raise DomainError(f"Bose fugacity must lie in [0, 1], got {z}")
        if species is Species.FERMI and not z >= 0.0:
            raise DomainError(f"Fermi fugacity must be >= 0, got {z}")
        if ln_z is None:
            ln_z = math.log(z) if z > 0 else -math.inf
        return super().__new__(cls, z, species, condensed, ln_z)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _replace builds its copy here: check it as above
        return cls(*iterable)

    def _replace(self, **changes):
        """A copy with the named fields changed and checked as on
        construction.  z and ln_z name one number, so a change to either
        alone sets the other: ln_z = log(z), z = exp(ln_z) or inf once
        ln_z passes 709, as the fugacity inversions store it."""
        if "z" in changes and "ln_z" not in changes:
            changes["ln_z"] = None
        elif "ln_z" in changes and "z" not in changes:
            ln_z = changes["ln_z"]
            changes["z"] = math.inf if ln_z >= 709.0 else math.exp(ln_z)
        return super()._replace(**changes)


# Gamma(1 - nu) prefactors of the singular term of g_nu near z = 1
_GAMMA_1_MINUS_NU = {order: math.gamma(1.0 - order.value) for order in PolyOrder}

ZETA_3_2 = 2.612375348685488   # g_(3/2)(1)

_LN_HALF = math.log(0.5)  # the z panel of the Bose kernel ends here
_ALPHA_SCALE = 2.0 / math.log(2.0)


def _highest_first(family):
    """A family's panels, each with its coefficients in the order
    _clenshaw takes them."""
    return tuple(tuple(reversed(panel)) for panel in family)


def _by_order(family):
    """A family of _panels keyed by order: an equal run of panels each,
    in the order of PolyOrder."""
    n = len(family) // len(PolyOrder)
    return {order: _highest_first(family[i * n:(i + 1) * n])
            for i, order in enumerate(PolyOrder)}


_BOSE_Z = _by_order(BOSE_Z)
_BOSE_ALPHA = _by_order(BOSE_ALPHA)
_FERMI_Z = _by_order(FERMI_Z)
_FERMI_MU = _by_order(FERMI_MU)


def _clenshaw(coefs, u):
    """sum_j c_j T_j(u) for -1 <= u <= 1 by Clenshaw's recurrence, the
    coefficients given highest degree first."""
    u2 = u + u
    b1 = b2 = 0.0
    for c in coefs:
        b1, b2 = c + u2 * b1 - b2, b1
    return b1 - u * b2


def _bose_near_one(order, alpha):
    """g_nu(e^-alpha) for 0 <= alpha <= ln 2: the singular term and the
    panel of the regular part; g_(1/2) is inf at alpha = 0."""
    if alpha == 0.0 and order is PolyOrder.ONE_HALF:
        return math.inf
    return (_GAMMA_1_MINUS_NU[order] * alpha ** (order.value - 1.0)
            + _clenshaw(_BOSE_ALPHA[order][0], alpha * _ALPHA_SCALE - 1.0))


def bose_g(nu, z):
    """Bose integral g_nu(z) for 0 <= z <= 1.

    Returns math.inf (the divergence signal) for nu = 1/2 when
    z >= 1 - 1e-13; raises DomainError outside [0, 1].
    """
    order = _as_order(nu)
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"bose_g requires 0 <= z <= 1, got z={z}")
    if order is PolyOrder.ONE_HALF and z >= 1.0 - 1e-13:
        return math.inf
    if z <= 0.5:
        return z * _clenshaw(_BOSE_Z[order][0], 4.0 * z - 1.0)
    return _bose_near_one(order, -math.log(z))


def _bose_g_of_mu(order, mu):
    """g_nu(e^mu) for mu <= 0, from mu itself: accurate where z = e^mu
    rounds to 1 (just above T_c), 0 for mu = -inf."""
    if mu <= _LN_HALF:
        z = math.exp(mu)
        return z * _clenshaw(_BOSE_Z[order][0], 4.0 * z - 1.0)
    return _bose_near_one(order, -mu)


def fermi_f_log(nu, ln_z):
    """Fermi integral as a function of mu = ln z; usable when z itself
    would overflow (degenerate regime, mu up to ~1e18)."""
    order = _as_order(nu)
    if ln_z <= 0.0:
        z = math.exp(ln_z)
        return z * _clenshaw(_FERMI_Z[order][0], z + z - 1.0)
    try:
        if ln_z < _SOMMERFELD_MU:
            p = int(0.5 * ln_z)
            total = _clenshaw(_FERMI_MU[order][p], ln_z - (2 * p + 1))
        else:  # NaN as well, which the sum passes on
            total = _sommerfeld(order, ln_z)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise NumericError(
            f"fermi integral not finite at nu={order.value}, ln z={ln_z}")
    return total


def fermi_f(nu, z):
    """Fermi integral f_nu(z) for z >= 0 (unbounded above)."""
    order = _as_order(nu)
    if not z >= 0.0:
        raise DomainError(f"fermi_f requires z >= 0, got z={z}")
    if z == 0.0:
        return 0.0
    return fermi_f_log(order, math.log(z))


_SOMMERFELD_MU = 40.0
# eta(2k), k = 0..12: eta(0) = 1/2, eta(2k) = (1 - 2^(1-2k)) zeta(2k)
_ETA_EVEN = (
    0.5, 0.8224670334241132, 0.9470328294972459, 0.9855510912974352,
    0.996233001852648, 0.9990395075982714, 0.9997576851438582,
    0.9999391703459798, 0.9999847642149061, 0.9999961878696102,
    0.9999990466115815, 0.9999997616132308, 0.9999999403988924,
)
# 2 eta(2k) / Gamma(nu + 1 - 2k), the Sommerfeld coefficients
_SOMMERFELD_COEF = {
    order: [2.0 * eta / math.gamma(order.value + 1.0 - 2.0 * k)
            for k, eta in enumerate(_ETA_EVEN)]
    for order in PolyOrder
}


def _sommerfeld(order, mu):
    """sum_k 2 eta(2k) mu^(nu-2k) / Gamma(nu+1-2k) for mu >= 40; the
    13th term is at most 1.1e-17 of the sum there, fewer terms suffice
    above.  Where mu^nu alone passes the float range (mu > 2e123), the
    first term is the sum and is formed from mu^(nu/2) twice, so it
    overflows only when f_nu does."""
    inv_mu2 = 1.0 / (mu * mu)
    try:
        power = mu ** order.value  # mu^(nu - 2k), maintained incrementally
    except OverflowError:
        half = mu ** (0.5 * order.value)
        return _SOMMERFELD_COEF[order][0] * half * half
    acc = 0.0
    for coef in _SOMMERFELD_COEF[order]:
        term = coef * power
        acc += term
        if abs(term) <= 1e-17 * abs(acc):
            break
        power *= inv_mu2
    return acc


# the inverse panels of the module docstring, highest degree first
_FERMI_INVERSE = _highest_first(FERMI_INVERSE)
(_BOSE_INVERSE,) = _highest_first(BOSE_INVERSE)
(_BOSE_ZETA,) = _highest_first(BOSE_ZETA)
_BOSE_S_SCALE = 2.0 / (ZETA_3_2 - BOSE_X_SPLIT)
# y = _SOMMERFELD_Y x^(2/3), and the reversed series' coefficients of
# y^-8, y^-6, y^-4, y^-2, in Horner's order
_SOMMERFELD_Y = (0.75 * math.sqrt(math.pi)) ** (2.0 / 3.0)
_SOMMERFELD_INVERSE = (-16291.0 * math.pi ** 8 / 777600.0,
                       -247.0 * math.pi ** 6 / 25920.0,
                       -math.pi ** 4 / 80.0, -math.pi ** 2 / 12.0)


def _ln_fugacity(species, x):
    """ln z with h_(3/2)(z) = x, range by range as the module docstring
    says: a panel guess and one Newton step, or a value that needs none."""
    if not x >= 0.0:
        raise DomainError(f"phase-space density must be >= 0, got {x}")
    if x == 0.0:
        return -math.inf
    if x == math.inf:
        raise NumericError("phase-space density is not finite: inf")
    t = math.log(x)
    if t < -40.0:
        return t
    if species is Species.BOSE:
        if x > BOSE_X_SPLIT:
            s = (ZETA_3_2 - x) + ZETA_3_2_LO
            w = s * _clenshaw(_BOSE_ZETA, s * _BOSE_S_SCALE - 1.0)
            return -w * w
        mu = t + _clenshaw(_BOSE_INVERSE, x - 1.0)
        h32 = _bose_g_of_mu(PolyOrder.THREE_HALVES, mu)
        h12 = _bose_g_of_mu(PolyOrder.ONE_HALF, mu)
    elif t >= FERMI_T_MAX:
        # x^(2/3) from x = m 2^(3q + r): a power of x itself would carry
        # the rounding of 2/3 times ln x, up to 2.6e-14 relative
        m, e = math.frexp(x)
        q, r = divmod(e, 3)
        y = _SOMMERFELD_Y * math.ldexp(math.ldexp(m, r) ** (2.0 / 3.0), 2 * q)
        v = 1.0 / (y * y)  # 0 once y * y overflows, as it should
        series = 0.0
        for a in _SOMMERFELD_INVERSE:
            series = (series + a) * v
        return y + y * series
    else:
        if x <= FERMI_X_MAX:
            mu = t + _clenshaw(_FERMI_INVERSE[0], x + x - 1.0)
        else:
            p = int(t)
            mu = _clenshaw(_FERMI_INVERSE[p + 1], 2.0 * (t - p) - 1.0)
        h32 = fermi_f_log(PolyOrder.THREE_HALVES, mu)
        h12 = fermi_f_log(PolyOrder.ONE_HALF, mu)
    # one Newton step on ln h_(3/2)(e^mu) = ln x, slope h_(1/2) / h_(3/2)
    return mu - (math.log(h32) - t) * h32 / h12


def bose_fugacity_from_density(rho_lambda3):
    """Invert rho lambda^3 = g_(3/2)(z) for the Bose fugacity.

    At or above the condensation value g_(3/2)(1) = 2.612..., the result
    is z = 1 with the condensed marker set.
    """
    if rho_lambda3 >= ZETA_3_2:
        return Fugacity(1.0, Species.BOSE, condensed=True)
    mu = _ln_fugacity(Species.BOSE, rho_lambda3)
    return Fugacity(math.exp(mu), Species.BOSE, ln_z=mu)


def fermi_fugacity_from_density(rho_lambda3):
    """Invert rho lambda^3 = f_(3/2)(z) for the Fermi fugacity.

    f_(3/2) is strictly increasing and unbounded, so a root always
    exists; z is inf where ln z passes exp's overflow.
    """
    mu = _ln_fugacity(Species.FERMI, rho_lambda3)
    return Fugacity(math.exp(mu) if mu < 709.0 else math.inf,
                    Species.FERMI, ln_z=mu)
