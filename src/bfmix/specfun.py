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
* z <= 0.5          direct power series (relative cutoff 1e-15, at most
                    1e5 terms).
* Bose, z > 0.5     Robinson expansion in alpha = -ln z:
                    g_nu(e^-alpha) = Gamma(1-nu) alpha^(nu-1)
                                     + sum_k zeta(nu-k) (-alpha)^k / k!
                    The expansion converges geometrically with ratio
                    alpha/2pi < 0.12 on this range.  It applies to
                    nu = 1/2 as well (the plain series is uselessly slow
                    just below z = 1, where g_(1/2) must still be
                    accurate for the condensation machinery).
* Fermi, 0.5<z<=1   the analogous expansion in mu = ln z with the Dirichlet
                    eta function: f_nu(e^mu) = sum_k eta(nu-k) mu^k / k!.
* Fermi, 1<z<e^40   piecewise Chebyshev series in mu = ln z on the panels
                    [2p, 2p + 2], p = 0..19, summed by Clenshaw's
                    recurrence; 7 to 18 terms a panel, fitted against
                    mpmath's polylog by tools/fit_fermi.py (relative
                    error below 5e-16 on the fitted range).  The panels
                    are 2 wide because the branch cuts of Li_nu(-e^mu)
                    run along Im mu = +-pi.  The piecewise approach follows
                    T. Fukushima, Appl. Math. Comput. 259 (2015) 708.
* Fermi, z >= e^40  Sommerfeld series
                    f_nu(e^mu) = sum_k 2 eta(2k) mu^(nu-2k) / Gamma(nu+1-2k),
                    at most 13 terms; the neglected part is O(e^-mu).

The zeta and eta(2k) values are frozen literals pinned against scipy;
the Chebyshev coefficients live in the generated module _fermi_cheb,
and a test refits panels of it from mpmath bit for bit.

Fugacity inversion
------------------
rho lambda^3 = x = h_(3/2)(z), h = g or f, is solved for mu = ln z by one
Brent call on ln h_(3/2)(e^mu) = ln x, inside a bracket two bounds prove:
* h_(3/2)(z) <= zeta(3/2) z < e z for 0 < z <= 1, so the lower end is
  min(ln x, 0) - 1;
* g_(3/2)(z) <= zeta(3/2) for z <= 1, so the Bose upper end is 0, and
  f_(3/2)(e^mu) >= mu^(3/2) / Gamma(5/2) for mu > 0, so the Fermi upper
  end is (3 sqrt(pi) x / 4)^(2/3) + 1.
The Bose residual takes g_(3/2) from mu, not from z = e^mu, which
rounds to 1 for |mu| < 1.1e-16: just above T_c, ln z is about -1e-26.

g_(1/2) diverges at z = 1.  For z >= 1 - 1e-13 the function returns
``math.inf`` as the documented divergence signal; thermodynamic callers
map it to the condensed-phase convention lambda^3/g_(1/2) -> 0.
"""

import enum
import math
from collections import namedtuple

from ._fermi_cheb import COEFFICIENTS
from .brent import brentq
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


# zeta(5/2 - j), j = 0..28: the row of order nu starts at j = 5/2 - nu.
# The Robinson and eta expansions stop by k = 26 on their domains
# (alpha, |mu| <= ln 2); nu - k is never 1, so the pole is never hit.
_K_MAX = 26
_ZETA_5_2_MINUS_J = (
    1.3414872572509173, 2.612375348685488, -1.4603545088095866,
    -0.2078862249773546, -0.025485201889833053, 0.00851692877785033,
    0.004441011335479434, -0.0030916692472158364, -0.002671458019899229,
    0.0027467679395368704, 0.0032690395726002216, -0.004416032873004892,
    -0.00667217229646665, 0.011146122473942834, 0.020396978715942822,
    -0.040574967481194636, -0.08717525590621737, 0.20117404938422698,
    0.4962712199120593, -1.3032292507051177, -3.6297592997745847,
    10.68732706902202, 33.16832578569471, -108.21747505877623,
    -370.3018783754793, 1326.0458117490175, 4959.598315043067,
    -19338.9419883747, -78486.148569218,
)
_ZETA_TABLE = {
    order: list(_ZETA_5_2_MINUS_J[int(2.5 - order.value):][:_K_MAX + 1])
    for order in PolyOrder
}
# Dirichlet eta: eta(s) = (1 - 2^(1-s)) zeta(s)
_ETA_TABLE = {
    order: [(1.0 - 2.0 ** (1.0 - (order.value - k))) * _ZETA_TABLE[order][k]
            for k in range(_K_MAX + 1)]
    for order in PolyOrder
}
# Gamma(1 - nu) prefactors of the non-analytic Robinson term
_GAMMA_1_MINUS_NU = {order: math.gamma(1.0 - order.value) for order in PolyOrder}

ZETA_3_2 = _ZETA_TABLE[PolyOrder.THREE_HALVES][0]   # g_(3/2)(1) = 2.61237534...

_LN_HALF = math.log(0.5)  # the power series hands over above it
_SERIES_MAX_TERMS = 100_000
_SERIES_RTOL = 1e-15


def _power_series(nu, z, sign):
    """sum_k sign^(k-1) z^k / k^nu, truncated at relative 1e-15."""
    total = 0.0
    zk = 1.0  # z^k, maintained incrementally
    for k in range(1, _SERIES_MAX_TERMS + 1):
        zk *= z
        term = zk / k ** nu
        if sign < 0 and k % 2 == 0:
            term = -term
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            return total
    return total


def _robinson(order, alpha):
    """Bose function near z = 1: Gamma(1-nu) alpha^(nu-1) + zeta series."""
    nu = order.value
    row = _ZETA_TABLE[order]
    acc = _GAMMA_1_MINUS_NU[order] * alpha ** (nu - 1.0) if alpha > 0.0 else 0.0
    if alpha == 0.0:
        return row[0]
    fac = 1.0  # (-alpha)^k / k!
    for k in range(_K_MAX + 1):
        term = row[k] * fac
        acc += term
        fac *= -alpha / (k + 1)
        if k > 2 and abs(term) <= 1e-17 * max(abs(acc), 1e-300):
            break
    return acc


def _eta_expansion(order, mu):
    """Fermi function around z = 1: sum_k eta(nu-k) mu^k / k!, |mu| < pi."""
    row = _ETA_TABLE[order]
    acc = 0.0
    fac = 1.0  # mu^k / k!
    for k in range(_K_MAX + 1):
        term = row[k] * fac
        acc += term
        fac *= mu / (k + 1)
        if k > 2 and abs(term) <= 1e-17 * max(abs(acc), 1e-300):
            break
    return acc


def bose_g(nu, z):
    """Bose integral g_nu(z) for 0 <= z <= 1.

    Returns math.inf (the divergence signal) for nu = 1/2 when
    z >= 1 - 1e-13; raises DomainError outside [0, 1].
    """
    order = _as_order(nu)
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"bose_g requires 0 <= z <= 1, got z={z}")
    if z == 0.0:
        return 0.0
    if order is PolyOrder.ONE_HALF and z >= 1.0 - 1e-13:
        return math.inf
    if z <= 0.5:
        return _power_series(order.value, z, +1)
    return _robinson(order, -math.log(z))


def fermi_f_log(nu, ln_z):
    """Fermi integral as a function of mu = ln z; usable when z itself
    would overflow (degenerate regime, mu up to ~1e18)."""
    order = _as_order(nu)
    if ln_z == -math.inf:
        return 0.0
    if ln_z <= _LN_HALF:
        return _power_series(order.value, math.exp(ln_z), -1)
    if ln_z <= 0.0:
        return _eta_expansion(order, ln_z)
    try:
        if ln_z < _SOMMERFELD_MU:
            total = _fermi_chebyshev(order, ln_z)
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


# each panel's Chebyshev coefficients, highest degree first for Clenshaw
_CHEBYSHEV = {order: tuple(tuple(reversed(panel))
                           for panel in COEFFICIENTS[order.value])
              for order in PolyOrder}


def _fermi_chebyshev(order, mu):
    """f_nu(e^mu) for 0 < mu < 40: the Chebyshev series of the panel
    [2p, 2p + 2] holding mu, summed by Clenshaw's recurrence."""
    p = int(0.5 * mu)
    x = mu - (2 * p + 1)  # the panel mapped onto [-1, 1]
    coefs = _CHEBYSHEV[order][p]
    x2 = x + x
    b1 = b2 = 0.0
    for c in coefs:
        b1, b2 = c + x2 * b1 - b2, b1
    return b1 - x * b2


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
    above."""
    inv_mu2 = 1.0 / (mu * mu)
    power = mu ** order.value  # mu^(nu - 2k), maintained incrementally
    acc = 0.0
    for coef in _SOMMERFELD_COEF[order]:
        term = coef * power
        acc += term
        if abs(term) <= 1e-17 * abs(acc):
            break
        power *= inv_mu2
    return acc


def _ln_fugacity(species, x):
    """ln z with h_(3/2)(z) = x, by one Brent call on ln h_(3/2)(e^mu)
    = ln x, close to linear in mu, inside the bracket of the module
    docstring.  Below ln z = -40, h_(3/2)(z) = z to double precision, so
    ln h_(3/2) = mu there: that keeps ln z exact for subnormal x, whose
    z rounds to a coarse grid."""
    if not x >= 0.0:
        raise DomainError(f"phase-space density must be >= 0, got {x}")
    if x == 0.0:
        return -math.inf
    ln_x = math.log(x)
    if species is Species.BOSE:
        # g_(3/2) from mu, not from z = e^mu (see the module docstring);
        # a negligible xtol leaves Brent's relative tolerance in charge
        hi, xtol = 0.0, 1e-300
        def h32(mu):
            if mu <= _LN_HALF:
                return _power_series(1.5, math.exp(mu), +1)
            return _robinson(PolyOrder.THREE_HALVES, -mu)
    else:
        hi = (0.75 * math.sqrt(math.pi) * x) ** (2.0 / 3.0) + 1.0
        # finer than the float spacing 1.1e-16 just below z = 1
        xtol = 1e-16
        def h32(mu):
            return fermi_f_log(PolyOrder.THREE_HALVES, mu)

    def resid(mu):
        return mu - ln_x if mu < -40.0 else math.log(h32(mu)) - ln_x
    return brentq(resid, min(ln_x, 0.0) - 1.0, hi, xtol=xtol, maxiter=200)


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
