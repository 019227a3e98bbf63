"""Write the Chebyshev panels of bfmix.specfun from mpmath.

    python tools/fit_panels.py [OUT]     (default: src/bfmix/_panels.py)

bfmix.specfun evaluates the Bose and Fermi integrals
g_nu(z) = Li_nu(z) and f_nu(z) = -Li_nu(-z), nu = 1/2, 3/2, 5/2, and
inverts x = h_(3/2)(e^mu), h = g or f, for mu = ln z, with Chebyshev
series sum_j c_j T_j(u), -1 <= u <= 1, on panels of their arguments,
after T. Fukushima, Appl. Math. Comput. 259 (2015) 698 and 708.
FAMILIES lists the panels, one row a family, and HEADER, the module's
docstring, says what each fits.  Three of them need a word more:

* BOSE_ALPHA fits the regular part R_nu of g_nu(e^-alpha) =
  Gamma(1 - nu) alpha^(nu - 1) + R_nu(alpha), alpha = -ln z <= ln 2,
  from the zeta series of Robinson's expansion, analytic for
  |alpha| < 2 pi;
* FERMI_MU panels are 2 wide because the branch cuts of Li_nu(-e^mu)
  run along Im mu = +-pi;
* BOSE_ZETA fits w / s, w = sqrt(-mu), s = zeta(3/2) - x.  Near
  condensation w = s / (2 sqrt(pi)) + O(s^2), so w / s is analytic in s.
  bfmix forms s as (Z - x) + ZETA_3_2_LO, Z the double nearest
  zeta(3/2), exact to rounding even a few ulp below Z.

Every panel is fitted the same way:

* the interpolant of the family's degree at the Chebyshev points of the
  first kind is computed in 40-digit arithmetic; the inverse points are
  each solved by Newton's method on mpmath's polylog;
* trailing coefficients are dropped while the sum of their magnitudes
  stays within the family's tolerance times the panel's scale: the
  smallest value on the panel of the function bfmix returns for the
  forward families, max(1, |c_0|) for the inverse ones.  An inverse
  panel at 1e-10 is a guess that one Newton step finishes, since the
  step squares its error; BOSE_ZETA, at 1e-17, is used as it is;
* the rest are rounded to the nearest double.

The output is a pure data module; rerunning the script reproduces it
bit for bit.
"""

import contextlib
import functools
import os
import sys
from collections import namedtuple

import mpmath as mp

ORDERS = (0.5, 1.5, 2.5)
FERMI_X_MAX = 1.0
FERMI_T_MAX = 8
BOSE_X_SPLIT = 2.0
DIGITS = 40
ROBINSON_TERMS = 60   # (ln 2 / 2 pi)^60 is far below 10^-DIGITS

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "bfmix", "_panels.py")


def bose(nu, z):
    """g_nu(z), 0 <= z < 1."""
    return mp.polylog(nu, z)


def fermi(nu, z):
    """f_nu(z), z >= 0."""
    return mp.re(-mp.polylog(nu, -z))


def robinson(nu, alpha):
    """R_nu(alpha) = g_nu(e^-alpha) - Gamma(1 - nu) alpha^(nu - 1); zeta
    is looked up on the context, where zeta_memo finds it."""
    return mp.fsum(mp.mp.zeta(nu - k) * (-alpha) ** k / mp.factorial(k)
                   for k in range(ROBINSON_TERMS))


def newton(step_of, v):
    """A root by Newton's method, v -= step_of(v): in 20 digits until the
    step is below 1e-12, then in DIGITS until it is below 1e-17.  Each
    step squares the error, so the last leaves about 1e-34."""
    for dps, tol in ((20, 1e-12), (DIGITS, 1e-17)):
        with mp.workdps(dps):
            while True:
                step = step_of(v)
                v -= step
                if abs(step) <= tol * max(1, abs(v)):
                    break
    return v


def fermi_mu(x, mu):
    """mu with f_(3/2)(e^mu) = x, by Newton on ln f_(3/2)(e^mu) = ln x."""
    ln_x = mp.log(x)

    def step(mu):
        f32 = fermi(1.5, mp.exp(mu))
        return (mp.log(f32) - ln_x) * f32 / fermi(0.5, mp.exp(mu))
    return newton(step, mu)


def bose_mu(x, w):
    """mu with g_(3/2)(e^mu) = x, by Newton in w = sqrt(-mu), where the
    residual ln g_(3/2)(e^(-w^2)) - ln x is smooth down to w = 0."""
    ln_x = mp.log(x)

    def step(w):
        g32 = bose(1.5, mp.exp(-w * w))
        return -(mp.log(g32) - ln_x) * g32 / (
            2 * w * bose(0.5, mp.exp(-w * w)))
    w = newton(step, w)
    return -w * w


# A panel: its comment in the module, the function of u it fits, and
# its scale, a function of the coefficients.
Panel = namedtuple("Panel", "label fun scale")


def _inverse_scale(coefs):
    return max(1, abs(coefs[0]))


def _bose_z(nu):
    return Panel(f"nu = {nu}", lambda u: 4 * bose(nu, (1 + u) / 4) / (1 + u),
                 lambda coefs: 1)


def _bose_alpha(nu):
    return Panel(f"nu = {nu}", lambda u: robinson(nu, mp.ln2 * (1 + u) / 2),
                 lambda coefs: bose(nu, mp.mpf(0.5)))


def _fermi_z(nu):
    return Panel(f"nu = {nu}", lambda u: 2 * fermi(nu, (1 + u) / 2) / (1 + u),
                 lambda coefs: fermi(nu, 1))


def _fermi_mu(nu, p):
    return Panel(f"nu = {nu}, [{2 * p}, {2 * p + 2}]",
                 lambda u: fermi(nu, mp.exp(2 * p + 1 + u)),
                 lambda coefs: fermi(nu, mp.exp(2 * p)))


# Each inverse point's Newton start is a leading term: ln x + x / 2^(3/2)
# for the dilute Fermi gas, the Sommerfeld y - pi^2 / (12 y) for the
# degenerate one, and the larger of sqrt(-ln x) and the square-root law
# s / (2 sqrt(pi)) for w.
def _fermi_inverse_x(u):
    x = FERMI_X_MAX * (1 + u) / 2
    return fermi_mu(x, mp.log(x) + x / mp.sqrt(8)) - mp.log(x)


def _fermi_inverse_t(p):
    def fun(u):
        t = p + (1 + u) / 2
        y = (3 * mp.sqrt(mp.pi) * mp.exp(t) / 4) ** (mp.mpf(2) / 3)
        return fermi_mu(mp.exp(t), max(t, y - mp.pi ** 2 / (12 * y)))
    return Panel(f"{p} <= ln x <= {p + 1}", fun, _inverse_scale)


def _bose_inverse_x(u):
    x = BOSE_X_SPLIT * (1 + u) / 2
    w = max(mp.sqrt(max(-mp.log(x), 0)),
            (mp.zeta(1.5) - x) / (2 * mp.sqrt(mp.pi)))
    return bose_mu(x, w) - mp.log(x)


def _bose_zeta(u):
    zeta = mp.zeta(1.5)
    s = (mp.mpf(float(zeta)) - BOSE_X_SPLIT) * (1 + u) / 2
    return mp.sqrt(-bose_mu(zeta - s, s / (2 * mp.sqrt(mp.pi)))) / s


# name -> (fit degree, tail tolerance, panels in the module's order)
FAMILIES = {
    "BOSE_Z": (24, 1e-16, [_bose_z(nu) for nu in ORDERS]),
    "BOSE_ALPHA": (16, 1e-16, [_bose_alpha(nu) for nu in ORDERS]),
    "FERMI_Z": (24, 1e-16, [_fermi_z(nu) for nu in ORDERS]),
    "FERMI_MU": (24, 1e-16, [_fermi_mu(nu, p) for nu in ORDERS
                             for p in range(20)]),
    "FERMI_INVERSE": (16, 1e-10, [
        Panel("0 <= x <= 1", _fermi_inverse_x, _inverse_scale),
        *(_fermi_inverse_t(p) for p in range(FERMI_T_MAX))]),
    "BOSE_INVERSE": (16, 1e-10, [Panel("0 <= x <= 2", _bose_inverse_x,
                                       _inverse_scale)]),
    "BOSE_ZETA": (16, 1e-17, [Panel("2 <= x < zeta(3/2)", _bose_zeta,
                                    _inverse_scale)]),
}


@contextlib.contextmanager
def zeta_memo():
    """mpmath's polylog, near |z| = 1, and robinson sum zeta(nu - k) over
    k at every call; within this block each zeta value is computed once
    a precision, which makes a fit about ten times faster."""
    zeta = mp.mp.zeta
    memo = functools.lru_cache(maxsize=None)(lambda prec, *a: zeta(*a))
    mp.mp.zeta = lambda *args: memo(mp.mp.prec, *args)
    try:
        yield
    finally:
        del mp.mp.zeta


def panel_coefficients(panel, degree, tol):
    """Chebyshev coefficients c_0, c_1, ... of a panel, as doubles,
    trimmed as the module docstring says."""
    with mp.workdps(DIGITS), zeta_memo():
        n = degree + 1
        angles = [mp.pi * (k + mp.mpf(0.5)) / n for k in range(n)]
        values = [panel.fun(mp.cos(a)) for a in angles]
        coefs = [2 * mp.fsum(v * mp.cos(j * a)
                             for v, a in zip(values, angles)) / n
                 for j in range(n)]
        coefs[0] /= 2
        budget = tol * panel.scale(coefs)
        tail = mp.mpf(0)
        while tail + abs(coefs[-1]) <= budget:
            tail += abs(coefs.pop())
        return tuple(float(c) for c in coefs)


def zeta_3_2_lo():
    """zeta(3/2) less the double nearest it, as a double."""
    with mp.workdps(DIGITS):
        zeta = mp.zeta(1.5)
        return float(zeta - mp.mpf(float(zeta)))


HEADER = '''"""Chebyshev panels of bfmix.specfun, written by
tools/fit_panels.py; do not edit.

Each panel holds c_0, c_1, ... of a series sum_j c_j T_j(u), and
i = 0, 1, 2 stands for nu = 1/2, 3/2, 5/2:

BOSE_Z[i]             g_nu(z) / z,    u = 4z - 1,        0 <= z <= 1/2
BOSE_ALPHA[i]         R_nu(alpha),    u = 2 alpha / ln 2 - 1,
                      g_nu(e^-alpha) = Gamma(1 - nu) alpha^(nu - 1)
                      + R_nu(alpha),  0 <= alpha <= ln 2
FERMI_Z[i]            f_nu(z) / z,    u = 2z - 1,        0 <= z <= 1
FERMI_MU[20 i + p]    f_nu(e^mu),     u = mu - 2p - 1,   2p <= mu <= 2p + 2
FERMI_INVERSE[0]      mu - ln x,      u = 2x - 1,        0 <= x <= 1
FERMI_INVERSE[p + 1]  mu,             u = 2(t - p) - 1,  p <= t = ln x <= p + 1
BOSE_INVERSE[0]       mu - ln x,      u = x - 1,         0 <= x <= 2
BOSE_ZETA[0]          sqrt(-mu) / s,  u = 2s / S - 1,    s = zeta(3/2) - x,
                                                         S = zeta(3/2) - 2

with x = h_(3/2)(e^mu), h = g or f.  ZETA_3_2_LO is zeta(3/2) less the
double nearest it.
"""
'''


def render(data):
    """The text of the module holding data, which maps each family's
    name to its panels' coefficients."""
    lines = [
        HEADER,
        f"FERMI_X_MAX = {FERMI_X_MAX!r}",
        f"FERMI_T_MAX = {FERMI_T_MAX!r}",
        f"BOSE_X_SPLIT = {BOSE_X_SPLIT!r}",
        f"ZETA_3_2_LO = {zeta_3_2_lo()!r}",
    ]
    for name, (_, _, panels) in FAMILIES.items():
        lines += ["", f"{name} = ("]
        for panel, coefs in zip(panels, data[name], strict=True):
            coefs = [repr(c) for c in coefs]
            lines += [f"    # {panel.label}", "    ("] + [
                "        " + ", ".join(coefs[i:i + 2]) + ","
                for i in range(0, len(coefs), 2)] + ["    ),"]
        lines.append(")")
    return "\n".join(lines) + "\n"


def main(argv):
    out = argv[0] if argv else OUT
    text = render({name: [panel_coefficients(panel, degree, tol)
                          for panel in panels]
                   for name, (degree, tol, panels) in FAMILIES.items()})
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {os.path.normpath(out)}")


if __name__ == "__main__":
    main(sys.argv[1:])
