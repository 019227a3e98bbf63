"""Write the Chebyshev tables of bfmix's fugacity inversion from mpmath.

    python tools/fit_fugacity.py [OUT]   (default: src/bfmix/_fugacity_cheb.py)

bfmix.specfun solves x = h_(3/2)(e^mu), h = g (Bose) or f (Fermi), for
mu = ln z.  Each panel here is a Chebyshev series of a smooth function of
x on an interval mapped onto -1 <= u <= 1:

* Fermi, 0 <= x <= 1: mu - ln x, a series in u = 2x - 1 (mu - ln x is
  analytic in x, and about x / 2^(3/2) for small x);
* Fermi, p <= t = ln x <= p + 1, p = 0 .. FERMI_T_MAX - 1: mu itself, a
  series in u = 2(t - p) - 1;
* Bose, 0 <= x <= BOSE_X_SPLIT: mu - ln x, a series in u = x - 1;
* Bose, BOSE_X_SPLIT <= x < zeta(3/2): w / s, w = sqrt(-mu), in
  s = zeta(3/2) - x, a series in u = 2s / S - 1, S = Z - BOSE_X_SPLIT with
  Z the double nearest zeta(3/2).  Near condensation
  w = s / (2 sqrt(pi)) + O(s^2), so the square-root law is analytic in s
  and w / s keeps its relative accuracy as s -> 0.  bfmix forms s as
  (Z - x) + ZETA_3_2_LO, ZETA_3_2_LO = zeta(3/2) - Z, which is exact to
  rounding even where s is a few ulp of Z.

The coefficients are fitted as in tools/fit_fermi.py:

* on each panel, the degree-16 interpolant at the Chebyshev points of the
  first kind is computed in 40-digit arithmetic, each point inverted by
  Newton's method on mpmath's polylog;
* trailing coefficients are dropped while the sum of their magnitudes
  stays within TAIL_TOL = 1e-10 of max(1, |c_0|): a guess that one Newton
  step finishes, since the step squares its error.  The Bose panel next
  to zeta(3/2) keeps EXACT_TOL = 1e-17 instead and needs no step;
* the rest are rounded to the nearest double.

The output is a pure data module; rerunning the script reproduces it
bit for bit.
"""

import os
import sys

import mpmath as mp

FERMI_X_MAX = 1.0
FERMI_T_MAX = 8
BOSE_X_SPLIT = 2.0
FIT_DEGREE = 16
TAIL_TOL = 1e-10     # a guess for one Newton step
EXACT_TOL = 1e-17    # the Bose panel next to zeta(3/2), used as it is
DIGITS = 40

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "bfmix", "_fugacity_cheb.py")


def fermi(nu, mu):
    """f_nu(e^mu)."""
    return mp.re(-mp.polylog(nu, -mp.exp(mu)))


def bose(nu, mu):
    """g_nu(e^mu), mu < 0."""
    return mp.polylog(nu, mp.exp(mu))


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
        f32 = fermi(1.5, mu)
        return (mp.log(f32) - ln_x) * f32 / fermi(0.5, mu)
    return newton(step, mu)


def bose_mu(x, w):
    """mu with g_(3/2)(e^mu) = x, by Newton in w = sqrt(-mu), where the
    residual ln g_(3/2)(e^(-w^2)) - ln x is smooth down to w = 0."""
    ln_x = mp.log(x)

    def step(w):
        g32 = bose(1.5, -w * w)
        return -(mp.log(g32) - ln_x) * g32 / (2 * w * bose(0.5, -w * w))
    w = newton(step, w)
    return -w * w


def panel(species, i):
    """(function of u, -1 <= u <= 1) of panel i of a species, in the
    order the module lists them.  Each point's Newton start is a leading
    term: ln x + x / 2^(3/2) for the dilute Fermi gas, the Sommerfeld
    y - pi^2 / (12 y) for the degenerate one, and the larger of
    sqrt(-ln x) and the square-root law s / (2 sqrt(pi)) for w."""
    if species == "fermi":
        if i == 0:
            def fun(u):
                x = FERMI_X_MAX * (1 + u) / 2
                return fermi_mu(x, mp.log(x) + x / mp.sqrt(8)) - mp.log(x)
            return fun
        p = i - 1

        def fun(u):
            t = p + (1 + u) / 2
            y = (3 * mp.sqrt(mp.pi) * mp.exp(t) / 4) ** (mp.mpf(2) / 3)
            return fermi_mu(mp.exp(t), max(t, y - mp.pi ** 2 / (12 * y)))
        return fun
    zeta = mp.zeta(1.5)
    if i == 0:
        def fun(u):
            x = BOSE_X_SPLIT * (1 + u) / 2
            w = max(mp.sqrt(max(-mp.log(x), 0)),
                    (zeta - x) / (2 * mp.sqrt(mp.pi)))
            return bose_mu(x, w) - mp.log(x)
        return fun
    s_max = mp.mpf(float(zeta)) - BOSE_X_SPLIT

    def fun(u):
        s = s_max * (1 + u) / 2
        mu = bose_mu(zeta - s, s / (2 * mp.sqrt(mp.pi)))
        return mp.sqrt(-mu) / s
    return fun


PANELS = {"fermi": 1 + FERMI_T_MAX, "bose": 2}


def zeta_3_2_lo():
    """zeta(3/2) less the double nearest it, as a double."""
    with mp.workdps(DIGITS):
        zeta = mp.zeta(1.5)
        return float(zeta - mp.mpf(float(zeta)))


def panel_coefficients(species, i):
    """Chebyshev coefficients c_0, c_1, ... of panel i, as doubles,
    trimmed as the module docstring says."""
    with mp.workdps(DIGITS):
        fun = panel(species, i)
        n = FIT_DEGREE + 1
        angles = [mp.pi * (k + mp.mpf(0.5)) / n for k in range(n)]
        values = [fun(mp.cos(a)) for a in angles]
        coefs = [2 * mp.fsum(v * mp.cos(j * a)
                             for v, a in zip(values, angles)) / n
                 for j in range(n)]
        coefs[0] /= 2
        tol = EXACT_TOL if (species, i) == ("bose", 1) else TAIL_TOL
        budget = tol * max(1, abs(coefs[0]))
        tail = mp.mpf(0)
        while tail + abs(coefs[-1]) <= budget:
            tail += abs(coefs.pop())
        return tuple(float(c) for c in coefs)


def _label(species, i):
    if species == "fermi":
        return "0 <= x <= 1" if i == 0 else f"{i - 1} <= ln x <= {i}"
    return "0 <= x <= 2" if i == 0 else "2 <= x < zeta(3/2)"


def render():
    """The text of the coefficient module."""
    lines = [
        '"""Chebyshev panels of the inverse of x = h_(3/2)(e^mu), written by',
        "tools/fit_fugacity.py; do not edit.",
        "",
        "Each panel holds c_0, c_1, ... of a series sum_j c_j T_j(u):",
        "",
        "FERMI[0]      mu - ln x,      u = 2x - 1,        0 <= x <= 1",
        "FERMI[p + 1]  mu,             u = 2(t - p) - 1,  p <= t = ln x <= p + 1",
        "BOSE[0]       mu - ln x,      u = x - 1,         0 <= x <= 2",
        "BOSE[1]       sqrt(-mu) / s,  u = 2s / S - 1,    s = zeta(3/2) - x,",
        "                                                 S = zeta(3/2) - 2",
        "",
        "ZETA_3_2_LO is zeta(3/2) less the double nearest it.",
        '"""',
        "",
        f"FERMI_X_MAX = {FERMI_X_MAX!r}",
        f"FERMI_T_MAX = {FERMI_T_MAX!r}",
        f"BOSE_X_SPLIT = {BOSE_X_SPLIT!r}",
        f"ZETA_3_2_LO = {zeta_3_2_lo()!r}",
    ]
    for species, count in PANELS.items():
        lines += ["", f"{species.upper()} = ("]
        for i in range(count):
            lines.append(f"    # {_label(species, i)}")
            lines.append("    (")
            coefs = [repr(c) for c in panel_coefficients(species, i)]
            for j in range(0, len(coefs), 2):
                lines.append("        " + ", ".join(coefs[j:j + 2]) + ",")
            lines.append("    ),")
        lines.append(")")
    return "\n".join(lines) + "\n"


def main(argv):
    out = argv[0] if argv else OUT
    text = render()
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {os.path.normpath(out)}")


if __name__ == "__main__":
    main(sys.argv[1:])
