"""Write the Chebyshev tables of bfmix's Fermi kernel from mpmath.

    python tools/fit_fermi.py [OUT]      (default: src/bfmix/_fermi_cheb.py)

For 0 < mu < 40, bfmix.specfun evaluates f_nu(e^mu) = -Re Li_nu(-e^mu),
nu = 1/2, 3/2, 5/2, as a Chebyshev series on the panel [2p, 2p + 2] that
holds mu.  The piecewise approach follows T. Fukushima, Appl. Math.
Comput. 259 (2015) 708; the coefficients are fitted here:

* on each panel, the degree-24 interpolant at the Chebyshev points of the
  first kind is computed in 40-digit arithmetic from mpmath's polylog;
* trailing coefficients are dropped while the sum of their magnitudes
  stays within 1e-16 of f at the panel's left end, the smallest value
  of f on the panel, since f increases with mu;
* the rest are rounded to the nearest double.

The output is a pure data module; rerunning the script reproduces it
bit for bit.  The panels are 2 wide because the branch cuts of
Li_nu(-e^mu) run along Im mu = +-pi: at that distance a degree-16 series
still reaches double precision next to mu = 0, while far panels, where
f is close to its Sommerfeld polynomial, need as few as 7 terms.
"""

import os
import sys

import mpmath as mp

ORDERS = (0.5, 1.5, 2.5)
PANELS = 20          # [0, 2], [2, 4], ..., [38, 40]
FIT_DEGREE = 24
TAIL_RTOL = 1e-16
DIGITS = 40

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "bfmix", "_fermi_cheb.py")


def fermi(nu, mu):
    """f_nu(e^mu) at mpmath's working precision."""
    return mp.re(-mp.polylog(nu, -mp.exp(mu)))


def panel_coefficients(nu, p):
    """Chebyshev coefficients c_0, c_1, ... of f_nu(e^(2p + 1 + x)),
    -1 <= x <= 1, as doubles, trimmed as the module docstring says."""
    with mp.workdps(DIGITS):
        n = FIT_DEGREE + 1
        angles = [mp.pi * (k + mp.mpf(0.5)) / n for k in range(n)]
        values = [fermi(nu, 2 * p + 1 + mp.cos(a)) for a in angles]
        coefs = [2 * mp.fsum(v * mp.cos(j * a)
                             for v, a in zip(values, angles)) / n
                 for j in range(n)]
        coefs[0] /= 2
        budget = TAIL_RTOL * fermi(nu, 2 * p)
        tail = mp.mpf(0)
        while tail + abs(coefs[-1]) <= budget:
            tail += abs(coefs.pop())
        return tuple(float(c) for c in coefs)


def render():
    """The text of the coefficient module."""
    lines = [
        '"""Chebyshev coefficients of the Fermi integrals f_nu(e^mu) for',
        "0 < mu < 40, written by tools/fit_fermi.py; do not edit.",
        "",
        "COEFFICIENTS[nu][p] holds c_0, c_1, ... of the series",
        "sum_j c_j T_j(mu - 2p - 1) on the panel 2p <= mu <= 2p + 2.",
        '"""',
        "",
        "COEFFICIENTS = {",
    ]
    for nu in ORDERS:
        lines.append(f"    {nu!r}: (")
        for p in range(PANELS):
            lines.append(f"        # [{2 * p}, {2 * p + 2}]")
            lines.append("        (")
            coefs = [repr(c) for c in panel_coefficients(nu, p)]
            for i in range(0, len(coefs), 2):
                lines.append("            " + ", ".join(coefs[i:i + 2]) + ",")
            lines.append("        ),")
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv):
    out = argv[0] if argv else OUT
    text = render()
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {os.path.normpath(out)}")


if __name__ == "__main__":
    main(sys.argv[1:])
