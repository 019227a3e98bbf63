"""Independent references the benchmark checks bfmix's outputs against.

None of this shares bfmix's code path.  The finite-temperature
determinant Z is rebuilt from the stated formulas with mpmath
polylogarithms and mpmath root finding at 20 digits, where bfmix uses
its own series, scipy quadrature and brentq in double precision.
Thomas-Fermi profiles are checked against the invariants their contract
states; preset CSVs (zero-T and scan results among them) against the
frozen outputs in ``ref/``.
"""

import csv
import gzip
import io
import math
import os
import re

import mpmath as mp
import numpy as np
from scipy import constants as sc

mp.mp.dps = 20

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")

# Preset floats are compared at this relative tolerance, with an absolute
# floor of FLOOR times the column's largest magnitude for values near a
# zero crossing.  1e-6 is looser than every solver tolerance behind the
# presets (brentq rtol ~1e-15, quad epsrel 1e-13, window bisection 1e-8).
PRESET_RTOL = 1e-6
PRESET_FLOOR = 1e-9

_HBAR = mp.mpf(sc.hbar)
_H = mp.mpf(sc.h)
_KB = mp.mpf(sc.k)
_U = mp.mpf(sc.atomic_mass)
_ZETA_32 = mp.zeta(1.5)


class Mixture:
    """A generated parameter dict (oscillator units) converted to SI."""

    def __init__(self, params):
        self.mode = params["mode"]
        self.m_b = mp.mpf(params["m_b"]) * _U
        self.m_f = mp.mpf(params["m_f"]) * _U
        self.omega_b = self.omega_f = mp.mpf(params.get("omega", 166.0))
        self.N_b = mp.mpf(params["N_b"])
        self.N_f = mp.mpf(params["N_f"])
        self.a = mp.sqrt(_HBAR / (self.omega_b * self.m_b))
        g_unit = _HBAR * self.omega_f * self.a ** 3
        self.g = {k: mp.mpf(params[k]) * g_unit
                  for k in ("g_bb", "g_bf", "g_ff")}
        self.g_osc = {k: mp.mpf(params[k]) for k in ("g_bb", "g_bf", "g_ff")}
        self.V = mp.mpf(params["V"]) * self.a ** 3
        self.T_unit = _HBAR * self.omega_f / _KB
        # the last solved fugacities seed the next solve when its
        # phase-space density is within 1% (edge checks evaluate pairs)
        self._last_b = self._last_f = (None, None)
        if self.mode == "paper":
            # the dimensionless coupling read as a length in units of a
            self.ell = tuple(self.g_osc[k] * self.a
                             for k in ("g_bb", "g_bf", "g_ff"))
        else:
            m_red = self.m_b * self.m_f / (self.m_b + self.m_f)
            self.ell = (self.m_b * self.g["g_bb"] / (4 * mp.pi * _HBAR ** 2),
                        m_red * self.g["g_bf"] / (2 * mp.pi * _HBAR ** 2),
                        self.m_f * self.g["g_ff"] / (4 * mp.pi * _HBAR ** 2))

    def kelvin(self, T_osc):
        return mp.mpf(T_osc) * self.T_unit

    def _solve(self, slot, solver, x):
        last_x, last_root = getattr(self, slot)
        near = last_x is not None and abs(x / last_x - 1) < 0.01
        root = solver(x, last_root if near else None)
        setattr(self, slot, (x, root))
        return root

    def z(self, T):
        """The stability determinant Z at temperature T [K]."""
        T = mp.mpf(T)
        lb = _H / mp.sqrt(2 * mp.pi * self.m_b * _KB * T)
        lf = _H / mp.sqrt(2 * mp.pi * self.m_f * _KB * T)
        x_b = self.N_b / self.V * lb ** 3
        x_f = self.N_f / self.V * lf ** 3
        condensed = x_b >= _ZETA_32
        ln_zb = mp.mpf(0)
        if not condensed:
            ln_zb = -self._solve("_last_b", bose_alpha, x_b)
        mu_f = self._solve("_last_f", fermi_ln_fugacity, x_f)
        ideal_b = mp.mpf(0) if condensed else lb ** 3 / mp.polylog(
            0.5, mp.exp(ln_zb))
        ell_bb, ell_bf, ell_ff = self.ell
        bb = 4 * ell_bb * lb ** 2 + ideal_b
        ff = ell_ff * lf ** 2 + lf ** 3 / fermi(0.5, mu_f)
        cross2 = ell_bf ** 2 * (lb ** 2 + lf ** 2) ** 2
        return bb * ff - cross2


def fermi(nu, mu):
    """f_nu(e^mu): the alternating polylog series for mu < -1, else
    (2/Gamma(nu)) int_0^inf s^(2nu-1) / (e^(s^2 - mu) + 1) ds by mpmath's
    tanh-sinh rule, split at the Fermi edge s = sqrt(mu)."""
    if mu < -1:
        return -mp.polylog(nu, -mp.exp(mu))
    p = 2 * nu - 1
    points = [0, mp.sqrt(mu), mp.inf] if mu > 0 else [0, mp.inf]
    return 2 / mp.gamma(nu) * mp.quad(
        lambda s: s ** p / (mp.exp(s * s - mu) + 1), points)


def _secant(f, x0, step):
    """Root of f by secant steps from x0; None if it does not settle."""
    try:
        root = mp.findroot(f, (x0, x0 + step), solver="secant",
                           tol=mp.mpf(10) ** (-2 * mp.mp.dps // 3))
    except (ValueError, ZeroDivisionError):
        return None
    return root


def fermi_ln_fugacity(x, guess=None):
    """mu with f_(3/2)(e^mu) = x.  Starts from the dilute or degenerate
    estimate (or a nearby solution) and falls back to a bracket:
    f_(3/2)(e^mu) <= e^mu bounds mu from below, the degenerate estimate
    (3 sqrt(pi) x / 4)^(2/3) + 1 from above."""
    def resid(m):
        return fermi(1.5, m) - x

    if guess is None:
        sommerfeld = (3 * mp.sqrt(mp.pi) * x / 4) ** (mp.mpf(2) / 3)
        guess = mp.log(x + x * x / 2 ** 1.5) if x < 1 else sommerfeld
    mu = _secant(resid, guess, mp.mpf("1e-3"))
    if mu is not None and abs(resid(mu)) <= mp.mpf(10) ** -15 * x:
        return mu
    lo = mp.log(x)
    hi = max(lo, (3 * mp.sqrt(mp.pi) * x / 4) ** (mp.mpf(2) / 3)) + 1
    return mp.findroot(resid, (lo, hi), solver="anderson")


def bose_alpha(x, guess=None):
    """alpha = -ln z with g_(3/2)(z) = x < zeta(3/2);
    x / zeta(3/2) <= z <= x brackets it when the secant fails."""
    def resid(alpha):
        return mp.polylog(1.5, mp.exp(-alpha)) - x

    if guess is None:
        # g_(3/2)(e^-alpha) ~ zeta(3/2) - 2 sqrt(pi alpha) near z = 1
        guess = (-mp.log(x) if x < 1
                 else ((_ZETA_32 - x) / (2 * mp.sqrt(mp.pi))) ** 2)
    alpha = _secant(resid, guess, guess * mp.mpf("1e-3"))
    if (alpha is None or alpha <= 0
            or abs(resid(alpha)) > mp.mpf(10) ** -15 * x):
        lo, hi = -mp.log(min(x, mp.mpf(1))), -mp.log(x / _ZETA_32)
        alpha = mp.findroot(resid, (lo, hi), solver="anderson")
    return alpha


def _sign(value):
    return (value > 0) - (value < 0)


def check_window(mix, t_range_K, window, rtol):
    """Problems (empty list if none) with one critical_window result.

    window is a dict with T_c1, T_c2 (K or None), exists,
    n_sign_changes, multi_root, unstable_at_low_edge.  Every reported
    edge must be bracketed by a sign change of the reference Z within
    2 rtol; the low-edge sign must match unstable_at_low_edge, and a
    two-root window must have the opposite sign between its edges.
    """
    problems = []
    n = window["n_sign_changes"]
    t1, t2 = window["T_c1"], window["T_c2"]
    if window["exists"] != (n >= 2) or window["multi_root"] != (n > 2):
        problems.append(f"flags disagree with n_sign_changes={n}")
    edges = [t for t in (t1, t2) if t is not None]
    if len(edges) != min(n, 2):
        problems.append(f"{len(edges)} edges reported for {n} crossings")
    z_lo = mix.z(t_range_K[0])
    if (z_lo < 0) != window["unstable_at_low_edge"]:
        problems.append(f"reference Z(T_lo)={mp.nstr(z_lo, 5)} disagrees "
                        f"with unstable_at_low_edge")
    for T in edges:
        below = mix.z(T * (1 - 2 * rtol))
        above = mix.z(T * (1 + 2 * rtol))
        if _sign(below) * _sign(above) > 0:
            problems.append(f"reference Z keeps its sign across the "
                            f"reported edge {float(T)!r} K")
    if n == 1 and window["unstable_at_low_edge"] != (t1 is None):
        problems.append("single crossing put in the wrong slot")
    if n == 2:
        mid = mix.z(mp.sqrt(mp.mpf(t1) * t2))
        if _sign(mid) * _sign(z_lo) >= 0:
            problems.append("Z between the edges has the sign of Z(T_lo)")
    return problems


def check_tf(params, r, n_b, n_f, mu_b, regime):
    """Problems with Thomas-Fermi profiles on the radial grid r [m]:
    the grid starts at 0 and increases, densities are non-negative and
    integrate to N_b and N_f (trapezoid, 1e-3), the fermion tail has
    decayed, n_b(0) = mu_b / g_bb, and the regime follows the sign of
    g_bf/g_bb - m_f omega_f^2 / (m_b omega_b^2)."""
    r, n_b, n_f = (np.asarray(a, dtype=float) for a in (r, n_b, n_f))
    if not (len(r) == len(n_b) == len(n_f) >= 2 and r[0] == 0.0
            and np.all(np.diff(r) > 0)):
        return ["radial grid is not increasing from 0"]
    problems = []
    if not (np.all(n_b >= 0) and np.all(n_f >= 0)
            and np.all(np.isfinite(n_b)) and np.all(np.isfinite(n_f))):
        problems.append("negative or non-finite density")
    shell = 4.0 * np.pi * r ** 2
    for label, dens in (("N_b", n_b), ("N_f", n_f)):
        total = float(np.sum(0.5 * (shell[1:] * dens[1:]
                                    + shell[:-1] * dens[:-1]) * np.diff(r)))
        if not abs(total - params[label]) <= 1e-3 * params[label]:
            problems.append(f"profile integrates to {total}, "
                            f"{label}={params[label]}")
    if not n_f[-1] <= 1e-12 * n_f.max():
        problems.append("fermion density has not decayed at the grid edge")
    g_bb = float(Mixture(params).g["g_bb"])
    if not abs(n_b[0] - mu_b / g_bb) <= 1e-9 * n_b[0]:
        problems.append("n_b(0) != mu_b / g_bb")
    coupling_ratio = params["g_bf"] / params["g_bb"]
    trap_ratio = params["m_f"] / params["m_b"]  # equal trap frequencies
    if abs(coupling_ratio - trap_ratio) <= 1e-12 * max(abs(coupling_ratio),
                                                       trap_ratio):
        expected = "flat"
    else:
        expected = "shell" if coupling_ratio > trap_ratio else "core"
    if regime != expected:
        problems.append(f"regime {regime}, sign rule {expected}")
    return problems


# ---------------------------------------------------------------------------
# frozen preset CSVs
# ---------------------------------------------------------------------------

def split_csv(text):
    """(provenance lines, header, rows) of a bfmix CSV."""
    lines = text.split("\n")
    provenance = [ln for ln in lines if ln.startswith("#")]
    body = "\n".join(ln for ln in lines if not ln.startswith("#"))
    table = list(csv.reader(io.StringIO(body)))
    if not table:
        raise ValueError("no table in the output")
    return provenance, table[0], table[1:]


def load_preset_reference(tag):
    with gzip.open(os.path.join(REF_DIR, f"{tag}.csv.gz"), "rt",
                   encoding="utf-8", newline="") as fh:
        return split_csv(fh.read())


# a decimal number, as the provenance lines print SI values
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _same_provenance(lines, ref_lines):
    """Provenance lines agree: the text around the numbers exactly, each
    number to PRESET_RTOL, the rule the data cells follow, since the
    config echo prints masses and couplings to 17 digits."""
    if len(lines) != len(ref_lines):
        return False
    for line, ref in zip(lines, ref_lines):
        if _NUMBER.split(line) != _NUMBER.split(ref):
            return False
        for cell, ref_cell in zip(_NUMBER.findall(line),
                                  _NUMBER.findall(ref)):
            v, ref_v = float(cell), float(ref_cell)
            if not abs(v - ref_v) <= PRESET_RTOL * abs(ref_v):
                return False
    return True


def _as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_preset(reference, text):
    """Problems with a preset CSV against its frozen reference.

    Header, labels, status and the text of the provenance must match
    exactly; numbers in the provenance to PRESET_RTOL, numeric cells to
    PRESET_RTOL with the column-scaled floor.
    """
    ref_prov, ref_header, ref_rows = reference
    prov, header, rows = split_csv(text)
    if not _same_provenance(prov, ref_prov):
        return ["provenance differs"]
    if header != ref_header:
        return [f"header {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    scale = [0.0] * len(header)
    for row in ref_rows:
        for j, cell in enumerate(row):
            v = _as_float(cell)
            if v is not None and math.isfinite(v):
                scale[j] = max(scale[j], abs(v))
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref):
            problems.append(f"row {i}: {len(row)} cells")
            continue
        for j, (cell, ref_cell) in enumerate(zip(row, ref)):
            ref_v = _as_float(ref_cell)
            v = _as_float(cell)
            if ref_v is None or v is None:
                ok = cell == ref_cell
            elif math.isnan(ref_v):
                ok = math.isnan(v)
            else:
                ok = abs(v - ref_v) <= (PRESET_RTOL * abs(ref_v)
                                        + PRESET_FLOOR * scale[j])
            if not ok:
                problems.append(f"row {i} {header[j]}: {cell} vs {ref_cell}")
                if len(problems) >= 5:
                    return problems
    return problems
