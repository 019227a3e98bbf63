"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the code paths of the package under
test: quadrature is a self-contained adaptive Gauss-Kronrod rule (not
scipy.integrate), roots are located by plain bisection, and the
special-function checks go through integral representations or
averaged alternating series rather than power series.

These oracles are slow and simple on purpose.
"""

import math

import numpy as np
from scipy import constants as scipy_constants
from scipy.optimize import minimize_scalar
from scipy.special import expit, zeta

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])


def _gk15(f, a, b):
    """One Gauss-Kronrod panel: returns (K15 value, |K15 - G7|)."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    nodes = np.concatenate((c - hw * _XK[:-1], [c], c + hw * _XK[-2::-1]))
    fv = np.array([f(x) for x in nodes])
    # symmetric layout: fv[7] is the center
    wk = np.concatenate((_WK[:-1], [_WK[-1]], _WK[-2::-1]))
    k15 = hw * float(np.dot(wk, fv))
    # Gauss points are every other Kronrod point (indices 1,3,5,7,...)
    wg = np.concatenate((_WG[:-1], [_WG[-1]], _WG[-2::-1]))
    g7 = hw * float(np.dot(wg, fv[1::2]))
    return k15, abs(k15 - g7)


def kronrod_quad(f, a, b, abs_tol=1e-13, rel_tol=1e-13, max_panels=4096):
    """Globally adaptive quadrature built on the G7-K15 pair.

    Keeps a worklist of panels sorted by the raw |K15 - G7| estimate and
    always refines the worst one, until the summed estimate drops below
    max(abs_tol, rel_tol * |integral|).  The raw difference is very
    conservative for smooth integrands, so convergence is declared late
    rather than early.
    """
    import heapq

    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val)]
    total_val, total_err = val, err
    while total_err > max(abs_tol, rel_tol * abs(total_val)):
        if len(heap) >= max_panels:
            raise RuntimeError("kronrod_quad: panel limit reached")
        neg_err, pa, pb, pval = heapq.heappop(heap)
        total_val -= pval
        total_err += neg_err  # neg_err = -panel error
        pc = 0.5 * (pa + pb)
        for qa, qb in ((pa, pc), (pc, pb)):
            v, e = _gk15(f, qa, qb)
            heapq.heappush(heap, (-e, qa, qb, v))
            total_val += v
            total_err += e
    return total_val


def bisect_root(f, lo, hi, rtol=1e-13, max_iter=250):
    """Plain bisection; the bracket must straddle a sign change."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisect_root: no sign change in bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) <= rtol * max(abs(mid), 1e-300):
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def log_scan_sign_changes(f, lo, hi, n=4001):
    """The cells (a, b) of an n-node log grid over [lo, hi] whose ends
    differ in the sign of f, a zero counting as a sign of its own; f maps
    the array of nodes to an array of values."""
    x = np.geomspace(lo, hi, n)
    s = np.sign(f(x))
    return [(float(x[i]), float(x[i + 1]))
            for i in np.flatnonzero(s[:-1] != s[1:])]


def least_energy_root(slope, energy, lo, hi, n=4001):
    """Among the roots of slope on [lo, hi], the one of least energy.

    Every sign change of an n-node log scan is bisected until its
    bracket is an ulp or two wide; slope and energy take one float."""
    cells = log_scan_sign_changes(np.vectorize(slope), lo, hi, n)
    return min((bisect_root(slope, a, b, rtol=2.0 ** -52) for a, b in cells),
               key=energy)


# ---------------------------------------------------------------------------
# quantum-statistical functions by integral representation
# ---------------------------------------------------------------------------

def bose_g_quadrature(nu, z, abs_tol=1e-13):
    """g_nu(z) = (1/Gamma(nu)) int_0^inf x^{nu-1}/(z^{-1} e^x - 1) dx.

    The substitution x = t^2 removes the endpoint singularity of the
    nu = 1/2 integrand.  Valid for 0 < z < 1 (and z = 1 when nu > 1).
    """
    if z == 0.0:
        return 0.0
    inv_z = 1.0 / z

    def integrand(t):
        t2 = t * t
        if t2 > 700.0:
            return 0.0
        return t ** (2.0 * nu - 1.0) / (inv_z * math.exp(t2) - 1.0)

    pref = 2.0 / math.gamma(nu)
    # integrand decays like z e^{-t^2}; t = 9 leaves a tail below 1e-30
    return pref * kronrod_quad(integrand, 0.0, 9.0, abs_tol)


def fermi_f_quadrature(nu, z, abs_tol=1e-13):
    """f_nu(z) = (1/Gamma(nu)) int_0^inf x^{nu-1}/(z^{-1} e^x + 1) dx.

    Same t^2 substitution; the logistic kernel expit(mu - t^2) keeps the
    degenerate regime (z >> 1) well conditioned.
    """
    if z == 0.0:
        return 0.0
    return fermi_f_quadrature_log(nu, math.log(z), abs_tol)


def fermi_f_quadrature_log(nu, mu, abs_tol=1e-13):
    """f_nu at ln z = mu, by the quadrature of fermi_f_quadrature; it
    reaches the deeply degenerate range past exp's overflow
    (ln z > 709)."""
    def integrand(t):
        return t ** (2.0 * nu - 1.0) * expit(mu - t * t)

    pref = 2.0 / math.gamma(nu)
    upper = math.sqrt(max(mu, 0.0) + 44.0)
    if mu > 1.0:
        # split at the Fermi edge where the kernel drops from 1 to 0
        edge = math.sqrt(mu)
        return pref * (kronrod_quad(integrand, 0.0, edge, abs_tol)
                       + kronrod_quad(integrand, edge, upper, abs_tol))
    return pref * kronrod_quad(integrand, 0.0, upper, abs_tol)


def fermi_f_alternating(nu, z, n_terms=30000):
    """f_nu(z) = sum_k (-1)^{k+1} z^k / k^nu for 0 < z <= 1.

    Three rounds of partial-sum averaging accelerate the alternating
    tail; at z = 1, nu = 1/2 the remaining error is below 1e-12.
    """
    k = np.arange(1, n_terms + 4, dtype=float)
    terms = np.where(k % 2 == 1, 1.0, -1.0) * z ** k / k ** nu
    s = np.cumsum(terms)
    for _ in range(3):
        s = 0.5 * (s[:-1] + s[1:])
    return float(s[-1])


def bose_fugacity_quadrature(x):
    """z with g_{3/2}(z) = x by bisection on the quadrature; None when
    x reaches zeta(3/2) = g_{3/2}(1), i.e. the gas is condensed."""
    if x >= zeta(1.5):
        return None
    return bisect_root(lambda z: bose_g_quadrature(1.5, z) - x, 0.0, 1.0)


def fermi_ln_z_quadrature(x):
    """ln z with f_{3/2}(z) = x by bisection in ln z on the quadrature.

    f_{3/2}(z) < z for every z > 0, so ln x is a lower bracket; the
    upper one doubles until it overshoots.
    """
    def excess(ln_z):
        return fermi_f_quadrature(1.5, math.exp(ln_z)) - x

    lo = math.log(x)
    hi = lo + 1.0
    while excess(hi) < 0.0:
        lo, hi = hi, hi + max(1.0, abs(hi))
    return bisect_root(excess, lo, hi)


def homogeneous_z(T, m_b, m_f, rho_b, rho_f, ell_bb, ell_bf, ell_ff):
    """Determinant criterion Z [m^6] of the homogeneous mixture at T [K].

    Z = (4 ell_bb lb^2 + lb^3/g_{1/2}(z_b)) (ell_ff lf^2 + lf^3/f_{1/2}(z_f))
        - ell_bf^2 (lb^2 + lf^2)^2,
    with the boson ideal term zero in the condensed phase.  Couplings
    enter as lengths; the fugacities come from bisection on the
    quadrature polylogs above, never from the package's special
    functions.
    """
    h, k_B = scipy_constants.h, scipy_constants.k
    lb = h / math.sqrt(2.0 * math.pi * m_b * k_B * T)
    lf = h / math.sqrt(2.0 * math.pi * m_f * k_B * T)
    z_b = bose_fugacity_quadrature(rho_b * lb ** 3)
    ideal_b = 0.0 if z_b is None else lb ** 3 / bose_g_quadrature(0.5, z_b)
    ln_z_f = fermi_ln_z_quadrature(rho_f * lf ** 3)
    ideal_f = lf ** 3 / fermi_f_quadrature(0.5, math.exp(ln_z_f))
    bb = 4.0 * ell_bb * lb ** 2 + ideal_b
    ff = ell_ff * lf ** 2 + ideal_f
    return bb * ff - ell_bf ** 2 * (lb ** 2 + lf ** 2) ** 2


def boltzmann_fugacity_series(x):
    """Inverts g_{3/2}(z) = x for small x by Lagrange inversion.

    z = x - x^2/2^{3/2} + (1/4 - 3^{-3/2}) x^3 + O(x^4); keeping three
    terms leaves an O(x^4) error, negligible for x <= 1e-3.
    """
    c2 = -1.0 / 2.0 ** 1.5
    c3 = 0.25 - 3.0 ** -1.5
    return x + c2 * x * x + c3 * x ** 3


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def central_diff(f, x, rel_h=1e-6):
    h = rel_h * max(abs(x), 1e-30)
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff2(f, x, rel_h=1e-4):
    h = rel_h * max(abs(x), 1e-30)
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def mixed_diff2(f, x, y, rel_hx=1e-4, rel_hy=1e-4):
    hx = rel_hx * max(abs(x), 1e-30)
    hy = rel_hy * max(abs(y), 1e-30)
    return (f(x + hx, y + hy) - f(x + hx, y - hy)
            - f(x - hx, y + hy) + f(x - hx, y - hy)) / (4.0 * hx * hy)


def golden_minimize(f, bracket):
    """Derivative-free 1-D minimizer used as an independent check on the
    analytic stationarity solvers."""
    res = minimize_scalar(f, bracket=bracket, method="golden",
                          options={"xtol": 1e-12, "maxiter": 500})
    return res.x


def refine_minimum(f, x, rel_h=1e-5):
    """One parabolic-vertex polish of a minimum located by a value-only
    search.  Golden section stalls at sqrt(eps) relative because function
    values stop resolving the quadratic bowl; the 3-point vertex pushes
    the location error down to ~(h^2 + eps/h) relative."""
    h = rel_h * abs(x)
    f0, fp, fm = f(x), f(x + h), f(x - h)
    denom = fp - 2.0 * f0 + fm
    if denom <= 0.0:
        return x
    return x - 0.5 * h * (fp - fm) / denom


# ---------------------------------------------------------------------------
# energy functionals by direct quadrature
# ---------------------------------------------------------------------------

def gp_energy_quadrature(omega, m_b, omega_b, N_b, g_bb, hbar):
    """Gross-Pitaevskii energy of the isotropic Gaussian trial state
    evaluated by radial quadrature.

    E[Phi] = int d^3r [ (hbar^2/2m)|grad Phi|^2 + (1/2) m w_b^2 r^2 |Phi|^2
                        + (g/2)|Phi|^4 ],
    Phi(r) = sqrt(N) (m w / pi hbar)^{3/4} exp(-m w r^2 / 2 hbar).
    """
    beta = m_b * omega / hbar           # 1/length^2 width of |Phi|^2
    norm = N_b * (beta / math.pi) ** 1.5

    def integrand(r):
        dens = norm * math.exp(-beta * r * r)
        kinetic = (hbar * hbar / (2.0 * m_b)) * (beta * r) ** 2 * dens
        trap = 0.5 * m_b * omega_b ** 2 * r * r * dens
        inter = 0.5 * g_bb * dens * dens
        return 4.0 * math.pi * r * r * (kinetic + trap + inter)

    r_cut = 12.0 / math.sqrt(beta)
    scale = N_b * hbar * max(omega, omega_b)
    return kronrod_quad(integrand, 0.0, r_cut, abs_tol=1e-12 * scale)


def _angular_average(beta, r, r_f):
    """Average of exp(-beta |r_vec - r_f_vec|^2) over directions of r_vec,
    written to avoid overflow: (e^{-b(r-rf)^2} - e^{-b(r+rf)^2})/(4 b r rf).
    """
    if r_f == 0.0 or r == 0.0:
        return math.exp(-beta * (r - r_f) ** 2)
    x = 4.0 * beta * r * r_f
    if x < 1e-8:
        return math.exp(-beta * (r * r + r_f * r_f)) * (1.0 + x * x / 24.0)
    lead = math.exp(-beta * (r - r_f) ** 2)
    sub = math.exp(-beta * (r + r_f) ** 2)
    return (lead - sub) / x


def fermion_energy_quadrature(Omega, r_f, omega_c, m_b, m_f, omega_f,
                              N_b, N_f, g_bf, hbar):
    """Fermion energy functional (kinetic Thomas-Fermi density term, trap,
    boson overlap) for the displaced Gaussian profile, reduced to a radial
    integral with exact angular averages.

    n_f(r_vec) = N_f (m_f Omega / pi hbar)^{3/2}
                 exp(-(m_f Omega/hbar)|r_vec - r_f_vec|^2)
    """
    beta_f = m_f * Omega / hbar
    beta_b = m_b * omega_c / hbar
    amp_f = N_f * (beta_f / math.pi) ** 1.5
    amp_b = N_b * (beta_b / math.pi) ** 1.5
    # kinetic energy density (1/6pi^2)(hbar^2/2m)(6pi^2 n)^{5/3}
    # collapses to (hbar^2/2m)(6pi^2)^{2/3} n^{5/3}
    kin_pref = (hbar * hbar / (2.0 * m_f)) * (6.0 * math.pi ** 2) ** (2.0 / 3.0)

    def integrand(r):
        n53 = amp_f ** (5.0 / 3.0) * _angular_average(beta_f * 5.0 / 3.0, r, r_f)
        n1 = amp_f * _angular_average(beta_f, r, r_f)
        kinetic = kin_pref * n53
        trap = 0.5 * m_f * omega_f ** 2 * r * r * n1
        inter = g_bf * amp_b * math.exp(-beta_b * r * r) * n1
        return 4.0 * math.pi * r * r * (kinetic + trap + inter)

    r_cut = r_f + 14.0 / math.sqrt(min(beta_f, beta_b))
    scale = N_f * hbar * max(Omega, omega_f)
    return kronrod_quad(integrand, 0.0, r_cut, abs_tol=1e-11 * scale)


def condensate_number_quadrature(mu_b, m_b, omega_b, g_bb):
    """Atom count of the inverted-parabola condensate profile for a given
    chemical potential, by quadrature (not by the closed form)."""
    if mu_b <= 0.0:
        return 0.0
    R = math.sqrt(2.0 * mu_b / (m_b * omega_b ** 2))

    def integrand(r):
        return 4.0 * math.pi * r * r * (mu_b - 0.5 * m_b * omega_b ** 2 * r * r) / g_bb

    n_scale = mu_b * R ** 3 / g_bb
    return kronrod_quad(integrand, 0.0, R, abs_tol=1e-12 * n_scale)
