"""Closed-form and quadrature-based bound evaluators.

Covers the universal upper bound (k/(k-1)) log k, the exact two-variable
value via the Lambert W point, the enlarged-variant closed forms and upper
bounds, the Bessel-zero lower bound, the explicit large-k lower-bound
machinery for the truncated variational quantity, and the exact rational
four-variable cross-check used by the enlarged-variant chain.

High-precision arithmetic uses mpmath at >= 40 significant digits; every
emitted lower bound is rounded down by the accumulated quadrature error
estimate so it remains a true lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .cutoff3d import Poly3, _simplex_integral

__all__ = [
    "DPS",
    "mk_upper",
    "m2_exact",
    "m2_eps",
    "mkeps_upper",
    "bessel_lower",
    "AsymptoticParams",
    "AsymptoticReport",
    "asymptotic_lower",
    "m4eps_check",
]

DPS = 40


def _mpf(x):
    """x at the working precision; an exact rational by one division."""
    return mp.mpf(x.numerator) / mp.mpf(x.denominator) if hasattr(x, "numerator") else mp.mpf(x)


def mk_upper(k: int):
    """Universal upper bound (k/(k-1)) log k for the plain variant."""
    if k < 2:
        raise ValueError("k must be >= 2")
    with mp.workdps(DPS):
        return mp.mpf(k) / (k - 1) * mp.log(k)


def m2_exact():
    """Exact value 1/(1 - W(1/e)) of the two-variable problem, where the
    Lambert W point w = W(1/e) solves w e^w = 1/e."""
    with mp.workdps(DPS):
        return 1 / (1 - mp.lambertw(mp.exp(-1)))


def _m2_eps_equation(lam, eps):
    """Eigenvalue equation for the enlarged two-variable problem, eps < 1/3.

    Derived from the piecewise eigenfunction ansatz: the inner branch is
    C1/(lam-1-eps+x) on [0, 2 eps], the outer branch is the displayed
    log-ratio form, C1 is fixed by self-consistency of the total mass, and
    the slot-integration identity on the outer branch gives one more
    relation.  Eliminating C1 without dividing keeps the equation regular
    through eps = 1/3, where it degenerates to log-ratio = 1, and at
    eps -> 0 it reduces to the unenlarged equation.
    """
    l1p = mp.log(lam - 1 + eps)
    l1m = mp.log(lam - 1 - eps)
    l2 = mp.log(lam - 2 * eps)
    bracket = ((lam - 2 * eps) * l2 + (lam - 1 + eps) * l1p) / (2 * lam - 1 - eps)
    return (l2 - l1p) * (l1p - l1m) + (1 - l1p + l1m) * (bracket - l1p - 1)


def m2_eps(eps):
    """Exact optimum of the enlarged two-variable problem.

    Closed form (e(1+eps) - 2 eps)/(e-1) for eps >= 1/3; for smaller eps the
    largest root of the transcendental eigenvalue equation: a walk down from
    2 brackets it inside (m2_exact(), 2), and mpmath's Anderson solver
    refines the bracket.
    """
    with mp.workdps(DPS):
        e = _mpf(eps)
        if not 0 < e < 1:
            raise ValueError("eps must lie in (0, 1)")
        if e >= mp.mpf(1) / 3:
            return (mp.e * (1 + e) - 2 * e) / (mp.e - 1)
        lo = max(m2_exact() * (1 - mp.mpf(10) ** -30), 1 + e + mp.mpf(10) ** -30)
        hi = mp.mpf(2)
        f = lambda lam: _m2_eps_equation(lam, e)
        # largest root: walk down from 2 to the first sign change
        steps = 400
        prev_x, prev_f = hi, f(hi)
        for i in range(1, steps + 1):
            x = hi - (hi - lo) * i / steps
            fx = f(x)
            if fx == 0:
                return x
            if mp.sign(fx) != mp.sign(prev_f):
                return mp.findroot(f, (x, prev_x), solver="anderson")
            prev_x, prev_f = x, fx
        raise ArithmeticError("no eigenvalue root found in bracket")


def mkeps_upper(k: int, eps, a=None):
    """Parametrized upper bound for the enlarged variant.

    Valid for 1/(1+eps) < a < 1/(1-eps); a = 1 gives (k/(k-1)) log(2k-1).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    with mp.workdps(DPS):
        e = _mpf(eps)
        if not 0 < e < 1:
            raise ValueError("eps must lie in (0, 1)")
        av = mp.mpf(1) if a is None else _mpf(a)
        if not 1 / (1 + e) < av < 1 / (1 - e):
            raise ValueError("a must lie in (1/(1+eps), 1/(1-eps))")
        inner = k + (av * (1 + e) - 1) * (k - 1) / (1 - av * (1 - e))
        return mp.mpf(k) / (av * (k - 1)) * mp.log(inner)


def _bessel_pair(nu: int, x, bits: int):
    """J_nu(x) and J_{nu-1}(x) for nu >= 1 and x > 0, from one power series.

    With Y = x^2/4 the terms t_0 = (x/2)^nu/nu!, t_m = -t_{m-1} Y/(m (nu+m))
    give J_nu = sum t_m and J_{nu-1} = (2/x) sum (nu+m) t_m.  The terms are
    Python ints t_m 2^F, each a floor division of the one before, so each
    step is off by less than one unit, carried forward by the ratio of later
    to earlier terms.  F = bits + 64 + ceil(log2 max(1, tau) +
    log2 max(1, 1/t_0)), with tau = max |t_m| estimated by lgamma at the
    peak term: the first part pays for the cancellation below the largest
    term, the second keeps t_0 to bits + 64 bits when it falls below 1.
    The sum stops at the first zero term whose ratio Y/(m (nu+m)) is at
    most 1/2, after N <= x + F terms.  For N <= 2^30 the sums, before
    rounding to working precision, are within

        |error of J_nu|     <= 2^-bits min(1, tau),
        |error of J_{nu-1}| <= 2^-bits min(1, tau) 2 (nu + N)/x.
    """
    _, man, exp, _ = x._mpf_  # x = man 2^exp
    log2_half_x = math.log2(man) + exp - 1

    def log2_term(m):
        return (nu + 2 * m) * log2_half_x - (math.lgamma(m + 1) + math.lgamma(nu + m + 1)) / math.log(2)

    xf = float(x)
    peak = int(xf * xf / (math.sqrt(nu * nu + xf * xf) + nu) / 2)  # m (nu+m) = Y
    log2_tau = max(log2_term(m) for m in (max(peak - 1, 0), peak, peak + 1))
    F = bits + 64 + math.ceil(max(0.0, log2_tau) + max(0.0, -log2_term(0)))

    num, den = man**nu, math.factorial(nu)
    shift = (exp - 1) * nu + F
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    term = num // den
    # Y = y / 2^q with y an integer
    y, q = man * man << max(0, 2 * exp - 2), max(0, 2 - 2 * exp)
    total = weighted = m = 0
    while term or 2 * y > (m * (nu + m) << q):
        total += term
        weighted += (nu + m) * term
        m += 1
        term = -((term * y) >> q) // (m * (nu + m))
    return mp.ldexp(mp.mpf(total), -F), mp.ldexp(mp.mpf(weighted), 1 - F) / x


def _bessel_first_zero(nu: int):
    """First positive zero of J_nu: large-order asymptotic seed + Newton.

    Each Newton step takes J_nu and J_{nu-1} (J_0 and J_1 when nu = 0) from
    one shared power series, _bessel_pair, with bits = 2 prec: J_nu is then
    within 2^-(2 prec) min(1, tau) of its value, tau the series' largest
    term.  The derivative comes from the recurrence
    J'_nu = J_{nu-1} - (nu/x) J_nu (J'_0 = -J_1).
    """
    with mp.workdps(DPS):
        if nu == 0:
            x = mp.mpf("2.404825557695773")
        elif nu == 1:
            x = mp.mpf("3.831705970207512")
        else:
            v = mp.mpf(nu)
            c = v ** mp.mpf("0.3333333333333333")
            x = v + mp.mpf("1.8557571") * c + mp.mpf("1.033150") / c \
                - mp.mpf("0.00397") / v - mp.mpf("0.0908") / (v * c * c) \
                + mp.mpf("0.043") / (v * v * c)
        for _ in range(60):
            if nu == 0:
                j1, jv = _bessel_pair(1, x, 2 * mp.mp.prec)
                dj = -j1
            else:
                jv, jm1 = _bessel_pair(nu, x, 2 * mp.mp.prec)
                dj = jm1 - nu * jv / x
            step = jv / dj
            x -= step
            if abs(step) < mp.mpf(10) ** (-DPS + 4):
                break
        return x


def bessel_lower(k: int):
    """Lower bound 4k(k-1)/j^2 with j the first zero of the order-(k-2)
    Bessel function; stays below 4 for every k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    with mp.workdps(DPS):
        j = _bessel_first_zero(k - 2)
        return 4 * mp.mpf(k) * (k - 1) / (j * j)


# ---------------------------------------------------------------------------
# explicit lower bound for the truncated variant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticParams:
    """Parameters (k, c, T, tau) for the explicit lower-bound evaluator."""

    k: int
    c: object
    T: object
    tau: object

    @classmethod
    def from_scaled(cls, k: int, theta, beta, tau=None):
        """c = theta/log k and T = beta/log k; tau defaults to 1 - k*mu.

        The derived tau is shaded down by one part in 1e30 so the boundary
        condition k*mu <= 1 - tau survives binary rounding.
        """
        if k < 2:  # before log k, which is 0 at k = 1
            raise ValueError("k must be >= 2")
        with mp.workdps(DPS):
            logk = mp.log(k)
            c = _mpf(theta) / logk
            T = _mpf(beta) / logk
            if tau is None:
                m2, mu, sigma2 = _weight_stats(k, c, T)
                tau = (1 - k * mu) * (1 - mp.mpf(10) ** -30)
            else:
                tau = _mpf(tau)
            return cls(k, c, T, tau)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        with mp.workdps(DPS):
            for name in ("c", "T", "tau"):
                v = getattr(self, name)
                if not isinstance(v, mp.mpf):
                    v = _mpf(v)
                if v <= 0:
                    raise ValueError(f"{name} must be positive")
                object.__setattr__(self, name, v)


@dataclass(frozen=True)
class AsymptoticReport:
    """All intermediate quantities with quadrature error radii."""

    params: AsymptoticParams
    m2: object
    mu: object
    sigma2: object
    Z: object
    Z3: object
    W: object
    X: object
    V: object
    U: object
    error_budget: object
    lower_bound: object


def _weight_stats(k, c, T):
    """Closed forms for the squared-weight mass, mean and variance of the
    distribution g(t)^2 dt / m2 with g(t) = 1/(c + (k-1)t) on [0, T]."""
    km1 = mp.mpf(k - 1)
    top = c + km1 * T
    m2 = (1 / c - 1 / top) / km1
    first = (mp.log(top / c) + c / top - 1) / (km1 * km1)
    second = (km1 * T - 2 * c * mp.log(top / c) - c * c / top + c) / (km1**3)
    mu = first / m2
    sigma2 = second / m2 - mu * mu
    return m2, mu, sigma2


def asymptotic_lower(p: AsymptoticParams) -> AsymptoticReport:
    """Explicit lower bound for the truncated variational quantity.

    Checks the three admissibility conditions, evaluates the six auxiliary
    quantities (four by adaptive quadrature, two in closed form), and emits
    (k/(k-1)) log k minus the certified defect, rounded down by the total
    quadrature error estimate.
    """
    with mp.workdps(DPS):
        k, c, T, tau = p.k, p.c, p.T, p.tau
        km1 = mp.mpf(k - 1)
        # the six quadratures on [0, T] share their nodes: g(t)^2, with
        # g(t) = 1/(c + (k-1)t), is computed once per node
        g2_at = {}

        def g2(t):
            v = g2_at.get(t)
            if v is None:
                v = g2_at[t] = (1 / (c + km1 * t)) ** 2
            return v

        m2, mu, sigma2 = _weight_stats(k, c, T)
        # cross-check the closed forms against direct quadrature
        q_m2, e0 = mp.quad(g2, [0, T], error=True)
        q_first, e1 = mp.quad(lambda t: t * g2(t), [0, T], error=True)
        q_second, e2 = mp.quad(lambda t: t * t * g2(t), [0, T], error=True)
        for exact, quad in ((m2, q_m2), (mu * m2, q_first), ((sigma2 + mu * mu) * m2, q_second)):
            if abs(exact - quad) > mp.mpf(10) ** -12 * abs(exact):
                raise ArithmeticError("closed-form weight statistics disagree with quadrature")

        kmu = k * mu
        ksig = k * sigma2
        if not kmu <= 1 - tau:
            raise ValueError(f"condition violated: k*mu <= 1 - tau (k*mu = {mp.nstr(kmu, 12)})")
        if not kmu < 1 - T:
            raise ValueError(f"condition violated: k*mu < 1 - T (k*mu = {mp.nstr(kmu, 12)})")
        if not ksig < (1 + tau - kmu) ** 2:
            raise ValueError(
                f"condition violated: k*sigma^2 < (1 + tau - k*mu)^2 (k*sigma^2 = {mp.nstr(ksig, 12)})"
            )

        def z_integrand(r):
            lg = mp.log((r - kmu) / T)
            return r * (lg + ksig / (4 * (r - kmu) ** 2 * lg)) + r * r / (4 * k * T)

        Z, ez = mp.quad(z_integrand, [1, 1 + tau], error=True)
        Z = Z / tau
        Z3, ez3 = mp.quad(lambda t: k * t * mp.log(1 + t / T) * g2(t), [0, T], error=True)
        Z3 = Z3 / m2
        W, ew = mp.quad(lambda t: mp.log(1 + tau / (k * t)) * g2(t), [0, T], error=True)
        W = W / m2
        X = mp.log(k) / tau * c * c
        V, ev = mp.quad(lambda t: g2(t) / (2 * c + km1 * t), [0, T], error=True)
        V = V * c / m2
        # U has a polynomial integrand: closed form
        A = 1 - km1 * mu - c
        U = mp.log(k) / c * (A * A + A * tau + tau * tau / 3 + km1 * sigma2)

        denom = (1 + tau / 2) * (1 - ksig / (1 + tau - kmu) ** 2)
        defect = mp.mpf(k) / km1 * (Z + Z3 + W * X + V * U) / denom
        budget = 10 * (ez / tau + ez3 / m2 + ew / m2 * X + ev * c / m2 * U + e0 + e1 + e2)
        lower = mp.mpf(k) / km1 * mp.log(k) - defect - budget
        return AsymptoticReport(p, m2, mu, sigma2, Z, Z3, W, X, V, U, budget, lower)


# ---------------------------------------------------------------------------
# exact four-variable cross-check for the enlarged variant
# ---------------------------------------------------------------------------


def m4eps_check(eps, alpha):
    """Exact rational (I, J, ratio_ok) for the linear four-variable cutoff
    (1 - alpha * sum(t)) on the enlarged simplex.

    I has the displayed sextic closed form; J integrates the squared inner
    slot integral against the outer shrunk region, a one-dimensional
    polynomial integral evaluated exactly by the integer simplex kernel on
    the segment [0, 1 - eps].  ratio_ok tests 4J/I > 2.00558 as an exact
    rational comparison.
    """
    eps, alpha = Fraction(eps), Fraction(alpha)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("eps must lie in (0, 1/2)")
    w = 1 + eps
    I = alpha * alpha * w**6 / 36 - alpha * w**5 / 15 + w**4 / 24
    # J integrand: (w - u)^2 (1 - alpha (w + u)/2)^2 u^2 / 2, with u as x
    factor = Poly3.affine(w, -1) * Poly3.affine(1 - alpha * w / 2, -alpha / 2)
    J = _simplex_integral(factor * factor * Poly3({(2, 0, 0): Fraction(1, 2)}),
                          [((0,), (1 - eps,))])
    ratio_ok = 4 * J > Fraction(200558, 100000) * I
    return I, J, ratio_ok
