"""Closed-form demonstration problems with known answers.

Four small studies that exercise the solver stack end to end: a two-item
tie-broken knapsack (the donkey between two hay piles), a two-group truss
whose symmetric optimum pair is split by a load perturbation, the
penalized-compliance surface whose minimizer jumps between the corners and
the center depending on the penalization power, and a one-dimensional
double-well potential whose dual cubic classifies all critical points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import knapsack

__all__ = [
    "CounterexampleResult",
    "DualRoot",
    "TrialityResult",
    "buridan",
    "symmetric_truss",
    "simp_counterexample",
    "double_well_triality",
]


def buridan(w_base, epsilon, perturb=True):
    """Two equal-volume items, budget one: gains (w_base + epsilon, w_base).

    Returns (TauCritical, BinaryDensity): the critical interval is the
    uniqueness report, open for a unique pick.  With epsilon = 0 the two
    items tie and the interval is empty at their common ratio; the returned
    pick comes from the deterministic ramp tie-break (or DegenerateInstance
    when ``perturb`` is disabled).
    """
    if not 0.0 < w_base < math.inf:
        raise ValueError("w_base must be finite and positive")
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    instance = knapsack.KnapsackInstance(
        w=np.array([w_base + epsilon, w_base]), v=np.array([1.0, 1.0]), V_target=1.0
    )
    tc = knapsack.existence_check(instance)
    params = knapsack.SolveParams(perturb=perturb)
    result = knapsack.solve(instance, params=params)
    return tc, result.density


# a boundary scan minimum must lie deeper than this many times the largest
# sample: a few ulp, the most that rounding moves a sample
ROUNDING_RTOL = 4 * np.finfo(float).eps


def _penalized_compliance(a, b, p):
    # 1/2 f.u of the two-group truss under the unit load f = (1, 1), the
    # groups at densities r1 and r2 penalized by the power p
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("stiffness constants a and b must be finite and positive")

    def val(r1, r2):
        return 0.5 * (1.0 / (a * r1 ** p + b * r2 ** p)
                      + 1.0 / (b * r1 ** p + a * r2 ** p))

    return val


def symmetric_truss(a, b, epsilon, perturb=True):
    """Select one of the two bar groups under the perturbed load.

    The two-dof truss has group stiffnesses diag(a, b) and diag(b, a).
    Solves equilibrium for the full structure under f = (1 + epsilon, 1),
    scores both groups by the strain energy they would store, and lets the
    knapsack solver keep one.  Returns (BinaryDensity, potential), where
    the potential is evaluated for the nominal symmetric load at the
    selected group — the quantity that equals -1/2 (1/a + 1/b) for either
    pick.  Values whose energies or potential overflow raise ValueError.
    """
    compliance = _penalized_compliance(a, b, 1.0)
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    with np.errstate(over="ignore"):
        u0 = np.array([1.0 + epsilon, 1.0]) / (a + b)  # both groups add to (a + b) I
        w = np.array([
            0.5 * (a * u0[0] ** 2 + b * u0[1] ** 2),
            0.5 * (b * u0[0] ** 2 + a * u0[1] ** 2),
        ])
    if not np.all(np.isfinite(w)):
        raise ValueError(f"a = {a:g}, b = {b:g} and epsilon = {epsilon:g} overflow "
                         "the group energies")
    instance = knapsack.KnapsackInstance(w=w, v=np.array([1.0, 1.0]), V_target=1.0)
    result = knapsack.solve(instance, params=knapsack.SolveParams(perturb=perturb))
    # at equilibrium the potential 1/2 u.K u - u.f is -1/2 f.u
    with np.errstate(over="ignore"):
        potential = float(-compliance(*result.density.rho))
    if not math.isfinite(potential):
        raise ValueError(f"a = {a:g} and b = {b:g} overflow the potential")
    return result.density, potential


@dataclass(frozen=True, eq=False)
class CounterexampleResult:
    """Sampled penalized-compliance surface and its boundary minima."""

    grid: np.ndarray             # (m, 3) columns rho1, rho2, value
    boundary_t: np.ndarray       # rho1 samples along rho1 + rho2 = 1
    boundary_values: np.ndarray
    minima: tuple                # (t, value) for each boundary minimum
    argmin: tuple                # (rho1, rho2) of the boundary minimizer


def _golden_min(fun, lo, hi, tol=1e-10):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - g * (hi - lo)
    x2 = lo + g * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = fun(x2)
    x = 0.5 * (lo + hi)
    return x, fun(x)


def _basin_bottoms(g, tol):
    """Index of the lowest sample of each basin of ``g`` whose walls rise
    more than ``tol`` above it; an end of the scan serves as a wall."""
    bottoms, lo, hi, falling = [], 0, 0, True
    for k in range(1, g.size):
        if falling:
            if g[k] < g[lo]:
                lo = k
            elif g[k] > g[lo] + tol:
                bottoms.append(lo)
                falling, hi = False, k
        elif g[k] > g[hi]:
            hi = k
        elif g[k] < g[hi] - tol:
            falling, lo = True, k
    if falling:
        bottoms.append(lo)
    return bottoms


def simp_counterexample(a, b, p=2.0, grid_resolution=1e-4):
    """Sample the penalized compliance under the unit load (1, 1) on
    (0,1]^2 and minimize it on the material-budget boundary rho1 + rho2 = 1.

    Boundary minima are located with a scan at ``grid_resolution``, which
    samples both endpoints as candidates, plus golden-section refinement.
    A scan minimum counts only when its basin is deeper than
    ``ROUNDING_RTOL`` times the largest sample, so rounding alone makes
    none; a boundary that varies by less than that is flat and refused, as
    are values that overflow or underflow a sampled stiffness sum.
    """
    val = _penalized_compliance(a, b, p)
    # the corners sample 0 ** p, which divides by zero for p < 0
    if not 0.0 < p < math.inf:
        raise ValueError("p must be finite and positive")
    if not 0.0 < grid_resolution <= 0.5:
        raise ValueError("grid resolution must lie in (0, 0.5]")
    side = np.linspace(0.05, 1.0, 39)
    r1g, r2g = np.meshgrid(side, side, indexing="ij")
    t = np.append(np.arange(0.0, 1.0 - grid_resolution / 2, grid_resolution), 1.0)
    with np.errstate(all="ignore"):
        grid = np.column_stack([r1g.ravel(), r2g.ravel(), val(r1g, r2g).ravel()])
        g = val(t, 1.0 - t)
    # every stiffness sum is at most a + b, its value at the sample (1, 1);
    # one that underflows to 0 or is too small to invert makes a value inf
    if not (math.isfinite(a + b) and np.isfinite(grid[:, 2]).all() and np.isfinite(g).all()):
        raise ValueError(
            f"a = {a}, b = {b} at p = {p} overflow or underflow a sampled stiffness "
            "sum a r1^p + b r2^p, b r1^p + a r2^p or its reciprocal")
    tol = ROUNDING_RTOL * float(g.max())
    if not g.max() - g.min() > tol:
        raise ValueError(
            f"a = {a}, b = {b} at p = {p} make the boundary flat: it varies by "
            "no more than rounding, so every sample would be a minimum")
    minima = []
    for i in _basin_bottoms(g, tol):
        if i in (0, t.size - 1):
            minima.append((float(t[i]), float(g[i])))
            continue
        x, fx = _golden_min(lambda s: val(s, 1.0 - s), t[i - 1], t[i + 1])
        if not any(abs(x - m[0]) < 10 * grid_resolution for m in minima):
            minima.append((float(x), float(fx)))
    best = min(minima, key=lambda m: m[1])
    return CounterexampleResult(
        grid=grid,
        boundary_t=t,
        boundary_values=g,
        minima=tuple(minima),
        argmin=(best[0], 1.0 - best[0]),
    )


@dataclass(frozen=True)
class DualRoot:
    """One stationary point of the double-well dual, with its primal mate."""

    varsigma: float
    x: tuple
    potential: float
    dual_potential: float
    kind: str                    # global_min | local_min | local_max


@dataclass(frozen=True)
class TrialityResult:
    roots: tuple                 # DualRoot, sorted by varsigma descending
    symmetric: bool              # True for f = 0, or where |f|^2 underflows
    perturbation_minimizers: tuple = ()


def _bisect(k, lo, hi):
    """A root of ``k`` on [lo, hi], where k(lo) and k(hi) differ in sign or
    one is 0: that end, else the end of the adjacent-float bracket that
    bisection closes on where |k| is smaller."""
    k_lo, k_hi = k(lo), k(hi)
    mid = 0.5 * (lo + hi)
    while k_lo != 0.0 and k_hi != 0.0 and lo < mid < hi:
        k_mid = k(mid)
        if (k_mid < 0.0) == (k_lo < 0.0):
            lo, k_lo = mid, k_mid
        else:
            hi, k_hi = mid, k_mid
        mid = 0.5 * (lo + hi)
    return lo if abs(k_lo) <= abs(k_hi) else hi


def double_well_triality(beta, lam, f):
    """All real roots of (varsigma/beta + lam) varsigma^2 = |f|^2 / 2 for
    the potential 1/2 beta (1/2 |x|^2 - lam)^2 - x.f, with f a sequence of
    floats, classified, with the matching primal critical points
    x = f / varsigma.

    The cubic is at most 0 at 0 and at -beta*lam and grows without bound,
    so one root is positive; when it is positive at its maximum below 0,
    -2 beta lam / 3, one root lies on each side of that maximum.  Each
    bracket is bisected to adjacent floats.  The root 0, the double root of
    f = 0, has no primal mate and is dropped: for |f|^2 = 0 only the local
    maximum at -beta*lam is left, and the ring of minimizers |x| =
    sqrt(2 lam), which the minimizers approach as f -> 0, is reported
    through ``perturbation_minimizers``.  Values whose potential or dual
    potential overflows at a root raise ValueError.
    """
    if not (0.0 < beta < math.inf and 0.0 < lam < math.inf):
        raise ValueError("beta and lam must be finite and positive")
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("f must be finite")
    # f is the symmetric 0 where |f|^2 underflows; the roots take |f|
    # unsquared, as a subnormal |f|^2 keeps too few digits to place them
    fn = math.hypot(*f)
    symmetric = fn * fn == 0.0
    fn = 0.0 if symmetric else fn
    bl = float(beta * lam)

    def k(s):
        # the sign of the cubic for s >= -beta lam, with |f| unsquared
        return abs(s) * math.sqrt((s + bl) / beta) - fn / math.sqrt(2.0)

    # the positive root lies below |f| / sqrt(2 lam), so the cubic is
    # positive, beyond rounding, at sqrt(2) times that
    peak = -2.0 * bl / 3.0
    brackets = [(0.0, fn / math.sqrt(lam), "global_min")]
    if k(peak) > 0.0:
        brackets += [(peak, 0.0, "local_min" if f.size == 1 else "negative_branch"),
                     (-bl, peak, "local_max")]
    roots = []
    for lo, hi, kind in brackets:
        s = _bisect(k, lo, hi)
        if s == 0.0:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            x = f / s + 0.0  # + 0.0: the x of f = 0 is 0.0, not -0.0
            d = 0.5 * np.dot(x, x) - lam  # beta * d first: d * d can underflow
            potential = float(0.5 * (beta * d) * d - np.dot(x, f))
        dual = -0.5 * fn * (fn / s) - 0.5 * s * s / beta - lam * s
        if not (math.isfinite(potential) and math.isfinite(dual)):
            raise ValueError(f"beta = {beta:g}, lam = {lam:g} and |f| = {fn:g} overflow "
                             f"the potential or its dual at varsigma = {s:g}")
        roots.append(DualRoot(varsigma=s, x=tuple(x.tolist()), potential=potential,
                              dual_potential=dual, kind=kind))
    r = math.sqrt(2.0 * lam)
    return TrialityResult(roots=tuple(roots), symmetric=symmetric,
                          perturbation_minimizers=(r, -r) if symmetric else ())
