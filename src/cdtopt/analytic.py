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
    pick.
    """
    compliance = _penalized_compliance(a, b, 1.0)
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    u0 = np.array([1.0 + epsilon, 1.0]) / (a + b)  # both groups add to (a + b) I
    w = np.array([
        0.5 * (a * u0[0] ** 2 + b * u0[1] ** 2),
        0.5 * (b * u0[0] ** 2 + a * u0[1] ** 2),
    ])
    instance = knapsack.KnapsackInstance(w=w, v=np.array([1.0, 1.0]), V_target=1.0)
    result = knapsack.solve(instance, params=knapsack.SolveParams(perturb=perturb))
    # at equilibrium the potential 1/2 u.K u - u.f is -1/2 f.u
    return result.density, float(-compliance(*result.density.rho))


@dataclass(frozen=True)
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


def simp_counterexample(a, b, p=2.0, grid_resolution=1e-4):
    """Sample the penalized compliance under the unit load (1, 1) on
    (0,1]^2 and minimize it on the material-budget boundary rho1 + rho2 = 1.

    Boundary minima are located with a scan at ``grid_resolution``, which
    samples both endpoints as candidates, plus golden-section refinement.
    """
    val = _penalized_compliance(a, b, p)
    # the corners sample 0 ** p, which divides by zero for p < 0; p = 0, and
    # a = b at p = 1, make the boundary flat, so every sample would be a minimum
    if not 0.0 < p < math.inf:
        raise ValueError("p must be finite and positive")
    if a == b and p == 1.0:
        raise ValueError("a = b at p = 1 makes the boundary flat: every sample is a minimum")
    if not 0.0 < grid_resolution <= 0.5:
        raise ValueError("grid resolution must lie in (0, 0.5]")
    side = np.linspace(0.05, 1.0, 39)
    r1g, r2g = np.meshgrid(side, side, indexing="ij")
    grid = np.column_stack([r1g.ravel(), r2g.ravel(),
                            val(r1g, r2g).ravel()])
    t = np.append(np.arange(0.0, 1.0 - grid_resolution / 2, grid_resolution), 1.0)
    g = val(t, 1.0 - t)
    minima = []
    if g[0] < g[1]:
        minima.append((float(t[0]), float(g[0])))
    interior = np.flatnonzero((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:])) + 1
    for i in interior:
        x, fx = _golden_min(lambda s: val(s, 1.0 - s), t[i - 1], t[i + 1])
        if not any(abs(x - m[0]) < 10 * grid_resolution for m in minima):
            minima.append((float(x), float(fx)))
    if g[-1] < g[-2]:
        minima.append((float(t[-1]), float(g[-1])))
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
    symmetric: bool              # True for the f = 0 case
    perturbation_minimizers: tuple = ()


def _dw_potential(beta, lam, f, x):
    x = np.asarray(x, dtype=float)
    return float(0.5 * beta * (0.5 * np.dot(x, x) - lam) ** 2 - np.dot(x, f))


def _dw_dual(beta, lam, f, s):
    fn2 = float(np.dot(f, f))
    return -fn2 / (2.0 * s) - 0.5 * s * s / beta - lam * s


def double_well_triality(beta, lam, f):
    """All real roots of (varsigma/beta + lam) varsigma^2 = |f|^2 / 2 for
    the potential 1/2 beta (1/2 |x|^2 - lam)^2 - x.f, with f a sequence of
    floats, classified, with the matching primal critical points
    x = f / varsigma.

    For f = 0 the dual keeps a single negative critical point -beta*lam
    (the primal local maximum at the origin); the ring of minimizers at
    |x| = sqrt(2 lam) is reported through ``perturbation_minimizers`` as
    the vanishing-perturbation limit.
    """
    if not (0.0 < beta < math.inf and 0.0 < lam < math.inf):
        raise ValueError("beta and lam must be finite and positive")
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("f must be finite")
    fn2 = float(np.dot(f, f))
    if fn2 == 0.0:
        s3 = -beta * lam
        x3 = tuple(0.0 for _ in f)
        root = DualRoot(
            varsigma=s3,
            x=x3,
            potential=_dw_potential(beta, lam, f, x3),
            dual_potential=_dw_dual(beta, lam, f, s3),
            kind="local_max",
        )
        r = math.sqrt(2.0 * lam)
        return TrialityResult(
            roots=(root,),
            symmetric=True,
            perturbation_minimizers=(r, -r),
        )
    # varsigma^3 / beta + lam varsigma^2 - |f|^2/2 = 0
    coeffs = [1.0 / beta, lam, 0.0, -0.5 * fn2]
    raw = np.roots(coeffs)
    roots = []
    for z in raw:
        if abs(z.imag) > 1e-8 * max(1.0, abs(z)):
            continue
        s = float(z.real)
        for _ in range(60):  # Newton polish on the depressed residual
            g = s * s * (s / beta + lam) - 0.5 * fn2
            gp = 3.0 * s * s / beta + 2.0 * lam * s
            if gp == 0.0:
                break
            step = g / gp
            s -= step
            if abs(step) <= 1e-16 * max(1.0, abs(s)):
                break
        roots.append(s)
    roots = sorted(set(round(s, 14) for s in roots), reverse=True)
    out = []
    negatives = sorted([s for s in roots if s < 0.0])
    for s in roots:
        if s > 0.0:
            kind = "global_min"
        elif negatives and s == negatives[0]:
            kind = "local_max"      # most negative branch
        else:
            kind = "local_min" if f.size == 1 else "negative_branch"
        x = tuple(float(fi / s) for fi in f)
        out.append(DualRoot(
            varsigma=s,
            x=x,
            potential=_dw_potential(beta, lam, f, x),
            dual_potential=_dw_dual(beta, lam, f, s),
            kind=kind,
        ))
    return TrialityResult(roots=tuple(out), symmetric=False)
