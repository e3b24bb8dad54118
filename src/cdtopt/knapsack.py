"""Analytic solver for the linear 0-1 knapsack problem via a concave dual.

The primal problem is

    min { -w.rho : v.rho <= V,  rho in {0,1}^n },   w >= 0, v > 0,

i.e. keep the subset of elements with the largest total gain within a
volume budget V, the instance's ``budget``: its target snapped once, on
construction, to what a binary design can fill.  The integer constraint
is relaxed through a penalty parameter ``beta`` and the problem is mapped
to maximizing the strictly concave dual

    D_beta(sigma, tau) = -1/4 * sum_e [ (sigma_e + w_e - tau*v_e)^2 / sigma_e
                                        + sigma_e^2 / beta ] - tau * V

over sigma > 0, tau >= 0.  Stationarity decouples per element into the cubic

    2/beta * sigma_e^3 + sigma_e^2 = theta_e^2,    theta_e = tau*v_e - w_e,

plus a scalar update for the volume multiplier tau, and the density is
recovered as rho_e = (1 - theta_e / sigma_e) / 2.  These finite-beta steps
(:func:`sigma_from_theta`, :func:`tau_update`, :func:`inner_fixed_point`,
:func:`recover_density`) are the paper's iteration.

:func:`solve` takes its beta -> inf limit in closed form.  There the cubic
gives sigma_e = |theta_e| and the dual becomes

    D_inf(tau) = -(tau * V + sum_e max(0, w_e - tau*v_e)),

minus the LP dual of the relaxation (Dantzig 1957).  Any tau strictly
inside the critical interval (lo, hi) of :func:`tau_critical` makes it
equal -w.rho of the ratio-greedy selection {w_e / v_e > lo}: a zero-gap
certificate, with no iteration.  For equal volumes the interval is a
pair of order statistics, selected in O(n) (Balas & Zemel 1980).  It is
also the uniqueness report: an open interval makes that selection the
unique optimum, and an empty one (an exact tie at the margin) is broken
by a deterministic ramp perturbation of the gains.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math

import numpy as np

__all__ = [
    "KnapsackError",
    "DegenerateTheta",
    "InvalidDual",
    "NotBinary",
    "NonFinite",
    "DegenerateInstance",
    "Unsolved",
    "TooLarge",
    "KnapsackInstance",
    "DualPoint",
    "BinaryDensity",
    "TauCritical",
    "InnerResult",
    "Certificate",
    "SolveParams",
    "SolveResult",
    "BruteForceResult",
    "sigma_from_theta",
    "tau_update",
    "dual_objective_beta",
    "inner_fixed_point",
    "recover_density",
    "tau_critical",
    "existence_check",
    "perturb",
    "solve",
    "brute_force",
    "affordable_count",
]

# |theta| at or below this is treated as a vanished cubic right-hand side.
THETA_TOL = 1e-14
# Raw recovered densities must sit this close to {0,1} before rounding.
BINARY_TOL = 1e-6
# inner_fixed_point stops once the penalized dual moves by at most OMEGA1,
# or after MAX_INNER iterations.
OMEGA1 = 2e-16
MAX_INNER = 1000
# A certificate gap |primal - D_inf| above this fraction of |D_inf| fails;
# rounding of the sums over n elements stays below n * 1.1e-16 of it.
GAP_RTOL = 1e-9


class KnapsackError(Exception):
    """Base class for knapsack solver failures."""


class DegenerateTheta(KnapsackError):
    """theta_e = 0: the per-element cubic has no positive root."""


class InvalidDual(KnapsackError):
    """A dual point violated sigma > 0."""


class NotBinary(KnapsackError):
    """Recovered densities are too far from {0,1}; beta is too small."""


class NonFinite(KnapsackError):
    """An intermediate quantity overflowed or became NaN."""


class DegenerateInstance(KnapsackError):
    """The critical interval is empty and perturbation is disabled."""


class Unsolved(KnapsackError):
    """The dual solve found no certified binary optimum."""


class TooLarge(KnapsackError):
    """Instance too large for exhaustive enumeration."""


def _readonly(a):
    arr = np.array(a, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class KnapsackInstance:
    """Gains ``w``, volumes ``v`` and budget ``V_target`` of one instance.

    The total volume, the enforceable ``budget``, the read-only gain/volume
    ``ratios``, the ``equal_volumes`` flag and the extremes validated on are
    computed once, on construction; a changed copy (``dataclasses.replace``,
    :func:`perturb`) computes its own.  ``budget`` is ``V_target`` capped at
    the total volume and, for equal volumes, snapped down to a whole number
    of elements: that leaves the feasible set of v.rho <= V unchanged and
    keeps the dual away from its degenerate boundary.  A gain/volume ratio
    that overflows raises :class:`NonFinite`.
    """

    w: np.ndarray
    v: np.ndarray
    V_target: float
    total_volume: float = field(init=False, repr=False, compare=False)
    budget: float = field(init=False, repr=False, compare=False)
    ratios: np.ndarray = field(init=False, repr=False, compare=False)
    equal_volumes: bool = field(init=False, repr=False, compare=False)
    _w_max: float = field(init=False, repr=False, compare=False)
    _v_min: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "w", _readonly(self.w))
        object.__setattr__(self, "v", _readonly(self.v))
        object.__setattr__(self, "V_target", float(self.V_target))
        w, v = self.w, self.v
        if w.ndim != 1 or v.shape != w.shape or w.size < 1:
            raise ValueError("w and v must be 1-D sequences of equal length >= 1")
        # a nan makes its array's extremes nan, so the extremes decide every check
        w_min, w_max, v_min, v_max = w.min(), w.max(), v.min(), v.max()
        if not all(map(math.isfinite, (w_min, w_max, v_min, v_max))):
            raise ValueError("w and v must be finite")
        if v_min <= 0.0:
            raise ValueError("all volumes must be positive")
        if w_min < 0.0:
            raise ValueError("all gains must be nonnegative")
        total = float(v.sum())
        if not 0.0 < self.V_target <= total * (1.0 + 1e-9):
            raise ValueError(
                f"V_target must lie in (0, sum(v)]; got {self.V_target} vs {total}"
            )
        # a finite w_max / v_min bounds every ratio; past it, the ratios decide
        if math.isfinite(float(w_max) / float(v_min)):
            ratios = w / v
        else:
            with np.errstate(over="ignore"):
                ratios = w / v
            if not math.isfinite(ratios.max()):
                raise NonFinite("a gain/volume ratio overflows")
        ratios.flags.writeable = False
        equal = bool(v_min == v_max)
        budget = min(self.V_target, total)
        if equal:  # k * v[0] can round one ulp above the summed total
            budget = min(affordable_count(v, budget) * float(v[0]), total)
        object.__setattr__(self, "total_volume", total)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "equal_volumes", equal)
        object.__setattr__(self, "_w_max", float(w_max))
        object.__setattr__(self, "_v_min", float(v_min))

    @property
    def n(self):
        return self.w.size


@dataclass(frozen=True)
class DualPoint:
    """Per-element duals ``sigma`` and the volume multiplier ``tau``."""

    sigma: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", _readonly(self.sigma))
        object.__setattr__(self, "tau", float(self.tau))
        if np.any(self.sigma <= 0.0) or not np.all(np.isfinite(self.sigma)):
            raise InvalidDual("sigma must be strictly positive and finite")
        if not (self.tau >= 0.0 and math.isfinite(self.tau)):
            raise InvalidDual("tau must be finite and nonnegative")


@dataclass(frozen=True)
class BinaryDensity:
    """A {0,1} design vector."""

    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _readonly(self.rho))
        if not np.all((self.rho == 0.0) | (self.rho == 1.0)):
            raise ValueError("rho must be exactly {0,1}-valued")

    def support(self):
        return tuple(int(i) for i in np.flatnonzero(self.rho == 1.0))


@dataclass(frozen=True)
class TauCritical:
    """Minimizer of the critical-multiplier objective, with its interval:
    the uniqueness report.  An open interval (``is_interval``) means a
    unique ratio-greedy optimum, an empty one (lo == hi == value) a tie at
    the margin, which :class:`DegenerateInstance` names by ``value``.
    ``value`` is the midpoint of a finite open interval; ``hi`` may be
    ``inf`` when every large multiplier is optimal (empty effective budget).
    """

    value: float
    lo: float
    hi: float

    @property
    def is_interval(self):
        return self.hi > self.lo


@dataclass(frozen=True)
class InnerResult:
    """Outcome of the alternating dual iteration."""

    point: DualPoint
    iterations: int
    converged: bool              # False: a tau 2-cycle, or MAX_INNER reached
    objective: float
    last_delta: float


@dataclass(frozen=True)
class Certificate:
    """Optimality evidence attached to a solve."""

    gain: float                  # w.rho on the original gains
    dual_objective: float        # D_inf at the reported tau on the solved instance
    residual: float              # |-w.rho - D_inf| on the solved instance
    perturbed: bool
    trivial: str | None = None


@dataclass(frozen=True)
class SolveParams:
    """Options of :func:`solve`: the multiplier to report when it is
    optimal (a warm start from the previous solve) and whether to break
    ties by the ramp perturbation of scale ``perturb_scale``."""

    tau0: float = 1.0
    perturb: bool = True
    perturb_scale: float = field(default=1e-8, init=False)  # relative to max(w)


@dataclass(frozen=True)
class SolveResult:
    """Selection, reported multiplier and certificate of one solve.

    ``solved`` is the instance whose dual certifies ``tau``: the input, or
    its ramp-perturbed copy when ``certificate.perturbed``.
    """

    density: BinaryDensity
    tau: float
    certificate: Certificate
    solved: KnapsackInstance = field(repr=False, compare=False)

    @property
    def point(self):
        """The dual point (sigma, tau) at the cubic's beta -> inf root
        sigma = |theta|; the floor keeps a tau on a breakpoint valid."""
        theta = self.tau * self.solved.v - self.solved.w
        return DualPoint(np.maximum(np.abs(theta), np.finfo(float).tiny), self.tau)


@dataclass(frozen=True)
class BruteForceResult:
    objective: float
    optima: tuple  # tuple of index-tuples, every argmax subset


# ---------------------------------------------------------------------------
# per-element cubic
# ---------------------------------------------------------------------------

def _positive_cubic_root(theta_abs, beta):
    """Vectorized unique positive root of 2/beta s^3 + s^2 = theta^2.

    f(s) = s^2 (1 + 2 s / beta) - theta^2 is increasing and convex on s > 0,
    so Newton from any upper bound of the root converges monotonically.
    Both |theta| and (beta theta^2 / 2)^(1/3) are upper bounds; their
    minimum is tight in the respective small- and large-theta regimes.
    """
    t2 = theta_abs * theta_abs
    s = np.minimum(theta_abs, np.cbrt(0.5 * beta * t2))
    inv_b = 2.0 / beta
    for _ in range(80):
        f = s * s * (1.0 + inv_b * s) - t2
        fp = s * (2.0 + 3.0 * inv_b * s)
        step = f / fp
        s = s - step
        if np.all(np.abs(step) <= 4.5e-16 * s):
            break
    return s


def sigma_from_theta(theta, beta):
    """Unique sigma > 0 with 2/beta sigma^3 + sigma^2 = theta^2.

    Accepts scalars or arrays (theta and beta broadcast).  Raises
    :class:`DegenerateTheta` when any |theta| <= 1e-14, where the cubic has
    no positive root and the caller must perturb.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0.0):
        raise ValueError("beta must be positive")
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0 and beta.ndim == 0
    th_abs = np.abs(np.atleast_1d(th))
    small = th_abs <= THETA_TOL
    if np.any(small):
        e = int(np.flatnonzero(small)[0])
        raise DegenerateTheta(
            f"theta[{e}] = 0 within {THETA_TOL:g}: no positive cubic root"
        )
    s = _positive_cubic_root(th_abs, beta if beta.ndim else float(beta))
    return float(s[0]) if scalar else s


# ---------------------------------------------------------------------------
# dual objective and updates
# ---------------------------------------------------------------------------

def tau_update(sigma, instance, budget):
    """Volume-multiplier update at budget V, clamped to the KKT sign tau >= 0.

    tau = [sum v_e (1 + w_e / sigma_e) - 2 V] / [sum v_e^2 / sigma_e]
    """
    sig = np.asarray(sigma, dtype=float)
    if np.any(sig <= 0.0):
        raise InvalidDual("tau_update requires sigma > 0")
    v, w = instance.v, instance.w
    num = float(np.sum(v * (1.0 + w / sig))) - 2.0 * float(budget)
    den = float(np.sum(v * v / sig))
    return max(num / den, 0.0)


def dual_objective_beta(point, instance, budget, beta):
    """Penalized dual value at budget V; strictly concave in (sigma, tau)
    on sigma > 0.  At beta = inf it is the penalty-free dual, a lower
    bound on -w.rho."""
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    psi = point.sigma + instance.w - point.tau * instance.v
    quad = np.sum(psi * psi / point.sigma)
    # no penalty at beta = inf, where an overflowing sum sigma^2 would give nan
    pen = np.sum(point.sigma * point.sigma) / beta if beta < math.inf else 0.0
    return float(-0.25 * (quad + pen) - point.tau * float(budget))


def inner_fixed_point(instance, budget, beta, tau0=1.0):
    """Alternate the per-element cubic solve with the tau update at ``budget``.

    Stops when the penalized dual value changes by at most :data:`OMEGA1`,
    or stalls after :data:`MAX_INNER` iterations.
    Exact theta_e = 0 hits along the way are escaped by a deterministic
    upward nudge of tau; a persistent hit (symmetric tie pulling tau back
    onto a breakpoint) raises :class:`DegenerateTheta` with the element.
    """
    if tau0 < 0.0:
        raise ValueError("tau0 must be nonnegative")
    v, w = instance.v, instance.w
    V = float(budget)
    b = float(beta)
    tau = float(tau0)
    nudges = 0
    prev_obj = None
    prev_taus = (math.nan, math.nan)
    obj = math.nan
    delta = math.inf
    sigma = None
    for k in range(1, MAX_INNER + 1):
        theta = tau * v - w
        while np.any(np.abs(theta) <= THETA_TOL):
            nudges += 1
            if nudges > 8:
                e = int(np.flatnonzero(np.abs(theta) <= THETA_TOL)[0])
                raise DegenerateTheta(f"tau is pinned on the breakpoint of element {e}")
            tau = tau + 1e-9 * max(1.0, tau)
            theta = tau * v - w
        sigma = _positive_cubic_root(np.abs(theta), b)
        tau = tau_update(sigma, instance, V)
        point = DualPoint(sigma, tau)
        obj = dual_objective_beta(point, instance, V, b)
        if not (math.isfinite(obj) and math.isfinite(tau)):
            raise NonFinite(f"non-finite dual state at inner iteration {k}")
        if prev_obj is not None:
            delta = abs(obj - prev_obj)
            if delta <= OMEGA1:
                return InnerResult(point, k, True, obj, delta)
        # a tau revisit two steps back means a rounding-level 2-cycle:
        # nothing further can change, report the stall now
        if tau == prev_taus[0]:
            return InnerResult(point, k, False, obj, delta)
        prev_taus = (prev_taus[1], tau)
        prev_obj = obj
    return InnerResult(DualPoint(sigma, tau), MAX_INNER, False, obj,
                       delta if math.isfinite(delta) else math.inf)


def recover_density(point, instance):
    """Round rho_e = (1 - theta_e/sigma_e)/2 to {0,1}.

    Raises :class:`NotBinary` when any raw value sits farther than 1e-6
    from an integer — the signal that beta must be escalated, never a
    license to round harder.
    """
    theta = point.tau * instance.v - instance.w
    raw = 0.5 * (1.0 - theta / point.sigma)
    rounded = np.where(raw >= 0.5, 1.0, 0.0)
    max_dev = float(np.max(np.abs(raw - rounded)))
    if max_dev > BINARY_TOL:
        raise NotBinary(f"raw density deviates {max_dev:.3e} from binary")
    return BinaryDensity(rounded)


# ---------------------------------------------------------------------------
# budget granularity
# ---------------------------------------------------------------------------

def affordable_count(v, budget):
    """Number of equal-volume elements that fit within ``budget``."""
    v = np.asarray(v, dtype=float)
    ve = float(v[0])
    m = int(math.floor(budget / ve * (1.0 + 1e-12) + 1e-9))
    return max(0, min(v.size, m))


# ---------------------------------------------------------------------------
# uniqueness diagnosis
# ---------------------------------------------------------------------------

def tau_critical(instance):
    """Minimize sum_e (|w_e - tau v_e| - tau v_e) + 2 tau V over tau >= 0,
    at the instance's budget V.

    The objective is piecewise linear and convex with breakpoints at the
    gain/volume ratios; its slope on a ratio-free segment is
    2 * (volume of elements priced out - (total - V)).  The minimizer is
    either a single breakpoint or a whole segment; for a segment the
    midpoint is reported along with the segment itself.  With equal
    volumes the snapped budget prices out k whole elements, so the ends
    are the k-th and (k+1)-th smallest ratios: one single-rank selection
    in O(n) finds the k-th and leaves the larger ratios after it, whose
    minimum is the (k+1)-th (none is needed at k = 0 or k = n); unequal
    volumes sort.  Scaling v and V together changes nothing.
    """
    V = instance.budget
    v, n = instance.v, instance.n
    r = instance.ratios
    if instance.equal_volumes:
        # V is a whole number of volumes already, so the quotient rounds back to it
        k = n - round(V / float(v[0]))
        if k == 0:
            lo, hi = 0.0, float(r.min())
        elif k == n:
            lo, hi = float(r.max()), math.inf
        else:
            part = np.partition(r, k - 1)
            lo, hi = float(part[k - 1]), float(part[k:].min())
    else:
        total = instance.total_volume
        target = total - V
        vol_tol = 1e-9 * total
        order = np.argsort(r, kind="stable")
        r_sorted = r[order]
        csum = np.concatenate([[0.0], np.cumsum(v[order])])
        # largest k with cumulative priced-out volume <= target
        k = int(np.searchsorted(csum, target + vol_tol, side="right")) - 1
        if abs(csum[k] - target) > vol_tol:
            # target falls strictly inside element k's volume: kink at its ratio
            t = float(r_sorted[k])
            return TauCritical(t, t, t)
        lo = float(r_sorted[k - 1]) if k > 0 else 0.0
        hi = float(r_sorted[k]) if k < n else math.inf
    if hi > lo:
        value = 0.5 * (lo + hi) if math.isfinite(hi) else lo + max(1.0, lo)
        return TauCritical(value, lo, hi)
    return TauCritical(lo, lo, lo)


# perfbench's tracer wraps this name, so analytic.buridan calls it; the
# alias and that call go once the tracer no longer wraps it
existence_check = tau_critical


def perturb(instance, epsilon):
    """Copy of the instance with a strictly decreasing ramp added to w.

    w_e <- w_e + epsilon * (n - e) / n for 0-based e, which separates tied
    gain/volume ratios deterministically (element 0 is favored).
    """
    n = instance.n
    ramp = epsilon * (n - np.arange(n)) / n
    return replace(instance, w=instance.w + ramp)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _own_density(rho):
    # rho is a kept set solve has just made (np.ones, np.zeros or a mask cast):
    # a fresh {0,1} float array held nowhere else, which needs no copy or check
    rho.flags.writeable = False
    density = object.__new__(BinaryDensity)
    object.__setattr__(density, "rho", rho)
    return density


def _result(instance, work, rho, tau, trivial=None):
    """Solve result for ``rho`` at multiplier ``tau`` on the solved copy
    ``work``, certified by D_inf(tau) = -(tau V + sum max(0, w - tau v)),
    the penalty-free dual at sigma = |theta|, summed from (w, v, tau)."""
    tau = float(tau)
    v = work.v[0] if work.equal_volumes else work.v  # the same tau * v_e each
    excess = work.w - tau * v
    np.maximum(excess, 0.0, out=excess)
    dual = -(tau * work.budget + float(excess.sum()))
    gain = float(np.dot(instance.w, rho))
    work_gain = gain if work is instance else float(np.dot(work.w, rho))
    residual = abs(-work_gain - dual)
    if not all(map(math.isfinite, (gain, dual, residual))):
        raise NonFinite(f"certificate gain {gain}, D_inf {dual}, gap {residual}")
    cert = Certificate(
        gain=gain,
        dual_objective=dual,
        residual=residual,
        perturbed=work is not instance,
        trivial=trivial,
    )
    return SolveResult(_own_density(rho), tau, cert, work)


def solve(instance, params=None):
    """Solve the knapsack instance to proven optimality where the dual applies.

    At the instance's enforceable ``budget``, takes the critical interval
    (lo, hi) from :func:`tau_critical` and keeps every element with
    ratio w_e / v_e > lo.  The reported tau is ``params.tau0`` when it lies
    strictly inside the interval, else the interval's own value; D_inf at
    that tau certifies the selection.  An empty interval is an exact tie at
    the margin: with ``perturb`` the ramp-perturbed copy is solved instead
    (and must have an interval, or :class:`Unsolved` is raised), without it
    :class:`DegenerateInstance` is raised.  The certificate's gain is taken
    on the original gains even when a perturbed copy was solved.  A gain,
    D_inf or gap that is not finite raises :class:`NonFinite`.
    """
    p = params or SolveParams()
    budget, n = instance.budget, instance.n

    if budget >= instance.total_volume * (1.0 - 1e-12):
        return _result(instance, instance, np.ones(n), 0.0, "budget admits every element")
    if budget < instance._v_min * (1.0 - 1e-12):
        tau = 1.0 + 2.0 * float(np.max(instance.ratios))
        return _result(instance, instance, np.zeros(n), tau, "budget admits no element")

    work = instance
    tc = tau_critical(work)
    if not tc.is_interval:
        if not p.perturb:
            raise DegenerateInstance(
                f"critical multiplier {tc.value:g} is the ratio of a tie at the "
                "margin; multiple optima"
            )
        work = perturb(instance, p.perturb_scale * (instance._w_max or 1.0))
        tc = tau_critical(work)
        if not tc.is_interval:
            raise Unsolved(
                f"critical multiplier {tc.value:g}: the instance remains degenerate after "
                "ramp perturbation (the LP relaxation has a fractional optimum)"
            )
    # the kept set is read off the interval, not off the sign of theta: the
    # midpoint of a one-ulp interval can round onto an endpoint
    rho = (work.ratios > tc.lo).astype(float)
    tau = p.tau0 if tc.lo < p.tau0 < tc.hi else tc.value
    result = _result(instance, work, rho, tau)
    cert = result.certificate
    if not cert.residual <= GAP_RTOL * abs(cert.dual_objective):
        raise Unsolved(f"certificate gap {cert.residual:.3e} at tau = {tau:g}")
    return result


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def brute_force(instance):
    """Enumerate all subsets; returns the best gain and every argmax subset.

    Intended as a test oracle; limited to n <= 25.
    """
    n = instance.n
    if n > 25:
        raise TooLarge(f"n = {n} exceeds the enumeration limit of 25")
    w, v = instance.w, instance.v
    V = instance.V_target + 1e-9 * instance.total_volume
    # gain and volume of every subset of the first `low` elements, from a
    # 0/1 table of the row numbers' bits built 4096 rows at a time
    low = min(n, 16)
    gains_low = np.empty(1 << low)
    vols_low = np.empty(1 << low)
    for start in range(0, 1 << low, 4096):
        rows = np.arange(start, min(start + 4096, 1 << low), dtype="<u2")
        T = np.unpackbits(rows.view(np.uint8).reshape(-1, 2), axis=1,
                          bitorder="little")[:, :low].astype(float)
        gains_low[start:start + len(rows)] = T @ w[:low]
        vols_low[start:start + len(rows)] = T @ v[:low]
    best = -math.inf
    best_masks = []
    for hi in range(1 << (n - low)):
        hw = sum(w[low + j] for j in range(n - low) if (hi >> j) & 1)
        hv = sum(v[low + j] for j in range(n - low) if (hi >> j) & 1)
        gains = gains_low + hw
        gains[vols_low + hv > V] = -math.inf
        m = float(gains.max())
        if m > best:
            best = m
            best_masks = []
        if m == best:
            idx = np.flatnonzero(gains == best)
            best_masks.extend(int(x) + (hi << low) for x in idx)
    optima = tuple(
        tuple(e for e in range(n) if (mask >> e) & 1) for mask in sorted(best_masks)
    )
    # canonical objective: same dot-product evaluation a solver certificate uses
    rho = np.zeros(n)
    rho[list(optima[0])] = 1.0
    return BruteForceResult(objective=float(np.dot(w, rho)), optima=optima)
