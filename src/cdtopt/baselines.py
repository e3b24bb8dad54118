"""Reference methods on the driver's one outer loop: penalized continuous
densities with optimality-criteria updates (SIMP), and the greedy
keep-the-most-energetic-elements selection (BESO) on CDT's schedule.
:data:`METHODS` names every method for the command line; :func:`method_config`
builds a method's config, and checks every value, before :func:`run_method` runs it.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from . import knapsack
from .driver import CdtConfig, check_volfrac, outer_loop, run_cdt, run_selection
# assemble and solve_equilibrium stay bound only because the benchmark's
# tracer wraps baselines.assemble and baselines.solve_equilibrium by name
from .fem import assemble, element_energies, moduli, solve_equilibrium  # noqa: F401

__all__ = [
    "SimpConfig",
    "check_simp_volfrac",
    "run_simp",
    "run_beso",
    "beso_select",
    "METHODS",
    "method_config",
    "run_method",
]


# Move limit of the optimality-criteria update, the fixed value of
# Andreassen et al. 2011, "Efficient topology optimization in MATLAB using
# 88 lines of code"; their damping exponent 1/2 is the update's square
# root.  The density floor keeps the multiplicative update from freezing
# an element at zero.
OC_MOVE = 0.2
X_MIN = 1e-3


@dataclass(frozen=True)
class SimpConfig:
    penal: float = 3.0
    rmin: float = 1.5      # sensitivity-filter radius; 1 filters nothing, up to a rounding
    omega2: float = 1e-2
    max_outer: int = 2000

    def __post_init__(self):
        if not 1.0 <= self.penal < math.inf:
            raise ValueError("penal must be finite and >= 1")
        if not 1.0 <= self.rmin < math.inf:
            raise ValueError("rmin must be finite and >= 1")
        if not 0.0 < self.omega2 < math.inf:
            raise ValueError("omega2 must be finite and positive")
        if not (isinstance(self.max_outer, numbers.Integral) and self.max_outer >= 1):
            raise ValueError("max_outer must be a whole number >= 1")


def check_simp_volfrac(volfrac):
    """SIMP's volume-fraction rule: :func:`check_volfrac`'s, and no target
    below the density floor, which no update can reach."""
    check_volfrac(volfrac)
    if volfrac < X_MIN:
        raise ValueError(f"volfrac {volfrac:g} lies below SIMP's density floor X_MIN = {X_MIN:g}")


def _filter_matrix(mesh, rmin):
    """Sparse H with H_ij = max(0, rmin - dist(centre_i, centre_j)), and its row
    sums, from one pass per grid offset within rmin (Andreassen et al. 2011).
    Offsets of length exactly rmin keep their pairs, at weight 0."""
    ids, dims = mesh.element_ids(), mesh.dims
    reach = [min(int(rmin), n - 1) for n in dims]  # a side's length or more pairs nothing
    rows, cols, data = [], [], []
    for off in itertools.product(*(range(-r, r + 1) for r in reach)):
        sq = sum(o * o for o in off)
        if sq <= rmin * rmin:
            src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, dims))
            dst = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(off, dims))
            rows.append(ids[src].ravel())
            cols.append(ids[dst].ravel())
            data.append(np.full(rows[-1].size, rmin - math.sqrt(sq)))
    H = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ids.size,) * 2).tocsr()
    return H, np.asarray(H.sum(axis=1)).ravel()


def _oc_multiplier(x, b, lo, hi, volfrac):
    """The multiplier lam at which sum(clip(x sqrt(b / lam), lo, hi)) equals
    n volfrac in real arithmetic, or nan where no one lam does.

    In r = sqrt(lam) an element with c = x sqrt(b) > 0 sits at hi up to
    r = c / hi, at c / r up to r = c / lo and at lo beyond; the sum is
    A + C / r between breakpoints, and one sort of the 2n of them finds
    the piece that holds the root."""
    c = x * np.sqrt(b)
    pos = c > 0.0
    target = x.size * volfrac - lo[~pos].sum()
    c, lo, hi = c[pos], lo[pos], hi[pos]
    breaks = np.concatenate((c / hi, c / lo))
    order = np.argsort(breaks)
    A = hi.sum() + np.cumsum(np.concatenate((-hi, lo))[order])
    C = np.cumsum(np.concatenate((c, -c))[order])
    reached = np.flatnonzero(A + C / breaks[order] <= target)
    if reached.size == 0 or reached[0] == 0:
        return math.nan
    k = reached[0] - 1
    if not (C[k] > 0.0 and target > A[k]):
        return math.nan
    r = float(C[k] / (target - A[k]))
    return r * r


def _oc_update(x, dc, volfrac):
    """Optimality-criteria step with bisection on the volume multiplier in
    (0, 1e9], whose upper end doubles while the target lies beyond it.

    The volume of step(lam) never grows with lam, in floating point too
    (every operation is correctly rounded or order-preserving), so a step
    is evaluated only where no earlier one has decided its side.  Probes
    just either side of :func:`_oc_multiplier`'s estimate decide most
    steps; the estimate only advises, so the bisection takes the same
    steps, and returns the same bits, whatever it is."""
    b = np.maximum(-dc, 0.0)
    lo = np.maximum(x - OC_MOVE, X_MIN)
    hi = np.minimum(x + OC_MOVE, 1.0)

    def step(lam):
        return np.clip(x * np.sqrt(b / lam), lo, hi)

    above, below = -math.inf, math.inf  # largest lam known over, least known not

    def over(lam):
        nonlocal above, below
        if lam <= above:
            return True
        if lam >= below:
            return False
        if step(lam).mean() > volfrac:
            above = lam
            return True
        below = lam
        return False

    # the estimate only advises: an overflow or nan in it, or in a probe's
    # step, is dropped with it, not reported
    with np.errstate(over="ignore", invalid="ignore"):
        lam_hat = _oc_multiplier(x, b, lo, hi, volfrac)
        if math.isnan(lam_hat):
            # every step lies elementwise at or below its lam -> 0 limit, and
            # a sum is monotone: if the limit is not over, no step is
            if not np.where(b > 0.0, hi, lo).mean() > volfrac:
                below = 0.0
        elif 0.0 < lam_hat < math.inf:
            for rel in (1e-10, 1e-6):
                if above == -math.inf:
                    over(lam_hat * (1.0 - rel))
                if below == math.inf:
                    over(lam_hat * (1.0 + rel))
    l1, l2 = 0.0, 1e9
    # the floor has the least volume: once any step is known not over, no
    # step that is over lies on it
    while over(l2) and (below < math.inf or not np.array_equal(step(l2), lo)):
        l2 *= 2.0
    # the stop test's floor on l1 + l2 scales with b, as the multiplier
    # does, so that a small load bisects as far as a unit one; b = 0 keeps 1e-30
    tiny = 1e-30 * float(b.max()) or 1e-30
    bisections = 0
    while (l2 - l1) / (l1 + l2 + tiny) > 1e-9:
        bisections += 1
        lmid = 0.5 * (l1 + l2)
        if over(lmid):
            l1 = lmid
        else:
            l2 = lmid
    return step(lmid), bisections


def run_simp(model, volfrac, config=None):
    """Penalized continuous optimization with OC updates on sensitivities
    filtered within ``rmin`` (Andreassen et al. 2011), from the uniform
    design ``volfrac``, on the driver's outer loop, whose in-loop solves
    log a residual above the bound and whose final solve raises on it.

    Returns (densities, Displacement, RunRecord).  Non-convergence within
    the iteration cap is reported through record.converged, not raised.
    """
    cfg = config or SimpConfig()
    check_simp_volfrac(volfrac)
    E, E_min = model.material.E, model.material.E_min
    H, Hs = _filter_matrix(model.mesh, cfg.rmin)

    def step(w, v, x):
        ce = 2.0 * w / E                        # unit-modulus u_e.K_e u_e
        dc = -cfg.penal * x ** (cfg.penal - 1.0) * (E - E_min) * ce
        dc = (H @ (x * dc)) / Hs / np.maximum(X_MIN, x)
        xnew, bisections = _oc_update(x, dc, volfrac)
        E_x = moduli(model, x, cfg.penal)       # 1/2 u.K(x)u = E_x.w / E
        fields = dict(inner_iters=bisections, strain_energy=float(np.dot(E_x, w)) / E,
                      P_u=-float(np.dot(w, xnew)), P_dual=math.nan, V_gamma=volfrac)
        return xnew, fields, float(np.max(np.abs(xnew - x))) <= cfg.omega2

    # full-modulus gains; element_energies is looked up here on each call,
    # where the benchmark's tracer wraps it
    return outer_loop(model, "simp", np.full(model.mesh.n_elements, volfrac),
                      lambda model, x, u: element_energies(model, u), step,
                      cfg.max_outer, penal=cfg.penal)


def beso_select(w, v, budget, current):
    """Greedy subset for one step: highest gains first until the budget
    is filled; ties prefer currently solid elements, then lower index."""
    w = np.asarray(w, dtype=float)
    keep = knapsack.affordable_count(v, budget)
    order = np.lexsort((np.arange(w.size), -np.asarray(current, float), -w))
    rho = np.zeros(w.size)
    rho[order[:keep]] = 1.0
    return rho


def run_beso(model, config):
    """Greedy evolutionary baseline on the shared volume schedule.

    CDT's run (:func:`cdtopt.driver.run_selection`: :class:`CdtConfig`,
    schedule and stop rule), with :func:`beso_select` as the selection step.
    """

    def select(w, v, V_g, rho):
        return beso_select(w, v, V_g, rho), {"inner_iters": 1, "P_dual": math.nan}

    return run_selection(model, config, "beso", select)


# method name -> (config class, run(model, volfrac, config))
METHODS = {
    "cdt": (CdtConfig, lambda model, volfrac, config: run_cdt(model, config)),
    "beso": (CdtConfig, lambda model, volfrac, config: run_beso(model, config)),
    "simp": (SimpConfig, run_simp),
}


def method_config(name, options):
    """Config of method ``name`` of :data:`METHODS`, with each field that
    ``options`` names set from it.  Raises ValueError on any value out of
    range, ``options["volfrac"]`` included (by :class:`CdtConfig` for CDT
    and BESO), before anything runs."""
    config_cls, _ = METHODS[name]
    if name == "simp":
        check_simp_volfrac(options["volfrac"])
    return config_cls(**{f.name: options[f.name] for f in fields(config_cls)
                         if f.name in options})


def run_method(name, model, volfrac, config):
    """Run method ``name`` of :data:`METHODS` with ``config`` (from
    :func:`method_config`); returns (densities, RunRecord)."""
    design, _, record = METHODS[name][1](model, volfrac, config)
    if isinstance(design, knapsack.BinaryDensity):
        design = design.rho
    return design, record
