"""Reference methods: penalized continuous densities with optimality-criteria
updates (SIMP), and the greedy keep-the-most-energetic-elements scheme (BESO)
run in the dual solver's outer loop.  :data:`METHODS` names every method
for the command line; :func:`method_config` builds a method's config, and
checks every value, before :func:`run_method` runs it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from . import knapsack
from .driver import (CdtConfig, IterationRecord, RunRecord, check_energies, check_volfrac,
                     outer_loop, run_cdt)
# assemble stays bound: the benchmark's tracer wraps baselines.assemble by name
from .fem import assemble, compliance, element_energies, moduli, solve_equilibrium  # noqa: F401

__all__ = [
    "SimpConfig",
    "run_simp",
    "run_beso",
    "beso_select",
    "METHODS",
    "method_config",
    "run_method",
]


# Move limit and damping exponent of the optimality-criteria update, the
# fixed values of Andreassen et al. 2011, "Efficient topology optimization
# in MATLAB using 88 lines of code".  The density floor keeps the
# multiplicative update from freezing an element at zero.
OC_MOVE = 0.2
OC_ETA = 0.5
X_MIN = 1e-3


@dataclass(frozen=True)
class SimpConfig:
    penal: float = 3.0
    rmin: float = 1.5
    ft: int = 1            # 0 = no filter, 1 = sensitivity filter
    omega2: float = 1e-2
    max_outer: int = 2000

    def __post_init__(self):
        if not 1.0 <= self.penal < math.inf:
            raise ValueError("penal must be finite and >= 1")
        if not 1.0 <= self.rmin < math.inf:
            raise ValueError("rmin must be finite and >= 1")
        if self.ft not in (0, 1):
            raise ValueError("ft must be 0 or 1")
        if not 0.0 < self.omega2 < math.inf:
            raise ValueError("omega2 must be finite and positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


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


def _oc_update(x, dc, dv, volfrac):
    """Optimality-criteria step with bisection on the volume multiplier in
    (0, 1e9], whose upper end doubles while the target lies beyond it."""

    def step(lam):
        cand = x * (np.maximum(-dc, 0.0) / (dv * lam)) ** OC_ETA
        return np.clip(np.clip(cand, x - OC_MOVE, x + OC_MOVE), X_MIN, 1.0)

    l1, l2 = 0.0, 1e9
    floor = np.maximum(x - OC_MOVE, X_MIN)
    xnew = step(l2)
    while xnew.mean() > volfrac and not np.array_equal(xnew, floor):
        l2 *= 2.0
        xnew = step(l2)
    bisections = 0
    while (l2 - l1) / (l1 + l2 + 1e-30) > 1e-9:
        bisections += 1
        lmid = 0.5 * (l1 + l2)
        xnew = step(lmid)
        if xnew.mean() > volfrac:
            l1 = lmid
        else:
            l2 = lmid
    return xnew, bisections


def run_simp(model, volfrac, config=None):
    """Penalized continuous optimization with OC updates.

    Returns (densities, Displacement, RunRecord).  Non-convergence within
    the iteration cap is reported through record.converged, not raised.
    """
    cfg = config or SimpConfig()
    check_volfrac(volfrac)
    mesh, mat = model.mesh, model.material
    n = mesh.n_elements
    v = mesh.element_volumes()
    x = np.full(n, volfrac)
    H, Hs = _filter_matrix(mesh, cfg.rmin)
    dv = np.ones(n)
    record = RunRecord(method="simp")
    for it in range(1, cfg.max_outer + 1):
        t0 = time.perf_counter()
        # an overflowing load is reported by check_energies, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            u = solve_equilibrium(model, x, penal=cfg.penal)
            t1 = time.perf_counter()
            w = element_energies(model, u)      # full-modulus gains
        check_energies(w, "simp", it)
        ce = 2.0 * w / mat.E                    # unit-modulus u_e.K_e u_e
        dc = -cfg.penal * x ** (cfg.penal - 1.0) * (mat.E - mat.E_min) * ce
        if cfg.ft == 1:
            dc = (H @ (x * dc)) / Hs / np.maximum(1e-3, x)
        xnew, bisections = _oc_update(x, dc, dv, volfrac)
        change = float(np.max(np.abs(xnew - x)))
        t2 = time.perf_counter()
        E_x = moduli(model, x, cfg.penal)       # 1/2 u.K(x)u = E_x.w / E
        record.rows.append(IterationRecord(
            gamma=it,
            inner_iters=bisections,
            volume=float(np.dot(v, xnew)),
            compliance=compliance(u, model.load),
            strain_energy=float(np.dot(E_x, w)) / mat.E,
            P_u=-float(np.dot(w, xnew)),
            P_dual=math.nan,
            elapsed_ms=(t2 - t0) * 1e3,
            V_gamma=volfrac,
            fem_ms=(t1 - t0) * 1e3,
            update_ms=(t2 - t1) * 1e3,
            residual=u.residual,
        ))
        x = xnew
        if change <= cfg.omega2:
            record.converged = True
            break
    u_final = solve_equilibrium(model, x, penal=cfg.penal)
    record.final_compliance = compliance(u_final, model.load)
    record.final_volume = float(np.dot(v, x))
    return x, u_final, record


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

    The outer loop, :class:`CdtConfig`, schedule and stop rule of the
    dual-knapsack driver, with :func:`beso_select` as the selection step.
    """

    def select(w, v, V_g, rho):
        return beso_select(w, v, V_g, rho), {"inner_iters": 1, "P_dual": math.nan}

    return outer_loop(model, config, "beso", select)


# method name -> (config class, run(model, volfrac, config))
METHODS = {
    "cdt": (CdtConfig, lambda model, volfrac, config: run_cdt(model, config)),
    "beso": (CdtConfig, lambda model, volfrac, config: run_beso(model, config)),
    "simp": (SimpConfig, run_simp),
}


def method_config(name, options):
    """Config of method ``name`` of :data:`METHODS`, with each field that
    ``options`` names set from it.  Raises ValueError on any value out of
    range, ``options["volfrac"]`` included, before anything runs."""
    config_cls, _ = METHODS[name]
    check_volfrac(options["volfrac"])
    return config_cls(**{f.name: options[f.name] for f in fields(config_cls)
                         if f.name in options})


def run_method(name, model, volfrac, config):
    """Run method ``name`` of :data:`METHODS` with ``config`` (from
    :func:`method_config`); returns (densities, RunRecord)."""
    design, _, record = METHODS[name][1](model, volfrac, config)
    if isinstance(design, knapsack.BinaryDensity):
        design = design.rho
    return design, record
