"""Reference methods: penalized continuous densities with optimality-criteria
updates (SIMP), and the greedy keep-the-most-energetic-elements scheme (BESO)
run in the dual solver's outer loop.  :data:`METHODS` names every method
for the command line and the wall-time probe.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from . import knapsack
from .driver import CdtConfig, IterationRecord, RunRecord, outer_loop, run_cdt
# assemble stays bound: the benchmark's tracer wraps baselines.assemble by name
from .fem import assemble, compliance, element_energies, moduli, solve_equilibrium  # noqa: F401
from .problems import build_cantilever2d

__all__ = [
    "SimpConfig",
    "CostRow",
    "run_simp",
    "run_beso",
    "beso_select",
    "METHODS",
    "run_method",
    "per_iteration_cost_probe",
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
        if self.penal < 1.0:
            raise ValueError("penal must be >= 1")
        if self.rmin < 1.0:
            raise ValueError("rmin must be >= 1")
        if self.ft not in (0, 1):
            raise ValueError("ft must be 0 or 1")
        if not self.omega2 > 0.0:
            raise ValueError("omega2 must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


def _element_centroids(mesh):
    # grid position of each element, in element-number order, plus a half
    at = np.unravel_index(np.argsort(mesh.element_ids(), axis=None), mesh.dims)
    return np.column_stack(at) + 0.5


def _filter_matrix(mesh, rmin):
    """Sparse H with H_ij = max(0, rmin - dist(centroid_i, centroid_j))."""
    pts = _element_centroids(mesh)
    tree = cKDTree(pts)
    pairs = tree.query_pairs(rmin, output_type="ndarray")
    if pairs.size:
        d = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        wgt = rmin - d
        rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(len(pts))])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(len(pts))])
        data = np.concatenate([wgt, wgt, np.full(len(pts), rmin)])
    else:
        rows = cols = np.arange(len(pts))
        data = np.full(len(pts), rmin)
    H = sp.coo_matrix((data, (rows, cols)), shape=(len(pts),) * 2).tocsr()
    return H, np.asarray(H.sum(axis=1)).ravel()


def _oc_update(x, dc, dv, volfrac):
    """Optimality-criteria step with bisection on the volume multiplier."""
    l1, l2 = 0.0, 1e9
    xnew = x
    bisections = 0
    while (l2 - l1) / (l1 + l2 + 1e-30) > 1e-9:
        bisections += 1
        lmid = 0.5 * (l1 + l2)
        cand = x * (np.maximum(-dc, 0.0) / (dv * lmid)) ** OC_ETA
        cand = np.clip(cand, x - OC_MOVE, x + OC_MOVE)
        xnew = np.clip(cand, X_MIN, 1.0)
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
    if not 0.0 < volfrac <= 1.0:
        raise ValueError("volfrac must lie in (0, 1]")
    mesh, mat = model.mesh, model.material
    n = mesh.n_elements
    v = mesh.element_volumes()
    x = np.full(n, volfrac)
    H, Hs = _filter_matrix(mesh, cfg.rmin)
    dv = np.ones(n)
    record = RunRecord(method="simp")
    change = math.inf
    for it in range(1, cfg.max_outer + 1):
        t0 = time.perf_counter()
        u = solve_equilibrium(model, x, penal=cfg.penal)
        t1 = time.perf_counter()
        w = element_energies(model, u)          # full-modulus gains
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
        ))
        x = xnew
        if change <= cfg.omega2:
            break
    record.converged = change <= cfg.omega2
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


def run_method(name, model, options):
    """Run method ``name`` of :data:`METHODS`; returns (densities, RunRecord).
    ``options`` holds volfrac and sets each config field it names."""
    config_cls, run = METHODS[name]
    config = config_cls(**{f.name: options[f.name] for f in fields(config_cls)
                           if f.name in options})
    design, _, record = run(model, options["volfrac"], config)
    if isinstance(design, knapsack.BinaryDensity):
        design = design.rho
    return design, record


@dataclass(frozen=True)
class CostRow:
    method: str
    nelx: int
    nely: int
    n_elements: int
    outer_iters: int
    total_s: float
    fem_s: float
    update_s: float


def per_iteration_cost_probe(mesh_sizes, volfrac=0.5, mu=0.97, methods=("cdt", "beso")):
    """Wall-time comparison across mesh sizes.

    ``mesh_sizes`` is a sequence of (nelx, nely); each method of
    :data:`METHODS` is run to convergence on the long cantilever and one
    CostRow per (method, mesh) is returned.
    """
    options = {"volfrac": volfrac, "mu": mu}
    rows = []
    for nelx, nely in mesh_sizes:
        model = build_cantilever2d(nelx, nely)
        for method in methods:
            t0 = time.perf_counter()
            _, rec = run_method(method, model, options)
            total = time.perf_counter() - t0
            rows.append(CostRow(
                method=method,
                nelx=nelx,
                nely=nely,
                n_elements=model.mesh.n_elements,
                outer_iters=rec.outer_iterations,
                total_s=total,
                fem_s=sum(r.fem_ms for r in rec.rows) * 1e-3,
                update_s=sum(r.update_ms for r in rec.rows) * 1e-3,
            ))
    return rows
