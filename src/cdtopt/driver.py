"""Outer optimization loop: alternate equilibrium solves with analytic
knapsack updates under a geometric volume-reduction schedule.

Each outer step solves the elastic equilibrium at the current layout,
scores every element by the strain energy it would store, and re-selects
the kept subset at the scheduled budget V_g = max(V_c, mu * V_{g-1}).
The loop stops once the budget has reached its target and the selection
objective has settled, or, unconverged, at its iteration cap.
:func:`run_cdt` selects with the dual knapsack solver; BESO
(:func:`cdtopt.baselines.run_beso`) runs the same loop with a greedy selector.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import knapsack
from .fem import RESIDUAL_TOL, compliance, element_energies, moduli, solve_equilibrium

__all__ = [
    "DriverError",
    "check_volfrac",
    "check_energies",
    "CdtConfig",
    "IterationRecord",
    "RunRecord",
    "volume_schedule",
    "stored_energy_gains",
    "outer_loop",
    "run_cdt",
]

log = logging.getLogger(__name__)


class DriverError(Exception):
    """Base class for outer-loop failures."""


def check_volfrac(volfrac):
    """The volume-fraction rule of every method: raise unless in (0, 1]."""
    if not 0.0 < volfrac <= 1.0:
        raise ValueError("volfrac must lie in (0, 1]")


def check_energies(w, method, step):
    """Raise DriverError, naming the load, unless every element energy is finite."""
    if not np.all(np.isfinite(w)):
        raise DriverError(f"{method} step {step}: the element strain energies overflow; "
                          "the load is too large")


@dataclass(frozen=True)
class CdtConfig:
    """Outer-loop parameters of CDT and BESO (volume fraction, schedule, stop)."""

    volfrac: float
    mu: float
    omega2: float = 1e-2
    max_outer: int = 2000

    def __post_init__(self):
        check_volfrac(self.volfrac)
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if self.volfrac < 1.0 and self.mu <= self.volfrac:
            raise ValueError("mu must exceed the volume fraction")
        if not 0.0 < self.omega2 < math.inf:
            raise ValueError("omega2 must be finite and positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class IterationRecord:
    """One outer iteration: budget, selection and energy bookkeeping."""

    gamma: int
    inner_iters: int
    volume: float
    compliance: float
    strain_energy: float
    P_u: float
    P_dual: float
    elapsed_ms: float
    V_gamma: float = math.nan
    tau_end: float = math.nan
    fem_ms: float = 0.0
    update_ms: float = 0.0
    residual: float = math.nan   # relative equilibrium residual of the step's solve


@dataclass
class RunRecord:
    """Full per-iteration log of one optimization run."""

    method: str
    rows: list = field(default_factory=list)
    converged: bool = False
    final_compliance: float = math.nan
    final_volume: float = math.nan

    @property
    def outer_iterations(self):
        return len(self.rows)


def volume_schedule(V_prev, mu, V_c):
    """Next budget max(V_c, mu * V_prev) of the reduction schedule."""
    return max(float(V_c), float(mu) * float(V_prev))


def stored_energy_gains(model, rho, u):
    """Knapsack gains: the strain energy each element stores right now.

    Solid elements score their full-modulus energy, void ones next to
    nothing.  Ranking by the hypothetical full-modulus energy instead
    makes the alternation unstable: an element dropped across a load path
    sees enormous fictitious strain under the frozen displacement field,
    gets re-selected over genuine load-path material, and the selection
    churns without settling.
    """
    return element_energies(model, u) * (moduli(model, rho, 1.0) / model.material.E)


def outer_loop(model, config, method, select):
    """Shared outer loop of CDT and BESO, from the fully solid design.

    Each step solves equilibrium, scores the elements and calls
    ``select(w, v, V_g, rho)``, which returns the new layout and its own
    record fields.  A step whose solve misses ``fem.RESIDUAL_TOL`` is logged
    as a warning.  Returns (BinaryDensity, final Displacement, RunRecord);
    a run that ends at max_outer without meeting the stop rule returns
    with ``record.converged`` False.
    """
    v = model.mesh.element_volumes()
    rho = np.ones(model.mesh.n_elements)
    V_g = 1.0  # V0 = 1 by construction
    record = RunRecord(method=method)
    for gamma in range(1, config.max_outer + 1):
        t0 = time.perf_counter()
        # an overflowing load is reported by check_energies, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            u = solve_equilibrium(model, rho, strict=False)
            t1 = time.perf_counter()
            w = stored_energy_gains(model, rho, u)
        check_energies(w, method, gamma)
        if u.residual > RESIDUAL_TOL:
            log.warning("%s step %d: equilibrium residual %.3e exceeds %g",
                        method, gamma, u.residual, RESIDUAL_TOL)
        V_g = volume_schedule(V_g, config.mu, config.volfrac)
        rho_new, fields = select(w, v, V_g, rho)
        t2 = time.perf_counter()
        gain = float(np.dot(w, rho_new))
        if gamma == 1:
            P_prev = -float(np.dot(w, rho))  # reference: previous layout, same gains
        record.rows.append(IterationRecord(
            gamma=gamma,
            volume=float(np.dot(v, rho_new)),
            compliance=compliance(u, model.load),
            strain_energy=gain,
            P_u=-gain,
            elapsed_ms=(t2 - t0) * 1e3,
            V_gamma=V_g,
            fem_ms=(t1 - t0) * 1e3,
            update_ms=(t2 - t1) * 1e3,
            residual=u.residual,
            **fields,
        ))
        rho = rho_new
        if abs(-gain - P_prev) <= config.omega2 and V_g <= config.volfrac + 1e-12:
            record.converged = True
            break
        P_prev = -gain
    u_final = solve_equilibrium(model, rho)
    record.final_compliance = compliance(u_final, model.load)
    record.final_volume = float(np.dot(v, rho))
    return knapsack.BinaryDensity(rho), u_final, record


def run_cdt(model, config):
    """Run the alternating dual-knapsack optimization on ``model``.

    Returns (BinaryDensity, Displacement at the final layout, RunRecord).
    Each knapsack solve keeps the previous step's tau while it stays
    optimal.  A closed-form solve is one pass: ``inner_iters`` is 1, as for
    BESO, and ``P_dual`` is the certificate's D_inf.
    """
    tau = knapsack.SolveParams().tau0

    def select(w, v, V_g, rho):
        nonlocal tau
        params = knapsack.SolveParams(tau0=tau)
        result = knapsack.solve(knapsack.KnapsackInstance(w, v, V_g), params=params)
        tau = result.tau
        return result.density.rho, dict(
            inner_iters=1, P_dual=result.certificate.dual_objective, tau_end=tau)

    return outer_loop(model, config, "cdt", select)
