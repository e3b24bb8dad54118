"""The one outer loop of every method, and CDT's run on it.

:func:`outer_loop` alternates equilibrium solves with a method's step and
owns what the methods share: the timed solve, the energy check, the
residual warning, the per-step record, the cap and the final strict solve.
:func:`run_selection` re-selects the kept subset of CDT and BESO at the
scheduled budget V_g = max(V_c, mu * V_{g-1}) until the budget has reached
its target and the selection objective has settled.  :func:`run_cdt` selects
with the dual knapsack solver; BESO and SIMP live in :mod:`cdtopt.baselines`.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import fem, knapsack
from .fem import compliance, element_energies, moduli, solve_equilibrium

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
    "run_selection",
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
    """Raise DriverError, naming the load, unless every element energy is
    finite and some element's is positive."""
    if not np.all(np.isfinite(w)):
        raise DriverError(f"{method} step {step}: the element strain energies overflow; "
                          "the load is too large")
    if not np.any(w > 0.0):
        raise DriverError(f"{method} step {step}: no element strain energy is positive; "
                          "the load is zero or too small")


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
        if not (isinstance(self.max_outer, numbers.Integral) and self.max_outer >= 1):
            raise ValueError("max_outer must be a whole number >= 1")


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


def outer_loop(model, method, rho, score, step, max_outer, penal=1.0):
    """The outer loop of every method, from the design ``rho``.

    Each step solves equilibrium at ``penal``, scores the elements with
    ``score(model, rho, u)`` and calls ``step(w, v, rho)`` (``v``: element
    volumes), which returns the next design, its record fields and whether
    the run has converged.  An in-loop solve returns whatever its
    residual, and a step above ``fem.RESIDUAL_TOL`` is logged as a
    warning; only the final solve is strict and raises on it.  Returns
    (design, final Displacement, RunRecord), with ``record.converged``
    False at ``max_outer``.
    """
    v = model.mesh.element_volumes()
    record = RunRecord(method=method)
    for gamma in range(1, max_outer + 1):
        t0 = time.perf_counter()
        # an overflowing load is reported by check_energies, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            u = solve_equilibrium(model, rho, penal, strict=False)
            t1 = time.perf_counter()
            w = score(model, rho, u)
        check_energies(w, method, gamma)
        if u.residual > fem.RESIDUAL_TOL:
            log.warning("%s step %d: equilibrium residual %.3e exceeds %g",
                        method, gamma, u.residual, fem.RESIDUAL_TOL)
        rho_new, fields, converged = step(w, v, rho)
        t2 = time.perf_counter()
        record.rows.append(IterationRecord(
            gamma=gamma,
            volume=float(np.dot(v, rho_new)),
            compliance=compliance(u, model.load),
            elapsed_ms=(t2 - t0) * 1e3,
            fem_ms=(t1 - t0) * 1e3,
            update_ms=(t2 - t1) * 1e3,
            residual=u.residual,
            **fields,
        ))
        rho = rho_new
        if converged:
            record.converged = True
            break
    u_final = solve_equilibrium(model, rho, penal)
    record.final_compliance = compliance(u_final, model.load)
    return rho, u_final, record


def run_selection(model, config, method, select):
    """CDT's and BESO's :func:`outer_loop` from the solid design: each step
    keeps the layout and record fields of ``select(w, v, V_g, rho)`` at the
    next budget V_g, and the run has converged once V_g is at the volume
    fraction and P_u moved by at most ``omega2``.  Returns (BinaryDensity,
    final Displacement, RunRecord)."""
    V_g, P_prev = 1.0, None  # V0 = 1 by construction

    def step(w, v, rho):
        nonlocal V_g, P_prev
        V_g = volume_schedule(V_g, config.mu, config.volfrac)
        rho_new, fields = select(w, v, V_g, rho)
        gain = float(np.dot(w, rho_new))
        if P_prev is None:
            P_prev = -float(np.dot(w, rho))  # reference: previous layout, same gains
        converged = abs(-gain - P_prev) <= config.omega2 and V_g <= config.volfrac + 1e-12
        P_prev = -gain
        return rho_new, dict(strain_energy=gain, P_u=-gain, V_gamma=V_g, **fields), converged

    rho, u, record = outer_loop(model, method, np.ones(model.mesh.n_elements),
                                stored_energy_gains, step, config.max_outer)
    return knapsack.BinaryDensity(rho), u, record


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

    return run_selection(model, config, "cdt", select)
