"""Answer checks for the benchmark.

Two oracles judge knapsack selections without using the solver's own
helpers: greedy top-k, exact for equal volumes at any size, and the
exhaustive ``knapsack.brute_force`` for n <= 25.  FEM runs are compared
with reference values recorded from a known-good commit in
``reference.json``: outer iterations, final compliance and, for binary
designs, a hash of the design.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The solver accepts a relative residual of 1e-10, so a compliance that
# moves by more than that is a different answer, not rounding.
COMPLIANCE_RTOL = 1e-10
# Two dot products over the same 0/1 selection in another order.
GAIN_RTOL = 1e-12


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def design_sha256(rho):
    """Hash of a {0,1} design, one byte per element."""
    rho = np.asarray(rho, dtype=float)
    if not np.all((rho == 0.0) | (rho == 1.0)):
        raise ValueError("design hash needs a {0,1} design")
    return hashlib.sha256(rho.astype(np.uint8).tobytes()).hexdigest()


def check_fem(ref, record, rho, binary):
    """Mismatches of one finished FEM run against its reference, as text."""
    bad = []
    if not record.converged:
        bad.append("run did not converge")
    if record.outer_iterations != ref["outer_iters"]:
        bad.append(f"outer iterations {record.outer_iterations} != {ref['outer_iters']}")
    want = float(ref["compliance"])
    rel = abs(record.final_compliance - want) / abs(want)
    if not rel <= COMPLIANCE_RTOL:
        bad.append(f"compliance {record.final_compliance!r} != {want!r} (rel {rel:.2e})")
    if binary and design_sha256(rho) != ref["design_sha256"]:
        bad.append("design hash differs from the reference")
    return bad


def check_outputs(record, pgm_paths, csv_path, n_images):
    """Mismatches of the written graymaps and CSV record, as text."""
    bad = []
    if len(pgm_paths) != n_images or not all(Path(p).stat().st_size > 0 for p in pgm_paths):
        bad.append(f"expected {n_images} non-empty graymaps, got {pgm_paths}")
    with open(csv_path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if len(lines) != record.outer_iterations + 1:
        bad.append(f"CSV has {len(lines)} lines for {record.outer_iterations} iterations")
    return bad


def affordable(v, budget):
    """How many equal-volume elements fit in ``budget``."""
    k = math.floor(budget / float(v[0]) * (1.0 + 1e-12) + 1e-9)
    return max(0, min(len(v), k))


def greedy_topk(w, v, budget):
    """Optimal 0/1 selection for equal volumes: the k largest gains."""
    k = affordable(v, budget)
    rho = np.zeros(len(w))
    rho[np.argsort(-np.asarray(w), kind="stable")[:k]] = 1.0
    return rho, k


def check_selection(w, v, budget, rho, cert_gain, perturbed, perturb_scale, optima=None):
    """Why a certified selection is not optimal, or None when it is.

    A selection is optimal when it keeps k elements none of which has a
    smaller gain than a dropped one (greedy top-k, exact for equal
    volumes), or when it is one of ``optima``, the optimal supports from
    ``brute_force``.  A selection made on ramp-perturbed gains may fall
    short of the optimum by at most k * perturb_scale * max(w), the
    ramp's total.
    """
    w = np.asarray(w, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if not np.all((rho == 0.0) | (rho == 1.0)):
        return "selection is not binary"
    if not np.all(v == v[0]):
        raise ValueError("greedy oracle needs equal volumes")
    best_rho, k = greedy_topk(w, v, budget)
    count = int(rho.sum())
    if count > k:
        return f"selection keeps {count} elements, budget admits {k}"
    gain = float(np.dot(w, rho))
    if abs(cert_gain - gain) > GAIN_RTOL * max(1.0, abs(gain)):
        return f"certificate gain {cert_gain!r} != selected gain {gain!r}"
    chosen = rho == 1.0
    if count == k and (k in (0, len(w)) or w[chosen].min() >= w[~chosen].max()):
        return None
    if optima is not None and tuple(int(i) for i in np.flatnonzero(chosen)) in optima:
        return None
    best = float(np.dot(w, best_rho))
    shortfall = best - gain
    if perturbed:
        allowed = k * perturb_scale * float(w.max())
        if shortfall <= allowed + GAIN_RTOL * abs(best):
            return None
        return f"gain short of the optimum by {shortfall:.3e} (ramp allows {allowed:.3e})"
    return f"gain short of the optimum by {shortfall:.3e} without perturbation"
