"""Bit-identity pin of knapsack.solve on the benchmark's instance streams.

Seeded chains of the ``knapsack-stream`` workload at the ladder's sizes
(n 768, 4800 and 19200, each along a CDT volume schedule and warm-started
in turn) and a few cold solves at n <= 25 are solved, and one sha256 is
taken over every solve's selection bytes, reported multiplier and
certificate.  A change to the solver's arithmetic that moves any of them
by one ulp changes the digest.  The instance generators are imported from
perfbench/ read-only.  A second digest pins the paths the stream never
takes: unequal volumes (a few ulp to 2x apart) at n 16, 200 and 4800,
and budgets that admit every element or none.
"""

import collections
import hashlib
import importlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdtopt import knapsack as kp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

STREAM_SHA256 = "e9173ee60661a54100405b100152f0f960a787d3740672163e6518d0e332cb75"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def stream_chains(workloads):
    chains = [workloads.Chain(n, workloads.schedule(vf), seed)
              for n, vf, seed in ((768, 0.4, 1), (4800, 0.5, 2), (19200, 0.3, 3))]
    chains += [workloads.Chain(n, ((k + 0.5) / n,), seed)
               for n, k, seed in ((2, 1, 4), (7, 3, 5), (16, 5, 6), (25, 12, 7))]
    return chains


def test_stream_solves_are_bit_identical(workloads):
    digest = hashlib.sha256()
    solves = perturbed = 0
    for chain in stream_chains(workloads):
        tau = 1.0
        for w, v, V in chain.instances():
            res = kp.solve(kp.KnapsackInstance(w, v, V), params=kp.SolveParams(tau0=tau))
            cert = res.certificate
            digest.update(res.density.rho.tobytes())
            digest.update(struct.pack("<5d?", res.tau, cert.gain, cert.dual_objective,
                                      cert.residual, res.solved.budget, cert.perturbed))
            tau = res.tau
            solves += 1
            perturbed += cert.perturbed
    assert solves == 101
    # exact margin ties are part of every chain: the ramp path is pinned too
    assert perturbed == 9
    assert digest.hexdigest() == STREAM_SHA256


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 20: the certificate's gain is an np.dot, which OpenBLAS threads above "
    "10000 elements, so STREAM_SHA256 holds at the default thread count and not at one"))
def test_stream_solves_are_bit_identical_at_one_blas_thread():
    # the benchmark harness pins one BLAS thread; a fresh interpreter reads the pin
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_stream_solves_are_bit_identical"],
        cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stdout[-2000:]


OFF_STREAM_SHA256 = "60ca6f8b489c5ca6420fb8543787fa92bce04d945242833e46d6c62a8f96d1c0"


def unequal_volumes(rng, n, spread):
    base = 1.0 / n
    if spread == "ulp":
        # a few ulp apart: the instance is not equal-volume, barely
        return base * (1.0 + rng.integers(0, 5, n) * 2.0**-52)
    return base * rng.uniform(1.0, spread, n)


def greedy_budget(w, v, m):
    # the volume of the m elements of largest ratio: the LP optimum is 0-1
    return float(v[np.argsort(-(w / v), kind="stable")[:m]].sum())


def off_stream_instances():
    """Seeded instances off the equal-volume stream path: unequal volumes
    (a greedy-prefix budget, a budget inside an element, a tie at the
    margin), and budgets that admit every element or none."""
    rng = np.random.default_rng(20)
    for n in (16, 200, 4800):
        for spread in ("ulp", 1.001, 1.5, 2.0):
            w = rng.uniform(0.0, 1.0, n)
            v = unequal_volumes(rng, n, spread)
            for frac in (0.1, 0.5, 0.9):
                m = int(frac * n)
                yield w, v, greedy_budget(w, v, m), rng.uniform(0.0, 2.0)
            # a budget strictly inside an element's volume: a fractional LP
            yield w, v, greedy_budget(w, v, n // 2) + 0.5 * float(v.min()), 1.0
            # the two marginal elements tie in ratio
            order = np.argsort(-(w / v), kind="stable")
            wt = w.copy()
            a, b = order[n // 2 - 1], order[n // 2]
            wt[b] = wt[a] / v[a] * v[b]
            yield wt, v, greedy_budget(wt, v, n // 2), 1.0
        for v in (np.full(n, 1.0 / n), unequal_volumes(rng, n, 2.0)):
            w = rng.uniform(0.0, 1.0, n)
            w[rng.integers(0, n, n // 8)] = 0.0
            yield w, v, float(v.sum()), 1.0                 # admits every element
            yield w, v, 0.5 * float(v.min()), 1.0           # admits no element


def test_off_stream_solves_are_bit_identical():
    digest = hashlib.sha256()
    outcomes = collections.Counter()
    for w, v, V, tau0 in off_stream_instances():
        try:
            res = kp.solve(kp.KnapsackInstance(w, v, V), params=kp.SolveParams(tau0=tau0))
        except kp.KnapsackError as exc:
            digest.update(type(exc).__name__.encode())
            outcomes[type(exc).__name__] += 1
            continue
        cert = res.certificate
        digest.update(res.density.rho.tobytes())
        digest.update(struct.pack("<5d?", res.tau, cert.gain, cert.dual_objective,
                                  cert.residual, res.solved.budget, cert.perturbed))
        digest.update(str(cert.trivial).encode())
        outcomes[cert.trivial or ("perturbed" if cert.perturbed else "solved")] += 1
    # every path is taken: greedy, ramp-perturbed, fractional LP and both trivial budgets
    assert outcomes == {"solved": 37, "perturbed": 11, "Unsolved": 12,
                        "budget admits every element": 6, "budget admits no element": 6}
    assert digest.hexdigest() == OFF_STREAM_SHA256
