"""Bit-identity pin of knapsack.solve on the benchmark's instance streams.

Seeded chains of the ``knapsack-stream`` workload at the ladder's sizes
(n 768, 4800 and 19200, each along a CDT volume schedule and warm-started
in turn) and a few cold solves at n <= 25 are solved, and one sha256 is
taken over every solve's selection bytes, reported multiplier and
certificate.  A change to the solver's arithmetic that moves any of them
by one ulp changes the digest.  The instance generators are imported from
perfbench/ read-only.
"""

import hashlib
import importlib
import struct
from pathlib import Path

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
                                      cert.residual, cert.budget, cert.perturbed))
            tau = res.tau
            solves += 1
            perturbed += cert.perturbed
    assert solves == 101
    # exact margin ties are part of every chain: the ramp path is pinned too
    assert perturbed == 9
    assert digest.hexdigest() == STREAM_SHA256
