"""Workload definitions: three FEM runs from the ladder and a seeded
stream of knapsack solves.

Every workload calls cdtopt through module attributes at call time
(``cdtopt.driver.run_cdt``, ``cdtopt.knapsack.solve``...), so the wrappers
of :mod:`tracing` apply when they are installed.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import checks

MU = 0.97  # volume-schedule ratio of every CDT run and stream chain


@dataclass(frozen=True)
class FemWorkload:
    problem: str   # `cdtopt run --problem` name; also names the output files
    build: str     # cdtopt.problems function that makes the model
    dims: tuple
    method: str    # "cdt" or "simp"
    volfrac: float


FEM_WORKLOADS = {
    "cdt-cantilever-2d": FemWorkload("cantilever", "build_cantilever2d", (120, 40), "cdt", 0.5),
    "simp-mbb-2d": FemWorkload("mbb", "build_mbb", (60, 20), "simp", 0.5),
}


def build_model(cdtopt, spec):
    return getattr(cdtopt.problems, spec.build)(*spec.dims)


def run_fem(cdtopt, spec, model, out_dir):
    """One optimization with its graymaps and CSV written, as ``cdtopt run``
    does it.  Returns (design, RunRecord, graymap paths, CSV path)."""
    if spec.method == "cdt":
        config = cdtopt.driver.CdtConfig(volfrac=spec.volfrac, mu=MU)
        density, _, record = cdtopt.driver.run_cdt(model, config)
        rho = density.rho
    else:
        rho, _, record = cdtopt.baselines.run_simp(model, spec.volfrac)
    tag = f"{spec.problem}_{spec.method}"
    pgms = cdtopt.cli.write_density_pgm(rho, model.mesh, os.path.join(out_dir, f"{tag}_density.pgm"))
    csv = cdtopt.cli.write_runrecord_csv(record, os.path.join(out_dir, f"{tag}_record.csv"))
    return rho, record, pgms, csv


# ---------------------------------------------------------------------------
# knapsack stream
# ---------------------------------------------------------------------------

E_MIN = 1e-9           # default ersatz modulus: void elements' gain scale
FLOOR_STEPS = 2        # solves at the final budget, as a settling CDT run makes
TIE_SHARE = 0.1        # margins that tie exactly
GAP_LOG10 = (-16.0, -3.0)
# Chains per stream, by element count (the ladder's cantilever3d 24x8x4,
# cantilever 120x40 and 240x80), and cold solves at tiny sizes like the
# closed-form demos.  The mix puts about 15% of the solves in the fastest
# group (768 and tiny), 64% at 4800 and 21% at 19200, so the median and
# the p90 latency fall inside one size class, not on the edge between two.
# The counts and volume fractions are fixed; the seed draws the gains,
# the gaps and the tiny sizes and budgets.
CHAINS = ((19200, 2), (4800, 6), (768, 1))
TINY_N = range(2, 26)
TINY_SOLVES = 12
VOLFRAC = (0.3, 0.6)


def schedule(volfrac):
    """Budgets of a CDT run: V = max(volfrac, MU V) from V = 1, then
    FLOOR_STEPS solves at volfrac."""
    budgets, V, at_floor = [], 1.0, 0
    while at_floor < FLOOR_STEPS:
        V = max(volfrac, MU * V)
        at_floor += V <= volfrac
        budgets.append(V)
    return tuple(budgets)


def margin_gaps(rng, count):
    """Relative gaps of the marginal pair: a TIE_SHARE of exact ties, the
    rest log-uniform over GAP_LOG10, stratified and in random order."""
    ties = round(TIE_SHARE * count)
    m = count - ties
    lo, hi = GAP_LOG10
    gaps = 10.0 ** (lo + (hi - lo) * (np.arange(m) + rng.random(m)) / m)
    return rng.permutation(np.concatenate([np.zeros(ties), gaps]))


@dataclass(frozen=True)
class Chain:
    """Solves at one size along a list of budgets, warm-started in turn."""

    n: int
    budgets: tuple
    seed: int

    def instances(self):
        """Yield (w, v, V) per budget.

        Gains are log-normal and come in mirror pairs (2i, 2i+1) with
        relative gaps like the margin's.  The last kept and the first
        dropped element are made a mirror pair whose gap is drawn by
        :func:`margin_gaps`, unless the first dropped one is void.  The
        elements the optimal selection dropped at the previous step are
        void: their gains are scaled by E_MIN.
        """
        rng = np.random.default_rng(self.seed)
        n = self.n
        v = np.full(n, 1.0 / n)
        tiny = n in TINY_N
        base = rng.lognormal(np.log(2.0) if tiny else np.log(0.01), 0.5 if tiny else 1.0, n)
        pairs = n // 2
        pair_gaps = margin_gaps(rng, pairs)
        gaps = margin_gaps(rng, len(self.budgets))
        void = np.zeros(n, dtype=bool)
        for V, gap in zip(self.budgets, gaps):
            w = base * np.exp(0.1 * rng.standard_normal(n))
            w[1:2 * pairs:2] = w[0:2 * pairs:2] * (1.0 + pair_gaps)
            w[void] *= E_MIN
            k = checks.affordable(v, V)
            if 0 < k < n:
                order = np.argsort(-w, kind="stable")
                kept, dropped = order[k - 1], order[k]
                if not void[dropped]:
                    w[dropped] = w[kept] * (1.0 - gap)
            yield w, v, V
            void = checks.greedy_topk(w, v, V)[0] == 0.0


def make_stream(seed, index):
    """The chains of stream ``index`` of a run."""
    rng = np.random.default_rng([seed, index])
    chains = []
    for n, count in CHAINS:
        for i in range(count):
            vf = VOLFRAC[0] + (VOLFRAC[1] - VOLFRAC[0]) * (i + 0.5) / count
            chains.append(Chain(n, schedule(vf), int(rng.integers(2**63))))
    width = len(TINY_N) / TINY_SOLVES
    for i in range(TINY_SOLVES):
        n = TINY_N[int((i + rng.random()) * width)]
        k = 1 + int((n - 1) * rng.random())      # keep 1 .. n-1 elements
        chains.append(Chain(n, ((k + 0.5) / n,), int(rng.integers(2**63))))
    return chains


@dataclass
class StreamPass:
    latencies: list        # seconds per solve, failed ones included
    failures: Counter      # failure kind -> count
    wrong: list            # oracle verdicts of certified but wrong answers
    outcomes: tuple        # per solve: failure kind, or "" when it passed


def run_stream(cdtopt, chains, tracer=None):
    """Solve every instance of the stream once, warm-starting tau0 along
    each chain as ``run_cdt`` does, and check each certified answer."""
    ks = cdtopt.knapsack
    latencies, failures, wrong, outcomes = [], Counter(), [], []
    clock = time.perf_counter
    for ci, chain in enumerate(chains):
        tau = 1.0
        for si, (w, v, V) in enumerate(chain.instances()):
            if tracer is not None:
                tracer.unit += 1
            t0 = clock()
            try:
                instance = ks.KnapsackInstance(w, v, V)
                params = ks.SolveParams(tau0=tau)
                result = ks.solve(instance, params=params)
            except ks.KnapsackError as exc:
                latencies.append(clock() - t0)
                failures[type(exc).__name__] += 1
                outcomes.append(type(exc).__name__)
                continue
            latencies.append(clock() - t0)
            tau = result.point.tau
            optima = ks.brute_force(instance).optima if chain.n in TINY_N else None
            cert = result.certificate
            why = checks.check_selection(w, v, V, result.density.rho, cert.gain,
                                         cert.perturbed, params.perturb_scale, optima)
            outcomes.append("" if why is None else "oracle_shortfall")
            if why is not None:
                failures["oracle_shortfall"] += 1
                wrong.append(f"chain {ci} step {si} n={chain.n}: {why}")
    return StreamPass(latencies, failures, wrong, tuple(outcomes))
