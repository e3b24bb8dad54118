"""Spans around calls into cdtopt's modules, recorded from the benchmark.

:func:`instrument` swaps public functions of the already imported
``cdtopt`` modules for timing wrappers and returns an undo callable, so
traced and untraced repetitions can alternate in one process.  SuperLU
factorization and CG are reached through a stand-in for the ``spla``
name inside ``cdtopt.fem``; scipy itself is left untouched.

A span is ``[name, start, end, parent, unit, attrs]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``unit`` is the outer
iteration or stream solve it belongs to.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

NAME, START, END, PARENT, UNIT, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.unit = 0
        self._stack = []

    def wrap(self, name, fn, attrs=None, new_unit=False):
        """``fn`` recording one span per call; ``attrs(args, result)``
        may attach a value taken from the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_unit:
                self.unit += 1
            span = [name, clock(), math.nan, stack[-1] if stack else -1, self.unit, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span[ATTRS] = attrs(args, out)
                return out
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def take(self):
        """Spans recorded since the last call; indices restart at zero."""
        spans, self.spans = self.spans, []
        return spans


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``cdtopt.fem``."""

    def __init__(self, real, tracer):
        self._real = real
        self.splu = tracer.wrap("fem.factor", real.splu, attrs=lambda a, lu: lu.nnz)
        self.cg = tracer.wrap("fem.cg", real.cg)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _inner_attrs(args, result):
    # inner_fixed_point(instance, V_gamma, beta, ...): beta and work done
    return (float(args[2]), int(result.iterations))


def instrument(cdtopt, tracer):
    """Trace the layer boundaries of an imported ``cdtopt``; returns undo."""
    fem, driver, baselines = cdtopt.fem, cdtopt.driver, cdtopt.baselines
    knapsack, cli = cdtopt.knapsack, cdtopt.cli
    residual = lambda a, disp: disp.residual  # noqa: E731
    replacements = [
        (fem, "assemble", tracer.wrap("fem.assemble", fem.assemble)),
        (fem, "free_dofs", tracer.wrap("fem.free_dofs", fem.free_dofs)),
        (fem, "spla", _SplaProxy(fem.spla, tracer)),
        # each equilibrium solve opens a new outer iteration
        (driver, "solve_equilibrium", tracer.wrap(
            "fem.solve", driver.solve_equilibrium, residual, new_unit=True)),
        (baselines, "solve_equilibrium", tracer.wrap(
            "fem.solve", baselines.solve_equilibrium, residual, new_unit=True)),
        (driver, "stored_energy_gains", tracer.wrap(
            "fem.energies", driver.stored_energy_gains)),
        (baselines, "element_energies", tracer.wrap(
            "fem.energies", baselines.element_energies)),
        (baselines, "assemble", tracer.wrap("baselines.extra_assemble", baselines.assemble)),
        # attrs mark the solves that returned a certified result
        (knapsack, "solve", tracer.wrap(
            "knapsack.solve", knapsack.solve, lambda a, r: r.certificate.perturbed)),
        (knapsack, "existence_check", tracer.wrap("knapsack.check", knapsack.existence_check)),
        (knapsack, "inner_fixed_point", tracer.wrap(
            "knapsack.inner", knapsack.inner_fixed_point, _inner_attrs)),
        (knapsack, "perturb", tracer.wrap("knapsack.perturb", knapsack.perturb)),
        (driver, "run_cdt", tracer.wrap("driver.run_cdt", driver.run_cdt)),
        (baselines, "run_simp", tracer.wrap("baselines.run_simp", baselines.run_simp)),
        (cli, "write_density_pgm", tracer.wrap("cli.write", cli.write_density_pgm)),
        (cli, "write_runrecord_csv", tracer.wrap("cli.write", cli.write_runrecord_csv)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    for mod, attr, new in replacements:
        setattr(mod, attr, new)

    def undo():
        for mod, attr, old in saved:
            setattr(mod, attr, old)

    return undo


def layer_metrics(spans, iterations):
    """Per-layer numbers of one repetition from its spans.

    Loop-layer times are ms per outer iteration (per solve in the stream);
    knapsack numbers are per knapsack solve; FEM counts, ``fem.lu_nnz``
    and ``cli.write_ms`` are totals for the repetition.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    total = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        total[s[NAME]] += d
        own[s[NAME]] += d - child[i]
        count[s[NAME]] += 1

    inner = defaultdict(list)
    perturbed = set()
    for s in spans:
        if s[NAME] == "knapsack.inner" and s[ATTRS] is not None:
            inner[s[PARENT]].append(s[ATTRS])
        elif s[NAME] == "knapsack.perturb":
            perturbed.add(s[PARENT])
    all_iters = sum(it for calls in inner.values() for _, it in calls)
    # only the last pass of a certified solve produced the answer
    final_iters = sum(calls[-1][1] for parent, calls in inner.items()
                      if spans[parent][ATTRS] is not None)
    doublings = sum(round(math.log2(calls[-1][0] / calls[0][0])) for calls in inner.values())

    per_it = 1e3 / max(iterations, 1)
    n_ks = max(count["knapsack.solve"], 1)
    residuals = [s[ATTRS] for s in spans if s[NAME] == "fem.solve"]
    return {
        "fem.factor_ms": total["fem.factor"] * per_it,
        "fem.lu_nnz": sum(s[ATTRS] for s in spans if s[NAME] == "fem.factor"),
        "fem.assemble_ms": total["fem.assemble"] * per_it,
        "fem.free_dofs_ms": total["fem.free_dofs"] * per_it,
        "fem.solve_other_ms": own["fem.solve"] * per_it,
        "fem.solve_calls": count["fem.solve"],
        "fem.cg_calls": count["fem.cg"],
        "fem.residual_max": max(residuals, default=0.0),
        "fem.energies_ms": total["fem.energies"] * per_it,
        "knapsack.solve_ms": total["knapsack.solve"] * 1e3 / n_ks,
        "knapsack.check_ms": total["knapsack.check"] * 1e3 / n_ks,
        "knapsack.inner_calls": count["knapsack.inner"] / n_ks,
        "knapsack.inner_iters": all_iters / n_ks,
        "knapsack.useful_ratio": final_iters / all_iters if all_iters else 0.0,
        "knapsack.beta_doublings": doublings / n_ks,
        "knapsack.perturbed_ratio": len(perturbed) / n_ks,
        "driver.self_ms": own["driver.run_cdt"] * per_it,
        "baselines.extra_assemble_ms": total["baselines.extra_assemble"] * per_it,
        "baselines.self_ms": own["baselines.run_simp"] * per_it,
        "cli.write_ms": total["cli.write"] * 1e3,
    }

