"""Benchmark harness for cdtopt: time to a certified design on the ladder
problems, and a seeded stream of knapsack solves.

    python3 perfbench/run.py --workload cdt-cantilever-2d --seed 1 --seconds 20 --trace 0

Run from anywhere; it imports cdtopt from the ``src`` directory beside
this one, in this one process, with BLAS pinned to one thread.  Workloads
(see ``BENCHMARK.json``): ``cdt-cantilever-2d`` and ``simp-mbb-2d``
repeat one optimization with its outputs written, as ``cdtopt run`` does;
``knapsack-stream`` solves STREAMS seeded streams of knapsack instances,
one stream per repetition, and then solves them again in turn.
Repetitions go on for ``--seconds`` (at least three, and at least one of
each stream); each metric is a median over them.  A stream's solves are
counted in ``attempted`` and ``failed`` once, so a seed gives the same
counts however fast the host is; a repeat must end every solve the way
the first pass did.  The p90 latency is printed with its sample count but
is not a gated metric: on the FEM workloads it measures the host's jitter
more than the code.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced repetitions and prints the per-layer
metrics, from spans recorded around calls into cdtopt's modules, plus the
tracing overhead (traced minus untraced median ``wall_s``).  Every answer
is checked (see ``checks.py``).  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results and spans are also
written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cdt-cantilever-2d", "simp-mbb-2d", "knapsack-stream")
# set-ups before each untraced repetition: spread over the run, they see
# the same host as the other metrics, not only its first second
SETUPS_PER_REP = 3
MIN_REPS = 3
# distinct streams per knapsack-stream run, about 12 s of solves on 2 vCPUs
STREAMS = 8
# a p90 needs ten samples beyond it
P90_MIN_SAMPLES = 100
# stop repeating past this, whatever --seconds says, to end within 180 s
HARD_STOP_S = 140.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Rep:
    """One repetition: an optimization, or one stream of solves."""

    wall: float
    iterations: int = 0                             # outer iterations or solves
    latencies: list = field(default_factory=list)   # ms per iteration or solve
    failures: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)       # answer-check verdicts
    attempted: int = 1
    key: int | None = None                          # stream index, when repeated
    outcomes: tuple = ()                            # per solve, to compare repeats
    answer: dict = field(default_factory=dict)
    layers: dict | None = None
    spans: list | None = None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cdtopt_modules():
    return [m for m in sys.modules if m == "cdtopt" or m.startswith("cdtopt.")]


def set_up(build, samples):
    """Import cdtopt afresh and call ``build`` on it (when given).

    Appends (set-up seconds, build milliseconds) to ``samples`` and returns
    the package and the built object.  numpy and scipy are already
    imported, so this times cdtopt's own import and the model build only.
    The modules of an earlier import are put back afterwards, so the
    package a run works on stays the one in ``sys.modules``.
    """
    earlier = {m: sys.modules.pop(m) for m in _cdtopt_modules()}
    t0 = time.perf_counter()
    cdtopt = importlib.import_module("cdtopt")
    t1 = time.perf_counter()
    built = build(cdtopt) if build else None
    t2 = time.perf_counter()
    samples.append((t2 - t0, (t2 - t1) * 1e3 if build else 0.0))
    if earlier:
        for m in _cdtopt_modules():
            del sys.modules[m]
        sys.modules.update(earlier)
    return cdtopt, built


def traced(cdtopt, rep_fn, tracing):
    """Run ``rep_fn(tracer)`` with cdtopt instrumented; attach per-layer
    metrics and spans to the returned Rep."""
    tracer = tracing.Tracer()
    undo = tracing.instrument(cdtopt, tracer)
    try:
        rep = rep_fn(tracer)
    finally:
        undo()
    rep.spans = tracer.take()
    rep.layers = tracing.layer_metrics(rep.spans, rep.iterations)
    return rep


def repeat(seconds, trace, rep_fn, cdtopt, tracing, min_reps, before):
    """Untraced repetitions (alternating with traced ones when ``trace``)
    for ``seconds``, and at least ``min_reps``, each after a call of
    ``before``; returns (untraced, traced) lists of Rep."""
    plain, with_trace = [], []
    start = time.perf_counter()
    while True:
        i = len(plain)
        before()
        plain.append(rep_fn(i, None))
        if trace:
            with_trace.append(traced(cdtopt, lambda tr: rep_fn(i, tr), tracing))
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(plain) >= min_reps) or elapsed >= HARD_STOP_S:
            return plain, with_trace


def fem_rep_fn(cdtopt, name, model, checks, workloads):
    spec = workloads.FEM_WORKLOADS[name]
    ref = checks.load_reference()[name]
    n_images = spec.dims[2] if len(spec.dims) == 3 else 1
    solver_errors = (cdtopt.knapsack.KnapsackError, cdtopt.driver.DriverError,
                     cdtopt.fem.FemError)

    def rep_fn(_index, _tracer):
        with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
            t0 = time.perf_counter()
            try:
                rho, record, pgms, csv = workloads.run_fem(cdtopt, spec, model, out_dir)
            except solver_errors as exc:
                wall = time.perf_counter() - t0
                return Rep(wall, failures=Counter({type(exc).__name__: 1}),
                           wrong=[f"{type(exc).__name__}: {exc}"])
            wall = time.perf_counter() - t0
            wrong = (checks.check_fem(ref, record, rho, binary=spec.method == "cdt")
                     + checks.check_outputs(record, pgms, csv, n_images))
        answer = {"outer_iters": record.outer_iterations,
                  "compliance": record.final_compliance}
        if spec.method == "cdt":
            answer["design_sha256"] = checks.design_sha256(rho)
        return Rep(wall, record.outer_iterations, [r.elapsed_ms for r in record.rows],
                   Counter({"reference_mismatch": 1}) if wrong else Counter(), wrong,
                   answer=answer)

    return rep_fn


def stream_rep_fn(cdtopt, seed, workloads):
    def rep_fn(index, tracer):
        key = index % STREAMS
        result = workloads.run_stream(cdtopt, workloads.make_stream(seed, key), tracer)
        n = len(result.latencies)
        return Rep(sum(result.latencies), n, [t * 1e3 for t in result.latencies],
                   result.failures, result.wrong, attempted=n, key=key,
                   outcomes=result.outcomes)

    return rep_fn


def counted(reps):
    """The repetitions whose operations count: every FEM run, and the
    first pass of each stream.  Also returns, as text, the repeats whose
    solves ended otherwise than in the first pass."""
    first, differ = {}, []
    for r in reps:
        if r.key is None:
            continue
        if r.key not in first:
            first[r.key] = r
        elif r.outcomes != first[r.key].outcomes:
            differ.append(f"stream {r.key}: a repeat ended its solves otherwise than the first pass")
    return [r for r in reps if r.key is None] + list(first.values()), differ


def end_to_end(plain, latency, setup_s, stream):
    done = [r for r in plain if r.iterations]
    once, _ = counted(plain)
    attempted = sum(r.attempted for r in once)
    failed = sum(sum(r.failures.values()) for r in once)
    return {
        "wall_s": statistics.median(r.wall for r in plain),
        "iter_ms": statistics.median(r.wall * 1e3 / r.iterations for r in done) if done else 0.0,
        "solve_ms": latency["median"] or 0.0,
        "setup_s": setup_s,
        "outer_iters": statistics.median(r.iterations for r in done) if done else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # a stream counts solves, an optimization counts whole runs
        "ok_ratio": (attempted - failed) / attempted if stream else
                    sum(not r.failures for r in plain) / len(plain),
    }


def latency_summary(latencies):
    """Median and p90 of the latency samples in ms; the p90 only when
    ten samples lie beyond it."""
    return {"samples": len(latencies),
            "median": statistics.median(latencies) if latencies else None,
            "p90": (statistics.quantiles(latencies, n=10)[-1]
                    if len(latencies) >= P90_MIN_SAMPLES else None)}


def per_layer(plain, with_trace, build_ms):
    layers = {k: statistics.median(r.layers[k] for r in with_trace) for k in with_trace[0].layers}
    layers["problems.build_ms"] = build_ms
    layers["trace.overhead_s"] = (statistics.median(r.wall for r in with_trace)
                                  - statistics.median(r.wall for r in plain))
    return layers


def _blas_threads():
    """Live thread count of each OpenBLAS bundled with numpy and scipy."""
    counts = {}
    for pkg in ("numpy", "scipy"):
        libdir = Path(importlib.import_module(pkg).__file__).parent.parent / f"{pkg}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    counts[f"{pkg}:{lib.name}"] = fn()
                    break
    return counts


def machine_facts():
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(numpy), "scipy": blas_version(scipy)},
        "blas_threads": _blas_threads(),
    }


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "cdtopt" / "__init__.py").is_file():
        print(f"error: cdtopt sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    # imported before set-up is timed: they are most of a cold start
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import scipy.spatial  # noqa: F401

    import checks
    import tracing
    import workloads

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    stream = args.workload == "knapsack-stream"
    build = None
    if not stream:
        spec = workloads.FEM_WORKLOADS[args.workload]
        build = lambda pkg: workloads.build_model(pkg, spec)  # noqa: E731
    samples = []
    cdtopt, model = set_up(build, samples)
    if Path(cdtopt.__file__).resolve().parent != SRC / "cdtopt":
        raise ImportError(f"imported cdtopt from {cdtopt.__file__}, not from {SRC}")
    if stream:
        rep_fn = stream_rep_fn(cdtopt, args.seed, workloads)
    else:
        rep_fn = fem_rep_fn(cdtopt, args.workload, model, checks, workloads)

    def set_ups():
        for _ in range(SETUPS_PER_REP):
            set_up(build, samples)
        gc.collect()  # the thrown-away imports, outside the timed repetition

    plain, with_trace = repeat(args.seconds, bool(args.trace), rep_fn, cdtopt, tracing,
                               STREAMS if stream else MIN_REPS, set_ups)
    setup_s = statistics.median(t for t, _ in samples)
    build_ms = statistics.median(b for _, b in samples)

    once, differ = counted(plain + with_trace)
    failures = sum((r.failures for r in once), Counter())
    wrong = [w for r in once for w in r.wrong] + differ
    attempted = sum(r.attempted for r in once)
    failed = sum(failures.values())
    correct = not wrong
    latency = latency_summary([t for r in plain for t in r.latencies])
    if args.trace:
        metrics = per_layer(plain, with_trace, build_ms)
        wanted = bench["per_layer"]
    else:
        metrics = end_to_end(plain, latency, setup_s, stream)
        wanted = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {spec_path.name}")

    facts = machine_facts()
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(plain), "traced_repetitions": len(with_trace),
        "setup_samples": len(samples),
        "latency_ms": latency, "failures": dict(failures),
        "rep_wall_s": [r.wall for r in plain], "traced_rep_wall_s": [r.wall for r in with_trace],
        "answers": [r.answer for r in plain[:1] if r.answer], "wrong": wrong[:20],
    }
    print(f"# facts {json.dumps(facts)}")
    print(f"# {args.workload} seed {args.seed}: {len(plain)} repetitions"
          + (f" + {len(with_trace)} traced" if with_trace else ""))
    median, p90 = ("n/a" if latency[k] is None else f"{latency[k]:.6g} ms"
                   for k in ("median", "p90"))
    print(f"# latency per {'solve' if stream else 'outer iteration'}: median {median}, "
          f"p90 {p90} (not gated), {latency['samples']} samples")
    for answer in details["answers"]:
        print(f"# answer {json.dumps(answer)}")
    print(f"# failures by kind {json.dumps(dict(failures))} of {attempted} attempted")
    for w in wrong[:20]:
        print(f"# WRONG {w}")
    for m in wanted:
        print(f"{m['name']:<28} {metrics[m['name']]:>16.6g} {m['unit']}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "details": details, "metrics": metrics}, fh, indent=1)
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for i, r in enumerate(with_trace):
                for s in r.spans:
                    fh.write(json.dumps({"rep": i, "name": s[0], "start": s[1], "end": s[2],
                                         "parent": s[3], "unit": s[4], "attrs": s[5]}) + "\n")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
