"""The benchmark in perfbench/ drives cdtopt through its public names:
positional ``run_simp(model, volfrac)``, ``SolveParams(tau0=)``,
``params.perturb_scale``, ``result.point.tau`` (which must equal
``result.tau``) and the two ``cli.write_*`` writers.  Running its
workloads on small inputs keeps those calls working.  Its tracer swaps
module attributes of cdtopt by name, so those names must stay too.
"""

import importlib
from pathlib import Path

import cdtopt
from cdtopt import baselines, cli, driver, fem, knapsack

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_workloads_run_on_small_inputs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for spec in (workloads.FemWorkload("mbb", "build_mbb", (12, 4), "simp", 0.5),
                 workloads.FemWorkload("cantilever", "build_cantilever2d", (16, 6), "cdt", 0.5)):
        model = workloads.build_model(cdtopt, spec)
        rho, record, pgms, csv = workloads.run_fem(cdtopt, spec, model, str(tmp_path))
        assert record.converged and record.outer_iterations > 0
        assert rho.shape == (model.n_elements,)
        for path in (*pgms, csv):
            assert Path(path).stat().st_size > 0
        assert len(Path(csv).read_text().splitlines()) == record.outer_iterations + 1
    chains = [workloads.Chain(12, (0.5,), 1), workloads.Chain(40, workloads.schedule(0.4), 2)]
    results = []
    solve = cdtopt.knapsack.solve

    def recording_solve(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cdtopt.knapsack, "solve", recording_solve)
    stream = workloads.run_stream(cdtopt, chains)
    assert len(stream.outcomes) == sum(len(c.budgets) for c in chains)
    assert not stream.failures and not stream.wrong
    # the stream warm-starts from result.point.tau, the driver from result.tau
    assert len(results) == len(stream.outcomes)
    assert all(r.point.tau == r.tau for r in results)


def test_benchmark_tracer_wraps_names_that_exist_and_puts_them_back(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    modules = (fem, driver, baselines, knapsack, cli)
    before = [dict(vars(mod)) for mod in modules]
    tracer = tracing.Tracer()
    undo = tracing.instrument(cdtopt, tracer)
    try:
        swapped = {(mod.__name__, name) for mod, old in zip(modules, before)
                   for name, value in vars(mod).items() if value is not old.get(name)}
        spec = workloads.FemWorkload("cantilever", "build_cantilever2d", (16, 6), "cdt", 0.5)
        _, record, _, _ = workloads.run_fem(cdtopt, spec, workloads.build_model(cdtopt, spec),
                                            str(tmp_path))
        stream = workloads.run_stream(cdtopt, [workloads.Chain(40, workloads.schedule(0.4), 2)],
                                      tracer)
    finally:
        undo()
    # one take: the wrappers keep appending to the list they were made with
    spans = tracer.take()
    layers = tracing.layer_metrics(spans, record.outer_iterations + len(stream.outcomes))
    # among them, the names kept for the tracer: fem's sparse oracles and the
    # finite-beta iteration, which no command runs, and existence_check, an
    # alias of tau_critical that only `demo --name buridan` calls by that name
    assert {("cdtopt.fem", "assemble"), ("cdtopt.fem", "free_dofs"), ("cdtopt.fem", "spla"),
            ("cdtopt.baselines", "assemble"), ("cdtopt.baselines", "solve_equilibrium"),
            ("cdtopt.knapsack", "existence_check"),
            ("cdtopt.knapsack", "inner_fixed_point")} <= swapped
    assert record.outer_iterations == 25 and not stream.failures
    assert layers["fem.solve_calls"] == 26 and layers["knapsack.solve_ms"] > 0
    # one knapsack solve per CDT iteration, then one per stream instance
    solves = sum(s[tracing.NAME] == "knapsack.solve" for s in spans)
    assert solves == record.outer_iterations + len(stream.outcomes)
    for mod, old in zip(modules, before):
        assert all(vars(mod)[name] is value for name, value in old.items()), mod.__name__
