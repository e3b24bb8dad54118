"""The benchmark in perfbench/ drives cdtopt through its public names:
positional ``run_simp(model, volfrac)``, ``SolveParams(tau0=)``,
``params.perturb_scale``, ``result.point.tau`` (which must equal
``result.tau``) and the two ``cli.write_*`` writers.  Running its
workloads on small inputs keeps those calls working.
"""

import importlib
from pathlib import Path

import cdtopt

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
