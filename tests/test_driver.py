import hashlib
import importlib.util
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

import cdtopt
from cdtopt import fem, knapsack
from cdtopt.baselines import run_beso
from cdtopt.driver import (
    CdtConfig,
    run_cdt,
    stored_energy_gains,
    volume_schedule,
)
from cdtopt.problems import build_cantilever2d, build_cantilever3d, build_mbb


def test_volume_schedule_values():
    assert volume_schedule(1.0, 0.9, 0.5) == 0.9
    assert volume_schedule(0.52, 0.9, 0.5) == 0.5
    # geometric descent reaches the floor in ceil(ln 0.4 / ln 0.975) steps
    steps = 0
    V = 1.0
    while V > 0.4:
        V = volume_schedule(V, 0.975, 0.4)
        steps += 1
        if V == 0.4:
            break
    assert steps == math.ceil(math.log(0.4) / math.log(0.975)) == 37


def test_config_validation():
    with pytest.raises(ValueError):
        CdtConfig(volfrac=0.0, mu=0.9)
    with pytest.raises(ValueError):
        CdtConfig(volfrac=0.5, mu=1.0)
    with pytest.raises(ValueError):
        CdtConfig(volfrac=0.5, mu=0.4)  # mu below the volume fraction
    CdtConfig(volfrac=1.0, mu=0.9)      # full budget allows any rate


def test_full_budget_converges_immediately():
    model = build_mbb(8, 4)
    dens, u, rec = run_cdt(model, CdtConfig(volfrac=1.0, mu=0.9))
    assert rec.outer_iterations == 1
    assert np.all(dens.rho == 1.0)
    assert rec.converged


def test_stored_gains_match_full_modulus_on_solid():
    model = build_mbb(10, 4)
    rho = np.ones(model.n_elements)
    u = fem.solve_equilibrium(model, rho)
    assert np.allclose(stored_energy_gains(model, rho, u),
                       fem.element_energies(model, u))


def test_run_cdt_small_mbb_invariants(monkeypatch):
    model = build_mbb(30, 10)
    cfg = CdtConfig(volfrac=0.5, mu=0.95)
    tau0s = []
    solve = knapsack.solve

    def recording_solve(instance, V_gamma=None, params=None):
        tau0s.append(params.tau0)
        return solve(instance, V_gamma, params)

    monkeypatch.setattr(knapsack, "solve", recording_solve)
    dens, u, rec = run_cdt(model, cfg)
    rho = dens.rho
    n = model.n_elements
    assert np.all((rho == 0.0) | (rho == 1.0))
    assert rho.mean() <= 0.5 + 1.0 / n
    assert u.residual <= 1e-10
    assert rec.converged
    vols = [r.V_gamma for r in rec.rows]
    assert all(a >= b - 1e-12 for a, b in zip(vols, vols[1:]))
    assert all(v >= cfg.volfrac - 1e-12 for v in vols)
    # warm start: tau passed to step g equals tau recovered at step g-1
    assert len(tau0s) == len(rec.rows)
    for prev, tau0 in zip(rec.rows, tau0s[1:]):
        assert tau0 == prev.tau_end
    # budget respected at every step
    for r in rec.rows:
        assert r.volume <= r.V_gamma + 1.0 / n


def test_run_cdt_deterministic_rerun():
    model = build_cantilever2d(20, 8)
    cfg = CdtConfig(volfrac=0.5, mu=0.95)
    d1, u1, r1 = run_cdt(model, cfg)
    d2, u2, r2 = run_cdt(model, cfg)
    assert np.array_equal(d1.rho, d2.rho)
    assert np.array_equal(u1.u, u2.u)
    assert [r.P_u for r in r1.rows] == [r.P_u for r in r2.rows]
    assert [r.volume for r in r1.rows] == [r.volume for r in r2.rows]


def test_max_outer_exceeded():
    # a CDT or BESO run that hits the cap returns its record, as SIMP's does
    model = build_mbb(8, 4)
    for run in (run_cdt, run_beso):
        density, u, record = run(model, CdtConfig(volfrac=0.5, mu=0.95, max_outer=3))
        assert not record.converged
        assert record.outer_iterations == 3
        # the final strict solve still runs, on the capped layout
        assert record.final_volume == float(np.dot(model.mesh.element_volumes(), density.rho))
        assert record.final_volume < 1.0
        assert record.final_compliance == fem.compliance(u, model.load) > 0.0


def test_run_record_strain_energy_consistent():
    model = build_mbb(20, 8)
    dens, u, rec = run_cdt(model, CdtConfig(volfrac=0.6, mu=0.95))
    for r in rec.rows:
        assert r.P_u == -r.strain_energy
        assert np.isfinite(r.compliance) and r.compliance > 0.0


def test_rows_record_the_equilibrium_residual_of_each_step():
    # step 12 of this run is taken from a near-mechanism layout whose
    # refined residual stays far above the strict 1e-10 target
    _, _, rec = run_cdt(build_cantilever2d(16, 6), CdtConfig(volfrac=0.5, mu=0.95))
    residuals = {r.gamma: r.residual for r in rec.rows}
    assert residuals.pop(12) == pytest.approx(8.3e-8, rel=0.02)
    assert all(0.0 <= r <= 1e-10 for r in residuals.values())


def test_outer_loop_logs_the_steps_that_miss_the_residual_bound(caplog):
    with caplog.at_level(logging.WARNING, logger="cdtopt.driver"):
        run_cdt(build_cantilever2d(16, 6), CdtConfig(volfrac=0.5, mu=0.95))
    warnings = [r.getMessage() for r in caplog.records if r.name == "cdtopt.driver"]
    assert len(warnings) == 1
    assert warnings[0].startswith("cdt step 12: equilibrium residual 8.3")


def test_benchmark_tracing_hooks_reach_the_outer_loop():
    # perfbench/tracing.py swaps module globals of cdtopt.driver and
    # cdtopt.baselines by name; the shared loop must keep calling through them
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    undo = tracing.instrument(cdtopt, tracer)
    try:
        _, _, rec = cdtopt.driver.run_cdt(build_mbb(16, 6), CdtConfig(volfrac=0.5, mu=0.95))
    finally:
        undo()
    assert cdtopt.driver.run_cdt is run_cdt
    spans = tracer.take()

    def under_run_cdt(span):
        while span[tracing.PARENT] >= 0:
            span = spans[span[tracing.PARENT]]
            if span[tracing.NAME] == "driver.run_cdt":
                return True
        return False

    nested = [s[tracing.NAME] for s in spans if under_run_cdt(s)]
    # one solve per outer iteration plus the final one; one knapsack per iteration
    assert nested.count("fem.solve") == rec.outer_iterations + 1
    assert nested.count("knapsack.solve") == rec.outer_iterations


def test_cdt_3d_near_tie_mirror_pair_converges():
    # z-mirror pairs differ by rounding only; their margin is a near-tie
    _, _, record = run_cdt(build_cantilever3d(16, 6, 4), CdtConfig(volfrac=0.4, mu=0.97))
    assert record.converged


def test_cdt_3d_ladder_case_matches_reference():
    # the ladder case cantilever3d 24x8x4; reference from the SuperLU-era run
    _, _, record = run_cdt(build_cantilever3d(24, 8, 4), CdtConfig(volfrac=0.4, mu=0.97))
    assert record.converged
    assert record.outer_iterations == 32
    assert record.final_compliance == pytest.approx(26.5434089081, rel=1e-10)


def design_sha256(rho):
    # as perfbench/checks.py hashes a binary design
    return hashlib.sha256(rho.astype(np.uint8).tobytes()).hexdigest()


def test_cdt_cantilever_ladder_case_matches_bench_reference():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(path.read_text())["cdt-cantilever-2d"]
    density, _, record = run_cdt(build_cantilever2d(120, 40), CdtConfig(volfrac=0.5, mu=0.97))
    assert record.converged
    assert record.outer_iterations == ref["outer_iters"] == 25
    assert design_sha256(density.rho) == ref["design_sha256"]
    assert record.final_compliance == pytest.approx(ref["compliance"], rel=1e-10)


def test_cdt_mbb_ladder_case_keeps_its_design():
    # recorded before refinement stopped at fem.RESIDUAL_TOL; no bench reference covers it
    density, _, record = run_cdt(build_mbb(60, 20), CdtConfig(volfrac=0.4, mu=0.97))
    assert record.converged
    assert record.outer_iterations == 32
    assert design_sha256(density.rho) == (
        "80c8f50caedd85edbf6afd0a1979345c1efdee213850703b5eb8428647fefec9")
    assert record.final_compliance == pytest.approx(133.72769386976253, rel=1e-10)
