import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import cdtopt
from cdtopt import fem, knapsack
from cdtopt.driver import (
    CdtConfig,
    MaxOuterExceeded,
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
                       fem.element_energies(model, rho, u))


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
    model = build_mbb(8, 4)
    with pytest.raises(MaxOuterExceeded) as info:
        run_cdt(model, CdtConfig(volfrac=0.5, mu=0.95, max_outer=1))
    assert info.value.record is not None
    assert info.value.record.outer_iterations == 1


def test_run_record_strain_energy_consistent():
    model = build_mbb(20, 8)
    dens, u, rec = run_cdt(model, CdtConfig(volfrac=0.6, mu=0.95))
    for r in rec.rows:
        assert r.P_u == -r.strain_energy
        assert np.isfinite(r.compliance) and r.compliance > 0.0


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
