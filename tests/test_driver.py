import hashlib
import importlib.util
import json
import logging
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cdtopt
from cdtopt import driver, fem, knapsack
from cdtopt.baselines import method_config, run_beso, run_method, run_simp
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


@pytest.mark.parametrize("run", [run_cdt, run_beso], ids=["cdt", "beso"])
def test_a_volfrac_that_affords_no_element_is_refused_before_any_solve(monkeypatch, run):
    # 0.03 of 32 elements is 0.96 of one: the runs used to report an empty
    # design with compliance 2.05e10 as converged
    monkeypatch.setattr(driver, "solve_equilibrium",
                        lambda *a, **k: pytest.fail("a solve ran"))
    with pytest.raises(ValueError, match=r"volfrac 0.03 affords no element of 32"):
        run(build_mbb(8, 4), CdtConfig(volfrac=0.03, mu=0.5))


def test_a_volfrac_of_exactly_one_element_is_affordable():
    driver.check_selection_volfrac(build_mbb(8, 4), 1 / 32)
    driver.check_selection_volfrac(build_cantilever2d(1, 1), 1.0)
    with pytest.raises(ValueError, match="affords no element of 3"):
        driver.check_selection_volfrac(build_cantilever2d(3, 1), 0.33)


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

    def recording_solve(instance, params=None):
        tau0s.append(params.tau0)
        return solve(instance, params)

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
        assert record.rows[-1].volume == float(np.dot(model.mesh.element_volumes(), density.rho))
        assert record.rows[-1].volume < 1.0
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
    assert residuals.pop(12) == pytest.approx(5.67e-8, rel=0.02)
    assert all(0.0 <= r <= 1e-10 for r in residuals.values())


def test_outer_loop_logs_the_steps_that_miss_the_residual_bound(caplog):
    with caplog.at_level(logging.WARNING, logger="cdtopt.driver"):
        run_cdt(build_cantilever2d(16, 6), CdtConfig(volfrac=0.5, mu=0.95))
    warnings = [r.getMessage() for r in caplog.records if r.name == "cdtopt.driver"]
    assert len(warnings) == 1
    assert warnings[0].startswith("cdt step 12: equilibrium residual 5.67")


def test_benchmark_tracing_hooks_reach_the_outer_loop():
    # perfbench/tracing.py swaps module globals of cdtopt.driver and
    # cdtopt.baselines by name; the shared loop must keep calling through them
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    model, config = build_mbb(16, 6), CdtConfig(volfrac=0.5, mu=0.95)
    # method -> the run's own span (None: untraced), run
    runs = {
        "cdt": ("driver.run_cdt", lambda: cdtopt.driver.run_cdt(model, config)),
        "beso": (None, lambda: cdtopt.baselines.run_beso(model, config)),
        "simp": ("baselines.run_simp", lambda: cdtopt.baselines.run_simp(model, 0.5)),
    }
    for method, (run_span, run) in runs.items():
        tracer = tracing.Tracer()
        undo = tracing.instrument(cdtopt, tracer)
        try:
            _, _, rec = run()
        finally:
            undo()
        spans = tracer.take()

        def under_run(span):
            while span[tracing.PARENT] >= 0:
                span = spans[span[tracing.PARENT]]
                if span[tracing.NAME] == run_span:
                    return True
            return run_span is None

        nested = [s[tracing.NAME] for s in spans if under_run(s)]
        # one solve per outer iteration plus the final one; one energy
        # evaluation and, for CDT, one knapsack per iteration
        assert nested.count("fem.solve") == rec.outer_iterations + 1, method
        assert nested.count("fem.energies") == rec.outer_iterations, method
        if method == "cdt":
            assert nested.count("knapsack.solve") == rec.outer_iterations
    assert cdtopt.driver.run_cdt is run_cdt
    assert cdtopt.baselines.run_simp is run_simp


# (builder, dims, volfrac, mu): mbb 12x4 cycles under CDT and BESO, whose
# final strict solve then fails
PINNED_CASES = (
    (build_mbb, (60, 20), 0.4, 0.97),
    (build_cantilever2d, (16, 6), 0.5, 0.95),   # CDT and BESO warn at step 12
    (build_mbb, (12, 4), 0.5, 0.95),
    (build_cantilever3d, (12, 4, 2), 0.4, 0.97),
)
TIMING_FIELDS = ("elapsed_ms", "fem_ms", "update_ms")


@pytest.mark.parametrize("method, digest", [
    ("cdt", "f9350aeab94580c12492129afa1085db7b0d3e5292c6fba14557b66176be981c"),
    ("beso", "826ea7d73a3b51c96d63deab18904f6e7eb0522ee64538c8df9f01b131428db4"),
    ("simp", "7d9c8457bc49b0d5987e915e332a42cb2666fefa4215de15ab50f753ed327e6e"),
])
def test_each_method_keeps_its_whole_record(method, digest):
    # every record field but the times, the outcome, the final compliance
    # and volume and the design bytes, or the error a run raised
    h = hashlib.sha256()
    for build, dims, volfrac, mu in PINNED_CASES:
        config = method_config(method, {"volfrac": volfrac, "mu": mu})
        try:
            design, record = run_method(method, build(*dims), volfrac, config)
        except fem.SolverBreakdown as exc:
            h.update(repr((exc, exc.residual)).encode())
            continue
        for row in record.rows:
            h.update(repr([getattr(row, f.name) for f in fields(row)
                           if f.name not in TIMING_FIELDS]).encode())
        h.update(repr((record.converged, record.final_compliance,
                       record.rows[-1].volume)).encode())
        h.update(design.tobytes())
    assert h.hexdigest() == digest


def test_residual_policies_of_the_methods(monkeypatch, caplog):
    # with a negative bound every solve misses it: all three methods log
    # each step and fail only at the final strict solve
    monkeypatch.setattr(fem, "RESIDUAL_TOL", -1.0)
    factor, factors = fem.cholesky_banded, []
    monkeypatch.setattr(fem, "cholesky_banded", lambda *a, **kw: factors.append(1) or factor(*a, **kw))
    model = build_mbb(12, 4)
    for method in ("simp", "cdt", "beso"):
        factors.clear()
        caplog.clear()
        config = method_config(method, {"volfrac": 0.5, "mu": 0.95, "max_outer": 2})
        with caplog.at_level(logging.WARNING, logger="cdtopt.driver"), \
                pytest.raises(fem.SolverBreakdown, match="exceeds -1"):
            run_method(method, model, 0.5, config)
        assert len(factors) == 3, method   # two steps and the final solve
        steps = [r.getMessage().split(":")[0] for r in caplog.records]
        assert steps == [f"{method} step 1", f"{method} step 2"]


def test_cdt_3d_near_tie_mirror_pair_converges():
    # z-mirror pairs differ by rounding only; their margin is a near-tie
    _, _, record = run_cdt(build_cantilever3d(16, 6, 4), CdtConfig(volfrac=0.4, mu=0.97))
    assert record.converged


def test_cdt_3d_ladder_case_matches_reference():
    # the ladder case cantilever3d 24x8x4; compliance from the SuperLU-era
    # run.  Its z-mirror pairs tie up to rounding, so the design is pinned
    # only up to its z-mirror
    model = build_cantilever3d(24, 8, 4)
    density, _, record = run_cdt(model, CdtConfig(volfrac=0.4, mu=0.97))
    assert record.converged
    assert record.outer_iterations == 32
    assert record.final_compliance == pytest.approx(26.5434089081, rel=1e-10)
    ids = model.mesh.element_ids()
    mirror = np.empty_like(density.rho)
    mirror[ids.ravel()] = density.rho[ids[:, :, ::-1].ravel()]
    assert "73277f4d746ff59f4812cb8c8766ce874eb6e2e5d2a3cee9a846c590353e7e79" in (
        design_sha256(density.rho), design_sha256(mirror))


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


@pytest.mark.parametrize("dims, iterations", [((16, 6), 25), ((60, 20), 27)])
def test_cdt_cantilever_mirrored_in_y_gives_the_mirrored_design(dims, iterations):
    # the clamped edge maps onto itself, and the load node (nelx, nely) and
    # its -y load onto node (nelx, 0) and a +y load
    nelx, nely = dims
    model = build_cantilever2d(nelx, nely)
    load = np.zeros(model.mesh.n_dofs)
    load[2 * model.mesh.node_ids()[nelx, 0] + 1] = 1.0
    mirrored = fem.StructuralModel(model.mesh, model.material, model.fixed_dofs, load)
    config = CdtConfig(volfrac=0.5, mu=0.97)
    density, _, record = run_cdt(model, config)
    m_density, _, m_record = run_cdt(mirrored, config)
    ids = model.mesh.element_ids()
    assert record.converged and m_record.converged
    assert record.outer_iterations == m_record.outer_iterations == iterations
    assert np.array_equal(m_density.rho[ids[:, ::-1]], density.rho[ids])
    assert m_record.final_compliance == pytest.approx(record.final_compliance, rel=1e-12)
