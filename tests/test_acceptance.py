"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Time limits are asserted alongside the numeric tolerances.
"""

import csv
import math
import time

import numpy as np
import pytest

from cdtopt import analytic, cli, fem, knapsack
from cdtopt.baselines import SimpConfig, beso_select, run_beso, run_simp
from cdtopt.driver import CdtConfig, run_cdt, stored_energy_gains, volume_schedule
from cdtopt.problems import build_cantilever2d, build_cantilever3d, build_mbb

A_CONST = (2.0 - math.sqrt(2.0)) / 2.0
B_CONST = (4.0 + math.sqrt(2.0)) / 2.0

# regression baseline: MBB 60x20, volfrac 0.4, mu 0.97 (deterministic run)
MBB_COMPLIANCE_BASELINE = 133.72769386984544


def report(name, elapsed, limit, ok, detail=""):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] {name}: {elapsed:.2f}s (limit {limit}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: {elapsed:.2f}s over the {limit}s limit"


def test_criterion_1_knapsack_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    checked = degenerate = 0
    ok = True
    detail = ""
    for _ in range(200):
        n = int(rng.integers(5, 21))
        w = rng.uniform(0.0, 1.0, n) + 1e-12
        v = np.full(n, 1.0 / n)
        V = float(rng.uniform(1e-6, 1.0))
        inst = knapsack.KnapsackInstance(w, v, V)
        res = knapsack.solve(inst)
        bf = knapsack.brute_force(inst)
        exact = res.certificate.gain == bf.objective
        member = res.density.support() in bf.optima
        if res.certificate.perturbed:
            degenerate += 1
        if not (exact and member):
            ok = False
            detail = f"mismatch at n={n} V={V}"
            break
        checked += 1
    # constructed marginal ties exercise the auto-perturbation clause
    for w, keep in (([2.0, 2.0, 1.0], 1), ([1.0, 1.0, 1.0, 1.0], 3),
                    ([0.5, 0.5, 0.5], 2)):
        n = len(w)
        inst = knapsack.KnapsackInstance(np.array(w), np.full(n, 1.0 / n),
                                         keep / n)
        res = knapsack.solve(inst)
        bf = knapsack.brute_force(inst)
        if not (res.certificate.perturbed and
                res.density.support() in bf.optima and
                res.certificate.gain == bf.objective):
            ok = False
            detail = f"tie case {w} failed"
        degenerate += 1
    report("criterion 1 knapsack oracle equivalence", time.perf_counter() - t0,
           10.0, ok, f"({checked} random + {degenerate} degenerate instances)")


def test_criterion_2_cubic_residual_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    theta = 10.0 ** rng.uniform(-6, 3, 100000)
    beta = 10.0 ** rng.uniform(-2, 6, 100000)
    sigma = knapsack.sigma_from_theta(theta, beta)
    resid = np.abs(2.0 / beta * sigma**3 + sigma**2 - theta**2)
    ok = bool(np.all(sigma > 0.0) and
              np.all(resid <= 1e-9 * np.maximum(1.0, theta**2)))
    report("criterion 2 cubic residual property", time.perf_counter() - t0,
           5.0, ok, f"(max scaled residual {np.max(resid / np.maximum(1.0, theta**2)):.2e})")


def test_criterion_3_buridan():
    t0 = time.perf_counter()
    rep, dens = analytic.buridan(2.0, 0.05)
    lo, hi = rep.lo, rep.hi
    ok = dens.rho.tolist() == [1.0, 0.0]
    ok = ok and (lo, hi) == (2.0, 2.05) and lo <= 2.0184 <= hi
    bf = knapsack.brute_force(
        knapsack.KnapsackInstance(np.array([2.0, 2.0]), np.array([1.0, 1.0]), 1.0))
    rep0, _ = analytic.buridan(2.0, 0.0)
    ok = ok and len(bf.optima) == 2 and not rep0.is_interval
    report("criterion 3 tie-broken two-item pick", time.perf_counter() - t0,
           1.0, ok, f"(interval [{lo}, {hi}])")


def test_criterion_4_symmetric_truss():
    t0 = time.perf_counter()
    target = -0.5 * (1.0 / A_CONST + 1.0 / B_CONST)
    dp, pp = analytic.symmetric_truss(A_CONST, B_CONST, +0.01)
    dm, pm = analytic.symmetric_truss(A_CONST, B_CONST, -0.01)
    ok = dp.rho.tolist() == [0.0, 1.0] and dm.rho.tolist() == [1.0, 0.0]
    ok = ok and abs(pp - target) <= 1e-3 and abs(pm - target) <= 1e-3
    report("criterion 4 symmetric truss selection", time.perf_counter() - t0,
           1.0, ok, f"(potential {pp:.6f} vs {target:.6f})")


def test_criterion_5_double_well_triality():
    t0 = time.perf_counter()
    res = analytic.double_well_triality(1.0, 2.0, (0.5,))
    kinds = {r.kind: r for r in res.roots}
    g = kinds["global_min"]
    ok = abs(g.varsigma - 0.24) <= 0.02 and abs(g.x[0] - 2.1) <= 0.02
    ok = ok and abs(g.potential - (-1.02951)) <= 1e-3
    ok = ok and len(res.roots) == 3
    for r in res.roots:
        ok = ok and abs(r.potential - r.dual_potential) <= \
            1e-8 * max(1.0, abs(r.potential))
    res0 = analytic.double_well_triality(1.0, 2.0, (0.0,))
    ok = ok and res0.roots[0].varsigma == -2.0
    report("criterion 5 double-well triality", time.perf_counter() - t0,
           1.0, ok, f"(root {g.varsigma:.4f}, minimizer {g.x[0]:.4f})")


def test_criterion_6_penalized_compliance_counterexample():
    t0 = time.perf_counter()
    r2 = analytic.simp_counterexample(A_CONST, B_CONST, p=2)
    ok = abs(r2.argmin[0] - 0.5) <= 1e-3
    r3 = analytic.simp_counterexample(A_CONST, B_CONST, p=3)
    best = min(m[1] for m in r3.minima)
    glob = sorted(m[0] for m in r3.minima if m[1] <= best + 1e-9)
    ok = ok and len(glob) == 2 and glob[0] <= 1e-3 and glob[1] >= 1.0 - 1e-3
    r4 = analytic.simp_counterexample(A_CONST / 2.0, B_CONST, p=3)
    ok = ok and abs(r4.argmin[0] - 0.5) <= 1e-3
    report("criterion 6 penalization counterexample", time.perf_counter() - t0,
           1.0, ok, f"(p=3 global minima at {glob})")


def test_criterion_7_mbb_desk_scale():
    t0 = time.perf_counter()
    model = build_mbb(60, 20)
    dens, u, rec = run_cdt(model, CdtConfig(volfrac=0.4, mu=0.97))
    n = model.n_elements
    rho = dens.rho
    binary = bool(np.all((rho == 0.0) | (rho == 1.0)))
    gray = int(np.sum((rho > 0.0) & (rho < 1.0)))
    vol_ok = rec.rows[-1].volume <= 0.4 + 1.0 / n
    res_ok = u.residual <= 1e-10
    c = rec.final_compliance
    ok = binary and gray == 0 and vol_ok and res_ok and np.isfinite(c)
    ok = ok and abs(c - MBB_COMPLIANCE_BASELINE) <= 1e-6 * MBB_COMPLIANCE_BASELINE
    report("criterion 7 MBB desk-scale run", time.perf_counter() - t0, 60.0, ok,
           f"(compliance {c:.6f}, volume {rec.rows[-1].volume:.4f}, "
           f"{rec.outer_iterations} outer steps)")


def test_criterion_8_strain_energy_monotone_in_volfrac():
    t0 = time.perf_counter()
    model = build_cantilever2d(60, 20)
    energy = {}
    for vf in (0.5, 0.4, 0.3):
        dens, u, rec = run_cdt(model, CdtConfig(volfrac=vf, mu=0.98))
        energy[vf] = fem.strain_energy(u, fem.assemble(model, dens.rho))
    ok = energy[0.3] > energy[0.4] > energy[0.5]
    report("criterion 8 strain energy vs volume fraction",
           time.perf_counter() - t0, 180.0, ok,
           f"(E(0.5)={energy[0.5]:.2f} E(0.4)={energy[0.4]:.2f} "
           f"E(0.3)={energy[0.3]:.2f})")


def test_criterion_9_method_comparison():
    t0 = time.perf_counter()
    model = build_cantilever2d(40, 16)
    n = model.n_elements
    v = model.mesh.element_volumes()
    db, ub, rb = run_beso(model, CdtConfig(volfrac=0.5, mu=0.97))
    xs, us, rs = run_simp(model, 0.5, SimpConfig())
    dc, uc, rc = run_cdt(model, CdtConfig(volfrac=0.5, mu=0.97))
    ok = bool(np.all((db.rho == 0.0) | (db.rho == 1.0)))
    gray_simp = int(np.sum((xs > 0.01) & (xs < 0.99)))
    gray_cdt = int(np.sum((dc.rho > 0.01) & (dc.rho < 0.99)))
    ok = ok and gray_simp > 0 and gray_cdt == 0
    # replay of the shared schedule: the greedy per-step subset equals the
    # dual knapsack argmax whenever the gains are tie-free
    rho = np.ones(n)
    V_prev = 1.0
    tau = 1.0
    agree = True
    for _ in range(40):
        u = fem.solve_equilibrium(model, rho, strict=False)
        w = stored_energy_gains(model, rho, u)
        V_g = volume_schedule(V_prev, 0.97, 0.5)
        sel = beso_select(w, v, V_g, rho)
        if np.unique(w).size == n:
            res = knapsack.solve(knapsack.KnapsackInstance(w, v, V_g),
                                 params=knapsack.SolveParams(tau0=tau))
            agree = agree and bool(np.array_equal(sel, res.density.rho))
            tau = res.point.tau
        rho, V_prev = sel, V_g
        if V_g <= 0.5:
            break
    ok = ok and agree
    report("criterion 9 method comparison", time.perf_counter() - t0, 180.0, ok,
           f"(gray: simp {gray_simp}, cdt {gray_cdt}; subsets agree {agree})")


def test_criterion_10_fem_correctness():
    t0 = time.perf_counter()
    # patch test
    nelx = nely = 2
    mesh = fem.Mesh((nelx, nely))
    f = np.zeros(mesh.n_dofs)
    for j in range(nely + 1):
        node = nelx * (nely + 1) + j
        f[2 * node] = 0.5 if j in (0, nely) else 1.0
    fixed = [2 * j for j in range(nely + 1)] + [2 * nely + 1]
    patch = fem.StructuralModel(mesh, fem.Material(), np.array(fixed), f)
    u = fem.solve_equilibrium(patch, np.ones(4))
    err = 0.0
    for i in range(nelx + 1):
        for j in range(nely + 1):
            node = i * (nely + 1) + j
            err = max(err, abs(u.u[2 * node] - float(i)),
                      abs(u.u[2 * node + 1] + 0.3 * (-j + nely)))
    ok = err <= 1e-10
    # rigid-mode counts
    ev2 = np.linalg.eigvalsh(fem.element_stiffness_2d(fem.Material()))
    ev3 = np.linalg.eigvalsh(fem.element_stiffness_3d(fem.Material()))
    ok = ok and int(np.sum(np.abs(ev2) < 1e-12)) == 3
    ok = ok and int(np.sum(np.abs(ev3) < 1e-10)) == 6
    # energy identity on every benchmark solve
    worst_gap = 0.0
    for model in (build_mbb(60, 20), build_cantilever2d(40, 16),
                  build_cantilever3d(6, 2, 2)):
        rho = np.ones(model.n_elements)
        ueq = fem.solve_equilibrium(model, rho)
        c = fem.compliance(ueq, model.load)
        s = fem.strain_energy(ueq, fem.assemble(model, rho))
        worst_gap = max(worst_gap, abs(c - s) / abs(c))
    ok = ok and worst_gap <= 1e-8
    report("criterion 10 FEM correctness", time.perf_counter() - t0, 30.0, ok,
           f"(patch error {err:.1e}, energy identity gap {worst_gap:.1e})")


def test_cost_probe_smoke_bound(tmp_path):
    # stand-in for the paper's wall-clock comparisons: with its defaults
    # (vf 0.5, mu 0.97, cdt and beso), `cdtopt probe` finishes the sweep
    t0 = time.perf_counter()
    code = cli.main(["probe", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    with open(tmp_path / "cost_probe.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    sizes = [(int(r["nelx"]), int(r["nely"])) for r in rows]
    ok = (sizes == [size for size in [(20, 8), (40, 16), (60, 24), (80, 30)] for _ in range(2)]
          and all(int(r["outer_iters"]) > 0 for r in rows))
    report("cost probe sweep 20x8..80x30", elapsed, 300.0, ok,
           f"({sum(float(r['total_s']) for r in rows):.1f}s across {len(rows)} runs)")
