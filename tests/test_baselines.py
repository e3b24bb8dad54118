import csv

import numpy as np
import pytest

from cdtopt import cli, fem, knapsack
from cdtopt.baselines import (
    SimpConfig,
    beso_select,
    run_beso,
    run_simp,
)
from cdtopt.driver import CdtConfig, run_cdt
from cdtopt.problems import build_cantilever2d, build_mbb


# ---------------------------------------------------------------------------
# SIMP
# ---------------------------------------------------------------------------

def test_simp_full_volume_all_solid():
    model = build_mbb(12, 4)
    x, u, rec = run_simp(model, 1.0, SimpConfig(max_outer=60))
    assert np.all(x >= 1.0 - 1e-9)


def test_simp_gray_fraction_positive_and_volume_active():
    model = build_mbb(24, 8)
    x, u, rec = run_simp(model, 0.5, SimpConfig())
    gray = np.sum((x > 0.01) & (x < 0.99))
    assert gray > 0
    assert abs(rec.final_volume - 0.5) <= 1e-4
    assert np.all((x >= 1e-3) & (x <= 1.0))


def test_simp_strain_energy_column_equals_compliance():
    # energy identity at equilibrium: 1/2 u.K(x)u = 1/2 f.u on every row
    model = build_mbb(30, 10)
    _, _, rec = run_simp(model, 0.5, SimpConfig())
    assert rec.rows
    for r in rec.rows:
        assert abs(r.strain_energy - r.compliance) <= 1e-8 * r.compliance
        assert 0.0 <= r.residual <= 1e-10   # SIMP's solves are strict


def test_simp_grayness_exceeds_cdt():
    model = build_cantilever2d(20, 8)
    x, _, _ = run_simp(model, 0.5, SimpConfig())
    dens, _, _ = run_cdt(model, CdtConfig(volfrac=0.5, mu=0.95))
    gray_simp = int(np.sum((x > 0.01) & (x < 0.99)))
    gray_cdt = int(np.sum((dens.rho > 0.01) & (dens.rho < 0.99)))
    assert gray_cdt == 0
    assert gray_simp > gray_cdt


def test_simp_nonconvergence_is_reported_not_raised():
    model = build_mbb(16, 6)
    x, u, rec = run_simp(model, 0.4, SimpConfig(max_outer=3))
    assert rec.converged in (True, False)  # status, never an exception
    assert rec.outer_iterations == 3 or rec.converged


def test_simp_config_validation():
    with pytest.raises(ValueError):
        SimpConfig(penal=0.5)
    with pytest.raises(ValueError):
        SimpConfig(rmin=0.5)
    with pytest.raises(ValueError):
        SimpConfig(ft=3)
    with pytest.raises(ValueError):
        SimpConfig(omega2=-1.0)
    with pytest.raises(ValueError):
        SimpConfig(max_outer=0)


# ---------------------------------------------------------------------------
# BESO
# ---------------------------------------------------------------------------

def test_beso_full_volume_all_solid():
    model = build_mbb(12, 4)
    dens, u, rec = run_beso(model, CdtConfig(volfrac=1.0, mu=0.9))
    assert np.all(dens.rho == 1.0)


def test_beso_select_is_exact_for_equal_volumes():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 1.0, 12)
    v = np.full(12, 1 / 12)
    rho = beso_select(w, v, 0.4, np.ones(12))
    inst = knapsack.KnapsackInstance(w, v, 0.4)
    bf = knapsack.brute_force(inst)
    assert tuple(int(i) for i in np.flatnonzero(rho)) in bf.optima


def test_beso_select_tie_break_prefers_solid_then_low_index():
    w = np.array([1.0, 1.0, 1.0])
    v = np.full(3, 1 / 3)
    current = np.array([0.0, 1.0, 0.0])
    rho = beso_select(w, v, 1 / 3, current)
    assert rho.tolist() == [0.0, 1.0, 0.0]
    rho2 = beso_select(w, v, 1 / 3, np.zeros(3))
    assert rho2.tolist() == [1.0, 0.0, 0.0]


def test_beso_binary_and_budget_feasible():
    model = build_cantilever2d(20, 8)
    dens, u, rec = run_beso(model, CdtConfig(volfrac=0.5, mu=0.95))
    assert np.all((dens.rho == 0.0) | (dens.rho == 1.0))
    assert dens.rho.mean() <= 0.5 + 1e-12
    assert rec.converged


def test_beso_strain_energy_close_to_cdt():
    # with equal element volumes the exact knapsack keeps the greedy top-k
    # subset, so both selectors drive the shared loop through the same run
    model = build_cantilever2d(60, 20)
    db, ub, rb = run_beso(model, CdtConfig(volfrac=0.5, mu=0.97))
    dc, uc, rc = run_cdt(model, CdtConfig(volfrac=0.5, mu=0.97))
    assert np.array_equal(db.rho, dc.rho)
    assert rb.outer_iterations == rc.outer_iterations
    assert rb.final_compliance == rc.final_compliance

    def fields(r):
        return (r.volume, r.compliance, r.strain_energy, r.P_u, r.residual)

    assert [fields(r) for r in rb.rows] == [fields(r) for r in rc.rows]


@pytest.mark.parametrize("dims", [(1, 1), (3, 2), (4, 3, 2), (3, 5, 6)])
def test_element_centroids_are_element_centres(dims):
    # element (ei, ej, ek) is ek*nelx*nely + ei*nely + ej (fem docstring)
    nelx, nely = dims[:2]
    # SIMP's filter measures distances between these centres
    centres = fem.Mesh(dims).element_positions + 0.5
    assert centres.shape == (int(np.prod(dims)), len(dims))
    for ei, ej, *ek in np.ndindex(*dims):
        e = (ek[0] if ek else 0) * nelx * nely + ei * nely + ej
        assert centres[e].tolist() == [ei + 0.5, ej + 0.5] + [k + 0.5 for k in ek]


# ---------------------------------------------------------------------------
# cost probe
# ---------------------------------------------------------------------------

def test_cost_probe_rows_and_speed(tmp_path):
    assert cli.main(["probe", "--sizes", "16x6,24x10", "--volfrac", "0.5", "--mu", "0.95",
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "cost_probe.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # one row per (method, mesh)
    seen = {(r["method"], r["nelx"], r["nely"]) for r in rows}
    assert len(seen) == 4
    for r in rows:
        iters, n = int(r["outer_iters"]), int(r["n_elements"])
        assert float(r["total_s"]) > 0.0 and iters > 0
        # the selection update stays cheap relative to mesh size
        per_element = float(r["update_s"]) / (iters * n)
        assert per_element < 5e-5  # seconds per element per outer step
