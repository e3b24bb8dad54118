import csv
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdtopt import cli, fem, knapsack
from cdtopt.baselines import (
    X_MIN,
    SimpConfig,
    _filter_matrix,
    _oc_update,
    beso_select,
    method_config,
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
    assert abs(rec.rows[-1].volume - 0.5) <= 1e-4
    assert np.all((x >= 1e-3) & (x <= 1.0))


def test_simp_strain_energy_column_equals_compliance():
    # energy identity at equilibrium: 1/2 u.K(x)u = 1/2 f.u on every row
    model = build_mbb(30, 10)
    _, _, rec = run_simp(model, 0.5, SimpConfig())
    assert rec.rows
    for r in rec.rows:
        assert abs(r.strain_energy - r.compliance) <= 1e-8 * r.compliance
        assert 0.0 <= r.residual <= 1e-10   # no SIMP step here misses the bound


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
    assert not rec.converged  # status, never an exception
    assert rec.outer_iterations == 3


def test_simp_meets_the_volume_target_at_a_large_load():
    # the OC multiplier of a 1e5 load lies past 1e9: the bracket must grow
    _, _, rec = run_simp(build_mbb(30, 10, load=1e5), 0.4)
    assert rec.converged
    assert abs(rec.rows[-1].volume - 0.4) <= 1e-6


def test_simp_design_does_not_depend_on_the_load_scale():
    # the OC multiplier scales with the load squared: a stop test with an
    # absolute floor ended its bisection early at small loads (volume 0.403
    # at load 1e-20, 0.001 at 1e-40)
    x1, _, rec1 = run_simp(build_mbb(30, 10), 0.5)
    assert rec1.outer_iterations == 72
    for load in (1e-20, 1e-40):
        x, _, rec = run_simp(build_mbb(30, 10, load=load), 0.5)
        assert rec.converged and rec.outer_iterations == 72, load
        assert np.max(np.abs(x - x1)) <= 1e-8, load
        assert rec.final_compliance / load**2 == pytest.approx(rec1.final_compliance, rel=1e-8)


def test_oc_update_stops_widening_at_the_density_floor():
    # a target below the X_MIN floor is out of reach at any multiplier
    x = np.full(4, 5e-4)
    xnew, bisections = _oc_update(x, -np.arange(4.0), 5e-4)
    assert np.array_equal(xnew, np.full(4, 1e-3)) and bisections > 0


def test_simp_bracketed_oc_steps_are_unchanged(tmp_path):
    # load 1e3 is bracketed by (0, 1e9] on every step, and load 1e5 grows
    # the bracket: each log, elapsed_ms aside, is pinned to the one written
    # with the bisection evaluating every step (plain_oc_update of
    # test_oc_update_properties.py in place of _oc_update)
    for load, digest in (
            (1e3, "b73ab634b934e031ac524113f80c47876755d70731660127c6f839e27c4e1cb8"),
            (1e5, "61d7905cb5b5fda5dc2d000ad5c531854363b11ae2f54ee33ea54ef076bb23db")):
        _, _, rec = run_simp(build_mbb(30, 10, load=load), 0.4)
        assert rec.outer_iterations == 70
        path = cli.write_runrecord_csv(rec, tmp_path / f"simp_{load:g}.csv")
        text = "".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines())
        assert hashlib.sha256(text.encode()).hexdigest() == digest, load


def test_simp_at_rmin_1_runs_unfiltered():
    # the filter at rmin 1 weighs only the element itself: x dc / x, one
    # rounding from dc.  The pins were recorded with the filter step skipped
    _, _, record = run_simp(build_mbb(20, 8), 0.5, SimpConfig(rmin=1.0))
    assert record.converged and record.outer_iterations == 167
    assert record.final_compliance == pytest.approx(68.02098590956355, rel=1e-10)


def test_simp_rejects_a_volfrac_below_the_density_floor():
    # no update reaches a volume below X_MIN (the CLI cases cover method_config);
    # the floor is SIMP's alone
    with pytest.raises(ValueError, match=r"volfrac 0\.0005 .* X_MIN = 0\.001"):
        run_simp(build_mbb(12, 4), 5e-4)
    assert method_config("beso", {"volfrac": 5e-4, "mu": 0.9}).volfrac == 5e-4
    run_simp(build_mbb(12, 4), X_MIN, SimpConfig(max_outer=1))  # the floor itself is reachable


@pytest.mark.parametrize("max_outer", [2.5, math.nan], ids=["fraction", "nan"])
def test_configs_reject_a_max_outer_that_is_not_a_whole_number(max_outer):
    # the outer loop counts its steps with range(), which takes only integers
    with pytest.raises(ValueError, match="max_outer"):
        CdtConfig(volfrac=0.5, mu=0.9, max_outer=max_outer)
    with pytest.raises(ValueError, match="max_outer"):
        SimpConfig(max_outer=max_outer)
    assert SimpConfig(max_outer=np.int64(3)).max_outer == 3  # numpy integers pass


def test_simp_config_validation():
    with pytest.raises(ValueError):
        SimpConfig(penal=0.5)
    with pytest.raises(ValueError):
        SimpConfig(rmin=0.5)
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


# ---------------------------------------------------------------------------
# SIMP's filter
# ---------------------------------------------------------------------------

def oracle_filter(dims, rmin):
    """Dense H_ij = max(0, rmin - |c_i - c_j|) over element centres, pair by
    pair, and the number of pairs with |c_i - c_j| <= rmin."""
    # element (ei, ej, ek) is ek*nelx*nely + ei*nely + ej (fem docstring)
    nelx, nely = dims[:2]
    centres = np.empty((int(np.prod(dims)), len(dims)))
    for ei, ej, *ek in np.ndindex(*dims):
        e = (ek[0] if ek else 0) * nelx * nely + ei * nely + ej
        centres[e] = [ei + 0.5, ej + 0.5] + [k + 0.5 for k in ek]
    sq = ((centres[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    return np.maximum(0.0, rmin - np.sqrt(sq)), np.count_nonzero(sq <= rmin * rmin)


def check_filter_against_oracle(dims, rmin):
    H, Hs = _filter_matrix(fem.Mesh(dims), rmin)
    oracle, in_reach = oracle_filter(dims, rmin)
    assert np.array_equal(H.toarray(), oracle)
    # pairs at distance exactly rmin are stored, at weight 0
    assert H.nnz == in_reach
    # a sum of m positive terms in any order lies within m units of
    # roundoff of the exact sum; equality would pin numpy's summation order
    exact = np.array([math.fsum(row) for row in oracle])
    m = np.count_nonzero(oracle, axis=1)
    assert np.all(np.abs(Hs - exact) <= m * 2.0 ** -53 * exact)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(dims=st.lists(st.integers(1, 8), min_size=2, max_size=3).map(tuple),
       rmin=st.floats(1.0, 4.0))
def test_filter_matrix_matches_brute_force_oracle(dims, rmin):
    check_filter_against_oracle(dims, rmin)


@pytest.mark.parametrize("dims,rmin", [
    *[(dims, r) for dims in [(6, 5), (5, 4, 3)]
      for r in (1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0)],
    ((60, 2), 3.0),   # an offset as long as a side pairs nothing
    ((2, 2), 3.0),
])
def test_filter_matrix_at_exact_offset_lengths_and_short_sides(dims, rmin):
    check_filter_against_oracle(dims, rmin)


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
