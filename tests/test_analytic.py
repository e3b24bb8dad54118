import math

import numpy as np
import pytest

from cdtopt import analytic, knapsack

A = (2.0 - math.sqrt(2.0)) / 2.0
B = (4.0 + math.sqrt(2.0)) / 2.0


# ---------------------------------------------------------------------------
# tie-broken two-item knapsack
# ---------------------------------------------------------------------------

def test_buridan_symmetric_degenerate_two_optima():
    report, density = analytic.buridan(2.0, 0.0)
    assert not report.is_interval
    assert (report.lo, report.hi) == (2.0, 2.0)  # the tie value, both ratios
    bf = knapsack.brute_force(
        knapsack.KnapsackInstance(np.array([2.0, 2.0]), np.array([1.0, 1.0]), 1.0))
    assert len(bf.optima) == 2
    assert density.support() in bf.optima


def test_buridan_perturbed_unique_and_interval():
    report, density = analytic.buridan(2.0, 0.05)
    assert report.is_interval
    assert density.rho.tolist() == [1.0, 0.0]
    lo, hi = report.lo, report.hi
    assert (lo, hi) == (2.0, 2.05)
    assert lo <= 2.0184 <= hi


def test_buridan_negative_epsilon_flips_pick():
    report, density = analytic.buridan(2.0, -0.05)
    assert density.rho.tolist() == [0.0, 1.0]


def test_buridan_no_perturb_raises_on_tie():
    with pytest.raises(knapsack.DegenerateInstance):
        analytic.buridan(2.0, 0.0, perturb=False)


# ---------------------------------------------------------------------------
# two-group truss
# ---------------------------------------------------------------------------

def test_truss_positive_epsilon_keeps_second_group():
    density, potential = analytic.symmetric_truss(A, B, 0.01)
    assert density.rho.tolist() == [0.0, 1.0]
    assert potential == pytest.approx(-0.5 * (1 / A + 1 / B), abs=1e-12)


def test_truss_negative_epsilon_keeps_first_group():
    density, potential = analytic.symmetric_truss(A, B, -0.01)
    assert density.rho.tolist() == [1.0, 0.0]
    assert potential == pytest.approx(-0.5 * (1 / A + 1 / B), abs=1e-12)


def test_truss_potential_closed_form_value():
    # 1/a = 2 + sqrt(2), 1/b = (8 - 2 sqrt(2))/14
    expected = -0.5 * ((2 + math.sqrt(2)) + (8 - 2 * math.sqrt(2)) / 14)
    _, potential = analytic.symmetric_truss(A, B, 0.01)
    assert potential == pytest.approx(expected, abs=1e-12)
    assert potential == pytest.approx(-1.8918, abs=1e-3)


def test_truss_symmetric_degenerate_raises():
    with pytest.raises(knapsack.DegenerateInstance):
        analytic.symmetric_truss(A, B, 0.0, perturb=False)


# ---------------------------------------------------------------------------
# penalized-compliance counterexample
# ---------------------------------------------------------------------------

def test_counterexample_p2_center():
    res = analytic.simp_counterexample(A, B, p=2)
    assert res.argmin[0] == pytest.approx(0.5, abs=1e-3)
    assert res.argmin[1] == pytest.approx(0.5, abs=1e-3)


def test_counterexample_p3_corners():
    res = analytic.simp_counterexample(A, B, p=3)
    best = min(m[1] for m in res.minima)
    corner_minima = [m for m in res.minima if m[1] <= best + 1e-9]
    assert len(corner_minima) == 2
    assert sorted(abs(m[0] - t) <= 1e-3 for m, t in zip(corner_minima, (0.0, 1.0)))
    assert min(abs(res.argmin[0]), abs(res.argmin[0] - 1.0)) <= 1e-3


def test_counterexample_smaller_a_back_to_center():
    res = analytic.simp_counterexample(A / 2.0, B, p=3)
    assert res.argmin[0] == pytest.approx(0.5, abs=1e-3)


def test_counterexample_swap_symmetry():
    res = analytic.simp_counterexample(A, B, p=2)
    val = {}
    for r1, r2, value in res.grid:
        val[(round(r1, 9), round(r2, 9))] = value
    for (r1, r2), value in val.items():
        assert val[(r2, r1)] == pytest.approx(value, rel=1e-12)


def test_counterexample_scan_samples_both_endpoints():
    # 1/0.3 is no integer: a scan stepping from 0 alone stops at 0.9 and
    # reports a spurious endpoint minimum there instead of the t = 1 corner
    res = analytic.simp_counterexample(A, B, p=3, grid_resolution=0.3)
    assert res.boundary_t[0] == 0.0 and res.boundary_t[-1] == 1.0
    assert [t for t, _ in res.minima] == [0.0, 1.0]
    assert res.minima[1][1] == pytest.approx(1.8918058124456125, rel=1e-12)


def test_counterexample_default_scan_steps_by_the_resolution():
    res = analytic.simp_counterexample(A, B)
    assert np.array_equal(res.boundary_t, np.arange(0.0, 1.0 + 0.5e-4, 1e-4))


@pytest.mark.parametrize("kwargs,name", [
    ({"grid_resolution": 0.0}, "resolution"),
    ({"grid_resolution": -1.0}, "resolution"),
    ({"grid_resolution": 2.0}, "resolution"),
    ({"grid_resolution": math.nan}, "resolution"),
    ({"p": math.nan}, "p must"),
    ({"p": math.inf}, "p must"),
    ({"p": -1.0}, "p must"),
    ({"p": 0.0}, "p must"),
    ({"a": math.inf}, "a and b"),
    ({"b": math.nan}, "a and b"),
    # a = b at p = 1 makes the boundary flat: rounding alone would pick the minima
    ({"a": 0.7, "b": 0.7, "p": 1.0}, "flat"),
    # at p = 1 the boundary varies by about (a - b)^2: below rounding here
    ({"a": 1.0, "b": 1.0 + 1e-15, "p": 1.0}, "flat"),
    ({"a": 1.0, "b": 1.0 + 1e-12, "p": 1.0}, "flat"),
    ({"a": 1.0, "b": 1.0 + 1e-9, "p": 1.0}, "flat"),
], ids=["resolution-0", "resolution-negative", "resolution-2", "resolution-nan", "p-nan",
        "p-inf", "p-negative", "p-0", "a-inf", "b-nan", "a-equals-b-at-p-1",
        "b-1e-15-above-a-at-p-1", "b-1e-12-above-a-at-p-1", "b-1e-9-above-a-at-p-1"])
def test_counterexample_rejects_bad_values(kwargs, name):
    args = {"a": A, "b": B, **kwargs}
    with pytest.raises(ValueError, match=name):
        analytic.simp_counterexample(**args)


@pytest.mark.parametrize("kwargs,minima", [
    ({"a": 1.0, "b": 1.0 + 1e-6, "p": 1.0}, [0.5]),
    ({"a": 1.0, "b": 1.0, "p": 1.0 + 1e-12}, [0.0, 1.0]),
    ({"p": 2.0}, [0.0, 0.5, 1.0]),
    ({"p": 3.0}, [0.0, 0.5, 1.0]),
], ids=["b-1e-6-above-a-at-p-1", "a-equals-b-just-above-p-1", "p-2", "p-3"])
def test_counterexample_counts_only_minima_deeper_than_rounding(kwargs, minima):
    # rounding leaves hundreds of samples below their neighbours on a
    # boundary a few ulp from flat; only a deeper basin is a minimum
    res = analytic.simp_counterexample(**{"a": A, "b": B, **kwargs})
    assert [t for t, _ in res.minima] == pytest.approx(minima, abs=0.05)


TRUSS = (analytic.symmetric_truss, {"a": A, "b": B, "epsilon": 0.01})
DOUBLE_WELL = (analytic.double_well_triality, {"beta": 1.0, "lam": 2.0, "f": (0.5,)})


@pytest.mark.parametrize("demo,kwargs,name", [
    (TRUSS, {"a": math.inf}, "a and b"),
    (TRUSS, {"b": math.nan}, "a and b"),
    (TRUSS, {"epsilon": math.inf}, "epsilon"),
    (TRUSS, {"epsilon": math.nan}, "epsilon"),
    (DOUBLE_WELL, {"beta": math.inf}, "beta and lam"),
    (DOUBLE_WELL, {"lam": math.inf}, "beta and lam"),
    (DOUBLE_WELL, {"lam": math.nan}, "beta and lam"),
    (DOUBLE_WELL, {"f": (math.nan,)}, "f must"),
    (DOUBLE_WELL, {"f": (0.5, math.inf)}, "f must"),
], ids=["truss-a-inf", "truss-b-nan", "truss-epsilon-inf", "truss-epsilon-nan", "beta-inf",
        "lam-inf", "lam-nan", "f-nan", "f-inf"])
def test_demo_specs_reject_non_finite_values(demo, kwargs, name):
    fun, valid = demo
    with pytest.raises(ValueError, match=name):
        fun(**{**valid, **kwargs})


def test_counterexample_boundary_scan_consistency():
    res = analytic.simp_counterexample(A, B, p=2, grid_resolution=1e-3)
    g = res.boundary_values
    t = res.boundary_t
    i = int(np.argmin(g))
    assert abs(t[i] - res.argmin[0]) <= 2e-3


# ---------------------------------------------------------------------------
# double-well triality
# ---------------------------------------------------------------------------

def cubic_roots_oracle(beta, lam, fn2):
    # sign-change bracketing plus bisection on (s/beta + lam) s^2 - fn2/2
    def g(s):
        return s * s * (s / beta + lam) - 0.5 * fn2
    xs = np.linspace(-3.5, 1.5, 20001)
    roots = []
    for a, b in zip(xs, xs[1:]):
        if g(a) == 0.0:
            roots.append(a)
        if g(a) * g(b) < 0:
            lo, hi = a, b
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if g(lo) * g(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return sorted(roots, reverse=True)


def test_double_well_roots_match_oracle():
    res = analytic.double_well_triality(1.0, 2.0, (0.5,))
    oracle = cubic_roots_oracle(1.0, 2.0, 0.25)
    got = [r.varsigma for r in res.roots]
    assert len(got) == 3
    for g_val, o_val in zip(got, oracle):
        assert g_val == pytest.approx(o_val, abs=1e-9)
    # published rounded values
    assert got[0] == pytest.approx(0.2364, abs=2e-4)
    assert got[1] == pytest.approx(-0.2687, abs=2e-4)
    assert got[2] == pytest.approx(-1.9677, abs=2e-4)


def test_double_well_primal_criticals_match_cubic():
    # stationary points of the potential solve x^3 - 4x - 1 = 0 here
    res = analytic.double_well_triality(1.0, 2.0, (0.5,))
    for root in res.roots:
        x = root.x[0]
        assert x**3 - 4.0 * x - 1.0 == pytest.approx(0.0, abs=1e-9)
    xs = sorted((r.x[0] for r in res.roots), reverse=True)
    assert xs[0] == pytest.approx(2.1149, abs=2e-4)
    assert xs[1] == pytest.approx(-0.2541, abs=2e-4)
    assert xs[2] == pytest.approx(-1.8608, abs=2e-4)


def test_double_well_classification_and_identity():
    res = analytic.double_well_triality(1.0, 2.0, (0.5,))
    kinds = {r.kind: r for r in res.roots}
    assert kinds["global_min"].varsigma > 0
    assert kinds["local_max"].varsigma == min(r.varsigma for r in res.roots)
    assert kinds["global_min"].x[0] == pytest.approx(2.1, abs=0.02)
    assert kinds["global_min"].varsigma == pytest.approx(0.24, abs=0.02)
    assert kinds["global_min"].potential == pytest.approx(-1.02951, abs=1e-3)
    for r in res.roots:
        assert abs(r.potential - r.dual_potential) <= \
            1e-8 * max(1.0, abs(r.potential))
        resid = r.varsigma**2 * (r.varsigma + 2.0) - 0.125
        assert abs(resid) <= 1e-10


def test_double_well_second_derivative_classification():
    # independent check of extremum kinds via the potential's curvature
    res = analytic.double_well_triality(1.0, 2.0, (0.5,))
    for r in res.roots:
        x = r.x[0]
        curv = 1.5 * x * x - 2.0     # d^2/dx^2 of the n=1 potential
        if r.kind in ("global_min", "local_min"):
            assert curv > 0
        else:
            assert curv < 0


def test_double_well_symmetric_case():
    res = analytic.double_well_triality(1.0, 2.0, (0.0,))
    assert res.symmetric
    assert len(res.roots) == 1
    assert res.roots[0].varsigma == -2.0
    assert res.roots[0].kind == "local_max"
    assert res.roots[0].x == (0.0,)
    assert abs(res.roots[0].potential - res.roots[0].dual_potential) <= 1e-12
    assert res.perturbation_minimizers == (2.0, -2.0)


@pytest.mark.parametrize("f", [(5e-14,), (-5e-14,), (1e-15,), (1e-20,), (1e-100,), (1e-150,),
                               (3e-14, 4e-14)])
def test_double_well_small_load_minimizers_approach_the_ring(f):
    # as f -> 0 the minimizers approach |x| = sqrt(2 lam) = 2 along +-f, at
    # potential -+2|f|: no rounding grid may merge or move the roots
    res = analytic.double_well_triality(1, 2, f)
    other = "local_min" if len(f) == 1 else "negative_branch"
    assert [r.kind for r in res.roots] == ["global_min", other, "local_max"]
    assert not res.symmetric and res.perturbation_minimizers == ()
    ring = 2.0 * np.asarray(f) / math.hypot(*f)
    assert res.roots[0].x == pytest.approx(tuple(ring), rel=1e-12)
    assert res.roots[1].x == pytest.approx(tuple(-ring), rel=1e-12)
    for r in res.roots:
        assert abs(r.potential - r.dual_potential) <= 1e-8 * max(1.0, abs(r.potential))


@pytest.mark.parametrize("f", [(1e-160,), (1e-200,), (0.0,)])
def test_double_well_vanishing_load_is_answered(f):
    # pytest turns a numpy warning into an error; a load whose |f|^2
    # underflows to 0 gets the symmetric answer
    res = analytic.double_well_triality(1, 2, f)
    if f[0] * f[0] == 0.0:
        assert res.symmetric and res.perturbation_minimizers == (2.0, -2.0)
        assert [(r.kind, r.varsigma) for r in res.roots] == [("local_max", -2.0)]
    else:
        assert not res.symmetric
        assert res.roots[0].x[0] == pytest.approx(2.0, rel=1e-12)
        assert res.roots[1].x[0] == pytest.approx(-2.0, rel=1e-12)
