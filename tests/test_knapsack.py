import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cdtopt import knapsack as kp


def make(w, v, V):
    return kp.KnapsackInstance(np.asarray(w, float), np.asarray(v, float), V)


def cubic_bisect(theta, beta, iters=200):
    # independent oracle: bisection on f(s) = 2/beta s^3 + s^2 - theta^2
    lo, hi = 0.0, abs(theta) + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if 2.0 / beta * mid**3 + mid * mid < theta * theta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# sigma_from_theta
# ---------------------------------------------------------------------------

def test_cubic_exact_unit_root():
    # 2/2 * 1 + 1 = 2 = theta^2
    assert kp.sigma_from_theta(math.sqrt(2.0), 2.0) == pytest.approx(1.0, abs=1e-12)


def test_cubic_against_bisection_oracle():
    s = kp.sigma_from_theta(0.7, 5.0)
    assert s == pytest.approx(cubic_bisect(0.7, 5.0), abs=1e-9)
    assert abs(0.4 * s**3 + s * s - 0.49) <= 1e-9


def test_cubic_degenerate_theta():
    with pytest.raises(kp.DegenerateTheta):
        kp.sigma_from_theta(0.0, 1.0)
    with pytest.raises(kp.DegenerateTheta):
        kp.sigma_from_theta(5e-15, 1.0)


def test_cubic_residual_property():
    rng = np.random.default_rng(0)
    theta = 10.0 ** rng.uniform(-6, 3, 10000)
    beta = 10.0 ** rng.uniform(-2, 6, 10000)
    s = kp.sigma_from_theta(theta, beta)
    resid = np.abs(2.0 / beta * s**3 + s * s - theta * theta)
    assert np.all(s > 0.0)
    assert np.all(resid <= 1e-9 * np.maximum(1.0, theta * theta))


def test_cubic_monotone_in_theta():
    theta = np.linspace(1e-3, 50.0, 500)
    for beta in (0.05, 1.0, 300.0):
        s = kp.sigma_from_theta(theta, beta)
        assert np.all(np.diff(s) > 0.0)


def test_cubic_negative_theta_same_root():
    assert kp.sigma_from_theta(-0.7, 5.0) == kp.sigma_from_theta(0.7, 5.0)


# ---------------------------------------------------------------------------
# tau update and dual objectives
# ---------------------------------------------------------------------------

def test_tau_update_direct():
    inst = make([1.0], [1.0], 0.5)
    assert kp.tau_update(np.array([1.0]), inst, 0.5) == pytest.approx(1.0)


def test_tau_update_zero_numerator():
    inst = make([0.0, 0.0], [1.0, 1.0], 1.0)
    assert kp.tau_update(np.array([1.0, 1.0]), inst, 1.0) == 0.0


def test_tau_update_clamped():
    inst = make([0.0], [1.0], 1.0)
    # raw value (1 - 4)/0.5 = -6 clamps to 0
    assert kp.tau_update(np.array([2.0]), inst, 2.0) == 0.0


def test_tau_update_rejects_bad_sigma():
    inst = make([1.0], [1.0], 0.5)
    with pytest.raises(kp.InvalidDual):
        kp.tau_update(np.array([-1.0]), inst, 0.5)


def test_dual_objective_beta_value():
    inst = make([1.0], [1.0], 0.5)
    pt = kp.DualPoint(np.array([1.0]), 0.0)
    assert kp.dual_objective_beta(pt, inst, 0.5, 4.0) == pytest.approx(-1.0625)


def test_dual_objective_beta_large_beta_limit():
    inst = make([0.0], [1.0], 1.0)
    pt = kp.DualPoint(np.array([1.0]), 1.0)
    val = kp.dual_objective_beta(pt, inst, 1.0, 1e12)
    assert val == pytest.approx(-1.0, abs=1e-9)
    assert val == pytest.approx(kp.dual_objective_beta(pt, inst, 1.0, math.inf), abs=1e-9)


def test_dual_objective_beta_monotone_in_beta():
    inst = make([1.0, 0.3], [0.5, 0.5], 0.5)
    pt = kp.DualPoint(np.array([0.7, 1.3]), 0.4)
    assert kp.dual_objective_beta(pt, inst, 0.5, 10.0) >= \
        kp.dual_objective_beta(pt, inst, 0.5, 1.0)


def test_dual_objective_values():
    inst = make([1.0], [1.0], 0.5)
    assert kp.dual_objective_beta(kp.DualPoint(np.array([1.0]), 0.0), inst, 0.5,
                                  math.inf) == -1.0
    inst2 = make([0.0], [1.0], 1.0)
    assert kp.dual_objective_beta(kp.DualPoint(np.array([1.0]), 1.0), inst2, 1.0,
                                  math.inf) == -1.0


def test_penalty_free_dual_is_minus_inf_where_sigma_squared_overflows():
    # at beta = inf there is no penalty term: sum sigma^2 / inf would be nan
    inst = make([0.0], [1.0], 0.5)
    pt = kp.DualPoint(np.array([1e200]), 0.0)
    with np.errstate(over="ignore"):
        assert kp.dual_objective_beta(pt, inst, 0.5, math.inf) == -math.inf


def test_weak_duality_against_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        v = rng.uniform(0.2, 1, n)
        inst = make(rng.uniform(0, 1, n), v, rng.uniform(0.2, 1) * float(v.sum()))
        best = kp.brute_force(inst).objective
        for _ in range(5):
            pt = kp.DualPoint(np.exp(rng.normal(size=n)), rng.uniform(0, 3))
            d_inf = kp.dual_objective_beta(pt, inst, inst.V_target, math.inf)
            assert d_inf <= -(-best) + 1e-12  # <= max gain
            # the beta value can only be lower
            assert kp.dual_objective_beta(pt, inst, inst.V_target, 7.0) <= d_inf + 1e-12


def test_dual_objective_beta_concavity():
    rng = np.random.default_rng(4)
    inst = make(rng.uniform(0, 1, 6), np.full(6, 1 / 6), 0.5)
    for _ in range(50):
        a = kp.DualPoint(np.exp(rng.normal(size=6)), rng.uniform(0, 2))
        b = kp.DualPoint(np.exp(rng.normal(size=6)), rng.uniform(0, 2))
        mid = kp.DualPoint(0.5 * (a.sigma + b.sigma), 0.5 * (a.tau + b.tau))
        fa = kp.dual_objective_beta(a, inst, 0.5, 5.0)
        fb = kp.dual_objective_beta(b, inst, 0.5, 5.0)
        fm = kp.dual_objective_beta(mid, inst, 0.5, 5.0)
        assert fm >= 0.5 * (fa + fb) - 1e-12


# ---------------------------------------------------------------------------
# inner iteration and recovery
# ---------------------------------------------------------------------------

def test_inner_fixed_point_single_element():
    inst = make([1.0], [1.0], 1.0)
    res = kp.inner_fixed_point(inst, 1.0, 100.0, tau0=1.0)
    assert res.converged
    dens = kp.recover_density(res.point, inst)
    assert dens.rho.tolist() == [1.0]


def test_inner_fixed_point_buridan_perturbed():
    inst = make([2.05, 2.0], [1.0, 1.0], 1.0)
    res = kp.inner_fixed_point(inst, 1.0, 100.0, tau0=1.0)
    # at this small beta the tau drift is slow: either converged or an
    # acceptable stall at machine-noise deltas
    assert res.converged or res.last_delta <= 1e-12 * abs(res.objective)
    assert 2.0 < res.point.tau < 2.05
    # beta = 100 leaves the raw densities ~1e-4 off binary: recovery rejects
    with pytest.raises(kp.NotBinary):
        kp.recover_density(res.point, inst)
    # the full solve escalates beta and lands exactly on (1, 0)
    assert kp.solve(inst).density.rho.tolist() == [1.0, 0.0]


def test_inner_fixed_point_random_matches_brute():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.05, 1.0, 12)
    inst = make(w, np.full(12, 1 / 12), 0.4)
    res = kp.solve(inst)
    bf = kp.brute_force(inst)
    assert res.density.support() in bf.optima


def test_inner_fixed_point_validates_inputs():
    inst = make([1.0], [1.0], 1.0)
    with pytest.raises(ValueError):
        kp.inner_fixed_point(inst, 1.0, 100.0, tau0=-1.0)


def test_recover_density_direct_values():
    inst = make([2.0], [1.0], 1.0)
    dens = kp.recover_density(kp.DualPoint(np.array([1.0]), 1.0), inst)
    assert dens.rho.tolist() == [1.0]
    inst0 = make([0.0], [1.0], 1.0)
    dens0 = kp.recover_density(kp.DualPoint(np.array([1.0]), 1.0), inst0)
    assert dens0.rho.tolist() == [0.0]


def test_recover_density_not_binary():
    # raw rho = (1 - (1*1 - 0.8)/1)/2 = 0.4
    inst = make([0.8], [1.0], 1.0)
    with pytest.raises(kp.NotBinary, match=r"deviates 4\.000e-01 from binary"):
        kp.recover_density(kp.DualPoint(np.array([1.0]), 1.0), inst)


def test_recovery_complementarity_exact():
    inst = make([3.0, 1.0], [0.5, 0.5], 0.5)
    res = kp.solve(inst)
    rho = res.density.rho
    assert np.array_equal(rho * rho, rho)


# ---------------------------------------------------------------------------
# critical multiplier and existence
# ---------------------------------------------------------------------------

def F_of(inst, budget, t):
    return float(np.sum(np.abs(inst.w - t * inst.v) - t * inst.v) + 2 * t * budget)


def F_min_oracle(inst, budget):
    # F(tau) = sum(|w - tau v| - tau v) + 2 tau V is convex and piecewise
    # linear with kinks at the ratios, and its slope past the largest ratio
    # is 2V > 0, so its minimum over tau >= 0 sits at 0 or at a ratio
    return min(F_of(inst, budget, t) for t in [0.0, *inst.ratios])


def test_tau_critical_buridan_interval():
    inst = make([2.05, 2.0], [1.0, 1.0], 1.0)
    tc = kp.tau_critical(inst)
    assert (tc.lo, tc.hi) == (2.0, 2.05)
    assert tc.lo <= 2.0184 <= tc.hi  # reported point of the same interval
    assert tc.value == pytest.approx(2.025)


def test_tau_critical_symmetric_tie():
    inst = make([2.0, 2.0], [1.0, 1.0], 1.0)
    tc = kp.tau_critical(inst)
    assert tc.value == 2.0 and not tc.is_interval


def test_tau_critical_single_element_scan_oracle():
    inst = make([1.0], [1.0], 1.0)
    tc = kp.tau_critical(inst)
    assert (tc.lo, tc.hi) == (0.0, 1.0)
    F_min = F_min_oracle(inst, 1.0)
    assert F_of(inst, 1.0, tc.value) <= F_min + 1e-12 * abs(F_min)


@pytest.mark.parametrize("V, calls", [(0.5, 1), (0.25, 1), (0.75, 1), (1.0, 0), (0.05, 0)])
def test_equal_volume_tau_critical_makes_one_single_rank_selection(V, calls):
    # at k = 0 and k = n priced-out elements an interval end is a plain
    # extreme of the ratios, and no selection is needed
    inst = make(np.linspace(2.0, 0.5, 16), np.full(16, 1 / 16), V)
    partition, kths = np.partition, []
    with mock.patch.object(np, "partition",
                           lambda a, kth, *args, **kw: kths.append(kth) or partition(a, kth, *args, **kw)):
        tc = kp.tau_critical(inst)
    assert len(kths) == calls
    assert all(np.ndim(kth) == 0 for kth in kths)
    r = np.sort(inst.ratios)
    m = 16 - kp.affordable_count(inst.v, V)
    assert (tc.lo, tc.hi) == (r[m - 1] if m else 0.0, r[m] if m < 16 else math.inf)


def test_tau_critical_minimizes_scan_oracle_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        inst = make(rng.uniform(0.1, 1, n), np.full(n, 1 / n), rng.uniform(0.1, 1))
        budget = inst.budget
        tc = kp.tau_critical(inst)
        F_min = F_min_oracle(inst, budget)
        assert F_of(inst, budget, tc.value) <= F_min + 1e-12 * abs(F_min)


def test_existence_symmetric_flags_both():
    rep = kp.existence_check(make([2.0, 2.0], [1.0, 1.0], 1.0))
    assert (rep.lo, rep.hi) == (2.0, 2.0)  # the tie value, both ratios
    assert not rep.is_interval


def test_existence_perturbed_unique():
    rep = kp.existence_check(make([2.05, 2.0], [1.0, 1.0], 1.0))
    assert rep.is_interval


def test_existence_single_element_both_budgets():
    # below the element volume the only design is empty; at the volume
    # the element fits: both are unique situations for generic gains
    assert kp.existence_check(make([1.0], [1.0], 0.5)).is_interval
    assert kp.existence_check(make([1.0], [1.0], 1.0)).is_interval


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------

def test_perturb_ramp_values():
    inst = perturbed = kp.perturb(make([2.0, 2.0], [1.0, 1.0], 1.0), 0.05)
    assert perturbed.w.tolist() == [2.05, 2.025]
    assert kp.existence_check(perturbed).is_interval


def test_perturb_zero_is_identity():
    inst = make([2.0, 1.0], [1.0, 1.0], 1.0)
    assert np.array_equal(kp.perturb(inst, 0.0).w, inst.w)


def test_perturb_keeps_original_unmodified():
    inst = make([2.0, 2.0], [1.0, 1.0], 1.0)
    kp.perturb(inst, 0.1)
    assert inst.w.tolist() == [2.0, 2.0]


def test_perturb_builds_its_own_ratios_and_total_volume():
    # the per-instance quantities are computed on construction: a changed
    # copy must not carry its parent's
    inst = make([2.0, 2.0, 1.0], [0.5, 0.25, 0.25], 0.5)
    perturbed = kp.perturb(inst, 0.1)
    assert perturbed.ratios is not inst.ratios
    assert np.array_equal(perturbed.ratios, perturbed.w / perturbed.v)
    assert inst.ratios.tolist() == [4.0, 8.0, 4.0]
    assert perturbed.total_volume == float(perturbed.v.sum())
    resized = dataclasses.replace(inst, v=np.full(3, 2.0))
    assert (resized.total_volume, resized.equal_volumes) == (6.0, True)
    assert (inst.total_volume, inst.equal_volumes) == (1.0, False)
    assert resized.ratios.tolist() == [1.0, 1.0, 0.5]


def test_perturb_argmax_invariance_below_gap():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 11))
        inst = make(rng.uniform(0.1, 1, n), np.full(n, 1 / n), rng.uniform(0.2, 0.9))
        bf = kp.brute_force(inst)
        # smallest positive gap between subset objective values; row m of
        # the table holds the bits of m, one subset per row
        subsets = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
        gains = np.unique(subsets @ inst.w)
        gaps = np.diff(gains)
        gap = float(gaps[gaps > 1e-12].min())
        eps = 0.5 * gap / n
        res = kp.solve(kp.perturb(inst, eps), params=kp.SolveParams(perturb=False))
        assert res.density.support() in bf.optima


# ---------------------------------------------------------------------------
# solve end to end
# ---------------------------------------------------------------------------

def test_solve_budget_admits_everything():
    res = kp.solve(make([1.0, 0.0, 2.0], [0.2, 0.3, 0.5], 1.0))
    assert res.density.rho.tolist() == [1.0, 1.0, 1.0]
    assert res.certificate.trivial is not None


def test_solve_two_case_enumeration():
    res = kp.solve(make([3.0, 1.0], [0.5, 0.5], 0.5))
    assert res.density.rho.tolist() == [1.0, 0.0]
    assert res.certificate.gain == 3.0


def test_solve_empty_budget():
    res = kp.solve(make([1.0, 1.0], [1.0, 1.0], 0.4))
    assert res.density.rho.tolist() == [0.0, 0.0]
    assert res.certificate.gain == 0.0


def test_solve_matches_brute_force_randomly():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(5, 21))
        inst = make(rng.uniform(0, 1, n) + 1e-12, np.full(n, 1 / n),
                    rng.uniform(1e-6, 1.0))
        res = kp.solve(inst)
        bf = kp.brute_force(inst)
        assert res.certificate.gain == bf.objective
        assert res.density.support() in bf.optima


def d_inf(inst, tau, budget):
    # beta -> inf dual at sigma = |theta|: minus the LP dual of the relaxation
    return -(tau * budget + float(np.sum(np.maximum(inst.w - tau * inst.v, 0.0))))


def test_solve_strong_duality_certificate():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(5, 16))
        inst = make(rng.uniform(0.02, 1, n), np.full(n, 1 / n), rng.uniform(0.1, 1))
        res = kp.solve(inst)
        cert = res.certificate
        assert not cert.perturbed
        tau, budget = res.point.tau, res.solved.budget
        assert cert.dual_objective == pytest.approx(d_inf(inst, tau, budget), rel=1e-15)
        assert cert.residual == abs(-cert.gain - cert.dual_objective)
        assert cert.residual <= 1e-15 * abs(cert.dual_objective)
        # weak duality: D_inf at any tau >= 0 bounds -w.rho from below
        for t in np.linspace(0.0, 2.0 * float(inst.ratios.max()), 50):
            assert d_inf(inst, t, budget) <= \
                -cert.gain + 1e-14 * abs(cert.gain)


def test_solve_reports_tau0_only_inside_the_critical_interval():
    inst = make([0.7, 0.2, 0.9, 0.4], np.full(4, 0.25), 0.5)
    tc = kp.tau_critical(inst)
    assert (tc.lo, tc.hi) == (1.6, 2.8)
    assert kp.solve(inst, params=kp.SolveParams(tau0=2.0)).point.tau == 2.0
    for tau0 in (tc.lo, tc.hi, 0.5, 5.0):
        res = kp.solve(inst, params=kp.SolveParams(tau0=tau0))
        assert res.point.tau == tc.value
        assert res.density.support() == (0, 2)


def test_solve_complementarity_and_budget():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(5, 16))
        inst = make(rng.uniform(0.02, 1, n), np.full(n, 1 / n), rng.uniform(0.1, 1))
        res = kp.solve(inst)
        rho, v = res.density.rho, inst.v
        assert np.array_equal(rho * rho, rho)
        assert np.dot(v, rho) <= inst.V_target + 1e-12
        if res.point.tau > 1e-8:
            assert abs(np.dot(v, rho) - inst.V_target) <= float(v.max()) + 1e-12


def test_solve_certificate_rejects_a_wrong_interval(monkeypatch):
    # a critical interval one ratio too low keeps three elements where the
    # budget admits two: the D_inf gap exposes it
    inst = make([0.7, 0.2, 0.9, 0.4], np.full(4, 0.25), 0.5)
    monkeypatch.setattr(kp, "tau_critical", lambda *a: kp.TauCritical(1.2, 0.8, 1.6))
    with pytest.raises(kp.Unsolved, match=r"certificate gap 2\.500e-01 at tau = 1$"):
        kp.solve(inst)


@pytest.mark.parametrize("w, v, V", [
    ([1e308, 1e308, 1e300], [1 / 3] * 3, 2 / 3),   # gain inf, D_inf -inf, gap nan
    ([1.5e308, 1.5e308, 1.0], [1 / 3] * 3, 2 / 3),
    ([1e308, 1e308], [1.0, 1.0], 2.0),              # budget admits every element
    ([1e308, 1.0], [1.0, 1.0], 0.5),                # budget admits no element
])
def test_solve_raises_on_a_non_finite_certificate(w, v, V):
    # a nan gap compares False against any bound, so it must be caught as
    # such; the first two instances already raise, on their ratios
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(kp.NonFinite):
        kp.solve(make(w, v, V))


def test_equal_volume_solve_trusts_its_own_kept_set_and_extremes():
    # the kept set is frozen in place, not copied, and the instance's
    # validated extremes are reused, not recomputed from v
    inst = make(np.linspace(2.0, 0.5, 16), np.full(16, 1 / 16), 0.5)
    readonly, np_min, copied, reduced = kp._readonly, np.min, [], []
    with mock.patch.object(kp, "_readonly", lambda a: copied.append(a) or readonly(a)), \
         mock.patch.object(np, "min", lambda a, *args, **kw: reduced.append(a) or np_min(a, *args, **kw)):
        res = kp.solve(inst)
    assert not res.certificate.perturbed and res.certificate.trivial is None
    assert copied == []
    assert not any(a is inst.v for a in reduced)
    assert res.density.rho.tolist() == [1.0] * 8 + [0.0] * 8
    assert not res.density.rho.flags.writeable


def test_solve_degenerate_raises_without_perturbation():
    with pytest.raises(kp.DegenerateInstance):
        kp.solve(make([2.0, 2.0], [1.0, 1.0], 1.0), params=kp.SolveParams(perturb=False))


# unequal volumes whose budget ends inside element 1's volume: the LP
# optimum is fractional, and the ramp perturbation leaves it so
FRACTIONAL_LP = ([2.0, 1.0], [1.0, 1.5], 1.5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: kp.sigma_from_theta([1.0, 0.0], 1.0), kp.DegenerateTheta, "theta[1] = 0"),
    (lambda: kp.solve(make([2.0, 2.0], [1.0, 1.0], 1.0), params=kp.SolveParams(perturb=False)),
     kp.DegenerateInstance, "critical multiplier 2 "),
    (lambda: kp.solve(make(*FRACTIONAL_LP)), kp.Unsolved,
     # the ramp's height is perturb_scale times the largest gain, 2
     f"critical multiplier {kp.tau_critical(kp.perturb(make(*FRACTIONAL_LP), 2e-8)).value:g}:"),
], ids=["degenerate-theta-element", "degenerate-instance-multiplier",
        "still-degenerate-multiplier"])
def test_error_messages_name_their_values(call, error, message):
    # the errors carry no payload: the message names the element or the
    # critical multiplier (NotBinary's deviation and Unsolved's gap and tau
    # are matched where those errors are tested)
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


def test_solve_degenerate_perturbs_to_an_optimum():
    res = kp.solve(make([2.0, 2.0], [1.0, 1.0], 1.0))
    assert res.certificate.perturbed
    bf = kp.brute_force(make([2.0, 2.0], [1.0, 1.0], 1.0))
    assert res.density.support() in bf.optima
    assert res.certificate.gain == bf.objective


def test_solve_near_tie_margins():
    # the marginal pair of n equal-volume elements differs by a relative gap
    # of 1e-16..1e-11, as z-mirror pairs do in a 3-D CDT run
    for n in range(4, 13):
        k = n // 2
        for gap in 10.0 ** np.linspace(-16.0, -11.0, 21):
            w = np.arange(n, 0, -1, dtype=float)
            w[k] = w[k - 1] * (1.0 - gap)
            inst = make(w, np.full(n, 1.0 / n), k / n)
            res = kp.solve(inst)
            shortfall = k * kp.SolveParams().perturb_scale * w.max()
            assert np.dot(inst.v, res.density.rho) <= inst.V_target + 1e-12
            assert res.certificate.gain >= kp.brute_force(inst).objective - shortfall


def test_solve_invariant_under_gain_scaling():
    rng = np.random.default_rng(0)
    w = rng.lognormal(0.0, 1.0, 20)
    v = np.full(20, 1.0 / 20)
    support = kp.solve(make(w, v, 0.5)).density.support()
    assert kp.solve(make(w * 1e-14, v, 0.5)).density.support() == support


@pytest.mark.parametrize("w, v, V, support", [
    ([3.0, 2.0, 1.0], [1.0, 1.0, 1.0], 1.5, (0,)),
    ([3.0, 2.0, 0.5], [1.0, 2.0, 1.0], 3.0, (0, 1)),
], ids=["equal", "unequal"])
def test_solve_invariant_under_volume_scaling(w, v, V, support):
    # an absolute volume tolerance swamps an element of volume 1e-9
    for scale in (1.0, 1e-9, 1e-12, 1e3):
        res = kp.solve(make(w, np.multiply(v, scale), V * scale))
        assert res.density.support() == support
        assert not res.certificate.perturbed


def test_solve_deterministic():
    inst = make([0.7, 0.2, 0.9, 0.4], np.full(4, 0.25), 0.5)
    a = kp.solve(inst)
    b = kp.solve(inst)
    assert np.array_equal(a.density.rho, b.density.rho)
    assert a.point.tau == b.point.tau
    assert a.certificate == b.certificate
    assert a.certificate.residual <= 1e-15 * abs(a.certificate.dual_objective)


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------

def test_brute_force_symmetric_two_optima():
    bf = kp.brute_force(make([2.0, 2.0], [1.0, 1.0], 1.0))
    assert bf.objective == 2.0
    assert bf.optima == ((0,), (1,))


def test_brute_force_dominance():
    bf = kp.brute_force(make([3.0, 1.0], [0.5, 0.5], 0.5))
    assert bf.optima == ((0,),)


def test_brute_force_empty_budget():
    bf = kp.brute_force(make([1.0, 1.0], [1.0, 1.0], 1e-9))
    assert bf.objective == 0.0
    assert bf.optima == ((),)


def test_brute_force_invariant_under_volume_scaling():
    for scale in (1.0, 1e-9, 1e-12):
        bf = kp.brute_force(make([3.0, 2.0, 1.0], np.full(3, scale), 1.5 * scale))
        assert bf.optima == ((0,),)
        assert bf.objective == 3.0


def test_brute_force_too_large():
    with pytest.raises(kp.TooLarge):
        kp.brute_force(make(np.ones(26), np.ones(26), 1.0))


def test_brute_force_chunked_path():
    rng = np.random.default_rng(11)
    w = rng.uniform(0.1, 1, 18)
    inst = make(w, np.full(18, 1 / 18), 0.5)
    bf = kp.brute_force(inst)
    assert kp.solve(inst).certificate.gain == bf.objective


def oracle_table():
    # n 1-25; integer gains in 0-3 tie exactly, two-decimal and log-normal
    # gains less often; equal and unequal volumes; budgets across (0, total]
    rng = np.random.default_rng(29)
    gains = {
        "integer": lambda n: rng.integers(0, 4, n).astype(float),
        "cents": lambda n: np.round(rng.uniform(0.0, 10.0, n), 2),
        "lognormal": lambda n: rng.lognormal(0.0, 1.0, n),
    }
    cases = [(kind, equal) for kind in gains for equal in (True, False)]
    for n in range(1, 26):
        # past n = 16 each instance enumerates 2**(n - 16) blocks: two a size
        for i, (kind, equal) in enumerate(cases if n <= 16 else cases[n % 3::3]):
            v = np.full(n, 1.0 / n) if equal else rng.uniform(0.1, 1.0, n)
            fraction = 1.0 if i == 0 else 1.0 - rng.uniform(0.0, 1.0)
            yield make(gains[kind](n), v, fraction * float(v.sum()))


# sha256 of every (objective, optima) of oracle_table(), recorded with the
# cached 65536-row subset table the oracle used before it built its table
# block by block; the same at 1 and 2 BLAS threads
ORACLE_DIGEST = "213ce2780433ca3bebb87c30d5449d49589339513ecfa3840fd17eaf39e69189"


def test_brute_force_answers_are_pinned():
    digest = hashlib.sha256()
    for inst in oracle_table():
        bf = kp.brute_force(inst)
        digest.update(repr((bf.objective.hex(), bf.optima)).encode())
    assert digest.hexdigest() == ORACLE_DIGEST


def test_brute_force_keeps_no_memory():
    # a fresh interpreter: nothing an earlier test built is in the count
    code = (
        "import tracemalloc\n"
        "import numpy as np\n"
        "from cdtopt import knapsack as kp\n"
        "for n in (2, 20):\n"
        "    inst = kp.KnapsackInstance(np.linspace(1.0, 2.0, n), np.ones(n), n / 2)\n"
        "    tracemalloc.start()\n"
        "    kp.brute_force(inst)\n"
        "    print(*tracemalloc.get_traced_memory())\n"
        "    tracemalloc.stop()\n"
    )
    env = dict(os.environ)
    src = str(Path(kp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        retained, peak = map(int, line.split())
        assert retained < 64 * 1024
        assert peak < 4 * 1024 * 1024


# ---------------------------------------------------------------------------
# instance and type validation
# ---------------------------------------------------------------------------

FINITE = "w and v must be finite"
POSITIVE = "all volumes must be positive"
NONNEGATIVE = "all gains must be nonnegative"
BUDGET = "V_target must lie in"
NAN, INF = math.nan, math.inf

VALIDATION_CASES = [
    ([1.0, NAN], [1.0, 1.0], 1.0, FINITE),
    ([INF, 1.0], [1.0, 1.0], 1.0, FINITE),
    ([1.0, -INF], [1.0, 1.0], 1.0, FINITE),
    ([1.0, 1.0], [NAN, 1.0], 1.0, FINITE),
    ([1.0, 1.0], [1.0, INF], 1.0, FINITE),
    ([1.0, 1.0], [-INF, 1.0], 1.0, FINITE),
    ([1.0], [0.0], 0.5, POSITIVE),
    ([1.0, 1.0], [1.0, -0.0], 0.5, POSITIVE),
    ([1.0, 1.0], [-1.0, 1.0], 0.5, POSITIVE),
    ([-1.0], [1.0], 0.5, NONNEGATIVE),
    ([1.0, -1e-300], [1.0, 1.0], 0.5, NONNEGATIVE),
    # mixed failures: finite, then volumes, then gains
    ([-1.0, NAN], [0.0, 1.0], 0.5, FINITE),
    ([-1.0, 1.0], [0.0, INF], 0.5, FINITE),
    ([-INF, 1.0], [-1.0, 1.0], 0.5, FINITE),
    ([-1.0, 1.0], [1.0, 0.0], 0.5, POSITIVE),
    ([-1.0, 1.0], [1.0, -0.0], 0.5, POSITIVE),
    ([1.0], [1.0], 0.0, BUDGET),
    ([1.0], [1.0], 1.5, BUDGET),
    ([-1.0], [1.0], 0.0, NONNEGATIVE),
    ([1.0, 1.0], [1.0], 0.5, "1-D sequences of equal length"),
    ([], [], 0.5, "1-D sequences of equal length"),
]


def test_instance_validation():
    # every case runs; a failure names the inputs of each case that went wrong
    wrong = []
    for w, v, V, message in VALIDATION_CASES:
        try:
            with pytest.raises(ValueError, match=message):
                make(w, v, V)
        except (Exception, pytest.fail.Exception) as exc:
            wrong.append(f"w={w} v={v} V={V}: {exc}")
    assert not wrong, "\n".join(wrong)


def test_instance_rejects_a_ratio_that_overflows():
    # w_max / v_min bounds every ratio; only where it overflows do the
    # ratios decide, and then without a numpy warning
    for w, v in (([1e308, 1e308, 1e300], [1 / 3] * 3), ([1.5e308, 1.0], [1 / 3] * 2)):
        with pytest.raises(kp.NonFinite, match="ratio overflows"):
            make(w, v, 2 / 3)
    assert make([1e308, 0.0], [1.0, 1e-10], 0.5).ratios.tolist() == [1e308, 0.0]


def test_instance_accepts_a_negative_zero_gain():
    inst = make([-0.0, 1.0], [1.0, 1.0], 1.0)
    assert inst.ratios.tolist() == [0.0, 1.0]


def test_equal_volume_flag_is_exact():
    assert make([1.0, 2.0], [0.5, 0.5], 0.5).equal_volumes
    assert not make([1.0, 2.0], [0.5, np.nextafter(0.5, 1.0)], 0.5).equal_volumes
    assert not make([1.0, 2.0], [np.nextafter(0.5, 0.0), 0.5], 0.5).equal_volumes


def test_instance_ratios_are_read_only():
    inst = make([2.0, 1.0], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        inst.ratios[0] = 0.0
    assert inst.ratios.tolist() == [2.0, 1.0]


def test_dual_point_validation():
    with pytest.raises(kp.InvalidDual):
        kp.DualPoint(np.array([0.0]), 1.0)
    with pytest.raises(kp.InvalidDual):
        kp.DualPoint(np.array([1.0]), -0.1)


@pytest.mark.parametrize("x", [0.5, math.nan, math.inf, -math.inf, -1.0, 2.0,
                               np.nextafter(1.0, 2.0), 5e-324])
def test_binary_density_validation(x):
    with pytest.raises(ValueError, match="exactly"):
        kp.BinaryDensity(np.array([0.0, 1.0, x]))


@pytest.mark.parametrize("x", [0.0, -0.0, 1.0])
def test_binary_density_accepts_zero_and_one_and_copies(x):
    given = np.array([1.0, x])
    density = kp.BinaryDensity(given)
    given[:] = 0.5
    assert density.rho.tolist() == [1.0, x]
    assert not density.rho.flags.writeable


def test_budget_snapping():
    inst = make([1.0, 1.0, 1.0], np.full(3, 1 / 3), 0.5)
    assert inst.budget == pytest.approx(1 / 3)
    assert kp.affordable_count(inst.v, 0.5) == 1
    # unequal volumes pass through
    inst2 = make([1.0, 1.0], [0.3, 0.7], 0.5)
    assert inst2.budget == 0.5


def test_snapped_budget_stays_within_the_total_volume():
    # k * v[0] can round above sum(v): 200 volumes of 1/200 snap a budget
    # of sum(v) to 1.0 against a total of 0.9999999999999998
    overshoots = 0
    for n in range(1, 2000):
        v = np.full(n, 1.0 / n)
        w = np.arange(1.0, n + 1.0)
        total = float(v.sum())
        overshoots += n * v[0] > total
        for V in (total, 1.0):
            inst = kp.KnapsackInstance(w, v, V)
            assert inst.budget <= inst.total_volume, (n, V)
            assert kp.solve(inst).solved.budget <= total, (n, V)
    assert overshoots == 697
