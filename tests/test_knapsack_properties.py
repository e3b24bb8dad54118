"""Property tests of knapsack.solve and knapsack.tau_critical.

The equal-volume gains are built from a few levels, each element taking
a level exactly (ties), one ulp above or below it (near-ties), or zero.
Greedy top-k is the exact oracle for equal volumes, a stable full sort
of the ratios is the oracle of the critical interval, and the
finite-beta iteration is the reference that the closed-form solve is the
limit of.  Volume scaling and the certificate are checked on equal and
unequal volumes.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cdtopt import knapsack as kp

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# per element: index of its level, and the offset from it
EXACT, UP, DOWN, ZERO = range(4)


@st.composite
def tied_instances(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    # levels well apart (at least 1/9 relative), so that only the built
    # ties and near-ties sit closer than the ramp perturbation
    scale = draw(st.floats(0.5, 2.0))
    levels = [scale * m for m in draw(st.lists(st.integers(1, 9), min_size=1,
                                               max_size=4, unique=True))]
    picks = draw(st.lists(st.tuples(st.integers(0, len(levels) - 1),
                                    st.sampled_from((EXACT, UP, DOWN, ZERO))),
                          min_size=n, max_size=n))
    w = np.empty(n)
    for e, (level, kind) in enumerate(picks):
        base = levels[level]
        w[e] = {EXACT: base, UP: np.nextafter(base, np.inf),
                DOWN: np.nextafter(base, 0.0), ZERO: 0.0}[kind]
    k = draw(st.integers(0, n))
    frac = draw(st.sampled_from((0.0, 0.5, 0.999)))
    V = (k + frac) / n if k < n else 1.0
    if V == 0.0:
        V = 0.5 / n
    return kp.KnapsackInstance(w, np.full(n, 1.0 / n), V)


def check_greedy_optimum(inst, res):
    """The selection keeps k elements none lighter than a dropped one; on a
    ramp-perturbed solve it may fall short by the ramp's total."""
    w, rho, cert = inst.w, res.density.rho, res.certificate
    k = kp.affordable_count(inst.v, inst.V_target)
    assert int(rho.sum()) == k
    gain = float(np.dot(w, rho))
    assert cert.gain == gain
    if cert.perturbed:
        best = float(np.sort(w)[::-1][:k].sum())
        allowed = k * kp.SolveParams().perturb_scale * float(w.max())
        assert best - gain <= allowed + 1e-14 * best
    elif 0 < k < inst.n:
        assert w[rho == 1.0].min() >= w[rho == 0.0].max()


@SETTINGS
@given(tied_instances())
def test_selection_is_greedy_top_k(inst):
    res = kp.solve(inst)
    check_greedy_optimum(inst, res)
    cert = res.certificate
    if cert.trivial is None:
        # the ramp is used exactly when the margin is an exact ratio tie
        assert cert.perturbed == (not kp.tau_critical(inst).is_interval)
        assert cert.residual <= 1e-14 * abs(cert.dual_objective)


def comparisons(a):
    return np.sign(a[:, None] - a[None, :])


@SETTINGS
@given(tied_instances(), st.integers(-14, 6))
def test_support_invariant_under_gain_scaling(inst, k):
    # an inexact product can round two one-ulp neighbours into a tie (or
    # their ratios w/v), which is another instance; compare only scalings
    # that keep every order relation among gains and among ratios
    scaled = kp.KnapsackInstance(inst.w * 10.0 ** k, inst.v, inst.V_target)
    assume(np.array_equal(comparisons(inst.w), comparisons(scaled.w)))
    assume(np.array_equal(comparisons(inst.ratios), comparisons(scaled.ratios)))
    res, res_scaled = kp.solve(inst), kp.solve(scaled)
    assert res_scaled.density.support() == res.density.support()
    assert res_scaled.certificate.perturbed == res.certificate.perturbed


@st.composite
def separated_instances(draw, max_n=30):
    # distinct gains on a grid of 1/100: every margin is at least 1e-3 of max(w)
    n = draw(st.integers(2, max_n))
    steps = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    w = (np.cumsum(steps) / 100.0)[list(order)]
    k = draw(st.integers(1, n - 1))
    return kp.KnapsackInstance(w, np.full(n, 1.0 / n), (k + 0.5) / n)


@SETTINGS
@given(separated_instances())
def test_finite_beta_iteration_agrees_with_closed_form(inst):
    # at beta = 1e8 max(w) the raw densities of these margins lie within
    # 1e-6 of {0,1}; recover_density raises NotBinary otherwise
    beta = 1e8 * float(inst.w.max())
    tau0 = kp.tau_critical(inst).value
    inner = kp.inner_fixed_point(inst, inst.budget, beta, tau0=tau0)
    density = kp.recover_density(inner.point, inst)
    assert density.support() == kp.solve(inst).density.support()


def volume_scaled(inst, k):
    return kp.KnapsackInstance(inst.w, inst.v * 10.0 ** k, inst.V_target * 10.0 ** k)


def sorted_interval(inst):
    """(value, lo, hi) of the critical interval from a stable full sort of
    the ratios and a walk over the cumulative volume priced out."""
    r = np.sort(inst.ratios, kind="stable")
    total = inst.total_volume
    target = total - inst.budget
    csum = np.concatenate([[0.0], np.cumsum(inst.v)])
    k = int(np.count_nonzero(csum <= target + 1e-9 * total)) - 1
    lo = float(r[k - 1]) if k > 0 else 0.0
    hi = float(r[k]) if k < inst.n else np.inf
    if hi <= lo:
        return lo, lo, lo
    return (0.5 * (lo + hi) if np.isfinite(hi) else lo + max(1.0, lo)), lo, hi


@SETTINGS
@given(tied_instances(), st.integers(-12, 3))
def test_tau_critical_equals_the_sort_oracle(inst, k):
    scaled = volume_scaled(inst, k)
    for case in (inst, scaled):
        tc = kp.tau_critical(case)
        assert (tc.value, tc.lo, tc.hi) == sorted_interval(case)


def stream_gains(n, seed):
    """Log-normal gains with about 5% zeros, and their ascending order."""
    rng = np.random.default_rng(seed)
    w = rng.lognormal(np.log(0.01), 1.0, n)
    w[rng.random(n) < 0.05] = 0.0
    return w, np.argsort(w, kind="stable")


def stream_sized_instance(gains, k, tie):
    """Equal-volume instance whose budget prices out the k smallest of
    ``gains`` (with their order), with a built tie at the margin: a run of
    equal ratios across it (``straddle``), ending at it from below
    (``below``) or starting at it (``above``), zero gains up to and past
    it (``zeros``), a one-ulp gap (``ulp``) or none (``none``)."""
    w, order = gains[0].copy(), gains[1]
    n = w.size
    at = w[order[min(k, n - 1)]]
    if tie == "straddle":
        w[order[max(k - 3, 0):k + 3]] = at
    elif tie == "below":
        w[order[max(k - 4, 0):k]] = w[order[max(k - 1, 0)]]
    elif tie == "above":
        w[order[k:k + 4]] = at
    elif tie == "zeros":
        w[order[:k + 3]] = 0.0
    elif tie == "ulp" and 0 < k < n:
        w[order[k]] = np.nextafter(w[order[k - 1]], np.inf)
    m = n - k
    V = (m + 0.5) / n if m < n else 1.0
    return kp.KnapsackInstance(w, np.full(n, 1.0 / n), V)


@pytest.mark.parametrize("tie", ["straddle", "below", "above", "zeros", "ulp", "none"])
@pytest.mark.parametrize("n", [2000, 4801])
def test_tau_critical_equals_the_sort_oracle_at_stream_sizes(n, tie):
    gains = stream_gains(n, n)
    ends = (0, 1, n - 1, n)
    # a selection may happen to leave the next larger ratio beside the
    # k-th at most ranks; the sweep makes a rank where it does not likely
    for k in (*ends, *range(2, n - 1, 23)):
        inst = stream_sized_instance(gains, k, tie)
        assert n - kp.affordable_count(inst.v, inst.budget) == k
        scaled = (volume_scaled(inst, -7), volume_scaled(inst, 2)) if k in ends else ()
        for case in (inst, *scaled):
            tc = kp.tau_critical(case)
            assert (tc.value, tc.lo, tc.hi) == sorted_interval(case)


@st.composite
def solve_cases(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    w = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        v = np.full(n, 1.0 / n)
    else:
        v = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    V = draw(st.floats(0.01, 1.0)) * float(v.sum())
    return kp.KnapsackInstance(w, v, V), kp.SolveParams(perturb=draw(st.booleans()))


def outcome(inst, params):
    try:
        res = kp.solve(inst, params=params)
    except kp.KnapsackError as exc:
        return type(exc)
    return res.density.support(), res.certificate.perturbed


@SETTINGS
@given(solve_cases(), st.integers(-12, 3))
def test_outcome_invariant_under_volume_scaling(case, k):
    inst, params = case
    scaled = volume_scaled(inst, k)
    # an inexact quotient can round two one-ulp neighbours into a tie, which
    # is another instance; compare only scalings that keep the ratio order
    assume(np.array_equal(comparisons(inst.ratios), comparisons(scaled.ratios)))
    assert outcome(scaled, params) == outcome(inst, params)


def check_certificate(inst, res, params):
    """D_inf agrees with the penalty-free dual at sigma = max(|theta|, tiny),
    and tau is one the critical interval of the solved instance allows."""
    cert, work, tau = res.certificate, res.solved, res.tau
    if cert.perturbed:
        ramp = params.perturb_scale * (float(inst.w.max()) or 1.0)
        assert np.array_equal(work.w, kp.perturb(inst, ramp).w)
    else:
        assert work is inst
    sigma = np.maximum(np.abs(tau * work.v - work.w), np.finfo(float).tiny)
    reference = kp.dual_objective_beta(kp.DualPoint(sigma, tau), work, work.budget, math.inf)
    # the psi^2/sigma sum leaves an eps^2 * tau * v residue on each priced-out
    # element, where D_inf has an exact zero: it shows when D_inf is 0
    eps = np.finfo(float).eps
    scale = abs(reference) + eps * tau * work.total_volume
    assert abs(cert.dual_objective - reference) <= 4 * inst.n * eps * scale
    assert res.point.tau == tau
    assert np.array_equal(res.point.sigma, sigma)
    if cert.trivial is None:
        tc = kp.tau_critical(work)
        assert tc.lo < tau < tc.hi or tau == tc.value


@SETTINGS
@given(solve_cases(max_n=40), st.floats(0.0, 20.0))
def test_certificate_matches_the_sigma_dual(case, tau0):
    inst, params = case
    params = kp.SolveParams(tau0=tau0, perturb=params.perturb)
    try:
        res = kp.solve(inst, params=params)
    except kp.KnapsackError:
        return
    check_certificate(inst, res, params)


@SETTINGS
@given(tied_instances())
def test_certificate_matches_the_sigma_dual_on_ties(inst):
    params = kp.SolveParams()
    check_certificate(inst, kp.solve(inst, params=params), params)


@st.composite
def off_grid_budgets(draw, max_n=5000):
    """Instance with seeded gains, equal or unequal volumes and a target
    anywhere in (0, total], usually between two whole element counts."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.lognormal(0.0, 1.0, n)
    w[rng.random(n) < 0.1] = 0.0
    if draw(st.booleans()):
        v = np.full(n, draw(st.sampled_from((1.0 / n, 1.0))) * 10.0 ** draw(st.floats(-8, 8)))
    else:
        v = rng.uniform(0.05, 1.0, n)
    V = draw(st.floats(0.0, 1.0, exclude_min=True)) * float(v.sum())
    assume(V > 0.0)
    return kp.KnapsackInstance(w, v, V)


@SETTINGS
@given(off_grid_budgets())
def test_the_budget_is_snapped_once_and_for_good(inst):
    # tau_critical reads the count of affordable elements back off the
    # budget as round(budget / v[0]); the quotient itself may sit an ulp
    # off the whole number, and k * v[0] an ulp above a target of k volumes
    budget, v0 = inst.budget, float(inst.v[0])
    assert 0.0 <= budget <= min(inst.V_target, inst.total_volume) * (1.0 + 1e-9)
    if inst.equal_volumes:
        k = round(budget / v0)
        assert 0 <= k <= inst.n
        assert abs(budget / v0 - k) <= 1e-9
        assert k * v0 == budget
        assert k == kp.affordable_count(inst.v, inst.V_target)
    else:
        assert budget == min(inst.V_target, inst.total_volume)
    assume(budget > 0.0)
    snapped = kp.KnapsackInstance(inst.w, inst.v, budget)
    assert snapped.budget == budget


@SETTINGS
@given(off_grid_budgets(max_n=300), st.booleans())
def test_solve_reads_only_the_snapped_budget(inst, perturb):
    assume(inst.budget > 0.0)
    params = kp.SolveParams(perturb=perturb)
    snapped = kp.KnapsackInstance(inst.w, inst.v, inst.budget)
    outcomes = []
    for case in (inst, snapped):
        try:
            res = kp.solve(case, params=params)
        except kp.KnapsackError as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append((res.density.rho.tobytes(), res.tau, res.certificate))
    assert outcomes[0] == outcomes[1]
