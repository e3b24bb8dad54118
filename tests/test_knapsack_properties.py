"""Property tests of knapsack.solve and knapsack.tau_critical.

The equal-volume gains are built from a few levels, each element taking
a level exactly (ties), one ulp above or below it (near-ties), or zero.
Greedy top-k is the exact oracle for equal volumes, a stable full sort
of the ratios is the oracle of the critical interval, and the
finite-beta iteration is the reference that the closed-form solve is the
limit of.  Volume scaling is checked on equal and unequal volumes.
"""

import numpy as np
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
    assume(np.array_equal(comparisons(inst.ratios()), comparisons(scaled.ratios())))
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
    inner = kp.inner_fixed_point(inst, kp.effective_budget(inst), beta, tau0=tau0)
    density = kp.recover_density(inner.point, inst)
    assert density.support() == kp.solve(inst).density.support()


def volume_scaled(inst, k):
    return kp.KnapsackInstance(inst.w, inst.v * 10.0 ** k, inst.V_target * 10.0 ** k)


def sorted_interval(inst):
    """(value, lo, hi) of the critical interval from a stable full sort of
    the ratios and a walk over the cumulative volume priced out."""
    r = np.sort(inst.ratios(), kind="stable")
    total = inst.total_volume
    target = total - kp.effective_budget(inst)
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
    assume(np.array_equal(comparisons(inst.ratios()), comparisons(scaled.ratios())))
    assert outcome(scaled, params) == outcome(inst, params)
