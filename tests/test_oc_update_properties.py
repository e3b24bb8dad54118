"""Property tests of SIMP's optimality-criteria update.

The oracle is the update as it stood before its bisection skipped the
steps that monotonicity decides: it evaluates every step, and it stops
where the update does, once the bracket is narrow relative to
l1 + l2 + 1e-30 max(b).  The update must return its bits and its
bisection count on any densities in [X_MIN, 1], sensitivities dc <= 0
with some zeros, and volume fractions in (0, 1].  The sensitivities are scaled by 1e-6 to 1e12, so the
multiplier's (0, 1e9] bracket has to grow on some draws.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cdtopt import baselines
from cdtopt.baselines import OC_MOVE, X_MIN, _oc_multiplier, _oc_update

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)
OC_ETA = 0.5  # the damping exponent, a square root in the update under test


def plain_oc_update(x, dc, dv, volfrac):
    """Optimality-criteria step with bisection on the volume multiplier in
    (0, 1e9], whose upper end doubles while the target lies beyond it."""

    b = np.maximum(-dc, 0.0)

    def step(lam):
        cand = x * (b / (dv * lam)) ** OC_ETA
        return np.clip(np.clip(cand, x - OC_MOVE, x + OC_MOVE), X_MIN, 1.0)

    l1, l2 = 0.0, 1e9
    floor = np.maximum(x - OC_MOVE, X_MIN)
    xnew = step(l2)
    while xnew.mean() > volfrac and not np.array_equal(xnew, floor):
        l2 *= 2.0
        xnew = step(l2)
    bisections = 0
    tiny = 1e-30 * float(b.max()) or 1e-30  # scales with the multiplier
    while (l2 - l1) / (l1 + l2 + tiny) > 1e-9:
        bisections += 1
        lmid = 0.5 * (l1 + l2)
        xnew = step(lmid)
        if xnew.mean() > volfrac:
            l1 = lmid
        else:
            l2 = lmid
    return xnew, bisections


@st.composite
def oc_cases(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    x = np.array(draw(st.lists(st.floats(X_MIN, 1.0), min_size=n, max_size=n)))
    # a quarter of the sensitivities are zero, on average
    mags = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                   st.floats(0.0, 1.0)), min_size=n, max_size=n))
    scale = 10.0 ** draw(st.floats(-6.0, 12.0))
    volfrac = draw(st.floats(0.0, 1.0, exclude_min=True))
    return x, -scale * np.array(mags), volfrac


def check_matches_plain_bisection(x, dc, volfrac):
    xnew, bisections = _oc_update(x, dc, volfrac)
    want, want_bisections = plain_oc_update(x, dc, np.ones(x.size), volfrac)
    assert xnew.tobytes() == want.tobytes()
    assert bisections == want_bisections


@SETTINGS
@given(case=oc_cases())
@example(case=(np.array([0.3, 0.9, 1.0]), np.array([-1.0, -2.0, 0.0]), 1.0))
@example(case=(np.ones(3), -np.ones(3), 1.0))                       # volume ties the target
@example(case=(np.full(4, X_MIN), -np.arange(4.0), 5e-4))           # below the floor
@example(case=(np.array([0.2, 0.5, 0.8]), np.zeros(3), 0.5))        # no sensitivity
@example(case=(np.linspace(0.1, 0.9, 9), -1e12 * np.linspace(0.0, 1.0, 9), 0.4))
def test_oc_update_matches_plain_bisection(case):
    check_matches_plain_bisection(*case)


@SETTINGS
@given(case=oc_cases(), skew=st.sampled_from(
    (math.nan, 0.0, -1.0, math.inf, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 3.0)))
def test_oc_update_matches_plain_bisection_whatever_the_estimate(case, skew):
    # the estimate only advises: a wrong one costs evaluations, never bits
    estimate = baselines._oc_multiplier
    with mock.patch.object(baselines, "_oc_multiplier",
                           lambda *args: estimate(*args) * skew):
        check_matches_plain_bisection(*case)


@SETTINGS
@given(case=oc_cases())
def test_oc_multiplier_meets_the_volume_target(case):
    # the estimate's sum meets the target to rounding where a root exists
    # in real arithmetic, and the estimate is nan where none does
    x, dc, volfrac = case
    b = np.maximum(-dc, 0.0)
    lo, hi = np.maximum(x - OC_MOVE, X_MIN), np.minimum(x + OC_MOVE, 1.0)
    least, most = lo.sum(), np.where(b > 0.0, hi, lo).sum()
    target = x.size * volfrac
    lam = _oc_multiplier(x, b, lo, hi, volfrac)
    if least * (1 + 1e-9) < target < most * (1 - 1e-9):
        assert 0.0 < lam < math.inf
        with np.errstate(over="ignore"):  # b / lam of a far larger b than the root's
            total = np.clip(x * np.sqrt(b / lam), lo, hi).sum()
        assert abs(total - target) <= 1e-9 * target
    elif not least * (1 - 1e-9) <= target <= most * (1 + 1e-9):
        assert math.isnan(lam)


def test_oc_update_without_a_root_evaluates_only_its_final_step():
    # at vf 1 no multiplier brings the volume down to the target in real
    # arithmetic, and the bisection runs until its upper end nearly
    # underflows; the lam -> 0 limit decides every step it takes
    x, dc = np.ones(48), -np.linspace(0.5, 2.0, 48)
    assert math.isnan(_oc_multiplier(x, -dc, x - OC_MOVE, x, 1.0))
    clip, steps = np.clip, []
    with mock.patch.object(np, "clip", lambda *a, **k: steps.append(a) or clip(*a, **k)):
        _, bisections = _oc_update(x, dc, 1.0)
    assert bisections > 100
    assert len(steps) <= 2
    check_matches_plain_bisection(x, dc, 1.0)
