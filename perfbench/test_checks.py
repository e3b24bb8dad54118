"""The benchmark's answer checks must reject wrong answers.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from cdtopt import driver, knapsack, problems  # noqa: E402


def _swap_marginal(w, rho):
    """Trade the weakest kept element for the strongest dropped one."""
    kept, dropped = np.flatnonzero(rho == 1.0), np.flatnonzero(rho == 0.0)
    bad = rho.copy()
    bad[kept[np.argmin(w[kept])]] = 0.0
    bad[dropped[np.argmax(w[dropped])]] = 1.0
    return bad


def test_oracles_reject_a_wrong_selection():
    rng = np.random.default_rng(7)
    for n, use_brute_force in ((768, False), (12, True)):
        w = rng.lognormal(np.log(0.01), 1.0, n)
        v = np.full(n, 1.0 / n)
        V = 0.55
        instance = knapsack.KnapsackInstance(w, v, V)
        result = knapsack.solve(instance)
        cert = result.certificate
        optima = knapsack.brute_force(instance).optima if use_brute_force else None
        rho = np.array(result.density.rho)
        assert checks.check_selection(w, v, V, rho, cert.gain, cert.perturbed, 1e-8, optima) is None

        bad = _swap_marginal(w, rho)
        gain = float(np.dot(w, bad))
        verdict = checks.check_selection(w, v, V, bad, gain, False, 1e-8, optima)
        assert verdict is not None and "short of the optimum" in verdict
        # a perturbed solve is allowed k * scale * max(w), not more
        k = checks.affordable(v, V)
        shortfall = float(np.dot(w, rho)) - gain
        assert checks.check_selection(w, v, V, bad, gain, True, 0.5 * shortfall / (k * w.max()),
                                      optima) is not None
        assert checks.check_selection(w, v, V, bad, gain, True, 2.0 * shortfall / (k * w.max()),
                                      optima) is None
        # a certificate that misreports the selected gain is caught too
        assert "certificate gain" in checks.check_selection(
            w, v, V, rho, cert.gain * (1 + 1e-9), cert.perturbed, 1e-8, optima)


def test_reference_check_rejects_a_changed_design():
    model = problems.build_cantilever2d(16, 6)
    density, _, record = driver.run_cdt(model, driver.CdtConfig(volfrac=0.5, mu=0.9))
    rho = np.array(density.rho)
    ref = {"outer_iters": record.outer_iterations, "compliance": record.final_compliance,
           "design_sha256": checks.design_sha256(rho)}
    assert checks.check_fem(ref, record, rho, binary=True) == []

    changed = rho.copy()
    changed[np.flatnonzero(rho == 1.0)[0]] = 0.0
    assert checks.check_fem(ref, record, changed, binary=True) == [
        "design hash differs from the reference"]
    moved = dict(ref, compliance=ref["compliance"] * (1 + 1e-9))
    assert any("compliance" in m for m in checks.check_fem(moved, record, rho, binary=True))
