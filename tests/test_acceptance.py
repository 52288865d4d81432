"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 4 to 7 run the `rspsim verify` checks they restate,
each at its own seed, and pin the verdict with the tolerances the check
prints; every other criterion pins its tolerances here.
"""

import time

import numpy as np

from rspsim.oracle import enumerate_naive
from rspsim.protocols import (
    ChannelSpec,
    TargetState,
    exact_outcome_table,
    run_protocol,
)
from rspsim.register import DensityMatrix, StateRegister, derive_rng
from rspsim.sweep import sweep_rows, theta_grid
from rspsim.tomography import reconstruct_qubit, sample_pauli_expectations, trace_distance
from rspsim.verify import (
    _check_concentration_structure,
    _check_literal_defect,
    _check_literal_theta0,
    _check_nguyen_quarters,
    _check_oracle_exact,
    _check_oracle_sampled,
)

GRID_21 = theta_grid(0.0, np.pi / 4, 21)


def random_target(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return TargetState.of(v / np.linalg.norm(v))


def random_positive_channel(d, rng):
    v = rng.uniform(0.05, 1.0, size=d)
    return ChannelSpec.of(v / np.linalg.norm(v))


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_criterion_1_probabilistic_curve_reproduction():
    """Success-probability curve of the concentration baseline: 2 sin^2(theta)."""
    t0 = time.monotonic()
    target = TargetState.of((0.6, 0.8j))
    rows = sweep_rows(["probabilistic"], target, GRID_21, trials=10_000, seed=20240)
    assert len(rows) == 21
    worst_exact = 0.0
    worst_sigma = 0.0
    for row in rows:
        expected = 2.0 * np.sin(row.theta) ** 2
        worst_exact = max(worst_exact, abs(row.exact_prob - expected))
        assert abs(row.exact_prob - expected) <= 1e-12
        sigma = np.sqrt(max(row.exact_prob * (1.0 - row.exact_prob), 0.0) / row.trials)
        dev = abs(row.est_prob - row.exact_prob)
        assert dev <= 4.0 * sigma + 1e-15, (row.theta, dev, sigma)
        if sigma > 0:
            worst_sigma = max(worst_sigma, dev / sigma)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, f"21 points, max|exact-2sin^2|={worst_exact:.2e}, "
              f"max z={worst_sigma:.2f}, {elapsed:.2f}s")


def test_criterion_2_deterministic_curve_is_constant_one():
    """Coefficient independence: success probability 1 across the grid."""
    target = TargetState.of((0.6, 0.8j))
    rows = sweep_rows(["deterministic"], target, GRID_21, trials=10_000,
                      seed=20241, mode="repaired")
    worst = max(abs(row.exact_prob - 1.0) for row in rows)
    assert worst <= 1e-12
    tiny = theta_grid(1e-9, 1e-3, 5)  # lambda_0 = sin(theta) arbitrarily close to 0
    for row in sweep_rows(["deterministic"], target, tiny, trials=100, seed=3):
        assert abs(row.exact_prob - 1.0) <= 1e-12
    report(2, f"max|exact-1|={worst:.2e} over 21 grid points and near-zero angles")


def test_criterion_3_d_dimensional_determinism():
    """Every branch exact for d in {2,3,4,5,8}, 50 random configs each."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20242)
    worst_fid = 1.0
    worst_sum = 0.0
    for d in (2, 3, 4, 5, 8):
        for _ in range(50):
            channel = random_positive_channel(d, rng)
            target = random_target(d, rng)
            table = exact_outcome_table("deterministic", channel, target)
            total = sum(r.probability for r in table.rows)
            worst_sum = max(worst_sum, abs(total - 1.0))
            worst_fid = min(worst_fid, min(r.fidelity for r in table.rows))
            assert abs(total - 1.0) <= 1e-12
            for r in table.rows:
                assert r.fidelity >= 1.0 - 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(3, f"250 configs, min fidelity={worst_fid:.15f}, "
              f"max|sum p - 1|={worst_sum:.2e}, {elapsed:.2f}s")


def test_criterion_4_nguyen_baseline():
    """Four branches at exactly 25% with unit fidelity, 20 random targets."""
    measured = "max|p-1/4|<=1e-12 1-min fidelity<=1e-12"
    assert _check_nguyen_quarters(20243) == (True, measured)
    report(4, f"20 targets, {measured}")


def test_criterion_5_probabilistic_branch_weights():
    """Naive enumeration reproduces {2a^2, b^2-a^2}; verify checks the mid-state amplitudes."""
    target = TargetState.of((0.28, 0.96j))
    worst = 0.0
    for alpha in np.linspace(0.01, 1 / np.sqrt(2), 21):
        beta = np.sqrt(1.0 - alpha * alpha)
        dist = enumerate_naive(
            "probabilistic", ChannelSpec.of((alpha, beta)), target
        ).as_dict()
        worst = max(worst, abs(dist[(0,)] - 2 * alpha**2),
                    abs(dist[(1,)] - (beta**2 - alpha**2)))
        assert abs(dist[(0,)] - 2 * alpha**2) <= 1e-12
        assert abs(dist[(1,)] - (beta**2 - alpha**2)) <= 1e-12
    assert _check_concentration_structure(20247) == (True, "max amp error<=1e-12")
    report(5, f"21-point alpha grid, max weight error={worst:.2e}; "
              "mid-state amplitudes on 20 phased channels max amp error<=1e-12")


def test_criterion_6_unitarity_audit():
    """Literal defect closed form, zeros at theta in {0, pi}, mode equivalence."""
    defect = "max|defect-closed|<=1e-10 defect at 0,pi<=1e-10"
    assert _check_literal_defect(20244) == (True, defect)
    assert _check_literal_theta0(20244) == (True, "max diff<=1e-12")
    report(6, f"{defect}; literal vs repaired tables max diff<=1e-12")


def test_criterion_7_oracle_equivalence():
    """Fast tables vs naive enumeration, then the 4-sigma sampling gate."""
    exact = "cases=150 max|dp|<=1e-10 max|dF|<=1e-10 1-min naive deterministic F<=1e-10"
    assert _check_oracle_exact(20245) == (True, exact)
    passed, sampled = _check_oracle_sampled(20245, trials=10_000)
    assert passed and sampled.startswith("trials=10000 max|z|="), sampled
    report(7, f"{exact}; 3 sampled configs, {sampled}")


def test_criterion_8_tomography_standin():
    """Reconstruction quality and physicality for receiver-state tomography."""
    rng = np.random.default_rng(20246)
    distances = []
    for k in range(20):
        target = random_target(2, rng)
        channel = random_positive_channel(2, rng)
        tr = run_protocol("deterministic", channel, target, "repaired", derive_rng(900, k))
        bob = StateRegister((2,), tr.bob_state)
        est = sample_pauli_expectations(bob, 100_000, derive_rng(901, k))
        rho = reconstruct_qubit(est)
        # physicality must hold for every reconstruction
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) <= 1e-10
        assert abs(np.trace(rho.entries).real - 1.0) <= 1e-10
        assert np.min(np.linalg.eigvalsh(rho.entries)) >= -1e-10
        exact = DensityMatrix.build(np.outer(bob.amplitudes, bob.amplitudes.conj()))
        distances.append(trace_distance(rho, exact))
    good = sum(1 for dist in distances if dist <= 0.02)
    assert good >= 19  # at least 95% of the fixed-seed runs
    report(8, f"20 targets at 1e5 shots: {good}/20 within 0.02, "
              f"median distance={np.median(distances):.4f}, physicality 20/20")
