"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import time

import numpy as np

from rspsim.gates import encoding_unitary_literal
from rspsim.oracle import (
    compare_exact,
    compare_sampled,
    enumerate_naive,
    naive_branch_fidelities,
    table_distribution,
)
from rspsim.protocols import (
    ChannelSpec,
    TargetState,
    exact_outcome_table,
    run_protocol,
)
from rspsim.register import DensityMatrix, StateRegister, derive_rng
from rspsim.sweep import sweep_rows, theta_grid
from rspsim.tomography import reconstruct_qubit, sample_pauli_expectations, trace_distance

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
    rng = np.random.default_rng(20243)
    worst_p = 0.0
    worst_fid = 1.0
    for _ in range(20):
        table = exact_outcome_table("nguyen", None, random_target(2, rng))
        assert len(table.rows) == 4
        for r in table.rows:
            worst_p = max(worst_p, abs(r.probability - 0.25))
            worst_fid = min(worst_fid, r.fidelity)
            assert abs(r.probability - 0.25) <= 1e-12
            assert r.fidelity >= 1.0 - 1e-12
    report(4, f"20 targets, max|p-1/4|={worst_p:.2e}, min fidelity={worst_fid:.15f}")


def test_criterion_5_probabilistic_branch_weights():
    """Naive enumeration reproduces {2a^2, b^2-a^2} plus the mid-state amplitude."""
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
    # independent three-amplitude check of the concentration mid-state
    alpha, beta = 0.6, 0.8
    e = lambda k: np.eye(2, dtype=complex)[:, k]
    kron3 = lambda a, b, c: np.kron(np.kron(a, b), c)
    eye = np.eye(2, dtype=complex)
    proj = lambda k: np.outer(e(k), e(k))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    cnot_ac = kron3(proj(0), eye, eye) + kron3(proj(1), eye, x)
    r = alpha / beta
    tt = np.sqrt(1 - r * r)
    block = np.array([[r, tt], [-tt, r]], dtype=complex)
    cu_ac = kron3(proj(0), eye, eye) + kron3(proj(1), eye, block)
    psi = cu_ac @ cnot_ac @ (alpha * kron3(e(0), e(0), e(0)) + beta * kron3(e(1), e(1), e(0)))
    amp110 = complex(np.vdot(kron3(e(1), e(1), e(0)), psi))
    assert abs(amp110 - np.sqrt(beta**2 - alpha**2)) <= 1e-12
    report(5, f"21-point alpha grid, max weight error={worst:.2e}, "
              f"|110> amplitude={amp110.real:.12f}=sqrt(b^2-a^2)")


def test_criterion_6_unitarity_audit():
    """Literal defect closed form, zeros at theta in {0, pi}, mode equivalence."""
    rng = np.random.default_rng(20244)
    worst = 0.0
    for _ in range(100):
        x0 = float(rng.uniform(0.0, 1.0))
        x1 = float(np.sqrt(1.0 - x0 * x0))
        th = float(rng.uniform(-np.pi, np.pi))
        g = encoding_unitary_literal(x0, x1, th)
        closed = 2.0 * np.sqrt(2.0) * x0 * x1 * abs(np.sin(th))
        worst = max(worst, abs(g.defect - closed))
        assert abs(g.defect - closed) <= 1e-10
    for th in (0.0, np.pi):
        assert encoding_unitary_literal(0.6, 0.8, th).defect <= 1e-10
    worst_table = 0.0
    for _ in range(10):
        x0 = float(rng.uniform(0.0, 1.0))
        target = TargetState.of((x0, np.sqrt(1.0 - x0 * x0)))
        channel = random_positive_channel(2, rng)
        lit = exact_outcome_table("deterministic", channel, target, mode="literal")
        rep = exact_outcome_table("deterministic", channel, target, mode="repaired")
        assert [r.outcome for r in lit.rows] == [r.outcome for r in rep.rows]
        for a, b in zip(lit.rows, rep.rows):
            worst_table = max(worst_table, abs(a.probability - b.probability),
                              abs(a.fidelity - b.fidelity))
            assert abs(a.probability - b.probability) <= 1e-12
            assert abs(a.fidelity - b.fidelity) <= 1e-12
    report(6, f"defect closed form max err={worst:.2e}, "
              f"literal vs repaired tables max diff={worst_table:.2e}")


def test_criterion_7_oracle_equivalence():
    """Fast tables vs naive enumeration, then the 4-sigma sampling gate."""
    rng = np.random.default_rng(20245)
    worst_diff = 0.0
    cases = 0
    for d in (2, 3, 4):
        for _ in range(30):
            channel = random_positive_channel(d, rng)
            target = random_target(d, rng)
            rep = compare_exact(
                table_distribution(exact_outcome_table("deterministic", channel, target)),
                enumerate_naive("deterministic", channel, target),
            )
            assert rep.passed
            worst_diff = max(worst_diff, rep.max_stat)
            fids = naive_branch_fidelities("deterministic", channel, target)
            assert all(f >= 1.0 - 1e-10 for f in fids.values())
            cases += 1
    for _ in range(30):
        alpha = float(rng.uniform(0.05, 1 / np.sqrt(2)))
        channel = ChannelSpec.of((alpha, np.sqrt(1 - alpha * alpha)))
        target = random_target(2, rng)
        rep = compare_exact(
            table_distribution(exact_outcome_table("probabilistic", channel, target)),
            enumerate_naive("probabilistic", channel, target),
        )
        assert rep.passed
        worst_diff = max(worst_diff, rep.max_stat)
        cases += 1
    for _ in range(30):
        target = random_target(2, rng)
        rep = compare_exact(
            table_distribution(exact_outcome_table("nguyen", None, target)),
            enumerate_naive("nguyen", None, target),
        )
        assert rep.passed
        worst_diff = max(worst_diff, rep.max_stat)
        cases += 1
    worst_z = 0.0
    for k, (protocol, channel) in enumerate((
        ("deterministic", ChannelSpec.of((0.6, 0.8))),
        ("probabilistic", ChannelSpec.of((0.6, 0.8))),
        ("nguyen", None),
    )):
        dist = enumerate_naive(protocol, channel, random_target(2, rng))
        rep = compare_sampled(dist, trials=10_000, seed=31337 + k)
        assert rep.passed, (protocol, rep.max_stat)
        worst_z = max(worst_z, rep.max_stat)
    report(7, f"{cases} exact configs max|dp|={worst_diff:.2e}; "
              f"3x10^4 sampled trials max z={worst_z:.2f}")


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
