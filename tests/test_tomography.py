import numpy as np
import pytest

from rspsim.errors import InvalidState, ShapeError
from rspsim.register import DensityMatrix, StateRegister, derive_rng
from rspsim.tomography import (
    PauliEstimates,
    exact_bloch,
    fidelity_mixed,
    reconstruct_qubit,
    sample_pauli_expectations,
    tomograph,
    trace_distance,
)

KET0 = StateRegister((2,), np.array([1.0, 0.0]))
PLUS = StateRegister((2,), np.array([1.0, 1.0]) / np.sqrt(2))


def test_eigenstate_rz():
    for seed in range(100):
        est = sample_pauli_expectations(KET0, 100_000, derive_rng(seed))
        assert abs(est.rz - 1.0) <= 0.02
    assert est.shots_per_axis == (33333, 33333, 33334)


def test_plus_state_axes():
    assert np.allclose(exact_bloch(PLUS), (1.0, 0.0, 0.0), atol=1e-12)
    est = sample_pauli_expectations(PLUS, 90_000, derive_rng(1))
    assert abs(est.rx - 1.0) <= 0.02
    assert abs(est.ry) <= 0.05
    assert abs(est.rz) <= 0.05


def test_bloch_formulas_match_reduced_density():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x0 = float(rng.uniform(0, 1))
        x1 = float(np.sqrt(1 - x0 * x0))
        th = float(rng.uniform(-np.pi, np.pi))
        psi = np.array([x0, x1 * np.exp(1j * th)])
        # cross-check through the partial trace of a product register
        reg = StateRegister((2, 2), np.kron(psi, [1.0, 0.0]))
        rho = reg.reduced_density(["q0"])
        rx, ry, rz = exact_bloch(rho)
        assert abs(rx - 2 * x0 * x1 * np.cos(th)) <= 1e-12
        assert abs(ry - 2 * x0 * x1 * np.sin(th)) <= 1e-12
        assert abs(rz - (x0 * x0 - x1 * x1)) <= 1e-12


def test_shots_allocation_and_guard():
    est = sample_pauli_expectations(PLUS, 300, derive_rng(0))
    assert est.shots_per_axis == (100, 100, 100)
    with pytest.raises(InvalidState):
        sample_pauli_expectations(PLUS, 2, derive_rng(0))


def test_sample_rejects_non_qubit():
    with pytest.raises(ShapeError):
        sample_pauli_expectations(StateRegister((3,), np.array([1, 0, 0])), 300, derive_rng(0))


def test_reconstruct_pure_z():
    rho = reconstruct_qubit(PauliEstimates(0.0, 0.0, 1.0, (1, 1, 1)))
    np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-12)


def test_reconstruct_fully_mixed():
    rho = reconstruct_qubit(PauliEstimates(0.0, 0.0, 0.0, (1, 1, 1)))
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_reconstruct_projects_overshoot():
    rho = reconstruct_qubit(PauliEstimates(1.2, 0.0, 0.0, (1, 1, 1)))
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(rho.entries, np.outer(plus, plus), atol=1e-12)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(rho.entries)), [0.0, 1.0], atol=1e-12
    )


def test_reconstruct_physicality_over_estimate_cube():
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = rng.uniform(-1.5, 1.5, size=3)
        rho = reconstruct_qubit(PauliEstimates(r[0], r[1], r[2], (1, 1, 1)))
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) <= 1e-10
        assert abs(np.trace(rho.entries).real - 1.0) <= 1e-10
        assert np.min(np.linalg.eigvalsh(rho.entries)) >= -1e-10


def test_trace_distance_cases():
    rho0 = DensityMatrix.build(np.diag([1.0, 0.0]))
    rho1 = DensityMatrix.build(np.diag([0.0, 1.0]))
    mixed = DensityMatrix.build(np.eye(2) / 2)
    assert trace_distance(rho0, rho0) == 0.0
    assert abs(trace_distance(rho0, rho1) - 1.0) <= 1e-12
    assert abs(trace_distance(rho0, mixed) - 0.5) <= 1e-12
    with pytest.raises(ShapeError):
        trace_distance(rho0, DensityMatrix.build(np.eye(3) / 3))


def test_fidelity_mixed_cases():
    psi = np.array([0.6, 0.8j])
    rho = DensityMatrix.build(np.outer(psi, psi.conj()))
    assert abs(fidelity_mixed(rho, psi) - 1.0) <= 1e-12
    mixed = DensityMatrix.build(np.eye(2) / 2)
    assert abs(fidelity_mixed(mixed, psi) - 0.5) <= 1e-12
    with pytest.raises(ShapeError):
        fidelity_mixed(rho, np.array([1.0, 0, 0]))


def test_median_distance_shrinks_with_shots():
    psi = np.array([0.6, 0.8j])
    reg = StateRegister((2,), psi)
    medians = []
    for k, shots in enumerate((10**3, 10**4, 10**5, 10**6)):
        dists = [
            tomograph(reg, psi, shots, derive_rng(17, k, s)).trace_distance_to_target
            for s in range(50)
        ]
        medians.append(float(np.median(dists)))
    assert all(b < a for a, b in zip(medians, medians[1:]))


def test_tomograph_scores_physical_result():
    res = tomograph(PLUS, np.array([1.0, 1.0]) / np.sqrt(2), 300, derive_rng(2))
    assert 0.0 <= res.fidelity_to_target <= 1.0 + 1e-10
    assert 0.0 <= res.trace_distance_to_target <= 1.0 + 1e-10
    assert np.min(np.linalg.eigvalsh(res.rho.entries)) >= -1e-10


def test_prepared_state_fidelity_after_heavy_sampling():
    # 1e5-shot tomography of exactly prepared receiver states keeps
    # fidelity >= 0.98 in at least 95% of fixed-seed runs
    from rspsim.protocols import ChannelSpec, TargetState, run_protocol

    rng = np.random.default_rng(23)
    good = 0
    for k in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        target = TargetState.of(v / np.linalg.norm(v))
        lam = rng.uniform(0.1, 1.0, size=2)
        channel = ChannelSpec.of(lam / np.linalg.norm(lam))
        tr = run_protocol("deterministic", channel, target, "repaired", derive_rng(70, k))
        bob = StateRegister((2,), tr.bob_state)
        res = tomograph(bob, target.vector(), 100_000, derive_rng(71, k))
        good += res.fidelity_to_target >= 0.98
    assert good >= 19
