import numpy as np
import pytest

from rspsim.errors import InvalidState
from rspsim.linalg import (
    complete_to_unitary,
    dagger,
    transport_unitary,
    unitarity_defect,
)

I2 = np.eye(2, dtype=complex)


def random_state(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_dagger_identity():
    np.testing.assert_array_equal(dagger(I2), I2)


def test_dagger_involution():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_array_equal(dagger(dagger(m)), m)


def test_dagger_phase_conjugation():
    gamma = 0.7
    m = np.diag([1.0, np.exp(1j * gamma)])
    np.testing.assert_allclose(dagger(m), np.diag([1.0, np.exp(-1j * gamma)]), atol=1e-15)


def test_unitarity_defect_identity():
    assert unitarity_defect(I2) == 0.0


def test_unitarity_defect_literal_encoder():
    # the printed encoder at x0 = |x1| = 1/sqrt2, theta = pi/2; the
    # off-diagonals of U^dag U are -/+ 2i x0 |x1| sin(theta)
    s = 1 / np.sqrt(2)
    u = np.array([[s, -s * 1j], [s * 1j, s]])
    gram = dagger(u) @ u
    np.testing.assert_allclose(gram[0, 1], -2j * s * s * 1.0, atol=1e-15)
    assert abs(unitarity_defect(u) - np.sqrt(2)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_complete_to_unitary_random(d):
    rng = np.random.default_rng(d)
    v = random_state(d, rng)
    u = complete_to_unitary(v)
    assert unitarity_defect(u) <= 1e-12
    assert np.max(np.abs(u[:, 0] - v)) <= 1e-14


def test_complete_to_unitary_trivial():
    np.testing.assert_array_equal(complete_to_unitary(np.array([1.0, 0.0])), I2)


def test_complete_to_unitary_real_rotation():
    u = complete_to_unitary(np.array([0.6, 0.8]))
    np.testing.assert_allclose(u, np.array([[0.6, -0.8], [0.8, 0.6]]), atol=1e-15)
    np.testing.assert_array_equal(u[:, 0], np.array([0.6, 0.8], dtype=complex))


def test_complete_to_unitary_deterministic():
    rng = np.random.default_rng(3)
    v = random_state(5, rng)
    np.testing.assert_array_equal(complete_to_unitary(v), complete_to_unitary(v))


def test_complete_to_unitary_rejects_unnormalized():
    with pytest.raises(InvalidState):
        complete_to_unitary(np.array([1.0, 1.0]))


def test_transport_unitary_trivial():
    ket0 = np.array([1, 0], dtype=complex)
    np.testing.assert_allclose(transport_unitary(ket0, ket0), I2, atol=1e-15)


def test_transport_unitary_sigma_z_case():
    # from = x0|0> - x1|1>, to = x0|0> + x1|1> (real amplitudes): the
    # transport agrees with sigma_z on the source vector
    x0, x1 = 0.6, 0.8
    frm = np.array([x0, -x1], dtype=complex)
    to = np.array([x0, x1], dtype=complex)
    v = transport_unitary(frm, to)
    np.testing.assert_allclose(v @ frm, to, atol=1e-12)
    sz = np.diag([1.0, -1.0])
    np.testing.assert_allclose(v @ frm, sz @ frm, atol=1e-12)


def test_transport_unitary_random_d4():
    rng = np.random.default_rng(6)
    for _ in range(10):
        frm, to = random_state(4, rng), random_state(4, rng)
        v = transport_unitary(frm, to)
        assert unitarity_defect(v) <= 1e-10
        np.testing.assert_allclose(v @ frm, to, atol=1e-12)
        assert abs(abs(np.vdot(v @ frm, to)) ** 2 - 1.0) <= 1e-12


@pytest.mark.parametrize("tiny", [5e-324, 2.2e-309, -1e-310j])
def test_complete_to_unitary_subnormal_first_entry(tiny):
    v = np.array([tiny, 0.0, 1.0], dtype=complex)
    u = complete_to_unitary(v)
    assert np.all(np.isfinite(u))
    np.testing.assert_array_equal(u[:, 0], v)
    assert unitarity_defect(u) <= 1e-12
    t = np.array([1.0, 2.2e-309], dtype=complex)
    np.testing.assert_allclose(transport_unitary(t, np.array([0.6, 0.8j])) @ t, [0.6, 0.8j],
                               atol=1e-12)
