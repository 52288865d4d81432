import numpy as np
import pytest

from rspsim.errors import InvalidState, NonUnitaryGate
from rspsim.gates import (
    cadd,
    controlled_shift,
    correction_chain,
    correction_unitary,
    csub,
    cu_concentration,
    encoding_unitary,
    encoding_unitary_literal,
    index_gate,
    make_gate,
    nguyen_bases,
    pauli_x,
    pauli_z,
)
from rspsim.linalg import unitarity_defect


def random_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_standard_paulis():
    np.testing.assert_array_equal(pauli_x(2).matrix, [[0, 1], [1, 0]])
    np.testing.assert_allclose(pauli_z(2).matrix, np.diag([1.0, -1.0]), atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_pauli_order_d(d):
    for g in (pauli_x(d), pauli_z(d)):
        np.testing.assert_allclose(
            np.linalg.matrix_power(g.matrix, d), np.eye(d), atol=1e-12
        )
        assert g.defect <= 1e-10


def test_clock_phase_value():
    z3 = pauli_z(3)
    psi = z3.matrix @ np.array([0, 0, 1], dtype=complex)
    assert abs(psi[2] - np.exp(4j * np.pi / 3)) <= 1e-15


def test_controlled_shift_is_cnot():
    g = controlled_shift(2, (0, 1))
    ket10 = np.zeros(4)
    ket10[2] = 1.0
    np.testing.assert_array_equal(g.matrix @ ket10, [0, 0, 0, 1])


def test_controlled_shift_cadd_qutrit():
    # control 1 adds 1: |1,2> -> |1,0>
    g = cadd(3)
    vec = np.zeros(9)
    vec[1 * 3 + 2] = 1.0
    out = g.matrix @ vec
    assert out[1 * 3 + 0] == 1.0


def test_csub_inverts_cadd():
    for d in (2, 3, 5):
        np.testing.assert_allclose(
            csub(d).matrix @ cadd(d).matrix, np.eye(d * d), atol=1e-14
        )


@pytest.mark.parametrize("d", [2, 3, 4])
def test_controlled_shift_permutation_matrix(d):
    rng = np.random.default_rng(d)
    table = tuple(int(rng.integers(0, d)) for _ in range(d))
    m = controlled_shift(d, table).matrix.real
    assert np.all((m == 0.0) | (m == 1.0))
    assert np.all(m.sum(axis=0) == 1.0)
    assert np.all(m.sum(axis=1) == 1.0)


def test_controlled_shift_rejects_bad_table():
    with pytest.raises(InvalidState):
        controlled_shift(3, (0, 1))
    with pytest.raises(InvalidState):
        controlled_shift(3, (0, 1, 3))


def test_cu_concentration_maximal_is_identity():
    s = 1 / np.sqrt(2)
    g = cu_concentration(s, s)
    np.testing.assert_allclose(g.matrix, np.eye(4), atol=1e-12)


def test_cu_concentration_block_values():
    g = cu_concentration(0.6, 0.8)
    block = g.matrix[2:, 2:]
    assert abs(block[0, 0] - 0.75) <= 1e-12
    assert abs(block[1, 0] + np.sqrt(1 - 0.5625)) <= 1e-12
    assert abs(block[1, 0] + 0.6614378277661477) <= 1e-12
    assert g.defect <= 1e-10


def test_cu_concentration_three_amplitude_structure():
    # applied to alpha|000> + beta|111> the state carries amplitudes
    # alpha, alpha, sqrt(beta^2 - alpha^2) on |000>, |111>, |110>
    rng = np.random.default_rng(21)
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 1 / np.sqrt(2)))
        beta = float(np.sqrt(1 - alpha * alpha))
        psi = np.zeros(8, dtype=complex)
        psi[0b000] = alpha
        psi[0b111] = beta
        full = np.kron(cu_concentration(alpha, beta).matrix, np.eye(2))
        # gate acts on (A, C); reorder |ABC> -> |ACB| for the kron, apply, undo
        perm = np.arange(8).reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
        out = np.empty(8, dtype=complex)
        out[perm] = full @ psi[perm]
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = alpha
        expected[0b111] = alpha
        expected[0b110] = np.sqrt(beta * beta - alpha * alpha)
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_cu_concentration_at_alpha_zero_is_an_exact_swap_block():
    g = cu_concentration(0.0, 1.0)
    assert g.name == "CU(0,1)" and g.defect == 0.0
    want = np.eye(4)
    want[2:, 2:] = [[0, 1], [-1, 0]]
    np.testing.assert_array_equal(g.matrix, want)


def test_cu_concentration_guards():
    with pytest.raises(InvalidState):
        cu_concentration(0.8, 0.6)
    with pytest.raises(InvalidState):
        cu_concentration(0.5, 0.5)


def test_an_array_cu_concentration_stacks_the_scalar_builds():
    rng = np.random.default_rng(20)
    alphas = np.concatenate([[0.0, 1 / np.sqrt(2)], rng.uniform(0.0, 1 / np.sqrt(2), size=58)])
    betas = np.sqrt(1.0 - alphas * alphas)
    each = [cu_concentration(a, b) for a, b in zip(alphas, betas)]
    g = cu_concentration(alphas, betas)
    assert g.dims == (2, 2) and g.matrix.shape == (60, 4, 4) and not g.matrix.flags.writeable
    assert g.matrix.tobytes() == np.stack([e.matrix for e in each]).tobytes()
    assert g.name == "|".join(dict.fromkeys(e.name for e in each))
    assert g.defect >= max(e.defect for e in each) and g.defect <= 1e-10
    for a, b, e in zip(alphas[:5], betas[:5], each):
        one = cu_concentration(np.array([a]), np.array([b]))
        assert one.matrix.shape == (4, 4) and one.matrix.tobytes() == e.matrix.tobytes()
        assert (one.name, one.defect) == (e.name, e.defect)
        assert unitarity_defect(e.matrix[None]) == e.defect  # a stack of one: the same norm


@pytest.mark.parametrize("bad", [(0.8, 0.6), (0.5, 0.5)])
def test_one_bad_pair_fails_an_array_cu_concentration(bad):
    with pytest.raises(InvalidState) as alone:
        cu_concentration(*bad)
    for k in (0, 4, 9):
        alphas = np.full(10, 0.6)
        betas = np.full(10, 0.8)
        alphas[k], betas[k] = bad
        with pytest.raises(InvalidState) as batch:
            cu_concentration(alphas, betas)
        assert str(batch.value) == str(alone.value)


def test_encoding_literal_real_rotation():
    g = encoding_unitary_literal(0.6, 0.8, 0.0)
    np.testing.assert_allclose(g.matrix, [[0.6, -0.8], [0.8, 0.6]], atol=1e-15)
    assert g.defect <= 1e-12


def test_encoding_literal_defect_sqrt2():
    s = 1 / np.sqrt(2)
    g = encoding_unitary_literal(s, s, np.pi / 2)
    assert abs(g.defect - np.sqrt(2)) <= 1e-12


def test_encoding_literal_trivial_target():
    g = encoding_unitary_literal(1.0, 0.0, 1.3)
    np.testing.assert_allclose(g.matrix, np.eye(2), atol=1e-15)
    assert g.defect <= 1e-12


def test_encoding_literal_defect_closed_form_grid():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x0 = float(rng.uniform(0, 1))
        x1 = float(np.sqrt(1 - x0 * x0))
        th = float(rng.uniform(-np.pi, np.pi))
        g = encoding_unitary_literal(x0, x1, th)
        closed = 2 * np.sqrt(2) * x0 * x1 * abs(np.sin(th))
        assert abs(g.defect - closed) <= 1e-10


def test_encoding_unitary_trivial():
    g = encoding_unitary(np.array([1.0, 0, 0]))
    np.testing.assert_array_equal(g.matrix, np.eye(3))


def test_encoding_unitary_matches_literal_for_real_targets():
    g_rep = encoding_unitary(np.array([0.6, 0.8]))
    g_lit = encoding_unitary_literal(0.6, 0.8, 0.0)
    np.testing.assert_allclose(g_rep.matrix, g_lit.matrix, atol=1e-14)


def test_encoding_unitary_random_d5():
    rng = np.random.default_rng(8)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    v /= np.linalg.norm(v)
    g = encoding_unitary(v)
    assert np.max(np.abs(g.matrix[:, 0] - v)) <= 1e-14
    assert g.defect <= 1e-12


def test_correction_identity_branch():
    u = encoding_unitary(np.array([0.6, 0.8]))
    np.testing.assert_allclose(correction_unitary(u, 0).matrix, np.eye(2), atol=1e-12)


def test_correction_matches_sigma_z_on_branch():
    u = encoding_unitary(np.array([0.6, 0.8]))
    v = correction_unitary(u, 1)
    b1 = np.array([u.matrix[1, 1], u.matrix[0, 1]])  # sum_n U[n,1]|1-n>
    np.testing.assert_allclose(v.matrix @ b1, u.matrix[:, 0], atol=1e-12)
    sz = np.diag([1.0, -1.0])
    np.testing.assert_allclose(v.matrix @ b1, sz @ b1, atol=1e-12)


@pytest.mark.parametrize("d", range(2, 9))
def test_correction_exact_for_all_branches(d):
    rng = np.random.default_rng(100 + d)
    u = make_gate(random_unitary(d, rng), (d,), "R")
    for m in range(d):
        b = np.zeros(d, dtype=complex)
        for n in range(d):
            b[(m - n) % d] += u.matrix[n, m]
        v = correction_unitary(u, m)
        assert v.defect <= 1e-10
        assert np.max(np.abs(v.matrix @ b - u.matrix[:, 0])) <= 1e-11


def test_correction_rejects_non_unitary_encoder():
    lit = encoding_unitary_literal(1 / np.sqrt(2), 1 / np.sqrt(2), np.pi / 2)
    with pytest.raises(NonUnitaryGate):
        correction_unitary(lit, 1)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_correction_chain_matches_dense_correction(d):
    rng = np.random.default_rng(200 + d)
    u = make_gate(random_unitary(d, rng), (d,), "R")
    fix = correction_chain(u)
    for m in range(d):
        dense = correction_unitary(u, m).matrix
        for k in range(d):
            e_k = np.zeros(d, dtype=complex)
            e_k[k] = 1.0
            assert np.max(np.abs(fix(np.array([m]), e_k[None])[0] - dense[:, k])) <= 1e-12
    # one block with a different branch index on every row
    ms = rng.integers(0, d, size=3 * d)
    bs = rng.normal(size=(3 * d, d)) + 1j * rng.normal(size=(3 * d, d))
    expected = [correction_unitary(u, m).matrix @ b for m, b in zip(ms, bs)]
    assert np.max(np.abs(fix(ms, bs) - expected)) <= 1e-12


def test_correction_chain_checks_encoder_and_branch():
    lit = encoding_unitary_literal(1 / np.sqrt(2), 1 / np.sqrt(2), np.pi / 2)
    with pytest.raises(NonUnitaryGate):
        correction_chain(lit)
    fix = correction_chain(encoding_unitary(np.array([0.6, 0.8])))
    for m in (-1, 2):
        with pytest.raises(InvalidState):
            fix(np.array([m]), np.array([[1.0, 0.0]], dtype=complex))


def test_nguyen_bases_trivial_projectors():
    mu, nu, phase = nguyen_bases(1.0, 0.0, 0.0)
    # mu columns span |0>, |1| up to column phases: compare projectors
    for k in range(2):
        proj = np.outer(mu[:, k], mu[:, k].conj())
        expected = np.zeros((2, 2))
        expected[k, k] = 1.0
        np.testing.assert_allclose(proj, expected, atol=1e-15)
    np.testing.assert_allclose(nu[:, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(nu[:, 1], np.array([1, -1]) / np.sqrt(2), atol=1e-15)


def test_nguyen_bases_unitary_for_random_params():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = float(rng.uniform(0, 1))
        b = float(np.sqrt(1 - a * a))
        gamma = float(rng.uniform(-np.pi, np.pi))
        mu, nu, phase = nguyen_bases(a, b, gamma)
        assert unitarity_defect(mu) <= 1e-12
        assert unitarity_defect(nu) <= 1e-12
        assert phase.defect <= 1e-12


def test_nguyen_phase_gate_at_pi_over_2():
    _, _, phase = nguyen_bases(0.6, 0.8, np.pi / 2)
    np.testing.assert_allclose(phase.matrix, np.diag([1.0, -1.0]), atol=1e-12)


def test_every_constructor_unitary_except_literal():
    rng = np.random.default_rng(19)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    gates = [
        pauli_x(3), pauli_z(4), cadd(3), csub(5), cu_concentration(0.3, np.sqrt(0.91)),
        encoding_unitary(v), index_gate((3 - np.arange(5)) % 5, (5,), "N"),
        correction_unitary(encoding_unitary(v), 2),
    ]
    for g in gates:
        assert g.defect <= 1e-10, g.name


def test_index_gate_rejects_non_bijection():
    with pytest.raises(InvalidState):
        index_gate([0, 0, 2], (3,), "dup")
    with pytest.raises(InvalidState):
        index_gate([0, 1, 3], (3,), "out of range")
    with pytest.raises(InvalidState):
        index_gate([-1, 0, 1], (3,), "negative")
    with pytest.raises(InvalidState):
        index_gate([0, 1], (3,), "short")
    with pytest.raises(InvalidState):
        index_gate([0.0, 1.0, 2.0], (3,), "float")


@pytest.mark.parametrize("d", [2, 3, 5])
def test_permutation_gates_have_exact_zero_defect(d):
    negation = index_gate((d - 1 - np.arange(d)) % d, (d,), "N")
    identity = index_gate(np.arange(d), (d,), "I")
    for g in (identity, pauli_x(d), cadd(d), csub(d), negation):
        assert g.src is not None
        assert g.defect == 0.0
        assert unitarity_defect(g.matrix) == 0.0
