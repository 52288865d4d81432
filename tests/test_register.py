import tracemalloc

import numpy as np
import pytest

from rspsim.errors import (
    CapacityExceeded,
    DegenerateState,
    IndexOutOfRange,
    InvalidState,
    NonUnitaryGate,
    ShapeError,
)
from rspsim.gates import (
    UNITARY_TOL,
    cadd,
    controlled_shift,
    csub,
    cu_concentration,
    index_gate,
    make_gate,
    pauli_x,
    pauli_z,
)
from rspsim.linalg import dagger
from rspsim.protocols import ChannelSpec
from rspsim.register import (
    StateRegister,
    basis_register,
    channel_register,
    derive_rng,
)

KET = lambda *idx: basis_register((2,) * len(idx), idx)


def bell_register():
    return channel_register(ChannelSpec.maximal(2))


def test_basis_register_single():
    reg = basis_register((2,), (0,))
    np.testing.assert_array_equal(reg.amplitudes, [1, 0])


def test_basis_register_111():
    reg = basis_register((2, 2, 2), (1, 1, 1))
    assert reg.amplitudes[7] == 1.0
    assert np.sum(np.abs(reg.amplitudes)) == 1.0


def test_basis_register_row_major_flattening():
    reg = basis_register((3, 3), (2, 1))
    assert reg.amplitudes[2 * 3 + 1] == 1.0


def test_basis_register_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        basis_register((2, 2), (0, 2))


def test_register_capacity_cap():
    with pytest.raises(CapacityExceeded):
        basis_register((2,) * 21, (0,) * 21)


def test_channel_register_product_case():
    reg = channel_register(ChannelSpec.of((1.0, 0.0)))
    np.testing.assert_array_equal(reg.amplitudes, [1, 0, 0, 0])


def test_channel_register_maximal():
    reg = bell_register()
    np.testing.assert_allclose(reg.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_channel_register_partial():
    reg = channel_register(ChannelSpec.of((0.6, 0.8)))
    np.testing.assert_array_equal(reg.amplitudes, [0.6, 0, 0, 0.8])


def test_channel_register_rejects_unnormalized():
    with pytest.raises(InvalidState):
        channel_register((0.5, 0.5))


def test_register_is_immutable():
    reg = KET(0)
    with pytest.raises(AttributeError):
        reg.dims = (3,)
    with pytest.raises(ValueError):
        reg.amplitudes[0] = 2.0


def test_apply_cnot():
    reg = KET(1, 0).apply(cadd(2), ["q0", "q1"])
    np.testing.assert_array_equal(reg.amplitudes, basis_register((2, 2), (1, 1)).amplitudes)


def test_apply_builds_three_party_entangled_state():
    # C-NOT from A onto a fresh ancilla C turns the channel into
    # alpha|000> + beta|111>
    reg = channel_register(ChannelSpec.of((0.6, 0.8)))
    reg = reg.tensor(basis_register((2,), (0,), labels=("C",)))
    reg = reg.apply(cadd(2), ["A", "C"])
    expected = np.zeros(8, dtype=complex)
    expected[0] = 0.6
    expected[7] = 0.8
    np.testing.assert_allclose(reg.amplitudes, expected, atol=1e-15)


def test_apply_qutrit_shift_wraps():
    reg = basis_register((3,), (2,)).apply(pauli_x(3), ["q0"])
    np.testing.assert_array_equal(reg.amplitudes, [1, 0, 0])


def test_apply_shape_error():
    with pytest.raises(ShapeError):
        KET(0).apply(cadd(2), ["q0"])
    with pytest.raises(ShapeError):
        basis_register((3,), (0,)).apply(pauli_x(2), ["q0"])


def test_apply_strict_rejects_non_unitary():
    bad = make_gate(np.array([[1, 1], [0, 1]]), (2,), "bad")
    with pytest.raises(NonUnitaryGate):
        KET(0).apply(bad, ["q0"])
    # audit mode lets it through
    reg = KET(0).apply(bad, ["q0"], strict=False)
    assert reg.norm > 0


def test_apply_roundtrip_with_dagger():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    g = make_gate(q, (2, 2), "R")
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    reg = StateRegister((2, 2, 2), v / np.linalg.norm(v))
    g_dag = make_gate(dagger(g.matrix), g.dims, f"{g.name}^dag")
    back = reg.apply(g, ["q0", "q2"]).apply(g_dag, ["q0", "q2"])
    np.testing.assert_allclose(back.amplitudes, reg.amplitudes, atol=1e-10)
    assert abs(reg.apply(g, ["q0", "q2"]).norm - 1.0) <= 1e-10


def test_born_probabilities_bell():
    dist = dict(bell_register().born_probabilities(["A"]))
    assert abs(dist[(0,)] - 0.5) <= 1e-12
    assert abs(dist[(1,)] - 0.5) <= 1e-12


def test_born_probabilities_concentration_ancilla():
    # after CNOT, CU, CNOT on the (0.6, 0.8) channel the ancilla carries
    # probability 2 alpha^2 = 0.72 on |0> and beta^2 - alpha^2 = 0.28 on |1>
    reg = channel_register(ChannelSpec.of((0.6, 0.8)))
    reg = reg.tensor(basis_register((2,), (0,), labels=("C",)))
    reg = reg.apply(cadd(2), ["A", "C"])
    reg = reg.apply(cu_concentration(0.6, 0.8), ["A", "C"])
    reg = reg.apply(cadd(2), ["A", "C"])
    dist = dict(reg.born_probabilities(["C"]))
    assert abs(dist[(0,)] - 0.72) <= 1e-12
    assert abs(dist[(1,)] - 0.28) <= 1e-12


def test_born_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    reg = StateRegister((2, 3, 2), v / np.linalg.norm(v))
    dist = reg.born_probabilities(["q1", "q2"])
    assert abs(sum(p for _, p in dist) - 1.0) <= 1e-12
    assert len(dist) == 6  # zero-probability outcomes included


def test_measure_eigenstate():
    rec, reg = KET(0).measure(["q0"], derive_rng(0))
    assert rec.outcome == (0,)
    assert rec.probability == 1.0
    np.testing.assert_array_equal(reg.amplitudes, [1, 0])


def test_measure_bell_collapse():
    rng = derive_rng(1)
    rec, reg = bell_register().measure(["A"], rng)
    m = rec.outcome[0]
    expected = np.zeros(4, dtype=complex)
    expected[m * 2 + m] = 1.0
    np.testing.assert_allclose(reg.amplitudes, expected, atol=1e-12)
    assert abs(rec.probability - 0.5) <= 1e-12


def test_measure_frequencies_match_born():
    reg = channel_register(ChannelSpec.of((0.6, 0.8)))
    trials = 10_000
    counts = {0: 0, 1: 0}
    for t in range(trials):
        rec, _ = reg.measure(["A"], derive_rng(42, t))
        counts[rec.outcome[0]] += 1
    for outcome, p in ((0, 0.36), (1, 0.64)):
        sigma = np.sqrt(trials * p * (1 - p))
        assert abs(counts[outcome] - trials * p) <= 4 * sigma


def test_measure_degenerate_register():
    zero = make_gate(np.zeros((2, 2)), (2,), "null")
    reg = KET(0).apply(zero, ["q0"], strict=False)
    with pytest.raises(DegenerateState):
        reg.measure(["q0"], derive_rng(0))


def test_measure_in_basis_identity_matches_computational():
    rec1, reg1 = bell_register().measure_in_basis("A", np.eye(2), derive_rng(7))
    rec2, reg2 = bell_register().measure(["A"], derive_rng(7))
    assert rec1.outcome == rec2.outcome
    assert abs(rec1.probability - rec2.probability) <= 1e-12
    np.testing.assert_allclose(reg1.amplitudes, reg2.amplitudes, atol=1e-12)


def test_measure_in_basis_half_half():
    # measuring sender qubit of the maximal channel in any real rotated
    # basis gives 50/50
    a, b = 0.6, 0.8
    mu = np.array([[a, b], [b, -a]], dtype=complex)
    counts = {0: 0, 1: 0}
    for t in range(200):
        rec, _ = bell_register().measure_in_basis("A", mu, derive_rng(3, t))
        counts[rec.outcome[0]] += 1
        assert abs(rec.probability - 0.5) <= 1e-12
    assert counts[0] > 0 and counts[1] > 0


def test_measure_in_basis_rejects_non_unitary():
    with pytest.raises(NonUnitaryGate):
        bell_register().measure_in_basis("A", np.array([[1, 1], [0, 1]]), derive_rng(0))


def test_conditional_nu_measurement_is_half_half():
    # inside the ancilla-assisted baseline: after the mu measurement of A
    # and the conditional phase on C, the nu measurement of C is 50/50
    from rspsim.gates import nguyen_bases
    from rspsim.linalg import dagger
    from rspsim.protocols import TargetState

    a, b, gamma = TargetState.of((0.6, 0.8j)).qubit_params()
    mu, nu, phase = nguyen_bases(a, b, gamma)
    reg = bell_register().tensor(basis_register((2,), (0,), labels=("C",)))
    reg = reg.apply(cadd(2), ["A", "C"])
    for i in range(2):
        rotated = reg.apply(make_gate(dagger(mu), (2,), "mu^dag"), ["A"])
        p_i, collapsed = rotated.project(["A"], (i,))
        assert abs(p_i - 0.5) <= 1e-12
        branch = collapsed.apply(make_gate(mu, (2,), "mu"), ["A"])
        if i == 0:
            branch = branch.apply(phase, ["C"])
        rec, _ = branch.measure_in_basis("C", nu, derive_rng(40 + i))
        assert abs(rec.probability - 0.5) <= 1e-12


def test_reduced_density_product_state():
    rho = basis_register((2, 2), (0, 1)).reduced_density(["q0"])
    np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-15)


def test_reduced_density_bell_is_mixed():
    rho = bell_register().reduced_density(["A"])
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_channel_populations():
    rho = channel_register(ChannelSpec.of((0.6, 0.8))).reduced_density(["B"])
    np.testing.assert_allclose(rho.entries, np.diag([0.36, 0.64]), atol=1e-12)


def test_reduced_density_invariants():
    rng = np.random.default_rng(13)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    reg = StateRegister((2, 2, 2), v / np.linalg.norm(v))
    rho = reg.reduced_density(["q0", "q2"])
    assert np.max(np.abs(rho.entries - rho.entries.conj().T)) <= 1e-10
    assert abs(np.trace(rho.entries).real - 1.0) <= 1e-10
    assert np.min(np.linalg.eigvalsh(rho.entries)) >= -1e-10


def test_project_exact_branch():
    p, collapsed = bell_register().project(["A"], (1,))
    assert abs(p - 0.5) <= 1e-12
    np.testing.assert_allclose(collapsed.amplitudes, [0, 0, 0, 1], atol=1e-12)
    p0, none_branch = channel_register(ChannelSpec.of((1.0, 0.0))).project(["A"], (1,))
    assert p0 == 0.0 and none_branch is None


def test_derive_rng_reproducible_and_order_free():
    a = derive_rng(5, 3).normal(size=4)
    b = derive_rng(5, 3).normal(size=4)
    c = derive_rng(5, 4).normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def random_register(dims, labels, rng):
    v = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    return StateRegister(dims, v / np.linalg.norm(v), labels)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_index_gate_apply_matches_dense(d):
    rng = np.random.default_rng(300 + d)
    table = tuple(int(k) for k in rng.integers(0, d, size=d))
    m = int(rng.integers(0, d))
    one = [pauli_x(d), index_gate((m - np.arange(d)) % d, (d,), "N")]
    two = [cadd(d), csub(d), controlled_shift(d, table)]
    cases = [(g, t) for g in one for t in (("A",), ("B",), ("C",))]
    cases += [(g, t) for g in two for t in (("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"))]
    for gate, targets in cases:
        assert gate.src is not None, gate.name
        dense = make_gate(gate.matrix, gate.dims, gate.name)
        assert dense.src is None
        for _ in range(2):
            reg = random_register((d, d, d), ("A", "B", "C"), rng)
            np.testing.assert_allclose(
                reg.apply(gate, targets).amplitudes,
                reg.apply(dense, targets).amplitudes,
                rtol=0, atol=1e-14, err_msg=f"{gate.name} on {targets}",
            )


def test_index_gate_applies_past_the_dense_cap():
    rng = np.random.default_rng(101)
    reg = random_register((101, 101), ("A", "B"), rng)
    cadd.cache_clear()
    tracemalloc.start()
    try:
        gate = cadd(101)
        out = reg.apply(gate, ["A", "B"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    psi, got = reg.amplitudes.reshape(101, 101), out.amplitudes.reshape(101, 101)
    for i in (0, 1, 57, 100):
        np.testing.assert_array_equal(got[i], np.roll(psi[i], i))
    with pytest.raises(CapacityExceeded):
        gate.matrix


def test_contract_with_basis_index_equals_one_hot():
    rng = np.random.default_rng(31)
    dims, labels = (2, 3, 4), ("A", "B", "C")
    amps = rng.normal(size=24) + 1j * rng.normal(size=24)
    reg = StateRegister(dims, amps / np.linalg.norm(amps), labels)

    def one_hot(d, k):
        v = np.zeros(d, dtype=complex)
        v[k] = 1.0
        return v

    for label, d in zip(labels, dims):
        for k in range(d):
            np.testing.assert_array_equal(
                reg.contract({label: k}), reg.contract({label: one_hot(d, k)})
            )
    for a in range(2):
        for c in range(4):
            vec = rng.normal(size=3) + 1j * rng.normal(size=3)
            np.testing.assert_allclose(
                reg.contract({"A": a, "B": vec, "C": c}),
                reg.contract({"A": one_hot(2, a), "B": vec, "C": one_hot(4, c)}),
                atol=1e-15,
            )
            np.testing.assert_array_equal(
                reg.contract({"A": a, "C": c}),
                reg.contract({"A": one_hot(2, a), "C": one_hot(4, c)}),
            )


def test_contract_with_basis_index_out_of_range():
    reg = basis_register((2, 3), (1, 2), ("A", "B"))
    for label, k in (("A", 2), ("B", 3), ("A", -1)):
        with pytest.raises(IndexOutOfRange):
            reg.contract({label: k})


# -- registers derived from a checked parent ----------------------------------


def test_strict_apply_still_checks_the_norm():
    """A defect under UNITARY_TOL can still break the register's 1e-10 norm tolerance."""
    eps = 2.5e-9
    gate = make_gate(np.diag([1.0 + eps, 1.0]), (2,), "stretch")
    assert 1e-10 < gate.defect < UNITARY_TOL
    with pytest.raises(InvalidState):
        KET(0).apply(gate, ["q0"])
    assert abs(KET(0).apply(gate, ["q0"], strict=False).norm - (1.0 + eps)) <= 1e-15


def _derived_cases():
    rng = np.random.default_rng(77)
    reg = random_register((2, 3, 2), ("A", "B", "C"), rng)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    dense = make_gate(np.linalg.qr(z)[0], (3,), "R3")
    loose = reg.apply(make_gate(3.0 * np.eye(2), (2,), "3I"), ["A"], strict=False)
    return [
        ("gather", reg, lambda: reg.apply(cadd(2), ["C", "A"])),
        ("dense clock", reg, lambda: reg.apply(pauli_z(3), ["B"])),
        ("dense", reg, lambda: reg.apply(dense, ["B"])),
        ("project", reg, lambda: reg.project(["B"], (1,))[1]),
        ("normalized", loose, loose.normalized),
    ]


@pytest.mark.parametrize("case", range(5))
def test_derived_register_is_frozen_fresh_and_equals_the_public_one(case):
    _, parent, derive = _derived_cases()[case]
    out = derive()
    assert not out.amplitudes.flags.writeable
    assert not np.shares_memory(out.amplitudes, parent.amplitudes)
    public = StateRegister(parent.dims, out.amplitudes, parent.labels)
    assert (out.dims, out.labels) == (public.dims, public.labels)
    assert out.amplitudes.dtype == public.amplitudes.dtype
    np.testing.assert_array_equal(out.amplitudes, public.amplitudes)


def test_derived_register_rejects_non_finite_amplitudes():
    with np.errstate(over="ignore", invalid="ignore"):
        gate = make_gate(np.diag([1e200, 1.0]), (2,), "huge")
        once = KET(0).apply(gate, ["q0"], strict=False)
        with pytest.raises(InvalidState):
            once.apply(gate, ["q0"], strict=False)  # 1e400 overflows to inf
