import itertools
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
from rspsim.register import PROB_FLOOR, StateRegister, _cdf, _pick, derive_rng


def ket(dims, index, labels=None):
    """The basis state |index> over ``dims``."""
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[np.ravel_multi_index(index, dims)] = 1.0
    return StateRegister(dims, amps, labels)


KET = lambda *idx: ket((2,) * len(idx), idx)


def channel(a, b):
    """The A-B channel a|00> + b|11>."""
    return StateRegister((2, 2), [a, 0, 0, b], ("A", "B"))


def channel_and_ancilla(a, b):
    """The channel a|00> + b|11> on A, B with the ancilla C in |0>."""
    return StateRegister((2, 2, 2), [a, 0, 0, 0, 0, 0, b, 0], ("A", "B", "C"))


def bell_register():
    return channel(1 / np.sqrt(2), 1 / np.sqrt(2))


def test_register_capacity_cap():
    with pytest.raises(CapacityExceeded):
        StateRegister((2,) * 21, [1.0])


def test_register_is_immutable():
    reg = KET(0)
    with pytest.raises(AttributeError):
        reg.dims = (3,)
    with pytest.raises(ValueError):
        reg.amplitudes[0] = 2.0


def test_apply_cnot():
    reg = KET(1, 0).apply(cadd(2), ["q0", "q1"])
    np.testing.assert_array_equal(reg.amplitudes, ket((2, 2), (1, 1)).amplitudes)


def test_apply_builds_three_party_entangled_state():
    # C-NOT from A onto a fresh ancilla C turns the channel into
    # alpha|000> + beta|111>
    reg = channel_and_ancilla(0.6, 0.8).apply(cadd(2), ["A", "C"])
    expected = np.zeros(8, dtype=complex)
    expected[0] = 0.6
    expected[7] = 0.8
    np.testing.assert_allclose(reg.amplitudes, expected, atol=1e-15)


def test_apply_qutrit_shift_wraps():
    reg = ket((3,), (2,)).apply(pauli_x(3), ["q0"])
    np.testing.assert_array_equal(reg.amplitudes, [1, 0, 0])


def test_apply_shape_error():
    with pytest.raises(ShapeError):
        KET(0).apply(cadd(2), ["q0"])
    with pytest.raises(ShapeError):
        ket((3,), (0,)).apply(pauli_x(2), ["q0"])


def test_apply_strict_rejects_non_unitary():
    bad = make_gate(np.array([[1, 1], [0, 1]]), (2,), "bad")
    with pytest.raises(NonUnitaryGate):
        KET(0).apply(bad, ["q0"])
    # audit mode lets it through
    reg = KET(0).apply(bad, ["q0"], strict=False)
    assert np.linalg.norm(reg.amplitudes) > 0


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
    assert abs(np.linalg.norm(reg.apply(g, ["q0", "q2"]).amplitudes) - 1.0) <= 1e-10


def test_born_probabilities_bell():
    dist = dict(bell_register().born_probabilities(["A"]))
    assert abs(dist[(0,)] - 0.5) <= 1e-12
    assert abs(dist[(1,)] - 0.5) <= 1e-12


def test_born_probabilities_concentration_ancilla():
    # after CNOT, CU, CNOT on the (0.6, 0.8) channel the ancilla carries
    # probability 2 alpha^2 = 0.72 on |0> and beta^2 - alpha^2 = 0.28 on |1>
    reg = channel_and_ancilla(0.6, 0.8).apply(cadd(2), ["A", "C"])
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
    reg = channel(0.6, 0.8)
    trials = 10_000
    counts = {0: 0, 1: 0}
    for t in range(trials):
        rec, _ = reg.measure(["A"], derive_rng(42, t))
        counts[rec.outcome[0]] += 1
    for outcome, p in ((0, 0.36), (1, 0.64)):
        sigma = np.sqrt(trials * p * (1 - p))
        assert abs(counts[outcome] - trials * p) <= 4 * sigma


def test_draw_picks_what_generator_choice_picks():
    # One rng.random() against choice's CDF arithmetic: the same index as
    # Generator.choice on the floor-truncated, renormalized probabilities.
    rng = np.random.default_rng(8)
    for k in range(2000):
        p = rng.uniform(size=int(rng.integers(2, 9))) ** 3
        p[rng.uniform(size=p.size) < 0.2] = rng.choice([0.0, 1e-16, 1e-14])
        if p.max() < 1e-3:
            p[0] = 1.0
        q = np.where(p < PROB_FLOOR, 0.0, p)
        expected = derive_rng(k).choice(p.size, p=q / q.sum())
        assert _pick(_cdf(p), derive_rng(k).random()) == expected


def test_draw_over_an_array_of_uniforms_is_elementwise():
    p = [0.2, 0.0, 1e-16, 0.5, 0.3]
    u = derive_rng(4).random(1000)
    picks = _pick(_cdf(p), u)
    assert picks.shape == u.shape
    assert picks.tolist() == [_pick(_cdf(p), x) for x in u]
    assert set(picks.tolist()) == {0, 3, 4}  # below-floor outcomes never drawn
    assert _pick(_cdf(p), 0.0) == 0 and _pick(_cdf(p), np.nextafter(1.0, 0.0)) == 4


def test_draw_rejects_nan_probabilities():
    with pytest.raises(DegenerateState):
        _pick(_cdf([np.nan, 0.5]), 0.5)


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
    reg = channel_and_ancilla(1 / np.sqrt(2), 1 / np.sqrt(2))
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
    rho = ket((2, 2), (0, 1)).reduced_density(["q0"])
    np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-15)


def test_reduced_density_bell_is_mixed():
    rho = bell_register().reduced_density(["A"])
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_channel_populations():
    rho = channel(0.6, 0.8).reduced_density(["B"])
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
    p0, none_branch = channel(1.0, 0.0).project(["A"], (1,))
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
    reg = ket((2, 3), (1, 2), ("A", "B"))
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
    stretched = KET(0).apply(gate, ["q0"], strict=False)
    assert abs(np.linalg.norm(stretched.amplitudes) - (1.0 + eps)) <= 1e-15


def _derived_cases():
    rng = np.random.default_rng(77)
    reg = random_register((2, 3, 2), ("A", "B", "C"), rng)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    dense = make_gate(np.linalg.qr(z)[0], (3,), "R3")
    return [
        ("gather", reg, lambda: reg.apply(cadd(2), ["C", "A"])),
        ("dense clock", reg, lambda: reg.apply(pauli_z(3), ["B"])),
        ("dense", reg, lambda: reg.apply(dense, ["B"])),
        ("project", reg, lambda: reg.project(["B"], (1,))[1]),
    ]


@pytest.mark.parametrize("case", range(4))
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


@pytest.mark.parametrize("amplitudes, error, message", [
    ([], ShapeError, "at least one entry"),
    ([np.nan, 0.0, 0.0], InvalidState, "finite"),  # the wrong length as well
    ([1.0, 0.0, 0.0], ShapeError, "amplitude length 3"),
    ([np.inf, 0.0], InvalidState, "finite"),
    ([np.nan, 1.0], InvalidState, "finite"),
    ([1e200, 1e200], InvalidState, "norm is off"),  # finite, but its squares overflow
    ([0.6, 0.6], InvalidState, "norm is off"),
], ids=["empty", "nan-and-length", "length", "inf", "nan", "overflow", "norm"])
def test_a_new_register_reports_the_first_fault_of_its_amplitudes(amplitudes, error, message):
    with np.errstate(over="ignore"), pytest.raises(error, match=message):
        StateRegister((2,), amplitudes)


# -- batches --------------------------------------------------------------------


def random_batch(dims, labels, rng, n):
    """``n`` random registers over ``dims``, alone and as one batch."""
    alone = [random_register(dims, labels, rng) for _ in range(n)]
    return alone, StateRegister(dims, np.concatenate([r.amplitudes for r in alone]), labels, batch=n)


def test_a_batch_acts_on_each_element_as_a_lone_register():
    rng = np.random.default_rng(21)
    labels = ("A", "B", "C")
    alone, batch = random_batch((2, 3, 2), labels, rng, 4)
    per = [make_gate(np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0],
                     (3,), f"R{k}") for k in range(4)]
    stack = make_gate(np.stack([g.matrix for g in per]), (3,), "R0|R1|R2|R3")
    for gate, targets, each in ((cadd(2), ("C", "A"), [cadd(2)] * 4), (per[1], ("B",), [per[1]] * 4),
                                (stack, ("B",), per)):
        got = batch.apply(gate, targets).amplitudes.reshape(4, -1)
        for k, reg in enumerate(alone):
            np.testing.assert_allclose(got[k], reg.apply(each[k], targets).amplitudes,
                                       rtol=0, atol=1e-15, err_msg=gate.name)
    marg = batch._marginal(("C", "B"))
    for k, reg in enumerate(alone):
        np.testing.assert_allclose(marg[k], reg._marginal(("C", "B"))[0], rtol=0, atol=1e-15)
    # An element without mass on the outcome leaves the collapsed batch.
    alone[2] = ket((2, 3, 2), (1, 0, 1), labels)
    batch = StateRegister((2, 3, 2), np.concatenate([r.amplitudes for r in alone]), labels, batch=4)
    p, collapsed = batch.project(["B"], (2,))
    assert p[2] == 0.0 and collapsed.batch == 3
    for k, amps in zip((0, 1, 3), collapsed.amplitudes.reshape(3, -1)):
        q, want = alone[k].project(["B"], (2,))
        assert abs(p[k] - q) <= 1e-15
        np.testing.assert_allclose(amps, want.amplitudes, rtol=0, atol=1e-15)
    with pytest.raises(ShapeError):
        batch.reduced_density(["A"])


def test_strict_apply_rejects_a_non_unitary_gate_on_a_batch():
    _, batch = random_batch((2, 3, 2), ("A", "B", "C"), np.random.default_rng(22), 3)
    bad = make_gate(np.array([[1, 1], [0, 1]]), (2,), "bad")
    one = make_gate(np.eye(2), (2,), "I")
    for gate in (bad, make_gate(np.stack([one.matrix, bad.matrix, one.matrix]), (2,), "I|bad")):
        with pytest.raises(NonUnitaryGate):
            batch.apply(gate, ["A"])
        assert batch.apply(gate, ["A"], strict=False).batch == 3  # audit mode lets it through
    with pytest.raises(ShapeError):
        batch.apply(make_gate(np.stack([one.matrix, bad.matrix]), (2,), "I|bad"), ["A"],
                    strict=False)


def test_a_product_is_rechecked_and_a_gather_is_not():
    """Products check finiteness and each element's norm; a gather only permutes checked amplitudes."""
    rng = np.random.default_rng(23)
    _, batch = random_batch((2, 3, 2), ("A", "B", "C"), rng, 3)
    spin = make_gate(np.linalg.qr(rng.normal(size=(3, 3)))[0], (3,), "R")
    with np.errstate(over="ignore", invalid="ignore"):
        huge = make_gate(np.diag([1e200, 1.0]), (2,), "huge")
        loose = batch.apply(huge, ["A"], strict=False)  # finite, far from norm 1
        with pytest.raises(InvalidState):
            loose.apply(huge, ["A"], strict=False)  # 1e400 overflows to inf
        with pytest.raises(InvalidState):
            loose.apply(spin, ["B"])
    moved = loose.apply(cadd(2), ["A", "C"])
    np.testing.assert_array_equal(np.sort(np.abs(moved.amplitudes)), np.sort(np.abs(loose.amplitudes)))


def random_index_gates(dims, labels, rng):
    """A Pauli X on each subsystem and, on each ordered pair, a random controlled shift
    where the two dims agree and a random permutation where they do not."""
    out = [(pauli_x(d), (label,)) for d, label in zip(dims, labels)]
    for (i, a), (j, b) in itertools.permutations(enumerate(labels), 2):
        if dims[i] == dims[j]:
            gate = controlled_shift(dims[i], rng.integers(0, dims[i], size=dims[i]))
        else:
            gate = index_gate(rng.permutation(dims[i] * dims[j]), (dims[i], dims[j]), "P")
        out.append((gate, (a, b)))
    return out


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 3, 3)])
def test_a_run_of_index_maps_is_one_gather_with_the_bits_of_its_gates(dims, n):
    """Runs of 2 and 3 index maps, targets in any order: one gather through the composed
    table gives, byte for byte, the gates applied one at a time."""
    rng = np.random.default_rng(sum(dims) * 10 + n)
    labels = ("A", "B", "C")
    _, batch = random_batch(dims, labels, rng, n)
    gates = random_index_gates(dims, labels, rng)
    for length in (2, 3, 2, 3, 2, 3):
        run = [gates[k] for k in rng.choice(len(gates), size=length)]
        out = batch._permute(run)
        want = batch
        for gate, targets in run:
            want = want.apply(gate, targets)
        assert out.amplitudes.tobytes() == want.amplitudes.tobytes(), run
        assert (out.dims, out.labels, out.batch) == (batch.dims, batch.labels, n)
        assert not out.amplitudes.flags.writeable
        assert not np.shares_memory(out.amplitudes, batch.amplitudes)
    with pytest.raises(ShapeError):
        batch._permute([gates[0], (make_gate(np.eye(dims[0]), (dims[0],), "I"), ("A",))])


# -- dense layouts -------------------------------------------------------------


def random_unitary(n, rng):
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


def kron_reference(matrix, dims, axes):
    """The whole-register matrix of ``matrix`` on ``axes``: kron(matrix, 1) over the
    basis ordered (axes, rest), with rows and columns moved back to the register's order."""
    rest = [i for i in range(len(dims)) if i not in axes]
    order = np.arange(int(np.prod(dims))).reshape(dims).transpose(list(axes) + rest).reshape(-1)
    full = np.kron(matrix, np.eye(int(np.prod([dims[i] for i in rest]))))
    out = np.empty_like(full)
    out[np.ix_(order, order)] = full
    return out


LAYOUTS = [
    ((2, 3, 4), [("A",), ("A", "B"), ("A", "B", "C"), ("B",), ("B", "C"), ("C",),
                 ("A", "C"), ("B", "A"), ("C", "A")]),
    ((3, 2, 2, 2), [("A",), ("A", "B"), ("B", "C"), ("B", "C", "D"), ("C", "D"), ("D",),
                    ("A", "C"), ("B", "D"), ("D", "B"), ("C", "B", "A")]),
]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("dims, layouts", LAYOUTS)
def test_a_dense_gate_on_any_layout_equals_its_kronecker_matrix(dims, layouts, n):
    """Leading, middle and trailing runs, non-adjacent and reversed targets, shared and stacked."""
    rng = np.random.default_rng(sum(dims) * 10 + n)
    labels = "ABCD"[: len(dims)]
    alone, batch = random_batch(dims, labels, rng, n)
    for targets in layouts:
        axes = [labels.index(t) for t in targets]
        sub = tuple(dims[a] for a in axes)
        per = [make_gate(random_unitary(int(np.prod(sub)), rng), sub, f"U{k}") for k in range(n)]
        stack = make_gate(np.stack([g.matrix for g in per]), sub, "|".join(g.name for g in per))
        for gate, each in ((per[0], [per[0]] * n), (stack, per)):
            out = batch.apply(gate, targets)
            assert not out.amplitudes.flags.writeable
            assert not np.shares_memory(out.amplitudes, batch.amplitudes)
            assert not np.shares_memory(out.amplitudes, gate.matrix)
            for k, (reg, g) in enumerate(zip(alone, each)):
                want = kron_reference(g.matrix, dims, axes) @ reg.amplitudes
                np.testing.assert_allclose(out.amplitudes.reshape(n, -1)[k], want, rtol=0,
                                           atol=1e-15, err_msg=f"{targets} {gate.name}")
