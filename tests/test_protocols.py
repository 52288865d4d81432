import itertools
import tracemalloc

import numpy as np
import pytest

import rspsim.gates
import rspsim.linalg
import rspsim.oracle
import rspsim.protocols
import rspsim.register
from rspsim.errors import CapacityExceeded, InvalidState, Unsupported
from rspsim.protocols import (
    ChannelSpec,
    TargetState,
    exact_outcome_table,
    run_protocol,
    success_probability,
)
from rspsim.register import derive_rng


def random_target(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return TargetState.of(v / np.linalg.norm(v))


def random_positive_channel(d, rng):
    v = rng.uniform(0.1, 1.0, size=d)
    return ChannelSpec.of(v / np.linalg.norm(v))


# -- channel / target types -------------------------------------------------


def test_channel_spec_validation():
    with pytest.raises(InvalidState):
        ChannelSpec.of((0.5, 0.5))
    with pytest.raises(InvalidState):
        ChannelSpec.of((1.0,))
    spec = ChannelSpec.from_theta(np.pi / 6)
    assert abs(abs(spec.lambdas[0]) - 0.5) <= 1e-12


def test_target_canonical_form():
    t = TargetState.of((0.6j, 0.8))
    c = t.canonical()
    assert abs(c[0].imag) <= 1e-15 and c[0].real > 0
    a, b, gamma = TargetState.of((0.6, 0.8j)).qubit_params()
    assert abs(a - 0.6) <= 1e-12
    assert abs(b - 0.8) <= 1e-12
    assert abs(gamma - np.pi / 2) <= 1e-12


@pytest.mark.parametrize("excess", [5e-11, 9.9e-11])
def test_every_protocol_runs_a_target_that_construction_accepts(excess):
    """A norm within STRUCT_TOL of 1 is divided out, so no later check sees it."""
    target = TargetState.of(np.array((0.6, 0.8j)) * (1.0 + excess))
    assert abs(np.linalg.norm(target.vector()) - 1.0) <= 1e-15
    channel = ChannelSpec.of((0.6, 0.8))
    tables = [exact_outcome_table("nguyen", None, target),
              exact_outcome_table("probabilistic", channel, target),
              exact_outcome_table("deterministic", channel, target, mode="literal"),
              exact_outcome_table("deterministic", channel, target)]
    assert [success_probability(t) for t in tables] == pytest.approx([1.0, 0.72, 1.0, 1.0],
                                                                      abs=1e-12)


def test_a_channel_that_construction_accepts_cannot_push_success_above_1():
    channel = ChannelSpec.of(np.array((0.6, 0.8)) * (1.0 + 8e-11))
    assert abs(np.linalg.norm(channel.lambdas) - 1.0) <= 1e-15
    table = exact_outcome_table("deterministic", channel, TargetState.of((0.6, 0.8j)))
    assert success_probability(table) <= 1.0 + 1e-15


# -- deterministic protocol ---------------------------------------------------


def test_deterministic_repaired_d3_always_succeeds():
    rng = np.random.default_rng(31)
    channel = ChannelSpec.of(np.array([0.5, 0.5, np.sqrt(0.5)], dtype=complex))
    target = random_target(3, rng)
    for seed in range(6):
        tr = run_protocol("deterministic", channel, target, "repaired", derive_rng(seed))
        assert tr.fidelity >= 1 - 1e-10
        assert tr.success
        a, c = tr.messages[0].outcome
        assert a == c


def test_deterministic_literal_real_target_both_branches():
    channel = ChannelSpec.of((0.6, 0.8))
    target = TargetState.of((0.6, 0.8))
    table = exact_outcome_table("deterministic", channel, target, mode="literal")
    rows = {r.outcome: r for r in table.rows}
    assert set(rows) == {(0, 0), (1, 1)}
    assert abs(rows[(0, 0)].probability - 0.36) <= 1e-12
    assert abs(rows[(1, 1)].probability - 0.64) <= 1e-12
    for r in rows.values():
        assert r.fidelity >= 1 - 1e-12
    # the sigma_z branch saw x0|0> - x1|1> before correction
    pre = np.diag([1.0, -1.0]) @ rows[(1, 1)].bob_state
    np.testing.assert_allclose(pre, [0.6, -0.8], atol=1e-12)


def test_deterministic_product_channel_single_branch():
    table = exact_outcome_table(
        "deterministic", ChannelSpec.of((1.0, 0.0)), TargetState.of((0.6, 0.8j))
    )
    assert [r.outcome for r in table.rows] == [(0, 0)]
    assert abs(table.rows[0].probability - 1.0) <= 1e-12
    assert table.rows[0].fidelity >= 1 - 1e-10
    tr = run_protocol(
        "deterministic", ChannelSpec.of((1.0, 0.0)), TargetState.of((0.6, 0.8j)), rng=derive_rng(2)
    )
    assert tr.messages[0].outcome == (0, 0)
    assert tr.success


@pytest.mark.parametrize("d", range(2, 9))
def test_deterministic_success_probability_one_for_all_d(d):
    rng = np.random.default_rng(200 + d)
    for _ in range(3):
        channel = random_positive_channel(d, rng)
        target = random_target(d, rng)
        table = exact_outcome_table("deterministic", channel, target)
        assert abs(success_probability(table) - 1.0) <= 1e-12
        assert abs(sum(r.probability for r in table.rows) - 1.0) <= 1e-12
        for r in table.rows:
            assert r.fidelity >= 1 - 1e-10


def test_deterministic_complex_channel_phases():
    rng = np.random.default_rng(77)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    channel = ChannelSpec.of(v / np.linalg.norm(v))
    table = exact_outcome_table("deterministic", channel, random_target(4, rng))
    assert abs(success_probability(table) - 1.0) <= 1e-12


def test_deterministic_run_matches_table_branch():
    channel = ChannelSpec.of((0.6, 0.8))
    target = TargetState.of((1 / np.sqrt(3), np.sqrt(2 / 3) * 1j))
    table = exact_outcome_table("deterministic", channel, target)
    probs = {r.outcome: r.probability for r in table.rows}
    tr = run_protocol("deterministic", channel, target, rng=derive_rng(9))
    outcome = tr.messages[0].outcome
    assert outcome in probs
    assert abs(tr.measurements[0].probability - probs[outcome]) <= 1e-12


def test_deterministic_dimension_mismatch():
    with pytest.raises(InvalidState):
        run_protocol(
            "deterministic", ChannelSpec.of((0.6, 0.8)), TargetState.of((1.0, 0.0, 0.0)),
            rng=derive_rng(0),
        )


def test_literal_mode_requires_qubits():
    rng = np.random.default_rng(5)
    with pytest.raises(Unsupported):
        run_protocol(
            "deterministic", random_positive_channel(3, rng), random_target(3, rng), "literal",
            derive_rng(0),
        )


# -- literal-mode audit -------------------------------------------------------


def test_literal_mode_flags_non_unitary_step():
    target = TargetState.of((1 / np.sqrt(2), 1j / np.sqrt(2)))  # theta = pi/2
    tr = run_protocol(
        "deterministic", ChannelSpec.of((0.6, 0.8)), target, "literal", derive_rng(3)
    )
    assert tr.has_non_unitary_step
    flagged = max(s.defect for s in tr.steps if s.non_unitary)
    assert flagged > 1e-6
    assert tr.raw_norm is not None


def test_literal_mode_branch_norms_still_sum_to_one():
    # The printed encoder has unit-norm columns and acts on a state whose
    # sender qudit is correlated with orthogonal partners, so the global
    # norm and the branch probability sum stay exactly 1 even though the
    # operator itself is far from unitary.
    rng = np.random.default_rng(55)
    for _ in range(10):
        x0 = float(rng.uniform(0.35, 0.95))
        th = float(rng.uniform(0.3, np.pi - 0.3))
        x1 = float(np.sqrt(1 - x0 * x0))
        assert x0 * x1 * np.sin(th) > 0.0
        target = TargetState.of((x0, x1 * np.exp(1j * th)))
        channel = random_positive_channel(2, rng)
        tr = run_protocol("deterministic", channel, target, "literal", derive_rng(1))
        assert abs(tr.raw_norm - 1.0) <= 1e-12
        table = exact_outcome_table("deterministic", channel, target, mode="literal")
        assert abs(sum(r.probability for r in table.rows) - 1.0) <= 1e-12


def test_literal_equals_repaired_for_theta0_targets():
    rng = np.random.default_rng(66)
    for _ in range(10):
        x0 = float(rng.uniform(0.0, 1.0))
        target = TargetState.of((x0, np.sqrt(1 - x0 * x0)))
        channel = random_positive_channel(2, rng)
        lit = exact_outcome_table("deterministic", channel, target, mode="literal")
        rep = exact_outcome_table("deterministic", channel, target, mode="repaired")
        assert [r.outcome for r in lit.rows] == [r.outcome for r in rep.rows]
        for a, b in zip(lit.rows, rep.rows):
            assert abs(a.probability - b.probability) <= 1e-12
            assert abs(a.fidelity - b.fidelity) <= 1e-12


# -- probabilistic baseline ---------------------------------------------------


def test_probabilistic_maximal_channel_always_succeeds():
    table = exact_outcome_table(
        "probabilistic", ChannelSpec.maximal(2), TargetState.of((0.6, 0.8j))
    )
    assert abs(success_probability(table) - 1.0) <= 1e-12


def test_probabilistic_success_half_at_pi_over_6():
    table = exact_outcome_table(
        "probabilistic", ChannelSpec.from_theta(np.pi / 6), TargetState.of((0.8, 0.6))
    )
    assert abs(success_probability(table) - 0.5) <= 1e-12


def test_probabilistic_branch_weights():
    table = exact_outcome_table(
        "probabilistic", ChannelSpec.of((0.6, 0.8)), TargetState.of((0.6, 0.8j))
    )
    rows = {r.outcome: r for r in table.rows}
    assert abs(rows[(0,)].probability - 0.72) <= 1e-12
    assert abs(rows[(1,)].probability - 0.28) <= 1e-12
    assert rows[(0,)].fidelity >= 1 - 1e-10
    # abandoned state is |1>, fidelity |x1|^2
    assert abs(rows[(1,)].fidelity - 0.64) <= 1e-12


def test_probabilistic_run_branches():
    channel = ChannelSpec.of((0.6, 0.8))
    target = TargetState.of((0.6, 0.8j))
    seen = set()
    for seed in range(30):
        tr = run_protocol("probabilistic", channel, target, rng=derive_rng(seed))
        c = tr.messages[0].outcome[0]
        seen.add(c)
        if c == 0:
            assert tr.success and tr.fidelity >= 1 - 1e-10
            assert len(tr.messages) == 3
        else:
            assert not tr.success
            assert abs(tr.fidelity - 0.64) <= 1e-12
    assert seen == {0, 1}


def test_probabilistic_alpha_zero_always_fails():
    table = exact_outcome_table(
        "probabilistic", ChannelSpec.of((0.0, 1.0)), TargetState.of((0.6, 0.8))
    )
    assert [r.outcome for r in table.rows] == [(1,)]
    assert abs(table.rows[0].probability - 1.0) <= 1e-12
    assert success_probability(table) == 0.0
    tr = run_protocol("probabilistic", ChannelSpec.of((0.0, 1.0)), TargetState.of((0.6, 0.8)),
                      rng=derive_rng(0))
    assert not tr.success


def test_probabilistic_rejects_alpha_above_beta():
    with pytest.raises(InvalidState):
        run_protocol(
            "probabilistic", ChannelSpec.of((0.8, 0.6)), TargetState.of((0.6, 0.8)),
            rng=derive_rng(0),
        )


def test_probabilistic_complex_channel_phases():
    lam = np.array([0.6 * np.exp(0.4j), 0.8 * np.exp(-1.1j)])
    table = exact_outcome_table(
        "probabilistic", ChannelSpec.of(lam), TargetState.of((0.6, 0.8j))
    )
    rows = {r.outcome: r for r in table.rows}
    assert abs(rows[(0,)].probability - 0.72) <= 1e-12
    assert rows[(0,)].fidelity >= 1 - 1e-10


# -- nguyen baseline ----------------------------------------------------------


def test_nguyen_four_quarter_branches():
    rng = np.random.default_rng(44)
    for _ in range(5):
        table = exact_outcome_table("nguyen", None, random_target(2, rng))
        assert len(table.rows) == 4
        for r in table.rows:
            assert abs(r.probability - 0.25) <= 1e-12
            assert r.fidelity >= 1 - 1e-10
        assert abs(success_probability(table) - 1.0) <= 1e-12


def test_nguyen_trivial_target():
    tr = run_protocol("nguyen", None, TargetState.of((1.0, 0.0)), rng=derive_rng(8))
    assert tr.success
    np.testing.assert_allclose(np.abs(tr.bob_state), [1.0, 0.0], atol=1e-10)


def test_nguyen_run_all_outcomes_corrected():
    target = TargetState.of((0.28, 0.96j))
    seen = set()
    for seed in range(40):
        tr = run_protocol("nguyen", None, target, rng=derive_rng(seed))
        assert tr.fidelity >= 1 - 1e-10
        seen.add((tr.messages[0].outcome[0], tr.messages[1].outcome[0]))
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


# -- transcript hygiene -------------------------------------------------------


def test_messages_carry_only_outcome_indices():
    channel = ChannelSpec.of((0.6, 0.8))
    target = TargetState.of((0.6, 0.8j))
    for protocol in ("deterministic", "probabilistic", "nguyen"):
        tr = run_protocol(protocol, channel, target, rng=derive_rng(12))
        for msg in tr.messages:
            assert all(isinstance(i, int) for i in msg.outcome)
            assert all(isinstance(s, str) for s in msg.subsystems)
        assert "0.6" not in tr.correction and "0.8" not in tr.correction


def test_success_probability_single_row():
    table = exact_outcome_table(
        "deterministic", ChannelSpec.of((1.0, 0.0)), TargetState.of((0.6, 0.8))
    )
    assert success_probability(table) == table.rows[0].probability


def test_run_protocol_rejects_unknown():
    with pytest.raises(InvalidState):
        run_protocol("teleport", None, TargetState.of((1.0, 0.0)))


def test_deterministic_table_d48_stays_small():
    """A cold d=48 table never materializes a d^2 x d^2 gate or d collapsed copies."""
    rng = np.random.default_rng(48)
    channel, target = random_positive_channel(48, rng), random_target(48, rng)
    for value in vars(rspsim.gates).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    tracemalloc.start()
    try:
        table = exact_outcome_table("deterministic", channel, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert sorted(r.outcome for r in table.rows) == [(m, m) for m in range(48)]
    for row in table.rows:
        assert abs(row.probability - abs(channel.lambdas[row.outcome[0]]) ** 2) <= 1e-12
        assert row.fidelity >= 1.0 - 1e-10


def _count_defect_checks(monkeypatch):
    """Count linalg.unitarity_defect calls made through any rspsim module."""
    calls = []
    original = rspsim.linalg.unitarity_defect

    def counted(m):
        calls.append(np.shape(m))
        return original(m)

    for module in (rspsim.linalg, rspsim.gates, rspsim.register, rspsim.protocols):
        if getattr(module, "unitarity_defect", None) is original:
            monkeypatch.setattr(module, "unitarity_defect", counted)
    return calls


def test_warm_deterministic_table_checks_unitarity_at_most_once(monkeypatch):
    rng = np.random.default_rng(32)
    channel, target = random_positive_channel(32, rng), random_target(32, rng)
    exact_outcome_table("deterministic", channel, target)
    calls = _count_defect_checks(monkeypatch)
    table = exact_outcome_table("deterministic", channel, target)
    assert len(calls) <= 1
    assert len(table.rows) == 32 and min(r.fidelity for r in table.rows) >= 1.0 - 1e-10


def test_deterministic_row_fidelity_sees_a_wrong_correction(monkeypatch):
    """Swapping entries 0 and m + 1 instead of 0 and m in V_m must show in the rows."""
    rng = np.random.default_rng(8)
    channel, target = random_positive_channel(8, rng), random_target(8, rng)
    rows = exact_outcome_table("deterministic", channel, target).rows
    assert min(r.fidelity for r in rows) >= 1.0 - 1e-10

    def off_by_one_chain(u):
        enc = u.matrix
        d = u.dim

        def fix(ms, bs):
            rows = np.arange(ms.size)
            y = bs[rows[:, None], (ms[:, None] - np.arange(d)) % d] @ enc.conj()
            j = (ms + 1) % d
            y[rows, 0], y[rows, j] = y[rows, j], y[rows, 0]
            return y @ enc.T

        return fix

    monkeypatch.setattr(rspsim.protocols, "correction_chain", off_by_one_chain)
    rows = exact_outcome_table("deterministic", channel, target).rows
    assert min(r.fidelity for r in rows) < 1.0 - 1e-3


def test_nguyen_row_fidelity_sees_a_swapped_pauli_entry(monkeypatch):
    """Correcting (mu, nu) = (0, 1) with X and (1, 1) with Z must show in the rows."""
    target = random_target(2, np.random.default_rng(9))
    rows = exact_outcome_table("nguyen", None, target).rows
    assert min(r.fidelity for r in rows) >= 1.0 - 1e-10
    table = rspsim.protocols.PAULI_TABLE
    swapped = table.copy()
    swapped[0, 1], swapped[1, 1] = table[1, 1], table[0, 1]
    monkeypatch.setattr(rspsim.protocols, "PAULI_TABLE", swapped)
    rows = exact_outcome_table("nguyen", None, target).rows
    assert min(r.fidelity for r in rows) < 1.0 - 1e-3


def test_probabilistic_row_fidelity_sees_a_dropped_phase_diagonal(monkeypatch):
    channel = ChannelSpec.of((0.6 * np.exp(0.4j), 0.8 * np.exp(-1.1j)))
    target = TargetState.of((0.6, 0.8j))
    rows = {r.outcome: r for r in exact_outcome_table("probabilistic", channel, target).rows}
    assert rows[(0,)].fidelity >= 1.0 - 1e-10
    monkeypatch.setattr(rspsim.protocols, "_nguyen_fixes",
                        lambda channel: rspsim.protocols.PAULI_TABLE)
    rows = {r.outcome: r for r in exact_outcome_table("probabilistic", channel, target).rows}
    assert rows[(0,)].fidelity < 1.0 - 1e-3


def test_no_protocol_or_oracle_path_calls_transport_unitary(monkeypatch):
    calls = []
    original = rspsim.linalg.transport_unitary

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (rspsim, rspsim.linalg, rspsim.protocols, rspsim.oracle):
        if getattr(module, "transport_unitary", None) is original:
            monkeypatch.setattr(module, "transport_unitary", counted)
    phased = ChannelSpec.of((0.6 * np.exp(0.4j), 0.8 * np.exp(-1.1j)))
    target = TargetState.of((0.6, 0.8j))
    for protocol, channel in (("nguyen", None), ("probabilistic", phased)):
        exact_outcome_table(protocol, channel, target)
        for seed in range(20):
            run_protocol(protocol, channel, target, rng=derive_rng(seed))
        rspsim.oracle.enumerate_naive(protocol, channel, target)
        rspsim.oracle.naive_branch_fidelities(protocol, channel, target)
    assert calls == []
    assert not hasattr(rspsim.protocols, "transport_unitary")
    assert not hasattr(rspsim.oracle, "_transport")


def test_deterministic_runs_succeed_with_full_fidelity():
    rng = np.random.default_rng(5)
    channel, target = random_positive_channel(5, rng), random_target(5, rng)
    for seed in range(10):
        tr = run_protocol("deterministic", channel, target, rng=derive_rng(seed))
        assert tr.success and tr.fidelity >= 1.0 - 1e-10


def test_deterministic_runs_build_no_dense_correction(monkeypatch):
    calls = []
    dense = rspsim.gates.correction_unitary

    def counted(*args, **kwargs):
        calls.append(args)
        return dense(*args, **kwargs)

    monkeypatch.setattr(rspsim.gates, "correction_unitary", counted)
    monkeypatch.setattr(rspsim.protocols, "correction_unitary", counted, raising=False)
    channel, target = ChannelSpec.of((0.6, 0.8)), TargetState.of((0.6, 0.8j))
    for seed in range(50):
        assert run_protocol("deterministic", channel, target, rng=derive_rng(seed)).success
    assert calls == []


# -- failure branches ---------------------------------------------------------


def test_failure_branch_is_not_a_success_even_at_fidelity_one():
    # The abandoned state |1> equals this target, yet the branch still failed.
    theta = np.pi / 8
    channel, target = ChannelSpec.from_theta(theta), TargetState.of((0.0, 1.0))
    table = exact_outcome_table("probabilistic", channel, target)
    rows = {r.outcome: r for r in table.rows}
    assert rows[(1,)].fidelity >= 1 - 1e-12
    assert not rows[(1,)].corrected and rows[(0,)].corrected
    assert abs(success_probability(table) - 2 * np.sin(theta) ** 2) <= 1e-12
    for seed in range(20):
        tr = run_protocol("probabilistic", channel, target, rng=derive_rng(seed))
        assert tr.success == (tr.outcome == (0,))


def test_transcript_outcome_is_its_table_label():
    channel = ChannelSpec.of((0.6, 0.8))
    target = TargetState.of((0.6, 0.8j))
    for protocol, width in (("deterministic", 2), ("probabilistic", 1), ("nguyen", 2)):
        tr = run_protocol(protocol, channel, target, rng=derive_rng(5))
        assert len(tr.outcome) == width
        assert tr.outcome in exact_outcome_table(protocol, channel, target).outcome_space


def test_deterministic_run_measures_a_and_c_jointly():
    tr = run_protocol("deterministic", ChannelSpec.of((0.6, 0.8)), TargetState.of((0.6, 0.8j)),
                      rng=derive_rng(4))
    assert [rec.subsystems for rec in tr.measurements] == [("A", "C")]
    assert tr.messages[0].outcome == tr.outcome == tr.measurements[0].outcome


def _count_constructions(monkeypatch):
    """Count validated StateRegister constructions and make_gate calls."""
    registers, gates = [], []
    init, make = rspsim.register.StateRegister.__init__, rspsim.gates.make_gate

    def counted_init(self, *args, **kwargs):
        registers.append(args[0] if args else kwargs["dims"])
        init(self, *args, **kwargs)

    def counted_make(*args, **kwargs):
        gates.append(args[2] if len(args) > 2 else kwargs["name"])
        return make(*args, **kwargs)

    monkeypatch.setattr(rspsim.register.StateRegister, "__init__", counted_init)
    for module in (rspsim.gates, rspsim.register, rspsim.protocols):
        if getattr(module, "make_gate", None) is make:
            monkeypatch.setattr(module, "make_gate", counted_make)
    return registers, gates


@pytest.mark.parametrize(
    "protocol, make_gates",
    [("deterministic", 1), ("probabilistic", 4), ("nguyen", 3)],
)
def test_a_table_validates_one_register_and_builds_each_basis_once(
        monkeypatch, protocol, make_gates):
    channel, target = ChannelSpec.of((0.5, np.sqrt(0.75))), TargetState.of((0.6, 0.8j))
    exact_outcome_table(protocol, channel, target)  # fill the gate caches
    registers, gates = _count_constructions(monkeypatch)
    table = exact_outcome_table(protocol, channel, target)
    assert registers == [(2, 2, 2)]
    assert len(gates) == make_gates, gates
    assert len(table.rows) > 1 and all(r.fidelity >= 1.0 - 1e-10 for r in table.rows if r.corrected)
    del registers[:]
    for seed in range(5):
        run_protocol(protocol, channel, target, rng=derive_rng(seed))
    assert registers == [(2, 2, 2)] * 5


@pytest.mark.parametrize("d", [2, 3, 5])
def test_start_register_is_the_channel_times_the_ancilla(d):
    rng = np.random.default_rng(40 + d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    channel = ChannelSpec.of(v / np.linalg.norm(v))
    start = rspsim.protocols._start(channel)
    ancilla = rspsim.register.basis_register((d,), (0,), labels=("C",))
    expected = rspsim.register.channel_register(channel).tensor(ancilla)
    assert (start.dims, start.labels) == (expected.dims, expected.labels)
    np.testing.assert_array_equal(start.amplitudes, expected.amplitudes)


def test_start_register_checks_the_cap_before_allocating(monkeypatch):
    """At d = 102 both entry points raise before building the register, the encoder or a shift."""
    builds = []

    def spy(name):
        build = getattr(rspsim.protocols, name)
        return lambda *args: builds.append(name) or build(*args)

    for name in ("encoding_unitary", "cadd", "csub"):
        monkeypatch.setattr(rspsim.protocols, name, spy(name))
    channel = ChannelSpec.maximal(102)  # 102^3 amplitudes would take 17 MB
    target = TargetState.of(channel.lambdas)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded):
            exact_outcome_table("deterministic", channel, target)
        with pytest.raises(CapacityExceeded):
            run_protocol("deterministic", channel, target, rng=derive_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert builds == []


# -- block leaves against a per-branch reference ------------------------------


def _reference_paths(protocol, channel, target, mode="repaired"):
    """Every path one branch at a time, in the physical frame: contract, normalize, correct.

    A basis measurement's branch is rotated back, and a leaf contracts the
    pre-measurement register with the basis columns its indices name.  Each
    yielded path is (label, p, corrected, final state, fidelity, measurement outcomes).
    """
    mode, channel, steps = rspsim.protocols._plan(protocol, channel, target, mode)
    to = target.vector()
    if protocol == "deterministic" and mode == "repaired":
        chain = rspsim.gates.correction_chain(rspsim.gates.encoding_unitary(target.amplitudes))

        def fix(outcomes, bob):
            return chain(np.array([outcomes[-1][0]]), bob[None])[0]
    elif protocol == "deterministic":
        def fix(outcomes, bob):
            gate = rspsim.gates.identity(2) if outcomes[-1][0] == 0 else rspsim.gates.pauli_z(2)
            return gate.matrix @ bob
    else:
        x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
        pauli = {(0, 0): np.eye(2), (0, 1): z, (1, 0): x @ z, (1, 1): x}
        unphase = np.diag(np.exp(-1j * np.angle(channel.lambdas)))

        def fix(outcomes, bob):  # keyed by the (mu, nu) outcomes, the last two measurements
            return pauli[outcomes[-2][0], outcomes[-1][0]] @ unphase @ bob

    def walk(reg, steps, label, p, outcomes, bases):
        *gates, last = steps
        for g in gates:
            reg = reg.apply(g.gate, g.targets, strict=g.strict)
            if abs(reg.norm - 1.0) > rspsim.linalg.STRUCT_TOL:
                reg = reg.normalized()
        measured, back = reg, None
        if last.basis is not None:
            (target_label,) = last.targets
            basis = last.basis.matrix.conj().T
            back = rspsim.gates.make_gate(basis, (basis.shape[0],), "basis")
            bases = {**bases, target_label: basis}
            measured = reg.apply(last.basis, last.targets)
        for outcome, q in measured.born_probabilities(last.targets):
            if q < rspsim.register.PROB_FLOOR:
                continue
            nxt = last.then(outcome)
            branch_label = label + outcome if last.labelled else label
            if isinstance(nxt, rspsim.protocols._Receive):
                bob = reg.contract({s: bases[s][:, k] if s in bases else k
                                    for s, k in zip(("A", "C"), nxt)})
                bob = bob / np.linalg.norm(bob)
                final = bob if last.correct is None else fix(outcomes + (outcome,), bob)
                yield (branch_label, p * q, last.correct is not None, final,
                       abs(np.vdot(final, to)) ** 2, outcomes + (outcome,))
                continue
            branch = measured.project(last.targets, outcome)[1]
            if back is not None:
                branch = branch.apply(back, last.targets)
            yield from walk(branch, nxt, branch_label, p * q, outcomes + (outcome,), bases)

    return list(walk(rspsim.protocols._start(channel), steps, (), 1.0, (), {}))


def _random_channel(d, rng, phases):
    v = rng.uniform(0.1, 1.0, size=d) * (np.exp(2j * np.pi * rng.uniform(size=d)) if phases else 1)
    return ChannelSpec.of(v / np.linalg.norm(v))


def _block_cases():
    rng = np.random.default_rng(909)
    cases = [(f"deterministic-d{d}", "deterministic", _random_channel(d, rng, True),
              random_target(d, rng), "repaired") for d in (2, 3, 8, 32)]
    cases += [
        ("literal-complex", "deterministic", _random_channel(2, rng, False),
         random_target(2, rng), "literal"),
        ("literal-real", "deterministic", _random_channel(2, rng, False),
         TargetState.of((0.28, 0.96)), "literal"),
    ]
    for name, lam in (("real", (0.6, 0.8)), ("phased", (0.6 * np.exp(0.4j), 0.8 * np.exp(-1.1j))),
                      ("alpha0", (0.0, 1.0))):
        cases.append((f"probabilistic-{name}", "probabilistic", ChannelSpec.of(lam),
                      random_target(2, rng), "repaired"))
    cases.append(("nguyen", "nguyen", None, random_target(2, rng), "repaired"))
    return cases


@pytest.mark.parametrize("protocol, channel, target, mode",
                         [c[1:] for c in _block_cases()], ids=[c[0] for c in _block_cases()])
def test_block_leaves_match_the_per_branch_reference(protocol, channel, target, mode):
    paths = _reference_paths(protocol, channel, target, mode)
    folded = {}
    for label, p, corrected, final, fidelity, _ in paths:
        if label in folded:
            q, bob, f, c = folded[label]
            folded[label] = (q + p, bob, min(f, fidelity), c and corrected)
        else:
            folded[label] = (p, final, fidelity, corrected)
    rows = exact_outcome_table(protocol, channel, target, mode).rows
    assert [r.outcome for r in rows] == list(folded)
    for row in rows:
        p, bob, fidelity, corrected = folded[row.outcome]
        assert row.corrected == corrected
        assert abs(row.probability - p) <= 1e-12
        assert abs(row.fidelity - fidelity) <= 1e-12
        np.testing.assert_allclose(row.bob_state, bob, rtol=0, atol=1e-12)
        assert not row.bob_state.flags.writeable  # rows share no writable memory
    by_outcomes = {path[5]: path for path in paths}
    for seed in range(6):
        tr = run_protocol(protocol, channel, target, mode, derive_rng(seed))
        label, p, corrected, final, fidelity, _ = by_outcomes[
            tuple(r.outcome for r in tr.measurements)]
        assert tr.outcome == label
        assert abs(np.prod([r.probability for r in tr.measurements]) - p) <= 1e-12
        assert abs(tr.fidelity - fidelity) <= 1e-12
        np.testing.assert_allclose(tr.bob_state, final, rtol=0, atol=1e-12)
        assert tr.success == (corrected and fidelity >= 1.0 - rspsim.protocols.SUCCESS_TOL)


def _frame_violations(steps, d, measured=frozenset(), seen=None):
    """(gate, subsystem) for each gate, on any branch, that acts on a subsystem measured in a basis.

    ``seen`` collects the targets of every basis measurement visited.
    """
    *gates, last = steps
    bad = [(g.gate.name, t) for g in gates for t in g.targets if t in measured]
    if last.basis is not None:
        measured = measured | set(last.targets)
        if seen is not None:
            seen.extend(last.targets)
    for outcome in itertools.product(range(d), repeat=len(last.targets)):
        nxt = last.then(outcome)
        if not isinstance(nxt, rspsim.protocols._Receive):
            bad += _frame_violations(nxt, d, measured, seen)
    return bad


@pytest.mark.parametrize("protocol, channel, mode, basis_measured", [
    ("deterministic", ChannelSpec.of((0.6, 0.48, 0.64)), "repaired", []),
    ("deterministic", ChannelSpec.of((0.6, 0.8)), "literal", []),
    ("probabilistic", ChannelSpec.of((0.6, 0.8)), "repaired", ["A", "C", "C"]),
    ("probabilistic", ChannelSpec.of((0.0, 1.0)), "repaired", ["A", "C", "C"]),
    ("nguyen", None, "repaired", ["A", "C", "C"]),
], ids=["deterministic", "literal", "probabilistic", "probabilistic-alpha0", "nguyen"])
def test_no_gate_acts_on_a_subsystem_left_in_its_measured_basis(protocol, channel, mode,
                                                                basis_measured):
    """A basis-measured branch is never rotated back, so no later gate may touch that subsystem."""
    d = 2 if channel is None else channel.d
    target = TargetState.of(np.full(d, 1 / np.sqrt(d)) * np.exp(0.3j * np.arange(d)))
    _, _, steps = rspsim.protocols._plan(protocol, channel, target, mode)
    seen = []
    assert _frame_violations(steps, d, seen=seen) == []
    assert seen == basis_measured


def test_frame_guard_sees_a_gate_after_a_basis_measurement():
    _Gate, _Measure = rspsim.protocols._Gate, rspsim.protocols._Measure
    rot = rspsim.register._basis_gates(np.eye(2), 2)
    late = [_Gate(rspsim.gates.pauli_x(2), ("A",)),
            _Measure(("C",), lambda outcome: rspsim.protocols._Receive(0, outcome[0]))]
    steps = [_Measure(("A",), lambda outcome: late, rot)]
    assert _frame_violations(steps, 2) == [("X2", "A"), ("X2", "A")]


def test_a_warm_d32_table_finishes_its_leaves_as_one_block(monkeypatch):
    """No per-branch contraction, and one correction-chain call for all 32 branches."""
    rng = np.random.default_rng(32)
    channel, target = random_positive_channel(32, rng), random_target(32, rng)
    exact_outcome_table("deterministic", channel, target)
    contracts, chain_rows = [], []
    contract, chain = rspsim.register.StateRegister.contract, rspsim.protocols.correction_chain

    def counted_contract(self, states):
        contracts.append(states)
        return contract(self, states)

    def counted_chain(u):
        fix = chain(u)

        def counted_fix(ms, bs):
            chain_rows.append(len(bs))
            return fix(ms, bs)

        return counted_fix

    monkeypatch.setattr(rspsim.register.StateRegister, "contract", counted_contract)
    monkeypatch.setattr(rspsim.protocols, "correction_chain", counted_chain)
    table = exact_outcome_table("deterministic", channel, target)
    assert contracts == []
    assert chain_rows == [32]
    assert len(table.rows) == 32 and min(r.fidelity for r in table.rows) >= 1.0 - 1e-10


@pytest.mark.parametrize("kind", ["basis"])
def test_block_rows_keep_their_own_state_and_fidelity(kind):
    """Uncorrected leaves of distinct fidelity: a row swapped anywhere in the block shows."""
    rng = np.random.default_rng(17)
    channel, target = _random_channel(8, rng, True), random_target(8, rng)
    _, _, steps = rspsim.protocols._plan("deterministic", channel, target, "repaired")
    reg = rspsim.protocols._start(channel)
    for g in steps[:-1]:
        reg = reg.apply(g.gate, g.targets)
    leaves = [((m, m), rspsim.protocols._Receive(m, m)) for m in (5, 0, 3, 6)]
    rows = list(rspsim.protocols._finish(target.vector(), reg, leaves, None))
    for (_, leaf), (desc, bob, fidelity) in zip(leaves, rows):
        ref = reg.contract({"A": leaf.a, "C": leaf.c})
        ref = ref / np.linalg.norm(ref)
        assert desc == "none (failure branch)"
        np.testing.assert_allclose(bob, ref, rtol=0, atol=1e-12)
        assert abs(fidelity - abs(np.vdot(ref, target.vector())) ** 2) <= 1e-12
    assert len({round(f, 6) for _, _, f in rows}) == len(rows)
