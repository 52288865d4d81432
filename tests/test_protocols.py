import tracemalloc

import numpy as np
import pytest

import rspsim.gates
import rspsim.linalg
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

        def fix(m, b):
            y = enc.conj().T @ b[(m - np.arange(d)) % d]
            j = (m + 1) % d
            y[[0, j]] = y[[j, 0]]
            return enc @ y

        return fix

    monkeypatch.setattr(rspsim.protocols, "correction_chain", off_by_one_chain)
    rows = exact_outcome_table("deterministic", channel, target).rows
    assert min(r.fidelity for r in rows) < 1.0 - 1e-3


def test_deterministic_run_reports_the_dense_correction():
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


def test_start_register_checks_the_cap_before_allocating():
    channel = ChannelSpec.maximal(102)  # 102^3 amplitudes would take 17 MB
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded):
            rspsim.protocols._start(channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
