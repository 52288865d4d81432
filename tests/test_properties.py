"""Property tests over random dimensions, channels and targets.

Exact tables must match the naive oracle's probabilities and fidelities,
carry unit probability mass and correct every branch the protocol does not
declare failed; a sampled run must land on a table row and carry that row's
probability in its records; the receiver's correction must not read the
target.  Examples are derandomized, so the suite stays deterministic.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rspsim.oracle import (
    _naive_pass,
    compare_exact,
    enumerate_naive,
    table_distribution,
)
from rspsim.protocols import (
    SUCCESS_TOL,
    ChannelSpec,
    TargetState,
    _plan,
    exact_outcome_table,
    run_protocol,
    success_probability,
)
from rspsim.register import derive_rng

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def unit_vectors(draw, d, complex_entries=None):
    if complex_entries is None:
        complex_entries = draw(st.booleans())
    parts = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    v = np.array(draw(parts), dtype=complex)
    if complex_entries:
        v = v + 1j * np.array(draw(parts))
    norm = np.linalg.norm(v)
    assume(norm > 0.1)
    return v / norm


@st.composite
def deterministic_configs(draw):
    d = draw(st.integers(2, 5))
    return ("deterministic", ChannelSpec.of(draw(unit_vectors(d))),
            TargetState.of(draw(unit_vectors(d))))


@st.composite
def probabilistic_configs(draw):
    alpha = draw(st.floats(0.05, 1.0 / np.sqrt(2.0)))
    phases = np.exp(1j * np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=2,
                                                 max_size=2))))
    channel = ChannelSpec.of(np.array([alpha, np.sqrt(1.0 - alpha * alpha)]) * phases)
    return "probabilistic", channel, TargetState.of(draw(unit_vectors(2)))


@st.composite
def nguyen_configs(draw):
    return "nguyen", None, TargetState.of(draw(unit_vectors(2)))


def any_configs():
    return st.one_of(deterministic_configs(), probabilistic_configs(), nguyen_configs())


def check_table(protocol, channel, target):
    table = exact_outcome_table(protocol, channel, target)
    report = compare_exact(table_distribution(table), enumerate_naive(protocol, channel, target))
    assert report.passed, report
    assert abs(sum(r.probability for r in table.rows) - 1.0) <= 1e-12
    # A folded row's naive fidelity is already the minimum over its paths.
    naive = _naive_pass(protocol, channel, target, "repaired")[1]
    for row in table.rows:
        assert row.fidelity >= 1.0 - 1e-10 or not row.corrected
        assert abs(row.fidelity - naive[row.outcome]) <= 1e-10
    return table


@PROPERTY
@given(deterministic_configs())
def test_deterministic_table_matches_naive_and_corrects_every_branch(config):
    table = check_table(*config)
    assert all(row.corrected for row in table.rows)
    assert abs(success_probability(table) - 1.0) <= 1e-12


@PROPERTY
@given(probabilistic_configs())
def test_probabilistic_table_matches_naive_and_succeeds_with_2_alpha_squared(config):
    _protocol, channel, _target = config
    table = check_table(*config)
    assert [r.outcome for r in table.rows if not r.corrected] == [(1,)]
    alpha = abs(channel.lambdas[0])
    assert abs(success_probability(table) - 2.0 * alpha * alpha) <= 1e-12


@PROPERTY
@given(nguyen_configs())
def test_nguyen_table_matches_naive_with_four_corrected_quarters(config):
    table = check_table(*config)
    assert len(table.rows) == 4
    for row in table.rows:
        assert row.corrected and abs(row.probability - 0.25) <= 1e-12


@PROPERTY
@given(any_configs(), st.integers(0, 2**32 - 1))
def test_sampled_run_lands_on_a_table_row_with_its_probability(config, seed):
    protocol, channel, target = config
    table = exact_outcome_table(protocol, channel, target)
    rows = {row.outcome: row for row in table.rows}
    tr = run_protocol(protocol, channel, target, rng=derive_rng(seed))
    assert tr.outcome in rows
    row = rows[tr.outcome]
    # The probabilistic completion's measurements are not part of the label.
    labelled = tr.measurements[:1] if protocol == "probabilistic" else tr.measurements
    assert abs(np.prod([rec.probability for rec in labelled]) - row.probability) <= 1e-12
    assert tr.success == (row.corrected and row.fidelity >= 1.0 - SUCCESS_TOL)


def nu_corrections(protocol, channel, target):
    """Description and matrix (applied to the rows of I) of each (mu, nu) message's correction."""
    _mode, _channels, steps = _plan(protocol, [channel], target, "repaired")
    if protocol == "probabilistic":
        steps = steps[-1].then((0,))  # the completed branch
    measure_mu = steps[-1]
    out = {}
    for i in range(2):
        measure_nu = measure_mu.then((i,))[-1]
        for j in range(2):
            out[i, j] = (measure_nu.describe((j,)),
                         measure_nu.correct(np.full((2, 1), j), np.zeros(2, int), np.eye(2, dtype=complex)))
    return out


@PROPERTY
@given(st.one_of(probabilistic_configs(), nguyen_configs()), unit_vectors(2))
def test_correction_reads_only_the_message_and_the_channel(config, other):
    protocol, channel, target = config
    first = nu_corrections(protocol, channel, target)
    second = nu_corrections(protocol, channel, TargetState.of(other))
    for message, (desc, matrix) in first.items():
        assert second[message][0] == desc
        np.testing.assert_array_equal(second[message][1], matrix)
