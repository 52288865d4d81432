"""Mutants of the program that ``rspsim verify all`` must see.

Each mutant monkeypatches one program name; no source is edited.  It runs
``run_suite("all", 0, oracle_trials=100)``, and the checks that fail must
be exactly the ones pinned.  An equivalent mutant changes nothing any check can observe: it is listed
with the reason, and no check may fail.  No mutant may make the suite
raise.
"""

import numpy as np
import pytest

import rspsim.gates
import rspsim.protocols
from rspsim.verify import run_suite

P = rspsim.protocols

DET_1 = "protocols.deterministic_success_is_1"
CURVE = "protocols.probabilistic_success_2sin2"
QUARTERS = "protocols.nguyen_four_quarters"
LITERAL = "protocols.literal_equals_repaired_at_theta0"
ORACLE = "oracle.fast_vs_naive_agreement"
SAMPLED = "oracle.sampled_frequencies_4sigma"
CONCENTRATION = "gates.concentration_three_amplitudes"
CORRECTION = "gates.correction_maps_branch_to_target"


def pauli_entries_swapped(mp):
    """The message (0,1) gets X and (1,1) gets Z; literal mode's sigma_z is entry (0,1) too."""
    table = P.PAULI_TABLE.copy()
    table[0, 1], table[1, 1] = P.PAULI_TABLE[1, 1], P.PAULI_TABLE[0, 1]
    mp.setattr(P, "PAULI_TABLE", table)


def phase_diagonal_dropped(mp):
    """The curve's and the oracle's channels carry Schmidt phases, so the diagonal is not I."""
    mp.setattr(P, "_nguyen_fixes",
               lambda channels: np.broadcast_to(P.PAULI_TABLE, (len(channels), 2, 2, 2, 2)))


def completion_without_its_cadd(mp):
    steps_of = P._probabilistic_steps

    def steps(channels, target):
        *gates, measure = steps_of(channels, target)
        then = measure.then
        return [*gates, measure._replace(
            then=lambda out: then(out) if out == (1,) else then(out)[1:])]

    mp.setattr(P, "_probabilistic_steps", steps)


def csub_is_cadd(mp):
    mp.setattr(P, "csub", rspsim.gates.cadd)


def leaf_reversed(mp):
    received = P._received
    mp.setattr(P, "_received", lambda reg, rows, others: received(reg, rows, others[::-1]))


def phase_gate_is_identity(mp):
    bases = P.nguyen_bases

    def no_phase(a, b, gamma):
        mu, nu, _ = bases(a, b, gamma)
        return mu, nu, rspsim.gates.make_gate(np.eye(2), (2,), "P_C")

    mp.setattr(P, "nguyen_bases", no_phase)


def every_branch_succeeds(mp):
    mp.setattr(P, "succeeded", lambda corrected, fidelity: True)


def encoder_columns_reversed(mp):
    encoder = P.encoding_unitary

    def reversed_columns(target):
        u = encoder(target)
        return rspsim.gates.make_gate(u.matrix[:, ::-1], u.dims, u.name)

    mp.setattr(P, "encoding_unitary", reversed_columns)


def correction_without_negation(mp):
    gathers = rspsim.gates._chain_gathers

    def no_negation(d):
        _, swap = gathers(d)
        return np.broadcast_to(np.arange(d), (d, d)), swap

    mp.setattr(rspsim.gates, "_chain_gathers", no_negation)


def concentration_block_transposed(mp):
    """|1,1,0> after the controlled-U flips sign; the failure branch's B takes only a global phase."""
    build = P.cu_concentration

    def transposed(alpha, beta):
        g = build(alpha, beta)
        m = g.matrix.copy()
        m[..., 2:, 2:] = np.swapaxes(m[..., 2:, 2:], -1, -2)
        return rspsim.gates.make_gate(m, g.dims, g.name)

    mp.setattr(P, "cu_concentration", transposed)


def pick_on_the_left(mp):
    """Equivalent: side="left" differs from "right" only when a uniform equals a CDF entry exactly."""
    mp.setattr(P, "_pick", lambda cdf, u: np.searchsorted(cdf, u, side="left"))


# (patch, the checks that fail)
MUTANTS = {
    "pauli_entries_swapped": (pauli_entries_swapped, {CURVE, QUARTERS, LITERAL, ORACLE}),
    "phase_diagonal_dropped": (phase_diagonal_dropped, {CURVE, ORACLE}),
    "completion_without_its_cadd": (completion_without_its_cadd, {CURVE, ORACLE}),
    "csub_is_cadd": (csub_is_cadd, {DET_1, ORACLE}),
    "leaf_reversed": (leaf_reversed, {CURVE, QUARTERS, ORACLE, SAMPLED}),
    "phase_gate_is_identity": (phase_gate_is_identity, {CURVE, QUARTERS, ORACLE}),
    "every_branch_succeeds": (every_branch_succeeds, {CURVE}),
    "encoder_columns_reversed": (encoder_columns_reversed, {DET_1, LITERAL, ORACLE}),
    "correction_without_negation": (correction_without_negation,
                                    {CORRECTION, DET_1, LITERAL, ORACLE}),
    "concentration_block_transposed": (concentration_block_transposed, {CONCENTRATION}),
    "pick_on_the_left": (pick_on_the_left, set()),  # equivalent, see its docstring
}


@pytest.mark.parametrize("patch, fails", MUTANTS.values(), ids=MUTANTS.keys())
def test_verify_fails_exactly_the_pinned_checks(monkeypatch, patch, fails):
    patch(monkeypatch)
    results = run_suite("all", 0, oracle_trials=100)
    assert {r.name for r in results if not r.passed} == fails, results
