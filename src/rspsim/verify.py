"""Named invariant checks behind the CLI ``verify`` subcommand.

Each check is named once, in ``_SUITE_CHECKS``, measures something
concrete and gives its verdict through one rule, :func:`_judged`: a
roundoff residual passes iff it is at most its tolerance, and prints as
``label<=tol`` when it passes and with its value when it fails.  So the
report changes only when a verdict does, and a failure names the broken
invariant.  Figures that are not roundoff, such as z-scores and
tomography medians, print their values.  A check that raises an rspsim
error fails with that error, and the suite goes on.  All randomness is
seeded, so a report is byte-stable for a given (suite, seed, trials).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import gates, oracle, tomography
from .errors import InvalidState, SimulationError
from .protocols import (
    ChannelSpec,
    TargetState,
    _probabilistic_steps,
    _start,
    exact_outcome_table,
    exact_outcome_tables,
    run_protocol,
    success_probability,
)
from .register import StateRegister, derive_rng

# Random configurations per protocol case in the fast-vs-naive oracle check.
_CONFIGS_PER_CASE = 30


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str


def _random_target(d: int, rng: np.random.Generator) -> TargetState:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return TargetState.of(v / np.linalg.norm(v))


def _random_channel(d: int, rng: np.random.Generator) -> ChannelSpec:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)  # Schmidt phases
    return ChannelSpec.of(v / np.linalg.norm(v))


def _concentrable_channel(rng: np.random.Generator) -> ChannelSpec:
    """A phased qubit channel with 0.05 <= |lambda_0| <= 1/sqrt2 <= |lambda_1|."""
    alpha = float(rng.uniform(0.05, 1.0 / np.sqrt(2.0)))
    phases = np.exp(2j * np.pi * rng.uniform(size=2))
    return ChannelSpec.of(phases * (alpha, np.sqrt(1.0 - alpha * alpha)))


def _random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------


def _judged(residuals: Sequence[tuple[str, float | Sequence[float], float]],
            *figures: str, holds: bool = True) -> tuple[bool, str]:
    """The one verdict rule, as (passed, measured): pass iff ``holds`` and each residual
    is at most its tolerance.

    A residual is (label, value or values, tolerance), judged by its
    largest value; NaN fails.  A passing residual prints as ``label<=tol``
    and a failing one with its value, so roundoff changes the report only
    when it changes a verdict.  ``figures`` are printed first, as given.
    """
    shown, passed = list(figures), holds
    for label, values, tol in residuals:
        value = float(np.max(values))  # NaN propagates
        within = value <= tol
        passed = passed and within
        shown.append(f"{label}<={tol:g}" if within else f"{label}={value:.3e}>{tol:g}")
    return passed, " ".join(shown)


def _check_pauli_cyclic(seed: int) -> tuple[bool, str]:
    errs = [np.abs(np.linalg.matrix_power(g.matrix, d) - np.eye(d)).max()
            for d in (2, 3, 5) for g in (gates.pauli_x(d), gates.pauli_z(d))]
    return _judged([("max|G^d - I|", errs, 1e-12)])


def _check_shift_permutation(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 101)
    ok = True
    for d in (2, 3, 5, 7):
        tables = [tuple(range(d)), tuple((-i) % d for i in range(d))]
        tables.append(tuple(int(rng.integers(0, d)) for _ in range(d)))
        for t in tables:
            m = gates.controlled_shift(d, t).matrix.real
            is_perm = (
                np.all((m == 0.0) | (m == 1.0))
                and np.all(m.sum(axis=0) == 1.0)
                and np.all(m.sum(axis=1) == 1.0)
            )
            ok = ok and bool(is_perm)
    return _judged((), f"permutation={ok}", holds=ok)


def _check_literal_defect(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 102)
    errs = []
    for _ in range(100):
        x0 = float(rng.uniform(0.0, 1.0))
        x1 = float(np.sqrt(1.0 - x0 * x0))
        th = float(rng.uniform(-np.pi, np.pi))
        g = gates.encoding_unitary_literal(x0, x1, th)
        errs.append(abs(g.defect - 2.0 * np.sqrt(2.0) * x0 * x1 * abs(np.sin(th))))
    zeros = [gates.encoding_unitary_literal(0.6, 0.8, th).defect for th in (0.0, np.pi)]
    return _judged([("max|defect-closed|", errs, 1e-10), ("defect at 0,pi", zeros, 1e-10)])


def _check_encoder_completion(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 103)
    defects, col_errs = [], []
    for d in range(2, 9):
        t = _random_target(d, rng)
        g = gates.encoding_unitary(t.amplitudes)
        defects.append(g.defect)
        col_errs.append(np.abs(g.matrix[:, 0] - t.vector()).max())
    return _judged([("max defect", defects, 1e-12), ("max column error", col_errs, 0.0)])


def _check_correction_exactness(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 104)
    errs = []
    for d in range(2, 9):
        u = gates.make_gate(_random_unitary(d, rng), (d,), f"R{d}")
        fix = gates.correction_chain(u)
        for m in range(d):
            b = np.zeros(d, dtype=complex)
            for n in range(d):
                b[(m - n) % d] += u.matrix[n, m]
            vb = fix(np.array([m]), b[None])[0]
            errs.append(np.abs(vb - u.matrix[:, 0]).max())
    return _judged([("max|V b - U e0|", errs, 1e-11)])


def _check_concentration_structure(seed: int) -> tuple[bool, str]:
    """The probabilistic step list's CADD(A->C) and controlled-U, run from its start state."""
    rng = derive_rng(seed, 105)
    target = TargetState.of((0.6, 0.8j))  # read only by the steps after these two
    errs = []
    for _ in range(20):
        channel = _concentrable_channel(rng)
        reg = _start([channel])
        for g in _probabilistic_steps([channel], target)[:2]:
            reg = reg.apply(g.gate, g.targets)
        lam0, lam1 = channel.lambdas
        expected = np.zeros((2, 2, 2), dtype=complex)  # axes A, B, C
        expected[0, 0, 0] = lam0
        expected[1, 1, 1] = lam1 * abs(lam0) / abs(lam1)
        expected[1, 1, 0] = lam1 * np.sqrt(1.0 - abs(lam0) ** 2 / abs(lam1) ** 2)
        expected = expected.transpose(["ABC".index(label) for label in reg.labels])
        errs.append(np.abs(reg.amplitudes.reshape(reg.dims) - expected).max())
    return _judged([("max amp error", errs, 1e-12)])


def _check_deterministic_exact(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 201)
    p_errs, f_errs = [], []
    for d in range(2, 9):
        for _ in range(3):
            table = exact_outcome_table(
                "deterministic", _random_channel(d, rng), _random_target(d, rng)
            )
            p_errs.append(abs(success_probability(table) - 1.0))
            f_errs += [1.0 - r.fidelity for r in table.rows]
    return _judged([("max|P-1|", p_errs, 1e-12), ("1-min fidelity", f_errs, 1e-10)])


def _check_probabilistic_curve(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 202)
    target = _random_target(2, rng)
    thetas = np.linspace(0.0, np.pi / 4.0, 21)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=thetas.size))  # Schmidt phases
    channels = [ChannelSpec.of((np.sin(t), np.cos(t) * ph)) for t, ph in zip(thetas, phases)]
    tables = exact_outcome_tables("probabilistic", channels, target)
    errs = [abs(success_probability(table) - 2.0 * np.sin(theta) ** 2)
            for theta, table in zip(thetas, tables)]
    return _judged([("max|P-2sin^2|", errs, 1e-12)])


def _check_nguyen_quarters(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 203)
    p_errs, f_errs, rows = [], [], set()
    for _ in range(20):
        table = exact_outcome_table("nguyen", None, _random_target(2, rng))
        p_errs += [abs(r.probability - 0.25) for r in table.rows]
        f_errs += [1.0 - r.fidelity for r in table.rows]
        rows.add(len(table.rows))
    return _judged([("max|p-1/4|", p_errs, 1e-12), ("1-min fidelity", f_errs, 1e-12)],
                   holds=rows == {4})


def _check_literal_theta0(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 204)
    diffs, same_labels = [], True
    for _ in range(10):
        x0 = float(rng.uniform(0.0, 1.0))
        target = TargetState.of((x0, np.sqrt(1.0 - x0 * x0)))
        channel = _random_channel(2, rng)
        lit = exact_outcome_table("deterministic", channel, target, mode="literal")
        rep = exact_outcome_table("deterministic", channel, target, mode="repaired")
        same_labels = same_labels and [r.outcome for r in lit.rows] == [r.outcome for r in rep.rows]
        for a, b in zip(lit.rows, rep.rows):
            diffs += [abs(a.probability - b.probability), abs(a.fidelity - b.fidelity)]
    return _judged([("max diff", diffs, 1e-12)], holds=same_labels)


def _check_literal_flag(seed: int) -> tuple[bool, str]:
    target = TargetState.of((1 / np.sqrt(2), 1j / np.sqrt(2)))
    tr = run_protocol(
        "deterministic", ChannelSpec.of((0.6, 0.8j)), target, "literal", derive_rng(seed, 205)
    )
    defect = max(s.defect for s in tr.steps if s.non_unitary) if tr.has_non_unitary_step else 0.0
    # The printed operator acts norm-preservingly on the protocol states,
    # so the raw norm stays 1 even though the operator defect is large.
    return _judged([("|raw_norm-1|", abs((tr.raw_norm or 0.0) - 1.0), 1e-12)],
                   f"flagged defect={defect:.6f}", holds=tr.has_non_unitary_step and defect > 1e-6)


def _check_oracle_exact(seed: int) -> tuple[bool, str]:
    """Each fast table row's probability and fidelity against the naive path's."""
    rng = derive_rng(seed, 301)
    cases = [("deterministic", _random_channel(d, rng), _random_target(d, rng))
             for d in (2, 3, 4) for _ in range(_CONFIGS_PER_CASE)]
    cases += [("probabilistic", _concentrable_channel(rng), _random_target(2, rng))
              for _ in range(_CONFIGS_PER_CASE)]
    cases += [("nguyen", None, _random_target(2, rng)) for _ in range(_CONFIGS_PER_CASE)]
    dp, df, loss = [], [], []
    for protocol, channel, target in cases:
        table = exact_outcome_table(protocol, channel, target)
        dist, naive = oracle._naive_pass(protocol, channel, target, "repaired")
        dp.append(oracle.compare_exact(oracle.table_distribution(table), dist).max_stat)
        df += [abs(row.fidelity - naive.get(row.outcome, np.nan)) for row in table.rows]
        if protocol == "deterministic":
            loss += [1.0 - f for f in naive.values()]
    return _judged([("max|dp|", dp, oracle.EXACT_TOL), ("max|dF|", df, 1e-10),
                    ("1-min naive deterministic F", loss, 1e-10)], f"cases={len(cases)}")


def _check_oracle_sampled(seed: int, trials: int = 10_000) -> tuple[bool, str]:
    rng = derive_rng(seed, 302)
    reports = []
    specs = [
        ("deterministic", ChannelSpec.of((0.6, 0.8j))),
        ("probabilistic", ChannelSpec.of((0.6, 0.8j))),
        ("nguyen", None),
    ]
    for k, (protocol, channel) in enumerate(specs):
        target = _random_target(2, rng)
        dist = oracle.enumerate_naive(protocol, channel, target)
        reports.append(oracle.compare_sampled(dist, trials=trials, seed=seed + 7000 + k))
    worst = max(rep.max_stat for rep in reports)
    return _judged((), f"trials={trials}", f"max|z|={worst:.3f}",
                   holds=all(rep.passed for rep in reports))


def _check_bloch_formulas(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 401)
    errs = []
    for _ in range(20):
        x0 = float(rng.uniform(0.0, 1.0))
        x1 = float(np.sqrt(1.0 - x0 * x0))
        th = float(rng.uniform(-np.pi, np.pi))
        psi = np.array([x0, x1 * np.exp(1j * th)])
        rx, ry, rz = tomography.exact_bloch(StateRegister((2,), psi))
        errs += [abs(rx - 2 * x0 * x1 * np.cos(th)), abs(ry - 2 * x0 * x1 * np.sin(th)),
                 abs(rz - (x0 * x0 - x1 * x1))]
    return _judged([("max err", errs, 1e-12)])


def _check_tomo_physicality(seed: int) -> tuple[bool, str]:
    rng = derive_rng(seed, 402)
    trace_errs, negative_eigs, herm_errs = [], [], []
    for _ in range(200):
        r = rng.uniform(-1.5, 1.5, size=3)
        rho = tomography.reconstruct_qubit(
            tomography.PauliEstimates(r[0], r[1], r[2], (1, 1, 1))
        ).entries
        trace_errs.append(abs(float(np.trace(rho).real) - 1.0))
        negative_eigs.append(max(0.0, float(-np.linalg.eigvalsh(rho).min())))
        herm_errs.append(np.abs(rho - rho.conj().T).max())
    return _judged([
        ("max|tr-1|", trace_errs, 1e-10), ("max negative eig", negative_eigs, 1e-10),
        ("max|rho-rho^dag|", herm_errs, 1e-10),
    ])


def _check_tomo_convergence(seed: int) -> tuple[bool, str]:
    reg = StateRegister((2,), np.array([0.6, 0.8j]))
    medians = []
    for k, shots in enumerate((10**3, 10**4, 10**5, 10**6)):
        dists = [tomography.tomograph(reg, shots, derive_rng(seed, 403, k, s)).trace_distance
                 for s in range(50)]
        medians.append(float(np.median(dists)))
    return _judged((), "medians=" + "/".join(f"{m:.2e}" for m in medians),
                   holds=all(b < a for a, b in zip(medians, medians[1:])))


# Every check under its one name, by suite; a check returns (passed, measured).
_SUITE_CHECKS: dict[str, dict[str, Callable[..., tuple[bool, str]]]] = {
    "gates": {
        "gates.pauli_cyclic_order_d": _check_pauli_cyclic,
        "gates.controlled_shift_is_permutation": _check_shift_permutation,
        "gates.literal_defect_closed_form": _check_literal_defect,
        "gates.encoder_column_and_unitarity": _check_encoder_completion,
        "gates.correction_maps_branch_to_target": _check_correction_exactness,
        "gates.concentration_three_amplitudes": _check_concentration_structure,
    },
    "protocols": {
        "protocols.deterministic_success_is_1": _check_deterministic_exact,
        "protocols.probabilistic_success_2sin2": _check_probabilistic_curve,
        "protocols.nguyen_four_quarters": _check_nguyen_quarters,
        "protocols.literal_equals_repaired_at_theta0": _check_literal_theta0,
        "protocols.literal_mode_flags_defect": _check_literal_flag,
    },
    "oracle": {
        "oracle.fast_vs_naive_agreement": _check_oracle_exact,
        "oracle.sampled_frequencies_4sigma": _check_oracle_sampled,
    },
    "tomo": {
        "tomo.bloch_matches_analytic": _check_bloch_formulas,
        "tomo.projection_physicality": _check_tomo_physicality,
        "tomo.median_distance_decreases_with_shots": _check_tomo_convergence,
    },
}

# The suite names in report order, for the CLI and for "all".
SUITES = tuple(_SUITE_CHECKS)


def run_suite(suite: str, seed: int = 0, oracle_trials: int = 10_000) -> list[CheckResult]:
    """Run every check of one named suite, or of all of them.

    A check that raises an rspsim error fails with ``<type>: <message>``, so
    one broken invariant does not hide the verdicts of the other checks.
    """
    if suite == "all":
        names = SUITES
    elif suite in _SUITE_CHECKS:
        names = (suite,)
    else:
        raise InvalidState(f"unknown suite {suite!r}; expected all or one of {SUITES}")
    results = []
    for name in names:
        for check_name, check in _SUITE_CHECKS[name].items():
            kwargs = {"trials": oracle_trials} if check is _check_oracle_sampled else {}
            try:
                passed, measured = check(seed, **kwargs)
            except SimulationError as exc:
                passed, measured = False, f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(check_name, passed, measured))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.measured}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
