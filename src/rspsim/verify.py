"""Named invariant checks behind the CLI ``verify`` subcommand.

Each check measures something concrete and gives its verdict through one
rule, :func:`_judged`: a roundoff residual passes iff it is at most its
tolerance, and prints as ``label<=tol`` when it passes and with its value
when it fails.  So the report changes only when a verdict does, and a
failure names the broken invariant.  Figures that are not roundoff, such
as z-scores and tomography medians, print their values.  All randomness
is seeded, so a report is byte-stable for a given (suite, seed, trials).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import gates, oracle, tomography
from .protocols import (
    ChannelSpec,
    TargetState,
    exact_outcome_table,
    run_protocol,
    success_probability,
)
from .register import StateRegister, basis_register, channel_register, derive_rng

SUITES = ("gates", "protocols", "oracle", "tomo")

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


def _random_channel(d: int, rng: np.random.Generator, positive: bool = False) -> ChannelSpec:
    if positive:
        v = rng.uniform(0.1, 1.0, size=d).astype(complex)
    else:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return ChannelSpec.of(v / np.linalg.norm(v))


def _random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------


def _judged(name: str, residuals: Sequence[tuple[str, float | Sequence[float], float]],
            *figures: str, holds: bool = True) -> CheckResult:
    """The one verdict rule: pass iff ``holds`` and each residual is at most its tolerance.

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
    return CheckResult(name, passed, " ".join(shown))


def _check_pauli_cyclic(seed: int) -> CheckResult:
    errs = [np.abs(np.linalg.matrix_power(g.matrix, d) - np.eye(d)).max()
            for d in (2, 3, 5) for g in (gates.pauli_x(d), gates.pauli_z(d))]
    return _judged("gates.pauli_cyclic_order_d", [("max|G^d - I|", errs, 1e-12)])


def _check_shift_permutation(seed: int) -> CheckResult:
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
    return _judged("gates.controlled_shift_is_permutation", (), f"permutation={ok}", holds=ok)


def _check_literal_defect(seed: int) -> CheckResult:
    rng = derive_rng(seed, 102)
    errs = []
    for _ in range(100):
        x0 = float(rng.uniform(0.0, 1.0))
        x1 = float(np.sqrt(1.0 - x0 * x0))
        th = float(rng.uniform(-np.pi, np.pi))
        g = gates.encoding_unitary_literal(x0, x1, th)
        errs.append(abs(g.defect - 2.0 * np.sqrt(2.0) * x0 * x1 * abs(np.sin(th))))
    return _judged("gates.literal_defect_closed_form", [("max|defect-closed|", errs, 1e-10)])


def _check_encoder_completion(seed: int) -> CheckResult:
    rng = derive_rng(seed, 103)
    defects, col_errs = [], []
    for d in range(2, 9):
        t = _random_target(d, rng)
        g = gates.encoding_unitary(t.amplitudes)
        defects.append(g.defect)
        col_errs.append(np.abs(g.matrix[:, 0] - t.vector()).max())
    return _judged("gates.encoder_column_and_unitarity",
                   [("max defect", defects, 1e-12), ("max column error", col_errs, 0.0)])


def _check_correction_exactness(seed: int) -> CheckResult:
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
    return _judged("gates.correction_maps_branch_to_target", [("max|V b - U e0|", errs, 1e-11)])


def _check_concentration_structure(seed: int) -> CheckResult:
    rng = derive_rng(seed, 105)
    errs = []
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 1.0 / np.sqrt(2.0)))
        beta = float(np.sqrt(1.0 - alpha * alpha))
        reg = channel_register(ChannelSpec.of((alpha, beta)))
        reg = reg.tensor(basis_register((2,), (0,), labels=("C",)))
        reg = reg.apply(gates.cadd(2), ["A", "C"])
        reg = reg.apply(gates.cu_concentration(alpha, beta), ["A", "C"])
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = alpha
        expected[0b111] = alpha
        expected[0b110] = np.sqrt(beta * beta - alpha * alpha)
        errs.append(np.abs(reg.amplitudes - expected).max())
    return _judged("gates.concentration_three_amplitudes", [("max amp error", errs, 1e-12)])


def _check_deterministic_exact(seed: int) -> CheckResult:
    rng = derive_rng(seed, 201)
    p_errs, f_errs = [], []
    for d in range(2, 9):
        for _ in range(3):
            table = exact_outcome_table(
                "deterministic", _random_channel(d, rng, positive=True), _random_target(d, rng)
            )
            p_errs.append(abs(success_probability(table) - 1.0))
            f_errs += [1.0 - r.fidelity for r in table.rows]
    return _judged("protocols.deterministic_success_is_1",
                   [("max|P-1|", p_errs, 1e-12), ("1-min fidelity", f_errs, 1e-10)])


def _check_probabilistic_curve(seed: int) -> CheckResult:
    rng = derive_rng(seed, 202)
    target = _random_target(2, rng)
    errs = []
    for theta in np.linspace(0.0, np.pi / 4.0, 21):
        table = exact_outcome_table("probabilistic", ChannelSpec.from_theta(theta), target)
        errs.append(abs(success_probability(table) - 2.0 * np.sin(theta) ** 2))
    return _judged("protocols.probabilistic_success_2sin2", [("max|P-2sin^2|", errs, 1e-12)])


def _check_nguyen_quarters(seed: int) -> CheckResult:
    rng = derive_rng(seed, 203)
    p_errs, f_errs, rows = [], [], set()
    for _ in range(10):
        table = exact_outcome_table("nguyen", None, _random_target(2, rng))
        p_errs += [abs(r.probability - 0.25) for r in table.rows]
        f_errs += [1.0 - r.fidelity for r in table.rows]
        rows.add(len(table.rows))
    return _judged("protocols.nguyen_four_quarters",
                   [("max|p-1/4|", p_errs, 1e-12), ("1-min fidelity", f_errs, 1e-10)],
                   holds=rows == {4})


def _check_literal_theta0(seed: int) -> CheckResult:
    rng = derive_rng(seed, 204)
    diffs = []
    for _ in range(10):
        x0 = float(rng.uniform(0.0, 1.0))
        target = TargetState.of((x0, np.sqrt(1.0 - x0 * x0)))
        channel = _random_channel(2, rng, positive=True)
        lit = exact_outcome_table("deterministic", channel, target, mode="literal")
        rep = exact_outcome_table("deterministic", channel, target, mode="repaired")
        for a, b in zip(lit.rows, rep.rows):
            diffs += [abs(a.probability - b.probability), abs(a.fidelity - b.fidelity)]
    return _judged("protocols.literal_equals_repaired_at_theta0", [("max diff", diffs, 1e-12)])


def _check_literal_flag(seed: int) -> CheckResult:
    target = TargetState.of((1 / np.sqrt(2), 1j / np.sqrt(2)))
    tr = run_protocol(
        "deterministic", ChannelSpec.of((0.6, 0.8)), target, "literal", derive_rng(seed, 205)
    )
    defect = max(s.defect for s in tr.steps if s.non_unitary) if tr.has_non_unitary_step else 0.0
    # The printed operator acts norm-preservingly on the protocol states,
    # so the raw norm stays 1 even though the operator defect is large.
    return _judged(
        "protocols.literal_mode_flags_defect",
        [("|raw_norm-1|", abs((tr.raw_norm or 0.0) - 1.0), 1e-12)],
        f"flagged defect={defect:.6f}", holds=tr.has_non_unitary_step and defect > 1e-6,
    )


def _check_oracle_exact(seed: int) -> CheckResult:
    rng = derive_rng(seed, 301)
    reports = []
    for d in (2, 3, 4):
        for _ in range(_CONFIGS_PER_CASE):
            channel = _random_channel(d, rng, positive=True)
            target = _random_target(d, rng)
            table = exact_outcome_table("deterministic", channel, target)
            reports.append(oracle.compare_exact(
                oracle.table_distribution(table),
                oracle.enumerate_naive("deterministic", channel, target),
            ))
    for _ in range(_CONFIGS_PER_CASE):
        alpha = float(rng.uniform(0.05, 1.0 / np.sqrt(2.0)))
        channel = ChannelSpec.of((alpha, np.sqrt(1.0 - alpha * alpha)))
        target = _random_target(2, rng)
        reports.append(oracle.compare_exact(
            oracle.table_distribution(exact_outcome_table("probabilistic", channel, target)),
            oracle.enumerate_naive("probabilistic", channel, target),
        ))
    for _ in range(_CONFIGS_PER_CASE):
        target = _random_target(2, rng)
        reports.append(oracle.compare_exact(
            oracle.table_distribution(exact_outcome_table("nguyen", None, target)),
            oracle.enumerate_naive("nguyen", None, target),
        ))
    return _judged("oracle.fast_vs_naive_agreement",
                   [("max|dp|", [rep.max_stat for rep in reports], oracle.EXACT_TOL)],
                   f"cases={len(reports)}")


def _check_oracle_sampled(seed: int, trials: int = 10_000) -> CheckResult:
    rng = derive_rng(seed, 302)
    reports = []
    specs = [
        ("deterministic", ChannelSpec.of((0.6, 0.8))),
        ("probabilistic", ChannelSpec.of((0.6, 0.8))),
        ("nguyen", None),
    ]
    for k, (protocol, channel) in enumerate(specs):
        target = _random_target(2, rng)
        dist = oracle.enumerate_naive(protocol, channel, target)
        reports.append(oracle.compare_sampled(dist, trials=trials, seed=seed + 7000 + k))
    worst = max(rep.max_stat for rep in reports)
    return _judged("oracle.sampled_frequencies_4sigma", (), f"trials={trials}",
                   f"max|z|={worst:.3f}", holds=all(rep.passed for rep in reports))


def _check_bloch_formulas(seed: int) -> CheckResult:
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
    return _judged("tomo.bloch_matches_analytic", [("max err", errs, 1e-12)])


def _check_tomo_physicality(seed: int) -> CheckResult:
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
    return _judged("tomo.projection_physicality", [
        ("max|tr-1|", trace_errs, 1e-10), ("max negative eig", negative_eigs, 1e-10),
        ("max|rho-rho^dag|", herm_errs, 1e-10),
    ])


def _check_tomo_convergence(seed: int) -> CheckResult:
    reg = StateRegister((2,), np.array([0.6, 0.8j]))
    medians = []
    for k, shots in enumerate((10**3, 10**4, 10**5, 10**6)):
        dists = [tomography.tomograph(reg, shots, derive_rng(seed, 403, k, s)).trace_distance
                 for s in range(50)]
        medians.append(float(np.median(dists)))
    return _judged("tomo.median_distance_decreases_with_shots", (),
                   "medians=" + "/".join(f"{m:.2e}" for m in medians),
                   holds=all(b < a for a, b in zip(medians, medians[1:])))


_SUITE_CHECKS = {
    "gates": (
        _check_pauli_cyclic,
        _check_shift_permutation,
        _check_literal_defect,
        _check_encoder_completion,
        _check_correction_exactness,
        _check_concentration_structure,
    ),
    "protocols": (
        _check_deterministic_exact,
        _check_probabilistic_curve,
        _check_nguyen_quarters,
        _check_literal_theta0,
        _check_literal_flag,
    ),
    "oracle": (
        _check_oracle_exact,
        _check_oracle_sampled,
    ),
    "tomo": (
        _check_bloch_formulas,
        _check_tomo_physicality,
        _check_tomo_convergence,
    ),
}


def run_suite(suite: str, seed: int = 0, oracle_trials: int = 10_000) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if suite == "all":
        names = SUITES
    elif suite in _SUITE_CHECKS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; expected all or one of {SUITES}")
    results = []
    for name in names:
        for check in _SUITE_CHECKS[name]:
            if check is _check_oracle_sampled:
                results.append(check(seed, trials=oracle_trials))
            else:
                results.append(check(seed))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.measured}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
