"""Named invariant checks behind the CLI ``verify`` subcommand.

Each check measures something concrete and reports the measured value so
failures name the broken invariant.  All randomness is seeded, so a
report is byte-stable for a given (suite, seed, trials).
"""

from __future__ import annotations

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


def _check_pauli_cyclic(seed: int) -> CheckResult:
    worst = 0.0
    for d in (2, 3, 5):
        for g in (gates.pauli_x(d), gates.pauli_z(d)):
            power = np.linalg.matrix_power(g.matrix, d)
            worst = max(worst, float(np.max(np.abs(power - np.eye(d)))))
    return CheckResult("gates.pauli_cyclic_order_d", worst <= 1e-12, f"max|G^d - I|={worst:.3e}")


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
    return CheckResult("gates.controlled_shift_is_permutation", ok, f"permutation={ok}")


def _check_literal_defect(seed: int) -> CheckResult:
    rng = derive_rng(seed, 102)
    worst = 0.0
    for _ in range(100):
        x0 = float(rng.uniform(0.0, 1.0))
        x1 = float(np.sqrt(1.0 - x0 * x0))
        th = float(rng.uniform(-np.pi, np.pi))
        g = gates.encoding_unitary_literal(x0, x1, th)
        closed = 2.0 * np.sqrt(2.0) * x0 * x1 * abs(np.sin(th))
        worst = max(worst, abs(g.defect - closed))
    return CheckResult(
        "gates.literal_defect_closed_form", worst <= 1e-10, f"max|defect-closed|={worst:.3e}"
    )


def _check_encoder_completion(seed: int) -> CheckResult:
    rng = derive_rng(seed, 103)
    worst_defect, worst_col = 0.0, 0.0
    for d in range(2, 9):
        t = _random_target(d, rng)
        g = gates.encoding_unitary(t.amplitudes)
        worst_defect = max(worst_defect, g.defect)
        worst_col = max(worst_col, float(np.max(np.abs(g.matrix[:, 0] - t.vector()))))
    ok = worst_defect <= 1e-12 and worst_col == 0.0
    return CheckResult(
        "gates.encoder_column_and_unitarity", ok,
        f"max defect={worst_defect:.3e} max column error={worst_col:.3e}",
    )


def _check_correction_exactness(seed: int) -> CheckResult:
    rng = derive_rng(seed, 104)
    worst = 0.0
    for d in range(2, 9):
        u = gates.make_gate(_random_unitary(d, rng), (d,), f"R{d}")
        fix = gates.correction_chain(u)
        for m in range(d):
            b = np.zeros(d, dtype=complex)
            for n in range(d):
                b[(m - n) % d] += u.matrix[n, m]
            vb = fix(np.array([m]), b[None])[0]
            worst = max(worst, float(np.max(np.abs(vb - u.matrix[:, 0]))))
    return CheckResult(
        "gates.correction_maps_branch_to_target", worst <= 1e-11, f"max|V b - U e0|={worst:.3e}"
    )


def _check_concentration_structure(seed: int) -> CheckResult:
    rng = derive_rng(seed, 105)
    worst = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 1.0 / np.sqrt(2.0)))
        beta = float(np.sqrt(1.0 - alpha * alpha))
        reg = channel_register(ChannelSpec.of((alpha, beta)))
        reg = reg.tensor(basis_register((2,), (0,), labels=("C",)))
        reg = reg.apply(gates.cadd(2), ["A", "C"])
        reg = reg.apply(gates.cu_concentration(alpha, beta), ["A", "C"])
        amps = reg.amplitudes
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = alpha
        expected[0b111] = alpha
        expected[0b110] = np.sqrt(beta * beta - alpha * alpha)
        worst = max(worst, float(np.max(np.abs(amps - expected))))
    return CheckResult(
        "gates.concentration_three_amplitudes", worst <= 1e-12, f"max amp error={worst:.3e}"
    )


def _check_deterministic_exact(seed: int) -> CheckResult:
    rng = derive_rng(seed, 201)
    worst_p, worst_f = 0.0, 1.0
    for d in range(2, 9):
        for _ in range(3):
            table = exact_outcome_table(
                "deterministic", _random_channel(d, rng, positive=True), _random_target(d, rng)
            )
            worst_p = max(worst_p, abs(success_probability(table) - 1.0))
            worst_f = min(worst_f, min(r.fidelity for r in table.rows))
    ok = worst_p <= 1e-12 and worst_f >= 1.0 - 1e-10
    return CheckResult(
        "protocols.deterministic_success_is_1", ok,
        f"max|P-1|={worst_p:.3e} min fidelity={worst_f:.15f}",
    )


def _check_probabilistic_curve(seed: int) -> CheckResult:
    rng = derive_rng(seed, 202)
    target = _random_target(2, rng)
    worst = 0.0
    for theta in np.linspace(0.0, np.pi / 4.0, 21):
        table = exact_outcome_table("probabilistic", ChannelSpec.from_theta(theta), target)
        worst = max(worst, abs(success_probability(table) - 2.0 * np.sin(theta) ** 2))
    return CheckResult(
        "protocols.probabilistic_success_2sin2", worst <= 1e-12, f"max|P-2sin^2|={worst:.3e}"
    )


def _check_nguyen_quarters(seed: int) -> CheckResult:
    rng = derive_rng(seed, 203)
    worst_p, worst_f, rows = 0.0, 1.0, set()
    for _ in range(10):
        table = exact_outcome_table("nguyen", None, _random_target(2, rng))
        worst_p = max(worst_p, max(abs(r.probability - 0.25) for r in table.rows))
        worst_f = min(worst_f, min(r.fidelity for r in table.rows))
        rows.add(len(table.rows))
    ok = worst_p <= 1e-12 and worst_f >= 1.0 - 1e-10 and rows == {4}
    return CheckResult(
        "protocols.nguyen_four_quarters", ok,
        f"max|p-1/4|={worst_p:.3e} min fidelity={worst_f:.15f}",
    )


def _check_literal_theta0(seed: int) -> CheckResult:
    rng = derive_rng(seed, 204)
    worst = 0.0
    for _ in range(10):
        x0 = float(rng.uniform(0.0, 1.0))
        target = TargetState.of((x0, np.sqrt(1.0 - x0 * x0)))
        channel = _random_channel(2, rng, positive=True)
        lit = exact_outcome_table("deterministic", channel, target, mode="literal")
        rep = exact_outcome_table("deterministic", channel, target, mode="repaired")
        for a, b in zip(lit.rows, rep.rows):
            worst = max(worst, abs(a.probability - b.probability), abs(a.fidelity - b.fidelity))
    return CheckResult(
        "protocols.literal_equals_repaired_at_theta0", worst <= 1e-12, f"max diff={worst:.3e}"
    )


def _check_literal_flag(seed: int) -> CheckResult:
    target = TargetState.of((1 / np.sqrt(2), 1j / np.sqrt(2)))
    tr = run_protocol(
        "deterministic", ChannelSpec.of((0.6, 0.8)), target, "literal", derive_rng(seed, 205)
    )
    defect = max(s.defect for s in tr.steps if s.non_unitary) if tr.has_non_unitary_step else 0.0
    # The printed operator acts norm-preservingly on the protocol states,
    # so the raw norm stays 1 even though the operator defect is large.
    norm_dev = abs((tr.raw_norm or 0.0) - 1.0)
    ok = tr.has_non_unitary_step and defect > 1e-6 and norm_dev <= 1e-12
    return CheckResult(
        "protocols.literal_mode_flags_defect", ok,
        f"flagged defect={defect:.6f} |raw_norm-1|={norm_dev:.3e}",
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
    worst = max(rep.max_stat for rep in reports)
    return CheckResult(
        "oracle.fast_vs_naive_agreement", all(rep.passed for rep in reports),
        f"cases={len(reports)} max|dp|={worst:.3e}",
    )


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
    return CheckResult(
        "oracle.sampled_frequencies_4sigma", all(rep.passed for rep in reports),
        f"trials={trials} max|z|={worst:.3f}",
    )


def _check_bloch_formulas(seed: int) -> CheckResult:
    rng = derive_rng(seed, 401)
    worst = 0.0
    for _ in range(20):
        x0 = float(rng.uniform(0.0, 1.0))
        x1 = float(np.sqrt(1.0 - x0 * x0))
        th = float(rng.uniform(-np.pi, np.pi))
        psi = np.array([x0, x1 * np.exp(1j * th)])
        reg = StateRegister((2,), psi)
        rx, ry, rz = tomography.exact_bloch(reg)
        worst = max(
            worst,
            abs(rx - 2 * x0 * x1 * np.cos(th)),
            abs(ry - 2 * x0 * x1 * np.sin(th)),
            abs(rz - (x0 * x0 - x1 * x1)),
        )
    return CheckResult("tomo.bloch_matches_analytic", worst <= 1e-12, f"max err={worst:.3e}")


def _check_tomo_physicality(seed: int) -> CheckResult:
    rng = derive_rng(seed, 402)
    ok = True
    worst_trace, worst_eig = 0.0, 0.0
    for _ in range(200):
        r = rng.uniform(-1.5, 1.5, size=3)
        rho = tomography.reconstruct_qubit(
            tomography.PauliEstimates(r[0], r[1], r[2], (1, 1, 1))
        )
        eigs = np.linalg.eigvalsh(rho.entries)
        worst_trace = max(worst_trace, abs(float(np.trace(rho.entries).real) - 1.0))
        worst_eig = max(worst_eig, max(0.0, float(-eigs.min())))
        herm = float(np.max(np.abs(rho.entries - rho.entries.conj().T)))
        ok = ok and herm <= 1e-10
    ok = ok and worst_trace <= 1e-10 and worst_eig <= 1e-10
    return CheckResult(
        "tomo.projection_physicality", ok,
        f"max|tr-1|={worst_trace:.3e} max negative eig={worst_eig:.3e}",
    )


def _check_tomo_convergence(seed: int) -> CheckResult:
    psi = np.array([0.6, 0.8j])
    reg = StateRegister((2,), psi)
    medians = []
    for k, shots in enumerate((10**3, 10**4, 10**5, 10**6)):
        dists = []
        for s in range(50):
            res = tomography.tomograph(reg, psi, shots, derive_rng(seed, 403, k, s))
            dists.append(res.trace_distance_to_target)
        medians.append(float(np.median(dists)))
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    return CheckResult(
        "tomo.median_distance_decreases_with_shots", decreasing,
        "medians=" + "/".join(f"{m:.2e}" for m in medians),
    )


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
