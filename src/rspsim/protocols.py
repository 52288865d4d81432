"""The three remote state preparation protocols, executed end to end.

* ``deterministic``: the coefficient-independent protocol.  An ancilla C
  is entangled with sender qudit A (controlled addition), the target is
  encoded on A, two controlled shifts (A->B subtraction, B->A addition)
  route the information onto B, and a computational measurement of A and
  C picks a branch.  Every branch is corrected exactly, so success
  probability is 1 for any channel with nonzero Schmidt coefficients.
* ``probabilistic``: the concentration baseline over a partial qubit
  channel.  CNOT, controlled-U, CNOT, then the ancilla measurement either
  yields a maximal channel (probability 2 alpha^2, after which the
  ancilla-assisted deterministic subroutine finishes the preparation) or
  fails outright (probability beta^2 - alpha^2).
* ``nguyen``: the ancilla-assisted deterministic baseline over a maximal
  channel, with measurement bases tailored to the target and a
  conditional phase gate; all four outcome pairs occur with probability
  1/4 and are corrected exactly.

Encoding modes for the deterministic protocol:

* ``repaired``: the encoder is a true unitary whose first column is the
  target; receiver corrections V_m are derived from it and are exact for
  every target and dimension.
* ``literal`` (d = 2 only): the printed 2x2 encoder is applied verbatim
  even though it is not unitary for complex targets; the defect is
  flagged in the transcript, the pre-measurement norm is recorded, and
  the receiver applies identity or sigma_z exactly as prescribed.

Each run returns an immutable :class:`Transcript`; each configuration can
also be enumerated exactly, branch by branch, into an
:class:`OutcomeTable` with no randomness involved.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidState, SimulationError, Unsupported
from .gates import (
    UNITARY_TOL,
    GateMatrix,
    cadd,
    correction_unitary,
    csub,
    cu_concentration,
    encoding_unitary,
    encoding_unitary_literal,
    identity,
    make_gate,
    nguyen_bases,
    pauli_z,
)
from .linalg import STRUCT_TOL, as_cvec, dagger, fidelity_pure, transport_unitary
from .register import (
    PROB_FLOOR,
    MeasurementRecord,
    StateRegister,
    basis_register,
    channel_register,
)

PROTOCOLS = ("deterministic", "probabilistic", "nguyen")
MODES = ("repaired", "literal")

# A branch counts as successful when its fidelity reaches 1 - SUCCESS_TOL.
SUCCESS_TOL = 1e-9


@dataclass(frozen=True)
class ChannelSpec:
    """Schmidt coefficients lambda_0..lambda_{d-1} of the A-B channel."""

    lambdas: tuple[complex, ...]

    def __post_init__(self):
        v = as_cvec(self.lambdas)
        if v.size < 2:
            raise InvalidState("channel needs dimension d >= 2")
        if abs(np.linalg.norm(v) - 1.0) > STRUCT_TOL:
            raise InvalidState("channel coefficients must satisfy sum |lambda_m|^2 = 1")
        object.__setattr__(self, "lambdas", tuple(complex(x) for x in v))

    @property
    def d(self) -> int:
        return len(self.lambdas)

    @classmethod
    def of(cls, values: Sequence[complex]) -> "ChannelSpec":
        return cls(tuple(complex(v) for v in values))

    @classmethod
    def from_theta(cls, theta: float) -> "ChannelSpec":
        """Qubit channel with alpha = sin(theta), beta = cos(theta)."""
        return cls.of((np.sin(theta), np.cos(theta)))

    @classmethod
    def maximal(cls, d: int = 2) -> "ChannelSpec":
        return cls.of(np.full(d, 1.0 / np.sqrt(d)))


@dataclass(frozen=True)
class TargetState:
    """Amplitudes x_0..x_{d-1} of the state the sender prepares remotely.

    Storage keeps the caller's amplitudes; the canonical form (first
    nonzero amplitude rotated to phase 0) is derived on demand.
    """

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        v = as_cvec(self.amplitudes)
        if v.size < 2:
            raise InvalidState("target needs dimension d >= 2")
        if abs(np.linalg.norm(v) - 1.0) > STRUCT_TOL:
            raise InvalidState("target amplitudes must be normalized")
        object.__setattr__(self, "amplitudes", tuple(complex(x) for x in v))

    @property
    def d(self) -> int:
        return len(self.amplitudes)

    @classmethod
    def of(cls, values: Sequence[complex]) -> "TargetState":
        return cls(tuple(complex(v) for v in values))

    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)

    def canonical(self) -> np.ndarray:
        """Amplitudes with the first nonzero entry rotated to phase 0."""
        v = self.vector()
        idx = int(np.flatnonzero(np.abs(v) > PROB_FLOOR)[0])
        return v * np.exp(-1j * np.angle(v[idx]))

    def qubit_params(self) -> tuple[float, float, float]:
        """Canonical (a, b, gamma) with target = a|0> + b e^{i gamma}|1>."""
        if self.d != 2:
            raise InvalidState("qubit_params is defined for d = 2 targets")
        c = self.canonical()
        a = float(c[0].real)
        b = float(abs(c[1]))
        gamma = float(np.angle(c[1])) if b > PROB_FLOOR else 0.0
        return a, b, gamma


@dataclass(frozen=True)
class GateStep:
    """One gate application in a transcript."""

    name: str
    targets: tuple[str, ...]
    defect: float
    non_unitary: bool


@dataclass(frozen=True)
class ClassicalMessage:
    """Measurement outcome indices sent from sender to receiver."""

    subsystems: tuple[str, ...]
    outcome: tuple[int, ...]


@dataclass(frozen=True)
class Transcript:
    """Ordered record of one protocol run."""

    protocol: str
    mode: str | None
    channel: ChannelSpec
    target: TargetState
    steps: tuple[GateStep, ...]
    measurements: tuple[MeasurementRecord, ...]
    messages: tuple[ClassicalMessage, ...]
    correction: str
    correction_matrix: np.ndarray | None = field(repr=False)
    bob_state: np.ndarray = field(repr=False)
    fidelity: float
    success: bool
    success_tol: float
    raw_norm: float | None = None

    @property
    def has_non_unitary_step(self) -> bool:
        return any(s.non_unitary for s in self.steps)


@dataclass(frozen=True)
class OutcomeRow:
    """One realizable measurement branch with its exact weight and result."""

    outcome: tuple[int, ...]
    probability: float
    bob_state: np.ndarray = field(repr=False)
    fidelity: float


@dataclass(frozen=True)
class OutcomeTable:
    """Exact branch-by-branch enumeration of one protocol configuration.

    ``rows`` lists the branches with nonzero probability;
    ``outcome_space`` lists every outcome the measurements can label.
    """

    protocol: str
    mode: str | None
    channel: ChannelSpec
    target: TargetState
    rows: tuple[OutcomeRow, ...]
    outcome_space: tuple[tuple[int, ...], ...]

    def probability_of(self, outcome: tuple[int, ...]) -> float:
        for row in self.rows:
            if row.outcome == outcome:
                return row.probability
        return 0.0


def success_probability(table: OutcomeTable, tol: float = SUCCESS_TOL) -> float:
    """Total probability of branches whose fidelity reaches 1 - tol."""
    return float(sum(r.probability for r in table.rows if r.fidelity >= 1.0 - tol))


# ---------------------------------------------------------------------------
# shared machinery


class _StepLog:
    """Accumulates gate applications against a mutable register slot."""

    def __init__(self, reg: StateRegister):
        self.reg = reg
        self.steps: list[GateStep] = []

    def apply(self, gate: GateMatrix, targets: Sequence[str], strict: bool = True) -> None:
        self.reg = self.reg.apply(gate, targets, strict=strict)
        self.steps.append(
            GateStep(gate.name, tuple(targets), gate.defect, gate.defect > UNITARY_TOL)
        )


def _project_in_basis(
    reg: StateRegister, label: str, basis: np.ndarray, k: int
) -> tuple[float, StateRegister | None]:
    """Exact probability and collapsed register for outcome |basis col k>."""
    d = reg.dims[reg.axis(label)]
    rotated = reg.apply(make_gate(dagger(basis), (d,), "basis^dag"), [label])
    p, collapsed = rotated.project([label], (k,))
    if collapsed is None:
        return p, None
    return p, collapsed.apply(make_gate(basis, (d,), "basis"), [label])


def _bob_conditional(reg: StateRegister, a_state: np.ndarray, c_state: np.ndarray) -> np.ndarray:
    """B amplitudes, phase included, given A and C collapsed onto the given states."""
    bob = reg.contract({"A": a_state, "C": c_state})
    n = np.linalg.norm(bob)
    if n < PROB_FLOOR:
        raise SimulationError("conditional state has no amplitude mass")
    return bob / n


def _basis_vec(d: int, k: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


# ---------------------------------------------------------------------------
# deterministic protocol


def _deterministic_encoder(target: TargetState, mode: str) -> GateMatrix:
    if mode == "repaired":
        return encoding_unitary(target.amplitudes)
    if mode == "literal":
        if target.d != 2:
            raise Unsupported("literal mode is defined only for d = 2")
        c = target.canonical()
        return encoding_unitary_literal(c[0].real, abs(c[1]), float(np.angle(c[1])))
    raise InvalidState(f"unknown mode {mode!r}; expected one of {MODES}")


def _deterministic_evolve(
    channel: ChannelSpec, target: TargetState, mode: str
) -> tuple[_StepLog, GateMatrix, float | None]:
    """Run the gate sequence up to (not including) the measurements."""
    if channel.d != target.d:
        raise InvalidState(f"channel d={channel.d} does not match target d={target.d}")
    d = channel.d
    enc = _deterministic_encoder(target, mode)
    log = _StepLog(channel_register(channel).tensor(basis_register((d,), (0,), labels=("C",))))
    log.apply(cadd(d), ("A", "C"))
    raw_norm = None
    if mode == "literal":
        log.apply(enc, ("A",), strict=False)
        raw_norm = log.reg.norm
        if abs(raw_norm - 1.0) > STRUCT_TOL:
            log.reg = log.reg.normalized()
    else:
        log.apply(enc, ("A",))
    log.apply(csub(d), ("A", "B"))
    log.apply(cadd(d), ("B", "A"))
    return log, enc, raw_norm


def _deterministic_correction(enc: GateMatrix, mode: str, m: int) -> tuple[str, GateMatrix]:
    if mode == "repaired":
        return f"V[{m}] (encoder-derived, target-dependent)", correction_unitary(enc, m)
    if m == 0:
        return "identity", identity(2)
    return "sigma_z", pauli_z(2)


def run_deterministic_rsp(
    channel: ChannelSpec,
    target: TargetState,
    mode: str = "repaired",
    rng: np.random.Generator | None = None,
    success_tol: float = SUCCESS_TOL,
) -> Transcript:
    """One sampled run of the coefficient-independent protocol."""
    rng = rng if rng is not None else np.random.default_rng()
    log, enc, raw_norm = _deterministic_evolve(channel, target, mode)
    rec_a, reg = log.reg.measure(["A"], rng)
    rec_c, reg = reg.measure(["C"], rng)
    a, c = rec_a.outcome[0], rec_c.outcome[0]
    if a != c:
        raise SimulationError(f"measured A={a}, C={c}; branch structure is corrupted")
    descriptor, corr = _deterministic_correction(enc, mode, a)
    bob = _bob_conditional(reg, _basis_vec(channel.d, a), _basis_vec(channel.d, c))
    bob_final = corr.matrix @ bob
    fid = fidelity_pure(bob_final, target.vector())
    return Transcript(
        protocol="deterministic",
        mode=mode,
        channel=channel,
        target=target,
        steps=tuple(log.steps),
        measurements=(rec_a, rec_c),
        messages=(ClassicalMessage(("A", "C"), (a, c)),),
        correction=descriptor,
        correction_matrix=corr.matrix,
        bob_state=bob_final,
        fidelity=fid,
        success=fid >= 1.0 - success_tol,
        success_tol=success_tol,
        raw_norm=raw_norm,
    )


def _deterministic_table(channel: ChannelSpec, target: TargetState, mode: str) -> OutcomeTable:
    log, enc, _raw = _deterministic_evolve(channel, target, mode)
    d = channel.d
    rows = []
    for outcome, p in log.reg.born_probabilities(["A", "C"]):
        if p < PROB_FLOOR:
            continue
        a, c = outcome
        if a != c:
            raise SimulationError(f"nonzero off-diagonal branch {outcome}; p={p}")
        _desc, corr = _deterministic_correction(enc, mode, a)
        bob = corr.matrix @ _bob_conditional(log.reg, _basis_vec(d, a), _basis_vec(d, c))
        rows.append(OutcomeRow(outcome, p, bob, fidelity_pure(bob, target.vector())))
    space = tuple((a, c) for a in range(d) for c in range(d))
    return OutcomeTable("deterministic", mode, channel, target, tuple(rows), space)


# ---------------------------------------------------------------------------
# ancilla-assisted deterministic baseline (maximal channel)


def _nguyen_setup(target: TargetState) -> tuple[np.ndarray, np.ndarray, GateMatrix]:
    a, b, gamma = target.qubit_params()
    return nguyen_bases(a, b, gamma)


def _nguyen_correction(bob_raw: np.ndarray, target: TargetState, i: int, j: int) -> tuple[str, np.ndarray]:
    v = transport_unitary(bob_raw, target.vector())
    return f"transport[mu{i},nu{j}]", v


def _run_nguyen_stage(
    log: _StepLog, target: TargetState, rng: np.random.Generator
) -> tuple[list[MeasurementRecord], tuple[int, int], np.ndarray]:
    """Measure A in the mu basis, conditionally phase C, measure C in nu.

    The register in ``log`` must already hold the three-party entangled
    state.  Returns the records, the outcome pair, and the receiver's raw
    conditional state.
    """
    mu, nu, phase = _nguyen_setup(target)
    rec_mu, reg = log.reg.measure_in_basis("A", mu, rng)
    log.reg = reg
    i = rec_mu.outcome[0]
    if i == 0:
        log.apply(phase, ("C",))
    rec_nu, reg = log.reg.measure_in_basis("C", nu, rng)
    log.reg = reg
    j = rec_nu.outcome[0]
    bob = _bob_conditional(log.reg, mu[:, i], nu[:, j])
    return [rec_mu, rec_nu], (i, j), bob


def run_nguyen_rsp(
    target: TargetState,
    rng: np.random.Generator | None = None,
    success_tol: float = SUCCESS_TOL,
) -> Transcript:
    """One sampled run of the baseline over the maximal qubit channel."""
    rng = rng if rng is not None else np.random.default_rng()
    if target.d != 2:
        raise InvalidState("this baseline prepares qubit targets only")
    channel = ChannelSpec.maximal(2)
    log = _StepLog(channel_register(channel).tensor(basis_register((2,), (0,), labels=("C",))))
    log.apply(cadd(2), ("A", "C"))
    records, (i, j), bob = _run_nguyen_stage(log, target, rng)
    descriptor, v = _nguyen_correction(bob, target, i, j)
    bob_final = v @ bob
    fid = fidelity_pure(bob_final, target.vector())
    return Transcript(
        protocol="nguyen",
        mode=None,
        channel=channel,
        target=target,
        steps=tuple(log.steps),
        measurements=tuple(records),
        messages=(ClassicalMessage(("A",), (i,)), ClassicalMessage(("C",), (j,))),
        correction=descriptor,
        correction_matrix=v,
        bob_state=bob_final,
        fidelity=fid,
        success=fid >= 1.0 - success_tol,
        success_tol=success_tol,
    )


def _enumerate_nguyen_stage(
    reg: StateRegister, target: TargetState
) -> list[tuple[tuple[int, int], float, np.ndarray, float]]:
    """All four (mu, nu) branches of the staged measurement, exactly."""
    mu, nu, phase = _nguyen_setup(target)
    out = []
    for i in range(2):
        p_i, reg_i = _project_in_basis(reg, "A", mu, i)
        if reg_i is None:
            continue
        if i == 0:
            reg_i = reg_i.apply(phase, ["C"])
        for j in range(2):
            p_j, reg_j = _project_in_basis(reg_i, "C", nu, j)
            if reg_j is None:
                continue
            bob = _bob_conditional(reg_j, mu[:, i], nu[:, j])
            _desc, v = _nguyen_correction(bob, target, i, j)
            corrected = v @ bob
            out.append(((i, j), p_i * p_j, corrected, fidelity_pure(corrected, target.vector())))
    return out


def _nguyen_table(target: TargetState) -> OutcomeTable:
    if target.d != 2:
        raise InvalidState("this baseline prepares qubit targets only")
    channel = ChannelSpec.maximal(2)
    reg = channel_register(channel).tensor(basis_register((2,), (0,), labels=("C",)))
    reg = reg.apply(cadd(2), ["A", "C"])
    rows = [
        OutcomeRow(outcome, p, bob, fid)
        for outcome, p, bob, fid in _enumerate_nguyen_stage(reg, target)
        if p >= PROB_FLOOR
    ]
    space = tuple((i, j) for i in range(2) for j in range(2))
    return OutcomeTable("nguyen", None, channel, target, tuple(rows), space)


# ---------------------------------------------------------------------------
# probabilistic baseline (partial channel, concentration then completion)


def _check_probabilistic(channel: ChannelSpec, target: TargetState) -> tuple[float, float]:
    if channel.d != 2 or target.d != 2:
        raise InvalidState("the probabilistic baseline is defined for d = 2")
    alpha, beta = abs(channel.lambdas[0]), abs(channel.lambdas[1])
    if alpha > beta + STRUCT_TOL:
        raise InvalidState("the probabilistic baseline needs |alpha| <= |beta|")
    return alpha, beta


def _probabilistic_concentrate(channel: ChannelSpec, alpha: float, beta: float) -> _StepLog:
    """Gate sequence up to the ancilla measurement.

    alpha = 0 is a degenerate always-fail channel: the controlled-U is
    never constructed (its ratio is ill-posed there) and the remaining
    gates reduce to the first CNOT.
    """
    log = _StepLog(channel_register(channel).tensor(basis_register((2,), (0,), labels=("C",))))
    log.apply(cadd(2), ("A", "C"))
    if alpha > 0.0:
        scale = float(np.hypot(alpha, beta))  # absorb channel-norm roundoff
        log.apply(cu_concentration(alpha / scale, beta / scale), ("A", "C"))
        log.apply(cadd(2), ("A", "C"))
    return log


def run_probabilistic_rsp(
    channel: ChannelSpec,
    target: TargetState,
    rng: np.random.Generator | None = None,
    success_tol: float = SUCCESS_TOL,
) -> Transcript:
    """One sampled run of the concentration baseline.

    Ancilla outcome 0 (probability 2 alpha^2) concentrates the channel to
    a maximal one and the run finishes with the ancilla-assisted
    subroutine; outcome 1 marks the run failed, recording the fidelity of
    the receiver's abandoned state.
    """
    rng = rng if rng is not None else np.random.default_rng()
    alpha, beta = _check_probabilistic(channel, target)
    log = _probabilistic_concentrate(channel, alpha, beta)
    rec_c, reg = log.reg.measure(["C"], rng)
    log.reg = reg
    c = rec_c.outcome[0]
    measurements = [rec_c]
    messages = [ClassicalMessage(("C",), (c,))]
    if c == 1:
        bob = _bob_conditional(log.reg, _basis_vec(2, 1), _basis_vec(2, 1))
        fid = fidelity_pure(bob, target.vector())
        return Transcript(
            protocol="probabilistic",
            mode=None,
            channel=channel,
            target=target,
            steps=tuple(log.steps),
            measurements=tuple(measurements),
            messages=tuple(messages),
            correction="none (failure branch)",
            correction_matrix=None,
            bob_state=bob,
            fidelity=fid,
            success=False,
            success_tol=success_tol,
        )
    log.apply(cadd(2), ("A", "C"))
    records, (i, j), bob = _run_nguyen_stage(log, target, rng)
    measurements += records
    messages += [ClassicalMessage(("A",), (i,)), ClassicalMessage(("C",), (j,))]
    descriptor, v = _nguyen_correction(bob, target, i, j)
    bob_final = v @ bob
    fid = fidelity_pure(bob_final, target.vector())
    return Transcript(
        protocol="probabilistic",
        mode=None,
        channel=channel,
        target=target,
        steps=tuple(log.steps),
        measurements=tuple(measurements),
        messages=tuple(messages),
        correction=descriptor,
        correction_matrix=v,
        bob_state=bob_final,
        fidelity=fid,
        success=fid >= 1.0 - success_tol,
        success_tol=success_tol,
    )


def _probabilistic_table(channel: ChannelSpec, target: TargetState) -> OutcomeTable:
    alpha, beta = _check_probabilistic(channel, target)
    log = _probabilistic_concentrate(channel, alpha, beta)
    rows = []
    p_fail, collapsed_fail = log.reg.project(["C"], (1,))
    if collapsed_fail is not None:
        bob = _bob_conditional(collapsed_fail, _basis_vec(2, 1), _basis_vec(2, 1))
        rows.append(OutcomeRow((1,), p_fail, bob, fidelity_pure(bob, target.vector())))
    p_ok, collapsed_ok = log.reg.project(["C"], (0,))
    if collapsed_ok is not None:
        reg = collapsed_ok.apply(cadd(2), ["A", "C"])
        branches = _enumerate_nguyen_stage(reg, target)
        sub_total = sum(p for _, p, _, _ in branches)
        if abs(sub_total - 1.0) > 1e-12:
            raise SimulationError(f"completion branches sum to {sub_total}, not 1")
        fid = min(f for _, _, _, f in branches)
        bob = branches[0][2]
        rows.append(OutcomeRow((0,), p_ok, bob, fid))
    rows.sort(key=lambda r: r.outcome)
    return OutcomeTable("probabilistic", None, channel, target, tuple(rows), ((0,), (1,)))


# ---------------------------------------------------------------------------


def exact_outcome_table(
    protocol: str,
    channel: ChannelSpec | None,
    target: TargetState,
    mode: str = "repaired",
) -> OutcomeTable:
    """Enumerate every measurement branch of a configuration exactly."""
    if protocol == "deterministic":
        if channel is None:
            raise InvalidState("the deterministic protocol needs a channel")
        return _deterministic_table(channel, target, mode)
    if protocol == "probabilistic":
        if channel is None:
            raise InvalidState("the probabilistic baseline needs a channel")
        return _probabilistic_table(channel, target)
    if protocol == "nguyen":
        return _nguyen_table(target)
    raise InvalidState(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")


def run_protocol(
    protocol: str,
    channel: ChannelSpec | None,
    target: TargetState,
    mode: str = "repaired",
    rng: np.random.Generator | None = None,
    success_tol: float = SUCCESS_TOL,
) -> Transcript:
    """Dispatch one sampled run of any protocol."""
    if protocol == "deterministic":
        if channel is None:
            raise InvalidState("the deterministic protocol needs a channel")
        return run_deterministic_rsp(channel, target, mode, rng, success_tol)
    if protocol == "probabilistic":
        if channel is None:
            raise InvalidState("the probabilistic baseline needs a channel")
        return run_probabilistic_rsp(channel, target, rng, success_tol)
    if protocol == "nguyen":
        return run_nguyen_rsp(target, rng, success_tol)
    raise InvalidState(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
