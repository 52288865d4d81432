"""The three remote state preparation protocols, executed end to end.

* ``deterministic``: the coefficient-independent protocol.  An ancilla C
  is entangled with sender qudit A (controlled addition), the target is
  encoded on A, two controlled shifts (A->B subtraction, B->A addition)
  route the information onto B, and a computational measurement of A and
  C picks a branch.  Every branch is corrected exactly, so the success
  probability is 1 for every channel, a product channel included: the
  two controlled shifts cross the sender/receiver cut, and V_m is built
  from the target's encoder, so the shared entanglement does not carry
  the state.
* ``probabilistic``: the concentration baseline over a partial qubit
  channel.  CNOT, controlled-U, CNOT, then the ancilla measurement either
  yields a maximal channel (probability 2 alpha^2, after which the
  ancilla-assisted deterministic subroutine finishes the preparation) or
  fails outright (probability beta^2 - alpha^2).
* ``nguyen``: the ancilla-assisted deterministic baseline over a maximal
  channel, with measurement bases tailored to the target and a
  conditional phase gate; all four outcome pairs occur with probability
  1/4 and are corrected exactly.

In both nguyen and probabilistic, the receiver corrects B from the
message alone: the Pauli table keyed by the (mu, nu) outcomes,
(0,0)->I, (0,1)->Z, (1,0)->XZ, (1,1)->X, times the channel-phase
diagonal diag(e^{-i arg lambda_m}).  The correction never reads the
target, so their fidelities check the protocol rather than restate it.

Encoding modes for the deterministic protocol:

* ``repaired``: the encoder is a true unitary whose first column is the
  target; receiver corrections V_m are derived from it and are exact for
  every target and dimension.
* ``literal`` (d = 2 only): the printed 2x2 encoder is applied verbatim
  even though it is not unitary for complex targets; the defect is
  flagged in the transcript, the pre-measurement norm is recorded, and
  the receiver applies identity or sigma_z exactly as prescribed.

Each protocol is written once, as a step list over the subsystems A, B
and C.  One interpreter walks it along every branch into an exact
:class:`OutcomeTable`, or along one sampled path into the immutable
:class:`Transcript` of a run.  A measurement finishes all its picked
branches that end at the receiver as one array block.

Success is one fixed rule, :func:`succeeded`, read by runs, tables and
sweeps alike: a branch succeeds when the protocol corrects it and its
fidelity to the target is at least 1 - SUCCESS_TOL.  A branch the
protocol declares failed never succeeds, whatever its fidelity.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CapacityExceeded, InvalidState, SimulationError, Unsupported
from .gates import (
    UNITARY_TOL,
    GateMatrix,
    cadd,
    correction_chain,
    csub,
    cu_concentration,
    encoding_unitary,
    encoding_unitary_literal,
    nguyen_bases,
)
from .linalg import MAX_DIM, STRUCT_TOL, as_cvec
from .register import (
    PROB_FLOOR,
    MeasurementRecord,
    StateRegister,
    _basis_gates,
    _draw,
)

PROTOCOLS = ("deterministic", "probabilistic", "nguyen")
MODES = ("repaired", "literal")

# A branch succeeds when the protocol corrects it and its fidelity reaches 1 - SUCCESS_TOL.
SUCCESS_TOL = 1e-9

# The nguyen stage's correction of B for the message (mu, nu): I, Z, XZ, X.
PAULI_TABLE = np.array([[[[1, 0], [0, 1]], [[1, 0], [0, -1]]],
                        [[[0, -1], [1, 0]], [[0, 1], [1, 0]]]], dtype=complex)
PAULI_NAMES = (("I", "Z"), ("XZ", "X"))


@dataclass(frozen=True)
class ChannelSpec:
    """Schmidt coefficients lambda_0..lambda_{d-1} of the A-B channel.

    Construction accepts a norm within STRUCT_TOL of 1 and stores the
    coefficients divided by it.
    """

    lambdas: tuple[complex, ...]

    def __post_init__(self):
        v = as_cvec(self.lambdas)
        if v.size < 2:
            raise InvalidState("channel needs dimension d >= 2")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > STRUCT_TOL:
            raise InvalidState("channel coefficients must satisfy sum |lambda_m|^2 = 1")
        object.__setattr__(self, "lambdas", tuple(complex(x) for x in v / norm))

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

    Construction accepts a norm within STRUCT_TOL of 1 and stores the
    amplitudes divided by it, so every later check sees a unit vector.
    The canonical form (first nonzero amplitude rotated to phase 0) is
    derived on demand.
    """

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        v = as_cvec(self.amplitudes)
        if v.size < 2:
            raise InvalidState("target needs dimension d >= 2")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > STRUCT_TOL:
            raise InvalidState("target amplitudes must be normalized")
        object.__setattr__(self, "amplitudes", tuple(complex(x) for x in v / norm))

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
    """Ordered record of one protocol run; ``outcome`` is its exact-table row label."""

    protocol: str
    mode: str | None
    channel: ChannelSpec
    target: TargetState
    steps: tuple[GateStep, ...]
    measurements: tuple[MeasurementRecord, ...]
    messages: tuple[ClassicalMessage, ...]
    outcome: tuple[int, ...]
    correction: str
    bob_state: np.ndarray = field(repr=False)
    fidelity: float
    success: bool
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
    corrected: bool  # False where the protocol declares the branch failed


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


def succeeded(corrected: bool, fidelity: float) -> bool:
    """The success rule of runs, tables and sweeps alike: a corrected branch at fidelity 1."""
    return corrected and fidelity >= 1.0 - SUCCESS_TOL


def success_probability(table: OutcomeTable) -> float:
    """Total probability of the table's successful branches."""
    return float(sum(r.probability for r in table.rows if succeeded(r.corrected, r.fidelity)))


# ---------------------------------------------------------------------------
# protocols as step lists: gates, then one measurement.  A measurement's
# ``then(outcome)`` returns the steps that follow, or a receive leaf; unless
# ``labelled``, its outcome stays out of the table's row label.  A measurement
# in a basis rotates its one target by basis^dag, and that subsystem stays in
# the measured frame: outcome k is |k> there, so no later gate may act on it.
# A leaf holds the indices of A and C that B's state is conditioned on.
# The measurement corrects the B states of all its leaves as one block with
# ``correct(outcomes, bobs) -> (descriptions, corrected rows)``, given the
# picked outcomes as an int array of shape (k, len(targets)) and B's states
# as rows of shape (k, d).  None declares those branches failed.


class _Gate(NamedTuple):
    gate: GateMatrix
    targets: tuple[str, ...]
    strict: bool = True


class _Measure(NamedTuple):
    targets: tuple[str, ...]  # a single target when measured in a basis
    then: Callable[[tuple[int, ...]], list | _Receive]
    basis: GateMatrix | None = None  # basis^dag, see _basis_gates
    labelled: bool = True
    correct: Callable[[np.ndarray, np.ndarray], tuple[list[str], np.ndarray]] | None = None


class _Receive(NamedTuple):
    a: int
    c: int


def _apply_rows(matrices: np.ndarray, bobs: np.ndarray) -> np.ndarray:
    """Row k of ``bobs`` times ``matrices[k]``: one correction matrix per branch."""
    return np.einsum("kij,kj->ki", matrices, bobs)


def _deterministic_steps(channel: ChannelSpec, target: TargetState, mode: str) -> list:
    if channel.d != target.d:
        raise InvalidState(f"channel d={channel.d} does not match target d={target.d}")
    d = channel.d
    if mode == "repaired":
        enc = encoding_unitary(target.amplitudes)
        chain = correction_chain(enc)

        def fix(a, bobs):
            return ([f"V[{m}] (encoder-derived, target-dependent)" for m in a.tolist()],
                    chain(a, bobs))
    elif mode == "literal":
        if d != 2:
            raise Unsupported("literal mode is defined only for d = 2")
        enc = encoding_unitary_literal(*target.qubit_params())
        printed = PAULI_TABLE[0]  # I on a = 0, sigma_z on 1

        def fix(a, bobs):
            return [("identity", "sigma_z")[m] for m in a.tolist()], _apply_rows(printed[a], bobs)
    else:
        raise InvalidState(f"unknown mode {mode!r}; expected one of {MODES}")

    def correct(outcomes, bobs):
        a, c = outcomes.T
        if (a != c).any():
            bad = np.flatnonzero(a != c)[0]
            raise SimulationError(f"branch A={a[bad]}, C={c[bad]} has weight; "
                                  "branch structure is corrupted")
        return fix(a, bobs)

    return [_Gate(cadd(d), ("A", "C")), _Gate(enc, ("A",), strict=mode == "repaired"),
            _Gate(csub(d), ("A", "B")), _Gate(cadd(d), ("B", "A")),
            _Measure(("A", "C"), lambda outcome: _Receive(*outcome), correct=correct)]


def _nguyen_fixes(channel: ChannelSpec) -> np.ndarray:
    """B's correction for each message (mu, nu): the Pauli table after diag(e^{-i arg lambda}).

    It reads only the message and the channel, which both parties share.  No
    gate acts on B before its correction, so the channel phases still sit
    on B's basis states and the diagonal can come last.
    """
    return PAULI_TABLE * np.exp(-1j * np.angle(channel.lambdas))


def _nguyen_stage(channel: ChannelSpec, target: TargetState, labelled: bool) -> list:
    """Measure A in the mu basis, phase C on mu outcome 0, measure C in nu, correct B."""
    mu, nu, phase = nguyen_bases(*target.qubit_params())
    mu_rot, nu_rot = _basis_gates(mu, 2), _basis_gates(nu, 2)
    fixes = _nguyen_fixes(channel)

    def after_mu(out_mu):
        (i,) = out_mu

        def correct(outcomes, bobs):
            j = outcomes[:, 0]
            return ([f"{PAULI_NAMES[i][n]} (mu={i}, nu={n}) after channel-phase diagonal"
                     for n in j.tolist()], _apply_rows(fixes[i, j], bobs))

        measure_nu = _Measure(("C",), lambda out_nu: _Receive(i, out_nu[0]), nu_rot, labelled,
                              correct)
        return [_Gate(phase, ("C",)), measure_nu] if i == 0 else [measure_nu]

    return [_Measure(("A",), after_mu, mu_rot, labelled)]


def _probabilistic_steps(channel: ChannelSpec, target: TargetState) -> list:
    """Concentrate, then measure C: 1 abandons the run, 0 completes it in unlabelled steps."""
    if channel.d != 2 or target.d != 2:
        raise InvalidState("the probabilistic baseline is defined for d = 2")
    alpha, beta = abs(channel.lambdas[0]), abs(channel.lambdas[1])
    if alpha > beta + STRUCT_TOL:
        raise InvalidState("the probabilistic baseline needs |alpha| <= |beta|")
    steps = [_Gate(cadd(2), ("A", "C"))]
    if alpha > 0.0:  # alpha = 0 always fails, and its controlled-U ratio is ill-posed
        steps += [_Gate(cu_concentration(alpha, beta), ("A", "C")), _Gate(cadd(2), ("A", "C"))]

    def after_ancilla(outcome):
        if outcome == (1,):
            return _Receive(1, 1)
        return [_Gate(cadd(2), ("A", "C")), *_nguyen_stage(channel, target, labelled=False)]

    return steps + [_Measure(("C",), after_ancilla)]


def _plan(protocol: str, channel: ChannelSpec | None, target: TargetState, mode: str) -> tuple:
    """Mode, channel and step list of a configuration.

    The register cap is checked first, so a d over it fails before any gate is built.
    """
    if protocol == "nguyen":
        if target.d != 2:
            raise InvalidState("this baseline prepares qubit targets only")
        channel, mode = ChannelSpec.maximal(2), None
    elif protocol not in PROTOCOLS:
        raise InvalidState(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    elif channel is None:
        raise InvalidState(f"the {protocol} protocol needs a channel")
    if channel.d**3 > MAX_DIM:
        raise CapacityExceeded(f"register dimension {channel.d**3} exceeds cap {MAX_DIM}")
    if protocol == "nguyen":
        steps = [_Gate(cadd(2), ("A", "C")), *_nguyen_stage(channel, target, labelled=True)]
    elif protocol == "deterministic":
        steps = _deterministic_steps(channel, target, mode)
    else:
        mode, steps = None, _probabilistic_steps(channel, target)
    return mode, channel, steps


def _start(channel: ChannelSpec) -> StateRegister:
    """The channel on A and B, ancilla C in |0>: lambda_m at |m, m, 0>.  _plan checked its cap."""
    d = channel.d
    amps = np.zeros(d**3, dtype=complex)
    amps[np.arange(d) * (d * d + d)] = channel.lambdas
    return StateRegister((d, d, d), amps, ("A", "B", "C"))


# ---------------------------------------------------------------------------
# interpreter


class _Path(NamedTuple):
    """One path from the root: what it accumulated, then what the receiver got."""

    label: tuple[int, ...] = ()
    p: float = 1.0  # product of every measurement probability on the path
    steps: tuple[GateStep, ...] = ()
    records: tuple[MeasurementRecord, ...] = ()
    raw_norm: float | None = None
    correction: str = ""
    bob: np.ndarray | None = None
    fidelity: float = 0.0
    corrected: bool = False


def _received(reg: StateRegister, leaves: Sequence[_Receive]) -> np.ndarray:
    """B's unnormalized state given A's and C's indices, one row per leaf: one gather.

    Taken from the measured register, never a collapsed copy.  A subsystem
    measured in a basis stays in that basis, so index i of A reads basis
    column mu_i: <i|<j| (mu^dag x nu^dag) psi = <mu_i|<nu_j| psi.
    """
    psi = reg.amplitudes.reshape(reg.dims).transpose(reg.axis("A"), reg.axis("C"), reg.axis("B"))
    a, c = np.array(leaves).T
    return psi[a, c]


def _finish(target: np.ndarray, reg: StateRegister,
            leaves: Sequence[tuple[tuple[int, ...], _Receive]],
            correct: Callable | None) -> Iterator[tuple[str, np.ndarray, float]]:
    """(description, corrected B state, fidelity) of each (outcome, leaf), as one block.

    Every corrected row must be finite and normalized before its fidelity is
    taken.  The rows are views of one read-only block, so no two share
    writable memory.
    """
    outcomes, states = zip(*leaves)
    bobs = _received(reg, states)
    n = np.linalg.norm(bobs, axis=1)
    if n.min() < PROB_FLOOR:
        raise SimulationError("conditional state has no amplitude mass")
    bobs /= n[:, None]
    descs, final = ["none (failure branch)"] * len(bobs), bobs
    if correct is not None:
        descs, final = correct(np.array(outcomes), bobs)
        if not np.abs(np.linalg.norm(final, axis=1) - 1.0).max() <= STRUCT_TOL:  # NaN fails too
            raise InvalidState("corrected states must be finite and normalized")
    final.flags.writeable = False
    return zip(descs, final, (np.abs(final @ target.conj()) ** 2).tolist())


def _walk(target: np.ndarray, reg: StateRegister, steps: list, path: _Path,
          rng: np.random.Generator | None) -> Iterator[_Path]:
    """Paths through ``steps``: every branch with p >= PROB_FLOOR, or one drawn with ``rng``.

    A measurement in a basis rotates its target into that basis first, and
    its branches stay there.  The branches that end in a receive leaf are
    finished together by ``_finish``.  Unlabelled branches must sum to 1.
    """
    *gates, last = steps
    raw_norm = path.raw_norm
    for g in gates:
        reg = reg.apply(g.gate, g.targets, strict=g.strict)
        if not g.strict:
            raw_norm = reg.norm
            if abs(raw_norm - 1.0) > STRUCT_TOL:
                reg = reg.normalized()
    if gates:
        path = path._replace(raw_norm=raw_norm, steps=path.steps + tuple(
            GateStep(g.gate.name, g.targets, g.gate.defect, g.gate.defect > UNITARY_TOL)
            for g in gates))
    if last.basis is not None:
        reg = reg.apply(last.basis, last.targets)
    marg = reg._marginal(last.targets)
    probs = marg.reshape(-1)
    if rng is None:
        picks = np.flatnonzero(probs >= PROB_FLOOR)
        total = 1.0 if last.labelled else float(probs[picks].sum())
        if abs(total - 1.0) > 1e-12:
            raise SimulationError(f"unlabelled branches of {last.targets} sum to {total}, not 1")
    else:
        picks = [_draw(probs, rng)]
    outcomes = list(zip(*(ix.tolist() for ix in np.unravel_index(picks, marg.shape))))
    nxts = [last.then(outcome) for outcome in outcomes]
    leaves = [(o, nxt) for o, nxt in zip(outcomes, nxts) if isinstance(nxt, _Receive)]
    if leaves:
        finished = _finish(target, reg, leaves, last.correct)
    for outcome, p, nxt in zip(outcomes, probs[picks].tolist(), nxts):
        label = path.label + outcome if last.labelled else path.label
        records = path.records + (MeasurementRecord(last.targets, outcome, p),)
        if isinstance(nxt, _Receive):
            desc, bob, fidelity = next(finished)
            yield path._replace(label=label, p=path.p * p, records=records, correction=desc,
                                bob=bob, fidelity=fidelity, corrected=last.correct is not None)
            continue
        branch = reg.project(last.targets, outcome)[1]
        yield from _walk(target, branch, nxt, path._replace(label=label, p=path.p * p,
                                                            records=records), rng)


def exact_outcome_table(protocol: str, channel: ChannelSpec | None, target: TargetState,
                        mode: str = "repaired") -> OutcomeTable:
    """Every branch, exactly; paths sharing a label fold into one row (summed p, min fidelity)."""
    mode, channel, steps = _plan(protocol, channel, target, mode)
    groups: dict[tuple[int, ...], list[_Path]] = {}
    for path in _walk(target.vector(), _start(channel), steps, _Path(), None):
        groups.setdefault(path.label, []).append(path)
    rows = tuple(
        OutcomeRow(label, sum(q.p for q in paths), paths[0].bob,
                   min(q.fidelity for q in paths), all(q.corrected for q in paths))
        for label, paths in groups.items()
    )
    pairs = tuple(itertools.product(range(channel.d), repeat=2))
    space = ((0,), (1,)) if protocol == "probabilistic" else pairs
    return OutcomeTable(protocol, mode, channel, target, rows, space)


def run_protocol(protocol: str, channel: ChannelSpec | None, target: TargetState,
                 mode: str = "repaired", rng: np.random.Generator | None = None) -> Transcript:
    """One sampled run of any protocol, with one draw per measurement."""
    mode, channel, steps = _plan(protocol, channel, target, mode)
    rng = rng if rng is not None else np.random.default_rng()
    (path,) = _walk(target.vector(), _start(channel), steps, _Path(), rng)
    return Transcript(
        protocol=protocol, mode=mode, channel=channel, target=target,
        steps=path.steps, measurements=path.records,
        messages=tuple(ClassicalMessage(r.subsystems, r.outcome) for r in path.records),
        outcome=path.label, correction=path.correction, bob_state=path.bob,
        fidelity=path.fidelity,
        success=succeeded(path.corrected, path.fidelity), raw_norm=path.raw_norm,
    )

