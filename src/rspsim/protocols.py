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

Each protocol is declared once, as a :class:`ProtocolSpec` in ``SPECS``:
its name, the builder of its step list over the register of ``_LAYOUT``,
the target dimensions it accepts, whether it takes a channel or fixes
the maximal one, its modes and its channel rule.  ``_plan`` checks a
batch with the record's ``validate`` before it builds the step list, and
the CLI, the sweep and the oracle call the same checks, so each rule has
one message.

A branch tree is grown from a step list lazily, for a batch of channels
that share it and a target: a measurement node applies the gates before
it once and expands each child on its first visit, and the branches that
end at the receiver are finished as one block of rows.
:func:`exact_outcome_tables` expands the whole tree of a grid of
channels; a run's :class:`Transcript` is read from one draw from a fresh
tree of one channel, with one ``rng.random()`` per measurement.

Success is one fixed rule, :func:`succeeded`, read by runs, tables and
sweeps alike: a branch succeeds when the protocol corrects it and its
fidelity to the target is at least 1 - SUCCESS_TOL.  A branch the
protocol declares failed never succeeds, whatever its fidelity.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
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
    _cdf,
    _norm_defects,
    _pick,
)

# A branch succeeds when the protocol corrects it and its fidelity reaches 1 - SUCCESS_TOL.
SUCCESS_TOL = 1e-9

# The nguyen stage's correction of B for the message (mu, nu): I, Z, XZ, X.
PAULI_TABLE = np.array([[[[1, 0], [0, 1]], [[1, 0], [0, -1]]],
                        [[[0, -1], [1, 0]], [[0, 1], [1, 0]]]], dtype=complex)
PAULI_NAMES = (("I", "Z"), ("XZ", "X"))


def _unit_vector(values: Sequence[complex], too_short: str, off_norm: str) -> tuple[complex, ...]:
    """``values`` divided by their norm, which must be within STRUCT_TOL of 1.

    Raises InvalidState with ``too_short`` below two entries and with
    ``off_norm`` for a norm off 1.
    """
    v = as_cvec(values)
    if v.size < 2:
        raise InvalidState(too_short)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > STRUCT_TOL:
        raise InvalidState(off_norm)
    return tuple(complex(x) for x in v / norm)


@dataclass(frozen=True)
class ChannelSpec:
    """Schmidt coefficients lambda_0..lambda_{d-1} of the A-B channel.

    Construction accepts a norm within STRUCT_TOL of 1 and stores the
    coefficients divided by it.
    """

    lambdas: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _unit_vector(
            self.lambdas, "channel needs dimension d >= 2",
            "channel coefficients must satisfy sum |lambda_m|^2 = 1"))

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
        object.__setattr__(self, "amplitudes", _unit_vector(
            self.amplitudes, "target needs dimension d >= 2", "target amplitudes must be normalized"))

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
# protocols as step lists: gates, then one measurement.  One list serves a
# batch of channels that share it: a gate is shared, or stacked with one
# matrix per channel.  A measurement's ``then(outcome)`` returns the steps
# that follow, or a receive leaf; unless ``labelled``, its outcome stays out
# of the table's row label.  A measurement in a basis rotates its one target
# by basis^dag, and that subsystem stays in the measured frame: outcome k is
# |k> there, so no later gate may act on it.  A leaf is the index tuple, one
# per subsystem but the receiver's, that B's state is conditioned on
# (_Layout.leaf).  The measurement corrects the B states of all its leaves
# as one block with ``correct(outcomes, channels, bobs) -> corrected rows``,
# given per row the picked outcomes as an int array of shape
# (k, len(targets)), the index of its channel in the batch, and B's state,
# as rows of shape (k, d).  None declares those branches failed.  Its
# ``describe(outcome)`` names the correction of one outcome; only a
# transcript reads it.


class _Layout(NamedTuple):
    labels: tuple[str, ...]  # in axis order; every subsystem has dimension d
    channel: tuple[str, str]  # the pair that starts in the channel
    receiver: str

    def leaf(self, **indices: int) -> tuple[int, ...]:
        """A receive leaf: the index of each subsystem but the receiver's, in axis order."""
        return tuple([indices[label] for label in self.labels if label != self.receiver])

    def size(self, d: int) -> int:
        """Amplitudes of one register: d per subsystem."""
        return d ** len(self.labels)


_LAYOUT = _Layout(("A", "B", "C"), ("A", "B"), "B")  # of every step list; A, C: the sender's


class _Gate(NamedTuple):
    gate: GateMatrix
    targets: tuple[str, ...]
    strict: bool = True


def _uncorrected(_outcome: tuple[int, ...]) -> str:
    return "none (failure branch)"


class _Measure(NamedTuple):
    targets: tuple[str, ...]  # a single target when measured in a basis
    then: Callable[[tuple[int, ...]], list | tuple[int, ...]]  # steps, or a leaf
    basis: GateMatrix | None = None  # basis^dag, see _basis_gates
    labelled: bool = True
    correct: Callable[..., np.ndarray] | None = None  # see above
    describe: Callable[[tuple[int, ...]], str] = _uncorrected


def _apply_rows(matrices: np.ndarray, bobs: np.ndarray) -> np.ndarray:
    """Row k of ``bobs`` times ``matrices[k]``: one correction matrix per branch."""
    return np.einsum("kij,kj->ki", matrices, bobs)


def check_mode(mode: str | None, d: int) -> None:
    """Raise Unsupported unless ``mode`` is defined at dimension d."""
    if mode == "literal" and d != 2:
        raise Unsupported("literal mode is defined only for d = 2")


def check_dimension(d: int, lengths: Iterable[int] = ()) -> None:
    """Raise unless each channel length is d and one register at d fits the cap.

    InvalidState for a length or a d below 2, CapacityExceeded over the cap.
    """
    for n in lengths:
        if n != d:
            raise InvalidState(f"lambda has {n} entries but target has {d}")
    if d < 2 or _LAYOUT.size(d) > MAX_DIM:
        raise (InvalidState if d < 2 else CapacityExceeded)(
            f"d = {d} is out of range; needs d >= 2 and a register of at most {MAX_DIM} amplitudes")


def _deterministic_steps(channels: Sequence[ChannelSpec], target: TargetState, mode: str) -> list:
    """The one step list of every channel: it reads the target, never the channel."""
    d = target.d
    if mode == "repaired":
        enc = encoding_unitary(target.amplitudes)
        fix = correction_chain(enc)

        def name(a):
            return f"V[{a}] (encoder-derived, target-dependent)"
    else:  # literal, which _plan allows at d = 2 only
        enc = encoding_unitary_literal(*target.qubit_params())
        printed = PAULI_TABLE[0]  # I on a = 0, sigma_z on 1

        def fix(a, bobs):
            return _apply_rows(printed[a], bobs)

        name = ("identity", "sigma_z").__getitem__

    def correct(outcomes, _channels, bobs):
        a, c = outcomes.T
        if (a != c).any():
            bad = np.flatnonzero(a != c)[0]
            raise SimulationError(f"branch A={a[bad]}, C={c[bad]} has weight; "
                                  "branch structure is corrupted")
        return fix(a, bobs)

    return [_Gate(cadd(d), ("A", "C")), _Gate(enc, ("A",), strict=mode == "repaired"),
            _Gate(csub(d), ("A", "B")), _Gate(cadd(d), ("B", "A")),
            _Measure(("A", "C"), lambda ac: _LAYOUT.leaf(A=ac[0], C=ac[1]), correct=correct,
                     describe=lambda ac: name(ac[0]))]


def _nguyen_fixes(channels: Sequence[ChannelSpec]) -> np.ndarray:
    """B's correction for each channel and message (mu, nu): the Pauli table after
    diag(e^{-i arg lambda}), shape (channels, 2, 2, 2, 2).

    It reads only the message and the channel, which both parties share.  No
    gate acts on B before its correction, so the channel phases still sit
    on B's basis states and the diagonal can come last.
    """
    phases = np.exp(-1j * np.angle([c.lambdas for c in channels]))
    return PAULI_TABLE * phases[:, None, None, None, :]


def _nguyen_stage(channels: Sequence[ChannelSpec], target: TargetState, labelled: bool) -> list:
    """Measure A in the mu basis, phase C on mu outcome 0, measure C in nu, correct B."""
    mu, nu, phase = nguyen_bases(*target.qubit_params())
    mu_rot, nu_rot = _basis_gates(mu, 2), _basis_gates(nu, 2)
    fixes = _nguyen_fixes(channels)

    def after_mu(out_mu):
        (i,) = out_mu

        def correct(outcomes, channels, bobs):
            return _apply_rows(fixes[channels, i, outcomes[:, 0]], bobs)

        def describe(out_nu):
            (n,) = out_nu
            return f"{PAULI_NAMES[i][n]} (mu={i}, nu={n}) after channel-phase diagonal"

        measure_nu = _Measure(("C",), lambda out_nu: _LAYOUT.leaf(A=i, C=out_nu[0]), nu_rot,
                              labelled, correct, describe)
        return [_Gate(phase, ("C",)), measure_nu] if i == 0 else [measure_nu]

    return [_Measure(("A",), after_mu, mu_rot, labelled)]


def _concentrable(channel: ChannelSpec, alpha: str = "alpha", beta: str = "beta",
                  where: str = "in lambda") -> str | None:
    """The probabilistic baseline's channel rule, worded for lambda unless a caller rewords it."""
    if abs(channel.lambdas[0]) > abs(channel.lambdas[1]) + STRUCT_TOL:
        return f"the probabilistic baseline needs |{alpha}| <= |{beta}| {where}"
    return None


def _probabilistic_steps(channels: Sequence[ChannelSpec], target: TargetState) -> list:
    """Concentrate, then measure C: 1 abandons the run, 0 completes it in unlabelled steps.

    Every channel has the same list, and one ``cu_concentration`` call builds
    the controlled-U of the whole batch.  At alpha = 0 its block is exact,
    so the run ends at C = 1 with all the mass, as it must.
    """
    pairs = [(abs(c.lambdas[0]), abs(c.lambdas[1])) for c in channels]
    cu = cu_concentration(*np.array(pairs).T)
    steps = [_Gate(cadd(2), ("A", "C")), _Gate(cu, ("A", "C")), _Gate(cadd(2), ("A", "C"))]

    def after_ancilla(outcome):
        if outcome == (1,):  # A is never measured, but this branch is |1, 1, 1>
            return _LAYOUT.leaf(A=1, C=1)
        return [_Gate(cadd(2), ("A", "C")), *_nguyen_stage(channels, target, labelled=False)]

    return steps + [_Measure(("C",), after_ancilla)]


class ProtocolSpec(NamedTuple):
    """One protocol, declared once: everything a caller reads of it by its name."""

    name: str
    steps: Callable[..., list]  # (channels, target, mode) -> the batch's one step list
    dims: tuple[int, ...] | None = None  # the target dimensions it prepares; None: every d
    fixed_channel: bool = False  # runs over the maximal channel, whatever it is given
    modes: tuple[str, ...] = ()  # without modes, its runs and tables carry mode None
    check: Callable[..., str | None] | None = None  # (channel, **wording) -> message or None

    def problem(self, d: int, channels: Iterable[ChannelSpec | None], **wording: str) -> str | None:
        """The first rule that a target of dimension d or ``channels`` (None: not given) break."""
        if self.dims is not None and d not in self.dims:
            return f"the {self.name} baseline needs d = {' or '.join(map(str, self.dims))}"
        for channel in () if self.fixed_channel else channels:
            if channel is None:
                return "missing required field: lambda"
            message = self.check and self.check(channel, **wording)
            if message:
                return message
        return None

    def validate(self, d: int, channels: Sequence[ChannelSpec | None], mode: str | None) -> None:
        """Raise the first rule that a target of dimension d, ``channels`` and ``mode`` break, in
        the CLI's order: ``check_dimension``, ``check_mode``, then ``problem``."""
        check_dimension(d, () if self.fixed_channel else [c.d for c in channels if c is not None])
        if self.modes:
            check_mode(mode, d)
        if message := self.problem(d, channels):
            raise InvalidState(message)


# The builders are looked up by name on each call, as every other name a step list reads.
SPECS = {spec.name: spec for spec in (
    ProtocolSpec("deterministic", lambda channels, target, mode:
                 _deterministic_steps(channels, target, mode), modes=("repaired", "literal")),
    ProtocolSpec("probabilistic", lambda channels, target, _mode:
                 _probabilistic_steps(channels, target), dims=(2,), check=_concentrable),
    ProtocolSpec("nguyen", lambda channels, target, _mode:
                 [_Gate(cadd(2), ("A", "C")), *_nguyen_stage(channels, target, labelled=True)],
                 dims=(2,), fixed_channel=True),
)}
PROTOCOLS = tuple(SPECS)
MODES = tuple(dict.fromkeys(mode for spec in SPECS.values() for mode in spec.modes))


def protocol_spec(protocol: str) -> ProtocolSpec:
    """The declaration of ``protocol``; InvalidState names the known ones."""
    if protocol not in SPECS:
        raise InvalidState(f"unknown protocol {protocol!r}; expected one of {tuple(SPECS)}")
    return SPECS[protocol]


def _plan(protocol: str, channels: Sequence[ChannelSpec | None], target: TargetState,
          mode: str) -> tuple:
    """Mode, channels and the one step list of a batch of channels.

    The protocol's rules, the register cap among them, are checked first,
    so a d over the cap fails before any gate is built.
    """
    spec = protocol_spec(protocol)
    spec.validate(target.d, channels, mode)
    if spec.fixed_channel:
        channels = (ChannelSpec.maximal(target.d),) * len(channels)
    if not spec.modes:
        mode = None
    elif mode not in spec.modes:
        raise InvalidState(f"unknown mode {mode!r}; expected one of {spec.modes}")
    return mode, tuple(channels), spec.steps(channels, target, mode)


def _start(channels: Sequence[ChannelSpec]) -> StateRegister:
    """Per channel, lambda_m at |m, m> on the channel pair, |0> elsewhere; _plan checks the cap.

    The register keeps the array written here, checked over the lambdas alone.
    """
    d, labels = channels[0].d, _LAYOUT.labels
    step = sum(d ** (len(labels) - 1 - labels.index(label)) for label in _LAYOUT.channel)
    lambdas = np.array([channel.lambdas for channel in channels], dtype=complex)
    amps = np.zeros((len(channels), _LAYOUT.size(d)), dtype=complex)
    amps[:, : d * step : step] = lambdas
    return StateRegister._adopt((d,) * len(labels), labels, amps.reshape(-1), lambdas)


# ---------------------------------------------------------------------------
# interpreter


class _Path(NamedTuple):
    """What every branch below a node shares, for the batch elements that reach it with mass.

    ``members`` are those elements' indices in the batch, and every
    per-element field is a tuple aligned with them.  A record holds a
    measurement's targets, its outcome and the probability of each element
    that took it.
    """

    members: tuple[int, ...]
    p: tuple[float, ...]  # per element: product of every measurement probability on the path
    label: tuple[int, ...] = ()
    steps: tuple[GateStep, ...] = ()
    records: tuple[tuple[tuple[str, ...], tuple[int, ...], tuple[float, ...]], ...] = ()
    raw_norm: tuple[float, ...] | None = None


class _Leaves(NamedTuple):
    """The receive leaves that one expansion of a node finished, as one block of rows.

    Leaf k is outcome ``outcomes[k]`` of the node's measurement ``last``,
    with row label ``labels[k]``.  It has one row per element that reaches
    it, in the node's element order, and the rows run leaf by leaf.  Per
    row: its ``leaf``, the batch index of its element, the probability ``q``
    of the last outcome and ``p`` of the whole path, and B's final state
    and its fidelity to the target.  What every row shares is held once:
    the node's ``path`` (steps, records, raw norms, label prefix) and
    whether the protocol corrected it.
    """

    path: _Path
    last: _Measure
    outcomes: list[tuple[int, ...]]
    labels: list[tuple[int, ...]]
    leaf: list[int]  # ascending
    elements: list[int]
    q: list[float]
    p: list[float]
    fidelity: list[float]
    bob: np.ndarray  # read-only, one row per row of the block
    corrected: bool

    def rows(self, leaves: range) -> slice:
        """The rows of a run of consecutive leaves."""
        return slice(bisect.bisect_left(self.leaf, leaves.start),
                     bisect.bisect_left(self.leaf, leaves.stop))


def _received(reg: StateRegister, rows: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Unnormalized received state of element ``rows[k]`` at leaf ``others[:, k]``: one gather.

    Taken from the measured register, never a collapsed copy.  A subsystem
    measured in a basis stays in that basis, so index i of A reads basis
    column mu_i: <i|<j| (mu^dag x nu^dag) psi = <mu_i|<nu_j| psi.
    """
    psi = reg.amplitudes.reshape((reg.batch,) + reg.dims)
    last = 1 + reg.axis(_LAYOUT.receiver)  # the receiver's axis, moved last
    return psi.transpose([*range(last), *range(last + 1, psi.ndim), last])[(rows, *others)]


def _finish(target: np.ndarray, reg: StateRegister, path: _Path, last: _Measure,
            ends: Sequence[tuple[tuple[int, ...], tuple[int, ...]]], qs: np.ndarray) -> _Leaves:
    """The (outcome, leaf) pairs ``ends`` of one node, finished as one block.

    ``qs[j, k]`` is the probability that the register's element j takes
    leaf k; the elements at or above PROB_FLOOR reach it.  B's states are
    gathered, normalized and corrected together, and every corrected row
    must be finite and normalized before its fidelity is taken.
    """
    outcomes = [outcome for outcome, _ in ends]
    leaf, rows = (qs.T >= PROB_FLOOR).nonzero()  # leaf by leaf, each in element order
    # Per row, its leaf's outcome, then the leaf's indices: one gather of a per-leaf table.
    picks = np.fromiter(itertools.chain.from_iterable(o + r for o, r in ends),
                        np.intp).reshape(len(ends), -1)[leaf]
    bobs = _received(reg, rows, picks[:, len(outcomes[0]):].T)
    n = np.linalg.norm(bobs, axis=1)
    if n.min() < PROB_FLOOR:
        raise SimulationError("conditional state has no amplitude mass")
    bobs /= n[:, None]
    elements = np.array(path.members)[rows]
    if last.correct is not None:
        bobs = last.correct(picks[:, :len(outcomes[0])], elements, bobs)
        if not all(x <= STRUCT_TOL for x in _norm_defects(bobs, len(bobs))):
            raise InvalidState("corrected states must be finite and normalized")  # NaN too
    bobs.flags.writeable = False
    q = qs[rows, leaf]
    labels = ([path.label + o for o in outcomes] if last.labelled
              else [path.label] * len(outcomes))
    return _Leaves(path, last, outcomes, labels, leaf.tolist(),
                   elements.tolist(), q.tolist(), (np.array(path.p)[rows] * q).tolist(),
                   (np.abs(bobs @ target.conj()) ** 2).tolist(), bobs, last.correct is not None)


class _Node:
    """A measurement in a batch's branch tree, expanded on first visit.

    It holds the register the measurement reads, already in its basis,
    with one element per batch member that reaches it, and their Born
    probabilities, one row per element, flat in row-major outcome order.
    ``children`` maps a flat outcome index to the subtree that follows or,
    where the receiver gets B, to its leaf (block, k): leaf k of a finished
    block.  An outcome is a child when some element takes it with p >=
    PROB_FLOOR, and the elements below the floor do not follow it.  A tree
    lives only as long as the call that built it.
    """

    def __init__(self, target: np.ndarray, reg: StateRegister, last: _Measure, path: _Path):
        marg = reg._marginal(last.targets)
        self.target, self.reg, self.last, self.path = target, reg, last, path
        self.shape, self.probs = marg.shape[1:], marg.reshape(reg.batch, -1)
        self.children: dict[int, _Node | tuple[_Leaves, int]] = {}

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """The CDF that draws search, built on the first draw.  Draws read a tree of one channel."""
        return _cdf(self.probs[0])

    def expand(self, picks: Sequence[int]) -> list:
        """The children at flat outcome indices ``picks``, each expanded on its first visit.

        The new branches that end in a receive leaf are finished together
        by ``_finish``, as one block.
        """
        last, path = self.last, self.path
        new = [i for i in picks if i not in self.children]
        if not new:
            return [self.children[i] for i in picks]
        outcomes = list(zip(*(ix.tolist() for ix in np.unravel_index(new, self.shape))))
        nxts = [last.then(outcome) for outcome in outcomes]
        qs = self.probs[:, new]  # per element, each new outcome's probability
        ends = [k for k, nxt in enumerate(nxts) if isinstance(nxt, tuple)]
        if ends:
            block = _finish(self.target, self.reg, path, last,
                            [(outcomes[k], nxts[k]) for k in ends],
                            qs if len(ends) == len(new) else qs[:, ends])
            leaves = iter(range(len(ends)))
        for i, outcome, nxt, row in zip(new, outcomes, nxts, qs.T.tolist()):
            if isinstance(nxt, tuple):
                self.children[i] = (block, next(leaves))
                continue
            keep = [j for j, q in enumerate(row) if q >= PROB_FLOOR]
            if len(keep) == len(row):  # every element takes it: nothing to pick out
                members, p, q, raw_norm = path.members, path.p, tuple(row), path.raw_norm
            else:
                members, p, q = (tuple(v[j] for j in keep) for v in (path.members, path.p, row))
                raw_norm = path.raw_norm and tuple(path.raw_norm[j] for j in keep)
            _, reg = self.reg.project(last.targets, outcome)
            if reg is None or reg.batch != len(keep):
                raise SimulationError(f"outcome {outcome} of {last.targets} lost mass in projection")
            self.children[i] = _node(self.target, reg, nxt, _Path(
                members, tuple(map(operator.mul, p, q)),
                path.label + outcome if last.labelled else path.label, path.steps,
                path.records + ((last.targets, outcome, q),), raw_norm))
        return [self.children[i] for i in picks]

    def blocks(self) -> Iterator[tuple[_Leaves, range]]:
        """Every leaf, in outcome order, as runs of consecutive leaves of one block.

        Each element's unlabelled branches must sum to 1.
        """
        live = self.probs >= PROB_FLOOR
        if not self.last.labelled:
            for total in np.where(live, self.probs, 0.0).sum(axis=1).tolist():
                if abs(total - 1.0) > 1e-12:
                    raise SimulationError(
                        f"unlabelled branches of {self.last.targets} sum to {total}, not 1")
        run = None  # [block, first leaf, last leaf + 1]
        for child in self.expand(np.flatnonzero(live.any(axis=0)).tolist()):
            if isinstance(child, _Node):
                if run:
                    yield run[0], range(run[1], run[2])
                    run = None
                yield from child.blocks()
            elif run and child[0] is run[0] and child[1] == run[2]:
                run[2] += 1
            else:
                if run:
                    yield run[0], range(run[1], run[2])
                run = [*child, child[1] + 1]
        if run:
            yield run[0], range(run[1], run[2])

    def draw(self, rng: np.random.Generator) -> tuple[_Leaves, int]:
        """One leaf (block, k), picked with one ``rng.random()`` per measurement on its path."""
        node = self
        while isinstance(node, _Node):
            (node,) = node.expand([int(_pick(node.cdf, rng.random()))])
        return node


def _node(target: np.ndarray, reg: StateRegister, steps: list, path: _Path) -> _Node:
    """The node of the measurement that ends ``steps``, its gates applied to ``reg`` once.

    Each run of consecutive index-map gates is one gather, and each gate
    still adds its own step.  A measurement in a basis rotates its target
    into that basis first, and its branches stay there.  Not the node's
    constructor: a constructor's caller holds ``reg`` until it returns (a
    d = 32 start register, 512 KiB more peak), while CPython 3.11 lets a
    function drop it after one gate.
    """
    *gates, last = steps
    for gathered, run in itertools.groupby(gates, lambda g: g.gate.src is not None and g.strict):
        if gathered:  # consecutive index maps: one gather through their composed table
            reg = reg._permute([(g.gate, g.targets) for g in run])
            continue
        for g in run:
            reg = reg.apply(g.gate, g.targets, strict=g.strict)
            if not g.strict:  # each element's norm by ``norm``'s own formula, so a run's bits stay
                path = path._replace(raw_norm=tuple(
                    float(np.linalg.norm(e)) for e in reg.amplitudes.reshape(reg.batch, -1)))
    if gates:
        path = path._replace(steps=path.steps + tuple(
            GateStep(g.gate.name, g.targets, g.gate.defect, g.gate.defect > UNITARY_TOL)
            for g in gates))
    if last.basis is not None:
        reg = reg.apply(last.basis, last.targets)
    return _Node(target, reg, last, path)


def _tree(protocol: str, channels: Sequence[ChannelSpec | None], target: TargetState,
          mode: str) -> tuple[str | None, tuple[ChannelSpec, ...], _Node]:
    """Mode, channels and unexpanded branch tree of a batch of channels."""
    mode, channels, steps = _plan(protocol, channels, target, mode)
    n = len(channels)
    return mode, channels, _node(target.vector(), _start(channels), steps,
                                 _Path(tuple(range(n)), (1.0,) * n))


@functools.lru_cache(maxsize=8)
def _outcome_space(d: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Every label of ``length`` indices over range(d): a table's outcome space."""
    return tuple(itertools.product(range(d), repeat=length))


# A batched walk's register holds at most this many amplitudes, a quarter of the cap:
# an apply on targets that are not a run of axes in order (the qubit controlled-U on A
# and C) holds the register, its product and the transposed result, three arrays at once.
_BATCH_AMPLITUDES = MAX_DIM // 4


def _walk_tables(protocol: str, channels: Sequence[ChannelSpec | None], target: TargetState,
                 mode: str) -> list[OutcomeTable]:
    """The tables of a batch of channels, from one fully expanded tree.

    Each block's rows fold, in leaf order, into their channel's rows: rows
    sharing a label become one (summed p, min fidelity).  The tree dies on
    return, so a chunk's registers never outlive its walk.
    """
    mode, channels, root = _tree(protocol, channels, target, mode)
    groups: list[dict[tuple[int, ...], tuple[list, list, list]]] = [{} for _ in channels]
    for block, leaves in root.blocks():
        labels, corrected = block.labels, block.corrected
        rows = block.rows(leaves)
        for j, k, p, fidelity in zip(block.elements[rows], block.leaf[rows], block.p[rows],
                                     block.fidelity[rows]):
            ps, fidelities, flags = groups[j].setdefault(labels[k], ([], [], []))
            ps.append(p)
            fidelities.append(fidelity)
            flags.append(corrected)
    space = _outcome_space(channels[0].d, len(labels[0]))  # every label has one length
    return [OutcomeTable(protocol, mode, channel, target,
                         tuple(OutcomeRow(label, sum(ps), min(fidelities), all(flags))
                               for label, (ps, fidelities, flags) in group.items()), space)
            for channel, group in zip(channels, groups)]


def exact_outcome_tables(protocol: str, channels: Sequence[ChannelSpec | None],
                         target: TargetState, mode: str = "repaired") -> list[OutcomeTable]:
    """The exact table of each channel, every branch exactly, from batched walks.

    Every channel of a protocol shares its step list, so the batch walks
    together.  A walk holds at most _BATCH_AMPLITUDES amplitudes (one
    channel at least), so a longer batch is walked in chunks.
    """
    channels = list(channels)
    chunk = max(1, _BATCH_AMPLITUDES // _LAYOUT.size(target.d))
    return [table for first in range(0, len(channels), chunk)
            for table in _walk_tables(protocol, channels[first:first + chunk], target, mode)]


def exact_outcome_table(protocol: str, channel: ChannelSpec | None, target: TargetState,
                        mode: str = "repaired") -> OutcomeTable:
    """Every branch, exactly; paths sharing a label fold into one row (summed p, min fidelity)."""
    return exact_outcome_tables(protocol, [channel], target, mode)[0]


def run_protocol(protocol: str, channel: ChannelSpec | None, target: TargetState,
                 mode: str = "repaired", rng: np.random.Generator | None = None) -> Transcript:
    """One sampled run of any protocol, with one draw per measurement."""
    mode, (channel,), root = _tree(protocol, [channel], target, mode)
    block, k = root.draw(rng if rng is not None else np.random.default_rng())
    r, path, last, outcome = block.leaf.index(k), block.path, block.last, block.outcomes[k]  # one row
    records = tuple(MeasurementRecord(t, o, q[0]) for t, o, q in path.records)
    records += (MeasurementRecord(last.targets, outcome, block.q[r]),)
    return Transcript(
        protocol=protocol, mode=mode, channel=channel, target=target,
        steps=path.steps, measurements=records,
        messages=tuple(ClassicalMessage(rec.subsystems, rec.outcome) for rec in records),
        outcome=block.labels[k], correction=last.describe(outcome), bob_state=block.bob[r],
        fidelity=block.fidelity[r], success=succeeded(block.corrected, block.fidelity[r]),
        raw_norm=None if path.raw_norm is None else path.raw_norm[0],
    )
