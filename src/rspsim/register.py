"""Multi-qudit state register with named subsystems.

Amplitudes are a flat complex vector in row-major subsystem order (the
leftmost label is the most significant digit), matching ket notation
|ABC>.  Registers are immutable values: every operation returns a new
instance, so they are safe to share across threads.  Randomness enters
only through an explicitly passed numpy Generator.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityExceeded,
    DegenerateState,
    IndexOutOfRange,
    InvalidState,
    NonUnitaryGate,
    ShapeError,
)
from .gates import UNITARY_TOL, GateMatrix, make_gate
from .linalg import MAX_DIM, STRUCT_TOL, as_cvec

# Probabilities below this are treated as exact zeros before sampling, so
# floating residue can never realize an impossible branch.
PROB_FLOOR = 1e-15


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Generator seeded by hashing (master_seed, *path).

    Trials seeded this way are reproducible regardless of execution order.
    """
    entropy = (int(master_seed),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _cdf(probs: Sequence[float]) -> np.ndarray:
    """CDF of Born probabilities, ending at exactly 1: what ``_pick`` searches.

    Probabilities below the floor are truncated to zero first, so
    roundoff can never realize an impossible branch.  The CDF is built as
    ``Generator.choice`` builds it: ``cumsum(p / total)``, divided by its
    last entry.
    """
    p = np.array(probs)
    p[p < PROB_FLOOR] = 0.0
    total = p.sum()
    if not total >= 1e-12:  # NaN fails too
        raise DegenerateState("register has no measurable probability mass")
    cdf = np.cumsum(p / total)
    return cdf / cdf[-1]


def _pick(cdf: np.ndarray, u: float | np.ndarray) -> np.intp | np.ndarray:
    """Index of the outcome that each uniform in ``u`` picks: the first i with u < cdf[i].

    The one branch-pick rule: ``StateRegister.measure`` and the protocols'
    branch tree, which caches each measurement's ``_cdf``, both pick through
    it.  ``_pick(_cdf(p), rng.random())`` picks what ``rng.choice`` would
    pick from the truncated, renormalized p.
    """
    return np.searchsorted(cdf, u, side="right")


def _basis_gates(basis: np.ndarray, d: int) -> GateMatrix:
    """basis^dag, which rotates column k onto |k>; rejected unless unitary."""
    m = np.asarray(basis, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    rot = make_gate(m.conj().T, (d,), "basis^dag")  # make_gate's defect rejects non-finite entries
    if rot.defect > UNITARY_TOL:
        raise NonUnitaryGate(f"measurement basis defect {rot.defect:.3e}")
    return rot


def _table(gate: GateMatrix, dims: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    """Whole-register gather of one index-map gate on ``axes``: out = amplitudes[table]."""
    perm = list(axes) + [i for i in range(len(dims)) if i not in axes]
    idx = np.arange(math.prod(dims)).reshape(dims).transpose(perm)
    gathered = idx.reshape(gate.dim, -1)[gate.src]
    table = np.empty(idx.size, dtype=np.intp)
    table.reshape(dims).transpose(perm)[...] = gathered.reshape(idx.shape)
    return table


@functools.lru_cache(maxsize=8)
def _gather_table(run: tuple[tuple[GateMatrix, tuple[int, ...]], ...],
                  dims: tuple[int, ...]) -> np.ndarray:
    """Whole-register gather of a run of index-map gates, each on its axes, applied in order.

    Gate g1 then g2 reads ``amplitudes[t1][t2]``, so the run's table is the
    composition ``t1[t2]``.  Built once per (run, dims); an entry holds one
    index per amplitude, at most 8 MiB under the register cap, and the
    gates' own tables are dropped once composed.
    """
    (gate, axes), *rest = run
    table = _table(gate, dims, axes)
    for gate, axes in rest:
        table = table[_table(gate, dims, axes)]
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective measurement: which subsystems, which outcome, its Born probability."""

    subsystems: tuple[str, ...]
    outcome: tuple[int, ...]
    probability: float


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray
    dim: int

    @classmethod
    def build(cls, entries: np.ndarray) -> "DensityMatrix":
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"density matrix must be square, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > STRUCT_TOL:
            raise InvalidState("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > STRUCT_TOL:
            raise InvalidState(f"density matrix trace {np.trace(m).real} != 1")
        if np.min(np.linalg.eigvalsh(m)) < -STRUCT_TOL:
            raise InvalidState("density matrix has a negative eigenvalue")
        m = m.copy()
        m.flags.writeable = False
        return cls(entries=m, dim=m.shape[0])


def _norm_defects(amps: np.ndarray, batch: int) -> list[float]:
    """|norm - 1| of each of the ``batch`` equal slices of a contiguous complex array.

    A slice with a non-finite entry gets a non-finite defect.
    """
    parts = amps.view(np.float64).reshape(batch, 1, -1)
    squares = (parts @ parts.transpose(0, 2, 1)).ravel().tolist()
    return [abs(math.sqrt(s) - 1.0) for s in squares]


def _check_elements(amps: np.ndarray, batch: int, check_norm: bool = True) -> None:
    """Raise unless every entry is finite and (with ``check_norm``) every element's norm is 1.

    One pass over the amplitudes: finite defects mean finite entries, so only
    an overflow of huge ones needs the scan for non-finite entries.
    """
    defects = _norm_defects(amps, batch)
    if not all(map(math.isfinite, defects)) and not np.isfinite(amps).all():
        raise InvalidState("vector entries must be finite")
    if check_norm and not all(x <= STRUCT_TOL for x in defects):
        raise InvalidState(f"register norm is off 1 by {max(defects)}")


class StateRegister:
    """Normalized pure state over an ordered list of labeled qudits, or a batch of them.

    A batch holds ``batch`` states over the same subsystems, element k in
    ``amplitudes[k * D:(k + 1) * D]`` for D the product of the dims; the cap
    counts all of them.  ``apply``, ``project`` and ``_marginal`` act on
    every element at once.  The methods that read the register as one
    state (``born_probabilities``, ``contract``, ``reduced_density``) need
    ``batch == 1``.
    """

    __slots__ = ("dims", "labels", "amplitudes", "batch")

    def __init__(
        self,
        dims: Sequence[int],
        amplitudes: Sequence[complex] | np.ndarray,
        labels: Sequence[str] | None = None,
        batch: int = 1,
    ):
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims) or not dims:
            raise ShapeError("every subsystem dimension must be >= 1")
        if batch < 1:
            raise ShapeError("a batch holds at least one state")
        total = int(np.prod(dims)) * int(batch)
        if total > MAX_DIM:
            raise CapacityExceeded(f"register dimension {total} exceeds cap {MAX_DIM}")
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise ShapeError("vector must have at least one entry")
        if amps.size != total:
            if not np.isfinite(amps).all():  # non-finite entries are reported before the length
                raise InvalidState("vector entries must be finite")
            raise ShapeError(f"amplitude length {amps.size} != product of dims {total}")
        amps = amps.copy()  # the one copy, read once by the check below
        _check_elements(amps, batch)
        if labels is None:
            labels = tuple(f"q{i}" for i in range(len(dims)))
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(dims) or len(set(labels)) != len(labels):
            raise ShapeError("labels must be distinct and match dims")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "batch", int(batch))

    def _derived(self, amps: np.ndarray, check_norm: bool = True) -> "StateRegister":
        """Register over this one's subsystems holding ``amps``, computed from it.

        ``amps`` must be a fresh contiguous complex vector of whole elements
        that no one else holds; it is frozen in place, not copied.  This
        register already guarantees dims, cap, shape and labels, so only
        finiteness and (with ``check_norm``) each element's norm are checked
        here.
        """
        reg = StateRegister._unchecked(self.dims, self.labels, amps)
        _check_elements(amps, reg.batch, check_norm)
        return reg

    @staticmethod
    def _unchecked(dims: tuple[int, ...], labels: tuple[str, ...],
                   amps: np.ndarray) -> "StateRegister":
        """Register that keeps ``amps`` as it is, frozen in place; nothing is checked."""
        amps.flags.writeable = False
        reg = object.__new__(StateRegister)
        object.__setattr__(reg, "dims", dims)
        object.__setattr__(reg, "labels", labels)
        object.__setattr__(reg, "amplitudes", amps)
        object.__setattr__(reg, "batch", amps.size // math.prod(dims))
        return reg

    @staticmethod
    def _adopt(dims: tuple[int, ...], labels: tuple[str, ...], amps: np.ndarray,
               support: np.ndarray) -> "StateRegister":
        """Register that keeps the fresh array ``amps`` instead of copying it.

        ``support`` holds, one contiguous row per element, the only entries
        of ``amps`` that may be nonzero; every other entry is a zero the
        caller just wrote.  So finiteness and each element's norm are
        checked over ``support`` alone.  The caller guarantees the rest:
        distinct labels matching ``dims``, whole elements, and the cap.
        """
        _check_elements(support, len(support))
        return StateRegister._unchecked(dims, labels, amps)

    def _single(self, what: str) -> None:
        if self.batch != 1:
            raise ShapeError(f"{what} reads one state; this register holds {self.batch}")

    @property
    def _shape(self) -> tuple[int, ...]:
        """The amplitudes' shape with one axis per subsystem, after the batch axis."""
        return (self.batch,) + self.dims

    def __setattr__(self, name, value):
        raise AttributeError("StateRegister is immutable")

    def __repr__(self) -> str:
        sub = ", ".join(f"{s}:{d}" for s, d in zip(self.labels, self.dims))
        return f"StateRegister({sub})" if self.batch == 1 else f"StateRegister({sub}; x{self.batch})"

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ShapeError(f"unknown subsystem {label!r}; register has {self.labels}") from None

    # -- gates -----------------------------------------------------------

    def apply(
        self, gate: GateMatrix, targets: Sequence[str], strict: bool = True
    ) -> "StateRegister":
        """Apply ``gate`` to the named subsystems of every element, identity elsewhere.

        A dense gate is a matrix product over the target subspace; a gate
        whose matrix is stacked (see ``gates.make_gate``) applies its k-th
        matrix to element k.  When the targets are a run of adjacent axes in
        ascending order, the product ``matrix @ amplitudes.reshape(batch,
        left, dim, right)`` is already in the register's layout and becomes
        the result as it is, so the apply holds only the register and its
        product.  Other targets are transposed to the front, multiplied and
        written back through a transposed view of a fresh result, which holds
        a third array while it runs.  An index-map gate is one gather of each
        element (see ``_permute``).  In strict mode a gate whose cached
        defect exceeds the unitarity tolerance is rejected; audit callers
        pass strict=False and deal with the norm themselves.
        """
        if gate.src is not None:
            return self._permute([(gate, targets)])
        axes = self._axes(gate, targets, strict)
        if gate.matrix.ndim == 3 and len(gate.matrix) != self.batch:
            raise ShapeError(f"gate {gate.name} stacks {len(gate.matrix)} matrices "
                             f"for a batch of {self.batch}")
        if axes and axes == tuple(range(axes[0], axes[0] + len(axes))):
            # A run of axes in order: the product is already in the register's layout.
            matrix = gate.matrix if gate.matrix.ndim == 2 else gate.matrix[:, None]
            left = math.prod(self.dims[:axes[0]])
            psi = matrix @ self.amplitudes.reshape(self.batch, left, gate.dim, -1)
            return self._derived(psi.reshape(-1), check_norm=strict)
        rest = [i for i in range(len(self.dims)) if i not in axes]
        perm = [0] + [1 + i for i in (*axes, *rest)]
        psi = self.amplitudes.reshape(self._shape).transpose(perm)
        shape = psi.shape
        psi = gate.matrix @ psi.reshape(self.batch, gate.dim, -1)
        # Written straight into the result's own layout: the register keeps
        # this array, so no transposed temporary and no defensive copy.
        out = np.empty(self.amplitudes.size, dtype=complex)
        out.reshape(self._shape).transpose(perm)[...] = psi.reshape(shape)
        return self._derived(out, check_norm=strict)

    def _axes(self, gate: GateMatrix, targets: Sequence[str], strict: bool) -> tuple[int, ...]:
        """The axes of ``targets``, which must be distinct and of the gate's dims; in strict
        mode the gate must be unitary."""
        axes = tuple(self.axis(t) for t in targets)
        if len(set(axes)) != len(axes):
            raise ShapeError("gate targets must be distinct")
        if tuple(self.dims[a] for a in axes) != gate.dims:
            raise ShapeError(
                f"gate {gate.name} dims {gate.dims} do not match targets "
                f"{tuple(self.dims[a] for a in axes)}"
            )
        if strict and gate.defect > UNITARY_TOL:
            raise NonUnitaryGate(
                f"gate {gate.name} has defect {gate.defect:.3e}; "
                "apply with strict=False to audit it"
            )
        return axes

    def _permute(self, gates: Sequence[tuple[GateMatrix, Sequence[str]]]) -> "StateRegister":
        """Apply a run of index-map gates, each on its targets and in order, as one gather.

        Each element is gathered once, through the run's composed table (see
        ``_gather_table``), so the result has the bits of the gates applied
        one at a time.  It only permutes amplitudes this register already
        checked, so it skips the finiteness and norm checks that a product
        gets.
        """
        run = []
        for gate, targets in gates:
            if gate.src is None:
                raise ShapeError(f"gate {gate.name} is not an index map")
            run.append((gate, self._axes(gate, targets, True)))
        table = _gather_table(tuple(run), self.dims)
        amps = self.amplitudes.reshape(self.batch, -1).take(table, axis=1).reshape(-1)
        return StateRegister._unchecked(self.dims, self.labels, amps)

    # -- measurement -----------------------------------------------------

    def _marginal(self, targets: Sequence[str]) -> np.ndarray:
        """Born probabilities of measuring ``targets``: the batch axis, then one axis per
        target in the order given."""
        axes = [self.axis(t) for t in targets]
        if len(set(axes)) != len(axes):
            raise ShapeError("measurement targets must be distinct")
        weights = np.abs(self.amplitudes.reshape(self._shape))
        np.square(weights, out=weights)  # the bits of ``** 2``, without a second array
        summed = tuple(1 + i for i in range(len(self.dims)) if i not in axes)
        marg = weights.sum(axis=summed) if summed else weights
        ranked = sorted(axes)
        return marg.transpose([0] + [1 + ranked.index(a) for a in axes])  # order as requested

    def born_probabilities(self, targets: Sequence[str]) -> list[tuple[tuple[int, ...], float]]:
        """Exact outcome distribution for measuring ``targets`` computationally.

        Every outcome tuple of the target subspace is listed, zeros
        included, in row-major order over the targets as given.
        """
        self._single("born_probabilities")
        marg = self._marginal(targets)[0]
        outcomes = itertools.product(*(range(n) for n in marg.shape))
        return list(zip(outcomes, marg.reshape(-1).tolist()))

    def project(
        self, targets: Sequence[str], outcome: Sequence[int]
    ) -> tuple[float, "StateRegister | None"]:
        """Exact Born probability of ``outcome`` and the collapsed register.

        Deterministic counterpart of :meth:`measure`; returns (p, None)
        when the branch carries no probability mass.  On a batch, p holds
        each element's probability, and the collapsed register holds, in
        order, only the elements where the outcome has mass.
        """
        axes = [self.axis(t) for t in targets]
        outcome = tuple(int(v) for v in outcome)
        if len(outcome) != len(axes):
            raise ShapeError("outcome length must match targets")
        for v, a in zip(outcome, axes):
            if not 0 <= v < self.dims[a]:
                raise IndexOutOfRange(f"outcome {v} out of range for dim {self.dims[a]}")
        sel: list[object] = [slice(None)] * (1 + len(self.dims))
        for v, a in zip(outcome, axes):
            sel[1 + a] = v
        branch = self.amplitudes.reshape(self._shape)[tuple(sel)]
        weights = (np.abs(branch) ** 2).sum(axis=tuple(range(1, branch.ndim)))
        listed = weights.tolist()
        p = listed[0] if self.batch == 1 else weights
        if min(listed) < PROB_FLOOR:
            keep = [w >= PROB_FLOOR for w in listed]
            if not any(keep):
                return p, None
            branch, weights = branch[keep], weights[keep]
        collapsed = np.zeros((len(weights),) + self.dims, dtype=complex)
        collapsed[tuple(sel)] = branch / np.sqrt(weights).reshape((-1,) + (1,) * (branch.ndim - 1))
        return p, self._derived(collapsed.reshape(-1))

    def measure(
        self, targets: Sequence[str], rng: np.random.Generator
    ) -> tuple[MeasurementRecord, "StateRegister"]:
        """Sample a computational-basis outcome on ``targets`` and collapse.

        The record keeps the exact pre-measurement Born probability;
        probabilities below the floor are truncated to zero before
        sampling so roundoff can never realize an impossible branch.
        """
        dist = self.born_probabilities(targets)
        outcome, exact_p = dist[_pick(_cdf([p for _, p in dist]), rng.random())]
        _, collapsed = self.project(targets, outcome)
        record = MeasurementRecord(tuple(targets), outcome, exact_p)
        return record, collapsed

    def measure_in_basis(
        self, target: str, basis: np.ndarray, rng: np.random.Generator
    ) -> tuple[MeasurementRecord, "StateRegister"]:
        """Projective measurement of one subsystem in a unitary column basis.

        Outcome k means "result = basis column k".  Implemented by rotating
        with basis^dag, measuring computationally, and rotating the
        collapsed branch back so the register keeps the physical state.
        """
        d = self.dims[self.axis(target)]
        record, collapsed = self.apply(_basis_gates(basis, d), [target]).measure([target], rng)
        return record, collapsed.apply(make_gate(basis, (d,), "basis"), [target])

    # -- reductions --------------------------------------------------------

    def reduced_density(self, keep: Sequence[str]) -> DensityMatrix:
        """Partial trace over everything but ``keep``."""
        self._single("reduced_density")
        if not keep:
            raise ShapeError("keep must name at least one subsystem")
        axes = [self.axis(t) for t in keep]
        if len(set(axes)) != len(axes):
            raise ShapeError("keep labels must be distinct")
        n = len(self.dims)
        rest = [i for i in range(n) if i not in axes]
        psi = self.amplitudes.reshape(self.dims).transpose(axes + rest)
        dk = int(np.prod([self.dims[a] for a in axes]))
        mat = psi.reshape(dk, -1)
        rho = mat @ mat.conj().T
        rho /= np.trace(rho).real  # absorb residual register-norm roundoff
        return DensityMatrix.build(rho)

    def contract(self, states: dict[str, np.ndarray | int]) -> np.ndarray:
        """Overlap <phi_s| on the given subsystems; amplitudes of the rest.

        An ``int`` k stands for the basis state |k> and is taken as a slice,
        not a contraction.  Not normalized; useful for extracting an exact
        conditional state, phase included, after basis measurements.
        """
        self._single("contract")
        psi = self.amplitudes.reshape(self.dims)
        for label in sorted(states, key=self.axis, reverse=True):
            state, axis = states[label], self.axis(label)
            if isinstance(state, (int, np.integer)):
                if not 0 <= state < self.dims[axis]:
                    raise IndexOutOfRange(
                        f"basis index {state} out of range for dim {self.dims[axis]}"
                    )
                psi = psi[(slice(None),) * axis + (int(state),)]
                continue
            vec = as_cvec(state)
            if vec.size != self.dims[axis]:
                raise ShapeError(f"contract vector for {label} has wrong dimension")
            psi = np.tensordot(vec.conj(), psi, axes=([0], [axis]))
        return psi.reshape(-1).copy()
