"""Multi-qudit state register with named subsystems.

Amplitudes are a flat complex vector in row-major subsystem order (the
leftmost label is the most significant digit), matching ket notation
|ABC>.  Registers are immutable values: every operation returns a new
instance, so they are safe to share across threads.  Randomness enters
only through an explicitly passed numpy Generator.
"""

from __future__ import annotations

import itertools
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
from .linalg import MAX_DIM, STRUCT_TOL, as_cvec, dagger

# Probabilities below this are treated as exact zeros before sampling, so
# floating residue can never realize an impossible branch.
PROB_FLOOR = 1e-15


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Generator seeded by hashing (master_seed, *path).

    Trials seeded this way are reproducible regardless of execution order.
    """
    entropy = (int(master_seed),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _draw(probs: Sequence[float], rng: np.random.Generator) -> int:
    """Index of one outcome drawn from Born probabilities.

    Probabilities below the floor are truncated to zero first, so
    roundoff can never realize an impossible branch.
    """
    p = np.array(probs)
    p[p < PROB_FLOOR] = 0.0
    total = p.sum()
    if total < 1e-12:
        raise DegenerateState("register has no measurable probability mass")
    return int(rng.choice(len(p), p=p / total))


def _basis_gates(basis: np.ndarray, d: int) -> GateMatrix:
    """basis^dag, which rotates column k onto |k>; rejected unless unitary."""
    rot = make_gate(dagger(np.asarray(basis, dtype=complex)), (d,), "basis^dag")
    if rot.defect > UNITARY_TOL:
        raise NonUnitaryGate(f"measurement basis defect {rot.defect:.3e}")
    return rot


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


class StateRegister:
    """Normalized pure state over an ordered list of labeled qudits."""

    __slots__ = ("dims", "labels", "amplitudes")

    def __init__(
        self,
        dims: Sequence[int],
        amplitudes: Sequence[complex] | np.ndarray,
        labels: Sequence[str] | None = None,
    ):
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims) or not dims:
            raise ShapeError("every subsystem dimension must be >= 1")
        total = int(np.prod(dims))
        if total > MAX_DIM:
            raise CapacityExceeded(f"register dimension {total} exceeds cap {MAX_DIM}")
        amps = as_cvec(amplitudes)
        if amps.size != total:
            raise ShapeError(f"amplitude length {amps.size} != product of dims {total}")
        if abs(np.linalg.norm(amps) - 1.0) > STRUCT_TOL:
            raise InvalidState(f"register norm {np.linalg.norm(amps)} is not 1")
        if labels is None:
            labels = tuple(f"q{i}" for i in range(len(dims)))
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(dims) or len(set(labels)) != len(labels):
            raise ShapeError("labels must be distinct and match dims")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)

    def _derived(self, amps: np.ndarray, check_norm: bool = True) -> "StateRegister":
        """Register over this one's subsystems holding ``amps``, computed from it.

        ``amps`` must be a fresh complex vector of this register's size that
        no one else holds; it is frozen in place, not copied.  This register
        already guarantees dims, cap, shape and labels, so only finiteness
        and (with ``check_norm``) the norm are checked here.
        """
        if not np.all(np.isfinite(amps)):
            raise InvalidState("vector entries must be finite")
        if check_norm and abs(np.linalg.norm(amps) - 1.0) > STRUCT_TOL:
            raise InvalidState(f"register norm {np.linalg.norm(amps)} is not 1")
        amps.flags.writeable = False
        reg = object.__new__(StateRegister)
        object.__setattr__(reg, "dims", self.dims)
        object.__setattr__(reg, "labels", self.labels)
        object.__setattr__(reg, "amplitudes", amps)
        return reg

    def __setattr__(self, name, value):
        raise AttributeError("StateRegister is immutable")

    def __repr__(self) -> str:
        sub = ", ".join(f"{s}:{d}" for s, d in zip(self.labels, self.dims))
        return f"StateRegister({sub})"

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateRegister":
        n = self.norm
        if n < PROB_FLOOR:
            raise DegenerateState("cannot normalize a register with no amplitude mass")
        return self._derived(self.amplitudes / n)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ShapeError(f"unknown subsystem {label!r}; register has {self.labels}") from None

    def tensor(self, other: "StateRegister") -> "StateRegister":
        """Product register; labels must not collide."""
        if set(self.labels) & set(other.labels):
            raise ShapeError("tensor operands share subsystem labels")
        return StateRegister(
            self.dims + other.dims,
            np.kron(self.amplitudes, other.amplitudes),
            self.labels + other.labels,
        )

    # -- gates -----------------------------------------------------------

    def apply(
        self, gate: GateMatrix, targets: Sequence[str], strict: bool = True
    ) -> "StateRegister":
        """Apply ``gate`` to the named subsystems, identity elsewhere.

        A dense gate is a matrix product over the target subspace; an
        index-map gate is a row gather on it.  In strict mode a gate whose
        cached defect exceeds the unitarity tolerance is rejected; audit
        callers pass strict=False and deal with the norm themselves.
        """
        axes = [self.axis(t) for t in targets]
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
        n = len(self.dims)
        rest = [i for i in range(n) if i not in axes]
        perm = axes + rest
        psi = self.amplitudes.reshape(self.dims).transpose(perm)
        shape = psi.shape
        psi = psi.reshape(gate.dim, -1)
        if gate.src is None:
            psi = gate.matrix @ psi
        else:
            psi = psi[gate.src]
        # Written straight into the result's own layout: the register keeps
        # this array, so no transposed temporary and no defensive copy.
        out = np.empty(self.amplitudes.size, dtype=complex)
        out.reshape(self.dims).transpose(perm)[...] = psi.reshape(shape)
        return self._derived(out, check_norm=strict)

    # -- measurement -----------------------------------------------------

    def _marginal(self, targets: Sequence[str]) -> np.ndarray:
        """Born probabilities of measuring ``targets``, one axis per target in the order given."""
        axes = [self.axis(t) for t in targets]
        if len(set(axes)) != len(axes):
            raise ShapeError("measurement targets must be distinct")
        weights = np.abs(self.amplitudes.reshape(self.dims)) ** 2
        keep = tuple(i for i in range(len(self.dims)) if i not in axes)
        marg = weights.sum(axis=keep) if keep else weights
        ranked = sorted(axes)
        return marg.transpose([ranked.index(a) for a in axes])  # order as requested

    def born_probabilities(self, targets: Sequence[str]) -> list[tuple[tuple[int, ...], float]]:
        """Exact outcome distribution for measuring ``targets`` computationally.

        Every outcome tuple of the target subspace is listed, zeros
        included, in row-major order over the targets as given.
        """
        marg = self._marginal(targets)
        outcomes = itertools.product(*(range(n) for n in marg.shape))
        return list(zip(outcomes, marg.reshape(-1).tolist()))

    def project(
        self, targets: Sequence[str], outcome: Sequence[int]
    ) -> tuple[float, "StateRegister | None"]:
        """Exact Born probability of ``outcome`` and the collapsed register.

        Deterministic counterpart of :meth:`measure`; returns (p, None)
        when the branch carries no probability mass.
        """
        axes = [self.axis(t) for t in targets]
        outcome = tuple(int(v) for v in outcome)
        if len(outcome) != len(axes):
            raise ShapeError("outcome length must match targets")
        for v, a in zip(outcome, axes):
            if not 0 <= v < self.dims[a]:
                raise IndexOutOfRange(f"outcome {v} out of range for dim {self.dims[a]}")
        psi = self.amplitudes.reshape(self.dims)
        sel: list[object] = [slice(None)] * len(self.dims)
        for v, a in zip(outcome, axes):
            sel[a] = v
        branch = psi[tuple(sel)]
        p = float(np.sum(np.abs(branch) ** 2))
        if p < PROB_FLOOR:
            return p, None
        collapsed = np.zeros_like(psi)
        collapsed[tuple(sel)] = branch / np.sqrt(p)
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
        outcome, exact_p = dist[_draw([p for _, p in dist], rng)]
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


def basis_register(
    dims: Sequence[int], index: Sequence[int], labels: Sequence[str] | None = None
) -> StateRegister:
    """Computational basis state |index> over the given subsystem dims."""
    dims = tuple(int(d) for d in dims)
    index = tuple(int(i) for i in index)
    if len(index) != len(dims):
        raise ShapeError("index length must match dims")
    for i, d in zip(index, dims):
        if not 0 <= i < d:
            raise IndexOutOfRange(f"basis index {i} out of range for dim {d}")
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[int(np.ravel_multi_index(index, dims))] = 1.0
    return StateRegister(dims, amps, labels)


def channel_register(spec) -> StateRegister:
    """Two-party register sum_m lambda_m |mm> over subsystems A and B.

    Accepts a ChannelSpec-like object (anything with .lambdas) or a plain
    sequence of Schmidt coefficients.
    """
    lambdas = as_cvec(getattr(spec, "lambdas", spec))
    if abs(np.linalg.norm(lambdas) - 1.0) > STRUCT_TOL:
        raise InvalidState("Schmidt coefficients must satisfy sum |lambda_m|^2 = 1")
    d = lambdas.size
    amps = np.zeros(d * d, dtype=complex)
    for m in range(d):
        amps[m * d + m] = lambdas[m]
    return StateRegister((d, d), amps, ("A", "B"))
