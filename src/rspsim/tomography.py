"""Simulated single-qubit state tomography.

Pauli expectations are estimated from simulated projective measurements
in the X, Y, Z eigenbases, the state is reconstructed by linear inversion
rho = (I + r . sigma)/2, and unphysical reconstructions are projected
back by clipping negative eigenvalues and renormalizing the trace.
Qubit-only by design; higher-dimensional verification uses exact
fidelities from the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, ShapeError
from .register import DensityMatrix, StateRegister

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class PauliEstimates:
    """Sampled Bloch-vector estimates, clamped to [-1, 1]."""

    rx: float
    ry: float
    rz: float
    shots_per_axis: tuple[int, int, int]


@dataclass(frozen=True)
class TomoResult:
    """What one tomography run estimated and reconstructed, and how far it landed."""

    estimates: PauliEstimates
    rho: DensityMatrix
    trace_distance: float  # to the state that was sampled


def _qubit_rho(state: StateRegister | DensityMatrix) -> np.ndarray:
    if isinstance(state, StateRegister):
        if state.dims != (2,):
            raise ShapeError(f"tomography expects a single qubit, got dims {state.dims}")
        psi = state.amplitudes
        return np.outer(psi, psi.conj())
    if isinstance(state, DensityMatrix):
        if state.dim != 2:
            raise ShapeError(f"tomography expects a single qubit, got dim {state.dim}")
        return state.entries
    raise ShapeError(f"cannot tomograph a {type(state).__name__}")


def exact_bloch(state: StateRegister | DensityMatrix) -> tuple[float, float, float]:
    """Exact Bloch components (Tr rho X, Tr rho Y, Tr rho Z)."""
    rho = _qubit_rho(state)
    return tuple(float(np.trace(rho @ s).real) for s in (_SX, _SY, _SZ))


def sample_pauli_expectations(
    state: StateRegister | DensityMatrix, shots: int, rng: np.random.Generator
) -> PauliEstimates:
    """Estimate each Bloch component as (N+ - N-)/N from sampled measurements.

    Shots are split equally across the three axes; remainder shots go to Z.
    """
    shots = int(shots)
    if shots < 3:
        raise InvalidState("need at least one shot per measurement axis")
    per_axis = shots // 3
    counts = (per_axis, per_axis, per_axis + shots % 3)
    r_true = exact_bloch(state)
    estimates = []
    for r, n in zip(r_true, counts):
        p_plus = min(1.0, max(0.0, (1.0 + r) / 2.0))
        n_plus = int(rng.binomial(n, p_plus))
        estimates.append(np.clip((2.0 * n_plus - n) / n, -1.0, 1.0))
    return PauliEstimates(estimates[0], estimates[1], estimates[2], counts)


def reconstruct_qubit(est: PauliEstimates) -> DensityMatrix:
    """Linear inversion followed by projection onto the physical set.

    rho = (I + rx X + ry Y + rz Z)/2; negative eigenvalues are clipped to
    zero and the trace renormalized to 1.
    """
    rho = 0.5 * (np.eye(2, dtype=complex) + est.rx * _SX + est.ry * _SY + est.rz * _SZ)
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals.real, 0.0, None)
    vals /= vals.sum()
    return DensityMatrix.build((vecs * vals) @ vecs.conj().T)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.dim != sigma.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    eigs = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(0.5 * np.sum(np.abs(eigs)))


def fidelity_mixed(rho: DensityMatrix, target: np.ndarray) -> float:
    """<target| rho |target> for a pure target state."""
    t = np.asarray(target, dtype=complex).reshape(-1)
    if t.size != rho.dim:
        raise ShapeError(f"target dim {t.size} does not match rho dim {rho.dim}")
    return float(np.vdot(t, rho.entries @ t).real)


def tomograph(
    state: StateRegister | DensityMatrix, shots: int, rng: np.random.Generator
) -> TomoResult:
    """Sample, reconstruct, and score against the state that was sampled.

    Fidelity to some other pure target is ``fidelity_mixed(result.rho, target)``.
    """
    est = sample_pauli_expectations(state, shots, rng)
    rho = reconstruct_qubit(est)
    exact = state if isinstance(state, DensityMatrix) else DensityMatrix.build(_qubit_rho(state))
    return TomoResult(estimates=est, rho=rho, trace_distance=trace_distance(rho, exact))
