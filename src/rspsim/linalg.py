"""Dense complex vector/matrix arithmetic used by every other layer.

Matrices and vectors are plain numpy arrays with dtype complex128.
Functions are pure: inputs are never mutated.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import InvalidState, ShapeError

# Hard cap on any vector/matrix dimension handled by the package.
MAX_DIM = 2**20

# Default tolerance for structural checks (normalization, unitarity).
STRUCT_TOL = 1e-10


def as_cvec(entries: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Coerce to a finite 1-d complex vector."""
    v = np.asarray(entries, dtype=complex).reshape(-1)
    if v.size < 1:
        raise ShapeError("vector must have at least one entry")
    if not np.isfinite(v).all():
        raise InvalidState("vector entries must be finite")
    return v


def as_cmat(entries: Sequence[Sequence[complex]] | np.ndarray) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidState("matrix entries must be finite")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return as_cmat(m).conj().T


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius norm of m^dag m - I; zero iff m is unitary.

    A stack of square matrices, shape (n, e, e), gets one norm over all n
    products M_k^dag M_k - I, so it bounds the defect of every matrix in it.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim == 3 and m.shape[1] == m.shape[2]:
        if not np.isfinite(m).all():
            raise InvalidState("matrix entries must be finite")
    else:
        m = as_cmat(m)
    return float(np.linalg.norm(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])))


def complete_to_unitary(col0: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Deterministic unitary whose column 0 equals ``col0`` exactly.

    Uses a Householder reflection about w = col0 + e^{i arg(col0[0])} e0
    (sign chosen to avoid cancellation), then pins column 0 verbatim.
    """
    v = as_cvec(col0)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > STRUCT_TOL:
        raise InvalidState(f"column must be normalized, |norm - 1| = {abs(norm - 1.0):.3e}")
    d = v.size
    phase = np.exp(1j * np.angle(v[0]))  # 1 at v[0] = 0; no division, so subnormals are safe
    w = v.copy()
    w[0] += phase  # w0 = phase * (|col0[0]| + 1), never cancels
    u = np.eye(d, dtype=complex) - (2.0 / np.vdot(w, w).real) * np.outer(w, w.conj())
    # The reflector sends e0 to -conj(phase) * col0; absorbing -phase into
    # column 0 makes that column equal col0 up to rounding. Pin it exactly.
    u[:, 0] = v
    return u


def transport_unitary(
    frm: Sequence[complex] | np.ndarray, to: Sequence[complex] | np.ndarray
) -> np.ndarray:
    """Unitary V with V @ frm == to, exact including phase.

    Built by completing each state to an orthonormal basis with the fixed
    Householder convention and composing the two bases.
    """
    frm, to = as_cvec(frm), as_cvec(to)
    if frm.size != to.size:
        raise ShapeError(f"dimension mismatch: {frm.size} vs {to.size}")
    return complete_to_unitary(to) @ dagger(complete_to_unitary(frm))
