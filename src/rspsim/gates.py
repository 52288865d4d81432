"""Constructors for every operator the protocols use.

Shift/clock operators and generalized controlled shifts for qudits, the
entanglement-concentration controlled-U, encoding operators (the printed
non-unitary 2x2 form and its unitary repair), receiver-side correction
operators (whose modular negation N_m is a gather inside the chain), and
the measurement bases of the ancilla-assisted deterministic qubit baseline.

Every constructor returns an immutable :class:`GateMatrix` whose
unitarity defect is computed once at build time.  All constructors except
:func:`encoding_unitary_literal` produce gates with defect <= 1e-10.

Permutations (the shift and the controlled shifts) are built as index
maps in O(d^2): output amplitude i is ``input[src[i]]``.  Their dense
matrix is materialized only when asked for.  Every other gate, the clock
gate included, is dense, built by :func:`make_gate`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, InvalidState, NonUnitaryGate
from .linalg import MAX_DIM, STRUCT_TOL, as_cvec, complete_to_unitary, unitarity_defect

# A gate is applied in strict mode only if its defect stays below this.
UNITARY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """Gate acting on one or more named subsystems.

    ``dims`` holds the per-subsystem dimensions in application order;
    ``defect`` caches the unitarity defect measured at construction.  A
    dense gate stores ``dense``; an index-map gate, a permutation, stores
    its gather indices ``src``; a stacked dense gate (see :func:`make_gate`)
    holds one matrix per batch element, shape (n, dim, dim).  Gates compare
    and hash by identity, so a gate can key a cache.
    """

    dims: tuple[int, ...]
    name: str
    defect: float
    dense: np.ndarray | None = field(default=None, repr=False)
    src: np.ndarray | None = field(default=None, repr=False)

    @property
    def arity(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Dense matrix; built on first use for an index-map gate.

        Raises CapacityExceeded, before allocating, when the matrix would
        hold more than MAX_DIM entries.
        """
        if self.src is None:
            return self.dense
        n = self.dim
        if n * n > MAX_DIM:
            raise CapacityExceeded(
                f"dense {self.name} would hold {n * n} entries; cap is {MAX_DIM}"
            )
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(n), self.src] = 1.0
        m.flags.writeable = False
        return m


def make_gate(matrix: np.ndarray, dims: Sequence[int], name: str) -> GateMatrix:
    """Freeze a matrix, or a stack of them, into a dense GateMatrix with its unitarity defect.

    A stack, shape (n, dim, dim), is one gate per batch element: element k of
    a batched register gets matrix k.  Its defect is one norm over the whole
    stack (see ``unitarity_defect``), so it bounds every matrix's defect.
    """
    m = np.array(matrix, dtype=complex)
    dims = tuple(int(d) for d in dims)
    expected = int(np.prod(dims))
    if m.ndim not in (2, 3) or m.shape[-2:] != (expected, expected):
        raise InvalidState(f"gate {name}: matrix shape {m.shape} != product of dims {dims}")
    m.flags.writeable = False
    return GateMatrix(dims=dims, name=name, defect=unitarity_defect(m), dense=m)


def index_gate(src: Sequence[int] | np.ndarray, dims: Sequence[int], name: str) -> GateMatrix:
    """Freeze a gather map into an index-map GateMatrix.

    The gate sends amplitude ``src[i]`` to ``i``: the permutation matrix M
    with M[i, src[i]] = 1.  ``src`` must be a bijection, so the defect is
    exactly 0.
    """
    dims = tuple(int(d) for d in dims)
    n = math.prod(dims)
    idx = np.asarray(src)
    if n < 1 or idx.shape != (n,) or not np.issubdtype(idx.dtype, np.integer):
        raise InvalidState(f"gate {name}: src must hold {n} integer indices for dims {dims}")
    idx = idx.astype(np.intp)
    if idx.min() < 0 or idx.max() >= n or np.any(np.bincount(idx, minlength=n) != 1):
        raise InvalidState(f"gate {name}: src is not a bijection of range({n})")
    idx.flags.writeable = False
    return GateMatrix(dims=dims, name=name, defect=0.0, src=idx)


@functools.lru_cache(maxsize=None)
def pauli_x(d: int) -> GateMatrix:
    """Cyclic shift |j> -> |j+1 mod d>; the Pauli X at d=2."""
    if d < 2:
        raise InvalidState("pauli_x needs d >= 2")
    return index_gate((np.arange(d) - 1) % d, (d,), f"X{d}")


@functools.lru_cache(maxsize=None)
def pauli_z(d: int) -> GateMatrix:
    """Clock gate |j> -> w^j |j> with w = exp(2 pi i / d); the Pauli Z at d=2."""
    if d < 2:
        raise InvalidState("pauli_z needs d >= 2")
    omega = np.exp(2j * np.pi / d)
    return make_gate(np.diag(omega ** np.arange(d)), (d,), f"Z{d}")


def controlled_shift(d: int, table: Sequence[int], name: str | None = None) -> GateMatrix:
    """Two-subsystem gate |i>|j> -> |i>|j + k_i mod d> for k_i = table[i]."""
    table = tuple(int(k) for k in table)
    if len(table) != d or any(not 0 <= k < d for k in table):
        raise InvalidState(f"shift table must hold d={d} entries in [0, d)")
    i = np.arange(d)[:, None]
    j = np.arange(d)[None, :]
    src = i * d + (j - np.array(table)[:, None]) % d
    return index_gate(src.reshape(-1), (d, d), name or f"CSHIFT{d}{table}")


@functools.lru_cache(maxsize=None)
def cadd(d: int) -> GateMatrix:
    """Controlled modular addition, k_i = i.  Standard CNOT at d=2."""
    return controlled_shift(d, tuple(range(d)), name=f"CADD{d}")


@functools.lru_cache(maxsize=None)
def csub(d: int) -> GateMatrix:
    """Controlled modular subtraction, k_i = -i mod d.  Standard CNOT at d=2."""
    return controlled_shift(d, tuple((-i) % d for i in range(d)), name=f"CSUB{d}")


def cu_concentration(alpha: float | np.ndarray, beta: float | np.ndarray) -> GateMatrix:
    """Controlled-U that concentrates a partial qubit channel.

    Identity when the control is |0>; when |1>, the target block sends
    |0> -> (a/b)|0> - sqrt(1 - a^2/b^2)|1> and |1> -> (a/b)|1> +
    sqrt(1 - a^2/b^2)|0>.  Requires 0 <= |alpha| <= |beta| + STRUCT_TOL
    and alpha^2 + beta^2 = 1; a/b is clamped to [-1, 1].  At alpha = 0 the
    block is exactly [[0, 1], [-1, 0]].  Arrays of n > 1 pairs give one
    stacked gate, matrix k for pair k; one pair gives a plain 4x4 gate.
    """
    pairs = list(zip(np.asarray(alpha, dtype=float).reshape(-1).tolist(),
                     np.asarray(beta, dtype=float).reshape(-1).tolist(), strict=True))
    if not pairs:
        raise InvalidState("cu_concentration needs at least one (alpha, beta) pair")
    if any(abs(a * a + b * b - 1.0) > STRUCT_TOL for a, b in pairs):
        raise InvalidState("cu_concentration needs alpha^2 + beta^2 = 1")
    if any(abs(a) > abs(b) + STRUCT_TOL for a, b in pairs):
        raise InvalidState("cu_concentration needs |alpha| <= |beta|")
    r = [min(max(a / b, -1.0), 1.0) for a, b in pairs]  # |alpha| may pass |beta| by roundoff
    t = [math.sqrt(max(0.0, 1.0 - x * x)) for x in r]
    m = np.zeros((len(r), 4, 4))  # real: make_gate's one copy makes it complex
    m[:, 0, 0] = m[:, 1, 1] = 1.0
    m[:, 2, 2] = m[:, 3, 3] = r
    m[:, 2, 3] = t
    m[:, 3, 2] = [-x for x in t]
    name = "|".join(dict.fromkeys(f"CU({a:.6g},{b:.6g})" for a, b in pairs))
    return make_gate(m[0] if len(r) == 1 else m, (2, 2), name)


def encoding_unitary_literal(x0: float, x1mag: float, theta: float) -> GateMatrix:
    """The printed 2x2 encoding operator, kept verbatim.

    [[x0, -|x1| e^{i theta}], [|x1| e^{i theta}, x0]].  Column 0 is the
    target state.  Not unitary when x0*|x1|*sin(theta) != 0; the defect
    (2*sqrt(2)*x0*|x1|*|sin theta|) is recorded, not rejected.
    """
    x0, x1mag = float(x0), float(x1mag)
    if abs(x0 * x0 + x1mag * x1mag - 1.0) > STRUCT_TOL:
        raise InvalidState("encoding_unitary_literal needs x0^2 + |x1|^2 = 1")
    p = x1mag * np.exp(1j * float(theta))
    m = np.array([[x0, -p], [p, x0]], dtype=complex)
    return make_gate(m, (2,), "U_literal")


def encoding_unitary(target: Sequence[complex] | np.ndarray) -> GateMatrix:
    """Unitary encoder whose column 0 is exactly the target amplitudes."""
    amps = as_cvec(target)
    u = complete_to_unitary(amps)
    return make_gate(u, (amps.size,), f"U_enc(d={amps.size})")


@functools.lru_cache(maxsize=None)
def _chain_gathers(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather tables of the chain's two permutations; row m holds N_m, then Pi_0m."""
    idx = np.arange(d)
    negate = (idx[:, None] - idx) % d
    swap = np.tile(idx, (d, 1))
    swap[:, 0], swap[idx, idx] = idx, 0
    negate.flags.writeable = swap.flags.writeable = False
    return negate, swap


def correction_chain(u: GateMatrix) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Receiver corrections V_m = U Pi_0m U^dag N_m of encoder U, kept as factors.

    Returns ``fix`` with ``fix(ms, bs)[r]`` = V_{ms[r]} bs[r] for a block
    ``bs`` of k states, shape (k, d), and their k branch indices ``ms``.
    The factors are applied right to left to all rows at once: the negation
    N_m (|l> -> |m - l mod d>) as one gather, U^dag, the swap Pi_0m of
    entries 0 and m as a second gather, then U.  That is O(d^2) per row.
    V_m maps the raw branch state b_m = sum_n U[n, m] |m - n mod d> to U|0>,
    the encoded target, exactly.  The encoder is checked and U^dag formed
    once, here; the gather tables are built once per d.
    """
    if u.arity != 1:
        raise InvalidState("correction_chain expects a single-subsystem encoder")
    if u.defect > UNITARY_TOL:
        raise NonUnitaryGate(f"encoder defect {u.defect:.3e} exceeds {UNITARY_TOL:.0e}")
    d, enc = u.dim, u.matrix
    enc_dag_t, enc_t = enc.conj(), enc.T  # rows times these: U^dag, then U, on every row
    negate, swap = _chain_gathers(d)

    def fix(ms: np.ndarray, bs: np.ndarray) -> np.ndarray:
        ms = np.asarray(ms)
        bad = ms[(ms < 0) | (ms >= d)]
        if bad.size:
            raise InvalidState(f"correction V_m needs 0 <= m < d, got m={bad[0]}")
        rows = np.arange(ms.size)[:, None]
        y = bs[rows, negate[ms]] @ enc_dag_t
        return y[rows, swap[ms]] @ enc_t

    return fix


def correction_unitary(u: GateMatrix, m: int) -> GateMatrix:
    """Dense receiver correction V_m for branch outcome m: the chain applied to I."""
    rows = correction_chain(u)(np.full(u.dim, m), np.eye(u.dim, dtype=complex))  # V_m e_j
    return make_gate(rows.T, (u.dim,), f"V[{m}]")


def nguyen_bases(a: float, b: float, gamma: float) -> tuple[np.ndarray, np.ndarray, GateMatrix]:
    """Measurement bases and phase gate of the ancilla-assisted qubit baseline.

    Returns the mu-basis (columns a|0>+b|1>, b|0>-a|1>), the nu-basis
    (columns (|0>+e^{i gamma}|1>)/sqrt2, (e^{-i gamma}|0>-|1>)/sqrt2,
    normalized here because measurement bases must be orthonormal), and
    the phase gate P = diag(1, e^{2 i gamma}).
    """
    a, b = float(a), float(b)
    if abs(a * a + b * b - 1.0) > STRUCT_TOL:
        raise InvalidState("nguyen_bases needs a^2 + b^2 = 1")
    g = float(gamma)
    mu = np.array([[a, b], [b, -a]], dtype=complex)
    nu = np.array([[1.0, np.exp(-1j * g)], [np.exp(1j * g), -1.0]], dtype=complex) / np.sqrt(2.0)
    phase = make_gate(np.diag([1.0, np.exp(2j * g)]), (2,), "P_C")
    return mu, nu, phase
