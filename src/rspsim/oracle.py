"""Independent brute-force verification of the protocol layer.

The enumeration here is a second, deliberately naive code path: states
and gates are built as full d^3-dimensional vectors and matrices with
explicit numpy kron products, measurement branches are computed by
projector application, and the encoder completion uses Gram-Schmidt
rather than the fast path's Householder convention.  Nothing from the
register or gates modules is reused, so indexing bugs in the fast path
cannot hide here.  The sampled comparison, by contrast, exists to
exercise the fast path's sampling layer end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, InvalidState, MismatchedOutcomeSpace
from .protocols import ChannelSpec, OutcomeTable, TargetState, Transcript, run_protocol

_FLOOR = 1e-15
MAX_NAIVE_D = 8

# compare_exact passes iff no outcome's fast and naive probabilities differ by more.
EXACT_TOL = 1e-10

Outcome = tuple[int, ...]


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to re-run a configuration."""

    protocol: str
    channel: ChannelSpec | None
    target: TargetState
    mode: str | None = "repaired"


@dataclass(frozen=True)
class BranchDistribution:
    """Exact outcome probabilities over a full outcome space."""

    entries: tuple[tuple[Outcome, float], ...]
    provenance: RunSpec

    def as_dict(self) -> dict[Outcome, float]:
        return dict(self.entries)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-outcome comparison statistics and whether the max statistic is within bounds."""

    entries: tuple[tuple[Outcome, float, float, float], ...]  # (outcome, expected, observed, stat)
    max_stat: float
    passed: bool


# ---------------------------------------------------------------------------
# naive building blocks (numpy only, no shared simulator code)


def _e(d: int, k: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


def _proj(d: int, k: int) -> np.ndarray:
    return np.outer(_e(d, k), _e(d, k))


def _proj_vec(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _shift(d: int, k: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j + k) % d, j] = 1.0
    return m


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def _ctrl3(d: int, ctrl: int, tgt: int, table: list[int]) -> np.ndarray:
    """Full three-subsystem matrix for a controlled shift between two slots."""
    total = np.zeros((d**3, d**3), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for i in range(d):
        factors = [eye, eye, eye]
        factors[ctrl] = _proj(d, i)
        factors[tgt] = _shift(d, table[i])
        total += _kron3(*factors)
    return total


def _gram_schmidt_unitary(col0: np.ndarray) -> np.ndarray:
    """Complete a unit vector to a unitary by Gram-Schmidt over e_0..e_{d-1}."""
    d = col0.size
    cols = [col0 / np.linalg.norm(col0)]
    for k in range(d):
        if len(cols) == d:
            break
        w = _e(d, k)
        for c in cols:
            w = w - np.vdot(c, w) * c
        n = np.linalg.norm(w)
        if n > 1e-8:
            cols.append(w / n)
    if len(cols) != d:
        raise InvalidState("Gram-Schmidt completion failed")
    return np.column_stack(cols)


def _canonical(amps: np.ndarray) -> np.ndarray:
    idx = int(np.flatnonzero(np.abs(amps) > _FLOOR)[0])
    return amps * np.exp(-1j * np.angle(amps[idx]))


def _bob_from_state(psi: np.ndarray, d: int, a_vec: np.ndarray, c_vec: np.ndarray) -> np.ndarray:
    """<a_vec|_A <c_vec|_C psi via explicit basis inner products, normalized."""
    bob = np.array(
        [np.vdot(_kron3(a_vec, _e(d, n), c_vec), psi) for n in range(d)], dtype=complex
    )
    return bob / np.linalg.norm(bob)


def _nguyen_pieces(target: TargetState):
    c = _canonical(np.array(target.amplitudes, dtype=complex))
    a, b = float(c[0].real), float(abs(c[1]))
    gamma = float(np.angle(c[1])) if b > _FLOOR else 0.0
    mu = np.array([[a, b], [b, -a]], dtype=complex)
    nu = np.array([[1.0, np.exp(-1j * gamma)], [np.exp(1j * gamma), -1.0]], dtype=complex)
    nu /= np.sqrt(2.0)
    pc = np.diag([1.0, np.exp(2j * gamma)]).astype(complex)
    return mu, nu, pc


# B's correction for each (mu, nu) message of the completion subroutine.
_NAIVE_PAULI = {
    (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 0): np.array([[0, -1], [1, 0]], dtype=complex),
    (1, 1): np.array([[0, 1], [1, 0]], dtype=complex),
}


def _naive_nguyen_stage(psi: np.ndarray, lam: np.ndarray, target: TargetState):
    """Enumerate the four (mu, nu) branches of the completion subroutine.

    B is corrected by the message's Pauli matrix after the diagonal that
    removes the channel phases lam_m / |lam_m| from B's basis states.
    """
    t = np.array(target.amplitudes, dtype=complex)
    mu, nu, pc = _nguyen_pieces(target)
    unphase = np.diag(np.exp(-1j * np.angle(lam)))
    eye = np.eye(2, dtype=complex)
    for i in range(2):
        pi_mat = _kron3(_proj_vec(mu[:, i]), eye, eye)
        p_i = float(np.vdot(psi, pi_mat @ psi).real)
        if p_i < _FLOOR:
            continue
        psi_i = (pi_mat @ psi) / np.sqrt(p_i)
        if i == 0:
            psi_i = _kron3(eye, eye, pc) @ psi_i
        for j in range(2):
            pj_mat = _kron3(eye, eye, _proj_vec(nu[:, j]))
            p_j = float(np.vdot(psi_i, pj_mat @ psi_i).real)
            if p_j < _FLOOR:
                continue
            psi_ij = (pj_mat @ psi_i) / np.sqrt(p_j)
            bob = _bob_from_state(psi_ij, 2, mu[:, i], nu[:, j])
            corrected = _NAIVE_PAULI[(i, j)] @ unphase @ bob
            fid = float(abs(np.vdot(t, corrected)) ** 2)
            yield (i, j), p_i * p_j, fid


def _naive_deterministic(channel: ChannelSpec, target: TargetState, mode: str):
    d = channel.d
    lam = np.array(channel.lambdas, dtype=complex)
    t = np.array(target.amplitudes, dtype=complex)
    psi = sum(lam[m] * _kron3(_e(d, m), _e(d, m), _e(d, 0)) for m in range(d))
    if mode == "literal":
        if d != 2:
            raise InvalidState("literal mode is defined only for d = 2")
        c = _canonical(t)
        x0, x1 = c[0].real, c[1]
        enc = np.array([[x0, -x1], [x1, x0]], dtype=complex)
    else:
        enc = _gram_schmidt_unitary(t)
    eye = np.eye(d, dtype=complex)
    psi = _ctrl3(d, 0, 2, list(range(d))) @ psi
    psi = _kron3(enc, eye, eye) @ psi
    norm = np.linalg.norm(psi)
    psi = psi / norm
    psi = _ctrl3(d, 0, 1, [(-i) % d for i in range(d)]) @ psi
    psi = _ctrl3(d, 1, 0, list(range(d))) @ psi
    for a in range(d):
        for c_out in range(d):
            p_mat = _kron3(_proj(d, a), eye, _proj(d, c_out))
            p = float(np.vdot(psi, p_mat @ psi).real)
            if p < _FLOOR:
                yield (a, c_out), 0.0, None
                continue
            phi = (p_mat @ psi) / np.sqrt(p)
            bob = _bob_from_state(phi, d, _e(d, a), _e(d, c_out))
            if mode == "literal":
                corr = np.diag([1.0, -1.0]).astype(complex) if a == 1 else eye
            else:
                m = a
                swap = np.eye(d, dtype=complex)
                if m != 0:
                    swap[[0, m]] = swap[[m, 0]]
                neg = np.zeros((d, d), dtype=complex)
                for l in range(d):
                    neg[(m - l) % d, l] = 1.0
                corr = enc @ swap @ enc.conj().T @ neg
            corrected = corr @ bob
            yield (a, c_out), p, float(abs(np.vdot(t, corrected)) ** 2)


def _naive_probabilistic(channel: ChannelSpec, target: TargetState):
    lam = np.array(channel.lambdas, dtype=complex)
    t = np.array(target.amplitudes, dtype=complex)
    alpha, beta = abs(lam[0]), abs(lam[1])
    if alpha > beta + 1e-10:
        raise InvalidState("the probabilistic baseline needs |alpha| <= |beta|")
    eye = np.eye(2, dtype=complex)
    cnot = _ctrl3(2, 0, 2, [0, 1])
    psi = lam[0] * _kron3(_e(2, 0), _e(2, 0), _e(2, 0)) + lam[1] * _kron3(
        _e(2, 1), _e(2, 1), _e(2, 0)
    )
    psi = cnot @ psi
    if alpha > 0.0:
        r = alpha / beta
        tt = np.sqrt(max(0.0, 1.0 - r * r))
        block = np.array([[r, tt], [-tt, r]], dtype=complex)
        cu = _kron3(_proj(2, 0), eye, eye) + _kron3(_proj(2, 1), eye, block)
        psi = cnot @ cu @ psi
    results = []
    for c_out in range(2):
        p_mat = _kron3(eye, eye, _proj(2, c_out))
        p = float(np.vdot(psi, p_mat @ psi).real)
        if p < _FLOOR:
            results.append(((c_out,), 0.0, None))
            continue
        phi = (p_mat @ psi) / np.sqrt(p)
        if c_out == 1:
            bob = _bob_from_state(phi, 2, _e(2, 1), _e(2, 1))
            results.append(((1,), p, float(abs(np.vdot(t, bob)) ** 2)))
        else:
            ghz = cnot @ phi
            branches = list(_naive_nguyen_stage(ghz, lam, target))
            results.append(((0,), p, min(f for _, _, f in branches)))
    return results


def _naive_nguyen(target: TargetState):
    psi = (_kron3(_e(2, 0), _e(2, 0), _e(2, 0)) + _kron3(_e(2, 1), _e(2, 1), _e(2, 0))) / np.sqrt(2)
    psi = _ctrl3(2, 0, 2, [0, 1]) @ psi
    got = {out: (p, f) for out, p, f in _naive_nguyen_stage(psi, np.ones(2), target)}
    for i in range(2):
        for j in range(2):
            p, f = got.get((i, j), (0.0, None))
            yield (i, j), p, f


def _naive_branches(protocol, channel, target, mode):
    if protocol == "deterministic":
        if channel is None:
            raise InvalidState("the deterministic protocol needs a channel")
        if channel.d > MAX_NAIVE_D:
            raise CapacityExceeded(f"naive enumeration is capped at d = {MAX_NAIVE_D}")
        return list(_naive_deterministic(channel, target, mode or "repaired"))
    if protocol == "probabilistic":
        if channel is None:
            raise InvalidState("the probabilistic baseline needs a channel")
        return list(_naive_probabilistic(channel, target))
    if protocol == "nguyen":
        return list(_naive_nguyen(target))
    raise InvalidState(f"unknown protocol {protocol!r}")


def enumerate_naive(
    protocol: str,
    channel: ChannelSpec | None,
    target: TargetState,
    mode: str = "repaired",
) -> BranchDistribution:
    """Exact branch distribution computed through the naive full-matrix path."""
    branches = _naive_branches(protocol, channel, target, mode)
    entries = tuple((out, p) for out, p, _ in branches)
    return BranchDistribution(entries, RunSpec(protocol, channel, target, mode))


def naive_branch_fidelities(
    protocol: str,
    channel: ChannelSpec | None,
    target: TargetState,
    mode: str = "repaired",
) -> dict[Outcome, float]:
    """Post-correction fidelity per realizable branch, naive path."""
    return {
        out: fid for out, _p, fid in _naive_branches(protocol, channel, target, mode)
        if fid is not None
    }


def table_distribution(table: OutcomeTable) -> BranchDistribution:
    """Fast-path outcome table as a distribution over its full outcome space."""
    probs = {row.outcome: row.probability for row in table.rows}
    entries = tuple((out, probs.get(out, 0.0)) for out in table.outcome_space)
    spec = RunSpec(table.protocol, table.channel, table.target, table.mode)
    return BranchDistribution(entries, spec)


def compare_exact(
    dist_fast: BranchDistribution, dist_naive: BranchDistribution
) -> ComparisonReport:
    """Per-outcome absolute difference; passes iff max difference <= EXACT_TOL."""
    fast, naive = dist_fast.as_dict(), dist_naive.as_dict()
    if set(fast) != set(naive):
        raise MismatchedOutcomeSpace(
            f"outcome spaces differ: {sorted(fast)} vs {sorted(naive)}"
        )
    entries = []
    for out in sorted(naive):
        diff = abs(fast[out] - naive[out])
        entries.append((out, naive[out], fast[out], diff))
    max_diff = max(d for *_, d in entries)
    return ComparisonReport(tuple(entries), max_diff, max_diff <= EXACT_TOL)


def transcript_outcome(transcript: Transcript) -> Outcome:
    """Classical outcome label of one run, matching the branch distributions."""
    return transcript.outcome


def compare_sampled(dist: BranchDistribution, trials: int, seed: int) -> ComparisonReport:
    """Monte Carlo frequencies of real protocol runs against exact probabilities.

    Each trial runs the full protocol through the register sampler with a
    seed hashed from (seed, trial).  Per-outcome z-scores must stay within
    4; zero-probability outcomes must never be observed.
    """
    if trials < 100:
        raise InvalidState("compare_sampled needs at least 100 trials")
    spec = dist.provenance
    counts: dict[Outcome, int] = {out: 0 for out, _ in dist.entries}
    for t in range(trials):
        trial_rng = np.random.default_rng(np.random.SeedSequence((int(seed), t)))
        tr = run_protocol(
            spec.protocol, spec.channel, spec.target, spec.mode or "repaired", trial_rng
        )
        out = transcript_outcome(tr)
        if out not in counts:
            raise MismatchedOutcomeSpace(f"sampled outcome {out} outside the outcome space")
        counts[out] += 1
    entries = []
    for out, p in dist.entries:
        obs = counts[out]
        if p <= 0.0:
            stat = 0.0 if obs == 0 else float("inf")
        elif p >= 1.0:
            stat = 0.0 if obs == trials else float("inf")
        else:
            stat = abs(obs - trials * p) / np.sqrt(trials * p * (1.0 - p))
        entries.append((out, trials * p, float(obs), float(stat)))
    max_z = max(s for *_, s in entries)
    return ComparisonReport(tuple(entries), max_z, max_z <= 4.0)
