"""Deterministic Monte Carlo sweeps over the channel angle grid.

Each grid point parametrizes a qubit channel by alpha = sin(theta),
beta = cos(theta); a protocol whose record fixes the maximal channel
runs over that one channel at every point.  ``theta_grid`` and
``sweep_rows`` check their inputs before any work, each rule once and
with the message the CLI prints, since the CLI calls the same checks.
Each distinct (protocol, channel) table is enumerated exactly once per
sweep, a protocol's whole grid in one batched call.  Each trial then
draws its branch from that exact distribution with a uniform hashed
from (seed, point, trial), in blocks of a fixed size.  A block is scored
by how many of its uniforms fall to each branch (``_counts``), against
the CDF that ``register._pick`` searches, the one rule that also picks
every measurement outcome of a run, so each trial lands on the branch a
run's draw would pick.  All of a protocol's randomness lives in its
measurements, so this is distribution-identical to re-running the full
evolution per trial while staying schedule-independent and
byte-reproducible.  The full per-run sampling path is validated
separately by the oracle's sampled comparison.

A trial succeeds by the protocols' one rule, ``protocols.succeeded``, so
``successes`` and ``exact_prob`` count exactly the branches a run would
report as ``success``.
"""

from __future__ import annotations

import io
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState
from .protocols import (
    ChannelSpec,
    ProtocolSpec,
    TargetState,
    exact_outcome_tables,
    protocol_spec,
    succeeded,
    success_probability,
)
from .register import _cdf

# A sweep holds one row and up to three exact tables per grid point.
MAX_POINTS = 10_000
# Trials are drawn in blocks of this many, so a sweep's memory does not grow
# with --trials; the uniforms are hashed per trial, so blocking changes no draw.
_TRIAL_BLOCK = 1 << 16

CSV_COLUMNS = (
    "theta", "alpha", "beta", "protocol", "mode", "d", "trials",
    "successes", "est_prob", "exact_prob", "mean_fidelity", "seed",
)


@dataclass(frozen=True)
class SweepRow:
    theta: float
    alpha: float
    beta: float
    protocol: str
    mode: str
    d: int
    trials: int
    successes: int
    est_prob: float
    exact_prob: float
    mean_fidelity: float
    seed: int


# splitmix64: the increment and the two multipliers of its finalizer.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array, which it returns; it wraps mod 2^64."""
    t = x >> np.uint64(30)
    x ^= t
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= np.uint64(_MIX2)
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def _mix64_int(x: int) -> int:
    """The same finalizer on one Python integer, masked to 64 bits at every product."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    return x ^ (x >> 31)


def trial_uniforms(seed: int, point_index: int, trials: int, first: int = 0) -> np.ndarray:
    """One uniform in [0, 1) per trial, hashed from (seed, point, trial).

    Covers trials ``first`` .. ``first + trials - 1`` of the point, so a run
    cut into blocks draws the same uniforms as one call over all of them.
    The point's base is hashed in Python integers; only the trial words are
    arrays.
    """
    base = _mix64_int(_mix64_int(int(seed)) + _GOLDEN * (int(point_index) + 1))
    words = np.arange(first + 1, first + trials + 1, dtype=np.uint64)
    words *= np.uint64(_GOLDEN)
    words += np.uint64(base)
    _mix64(words)
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u *= 2.0**-53  # exact: a power of two
    return u


def _counts(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """How many of the uniforms ``u`` in [0, 1) pick each outcome of ``cdf``.

    Equals ``np.bincount(_pick(cdf, u), minlength=len(cdf))`` for ``cdf = _cdf(p)``:
    ``_pick`` picks an index <= i exactly when u < cdf[i], so counting the
    uniforms below each entry and differencing gives every outcome's count
    without an index per trial.  The last entry is exactly 1, above every
    uniform, so its count is ``u.size`` without a pass.
    """
    below = [np.count_nonzero(u < c) for c in cdf[:-1].tolist()]
    below.append(u.size)
    return np.array([n - m for m, n in zip([0, *below], below)])


def check_angles(theta_min: float, theta_max: float) -> None:
    """Raise unless both ends of a grid are finite."""
    for name, theta in (("theta-min", theta_min), ("theta-max", theta_max)):
        if not math.isfinite(theta):
            raise InvalidState(f"{name} must be finite")


def theta_grid(theta_min: float, theta_max: float, points: int) -> np.ndarray:
    check_angles(theta_min, theta_max)
    if not 1 <= points <= MAX_POINTS:
        raise InvalidState(f"sweep needs 1 <= points <= {MAX_POINTS}")
    if theta_max < theta_min:
        raise InvalidState("theta-max must not be below theta-min")
    return np.linspace(theta_min, theta_max, points)


def check_sweep(specs: Iterable[ProtocolSpec], d: int, trials: int, mode: str) -> None:
    """Raise the first rule, but the grid's, that a sweep of ``specs`` over a d-dim target breaks."""
    for spec in specs:
        spec.validate(d, (), mode)
    if d != 2:
        raise InvalidState("sweep parametrizes qubit channels; needs d = 2")
    if trials < 1:
        raise InvalidState("sweep needs trials >= 1")


def grid_channels(specs: Iterable[ProtocolSpec], grid: np.ndarray) -> list[ChannelSpec]:
    """The channel of each angle of ``grid``; InvalidState if one breaks a spec's channel rule."""
    channels = [ChannelSpec.from_theta(float(theta)) for theta in grid]
    for spec in specs:
        if message := spec.problem(2, channels, alpha="sin theta", beta="cos theta",
                                   where="at every grid point from theta-min to theta-max"):
            raise InvalidState(message)
    return channels


def sweep_rows(
    protocols: list[str],
    target: TargetState,
    grid: np.ndarray,
    trials: int,
    seed: int,
    mode: str = "repaired",
) -> list[SweepRow]:
    """One row per (protocol, grid point), sorted by (protocol, theta); inputs checked first."""
    specs = {protocol: protocol_spec(protocol) for protocol in protocols}
    check_sweep(specs.values(), target.d, trials, mode)
    channels = grid_channels(specs.values(), grid)
    maximal = ChannelSpec.maximal(2)
    # One batched call per protocol builds each distinct table once, then the
    # arrays that count and score its trials.
    scored: dict[tuple[str, ChannelSpec], tuple] = {}
    for protocol, spec in specs.items():
        distinct = [maximal] if spec.fixed_channel else list(dict.fromkeys(channels))
        for channel, table in zip(distinct, exact_outcome_tables(protocol, distinct, target, mode)):
            scored[protocol, channel] = (
                success_probability(table),
                _cdf([r.probability for r in table.rows]),
                np.array([succeeded(r.corrected, r.fidelity) for r in table.rows]),
                np.array([r.fidelity for r in table.rows]),
            )
    rows = []
    for k, (theta, channel) in enumerate(zip(grid, channels)):
        samplers = []
        for protocol in protocols:
            fixed = specs[protocol].fixed_channel
            alpha, beta = ((float(1.0 / np.sqrt(2.0)),) * 2 if fixed
                           else (float(np.sin(theta)), float(np.cos(theta))))
            point = maximal if fixed else channel
            samplers.append((protocol, alpha, beta, *scored[protocol, point]))
        successes = [0] * len(samplers)
        fid_sums = [0.0] * len(samplers)
        for first in range(0, trials, _TRIAL_BLOCK):
            u = trial_uniforms(seed, k, min(_TRIAL_BLOCK, trials - first), first)
            for i, (*_, cdf, ok_rows, fids) in enumerate(samplers):
                counts = _counts(cdf, u)
                successes[i] += int(counts[ok_rows].sum())
                fid_sums[i] += float(counts @ fids)
        for (protocol, alpha, beta, exact, *_), ok, fid_sum in zip(samplers, successes, fid_sums):
            rows.append(SweepRow(
                theta=float(theta), alpha=alpha, beta=beta, protocol=protocol,
                mode=mode if specs[protocol].modes else "-", d=2, trials=trials, successes=ok,
                est_prob=ok / trials, exact_prob=exact, mean_fidelity=fid_sum / trials, seed=seed))
    rows.sort(key=lambda r: (r.protocol, r.theta))
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def rows_to_csv(rows: list[SweepRow]) -> str:
    """CSV with the fixed column schema, 12 significant digits, LF endings."""
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for r in rows:
        buf.write(",".join(_fmt(getattr(r, col)) for col in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def write_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))
