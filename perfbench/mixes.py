"""The benchmark's three workloads: inputs from a seed, one operation, its check.

Every workload is a closed loop driven by one client thread: the next
operation starts when the previous one returns.  Inputs come only from
the workload seed and are built before timing; the program under test
receives only the generated values.

* ``sampled``: back-to-back ``run_protocol`` calls, a third each
  deterministic (repaired, d=2), probabilistic (alpha in [0.05, 1/sqrt2],
  so failure branches occur) and nguyen, each trial with the generator
  ``derive_rng(seed, i)``.  This is the register-sampler path, dominated
  by Python overhead in ``register``, ``gates`` and ``linalg``.
* ``qudit``: back-to-back deterministic ``exact_outcome_table`` at d=32,
  the dense d^2 x d^2 gate path.
* ``sweep``: one ``sweep_rows`` (3 protocols x 21 angles x 10^4 trials)
  plus ``rows_to_csv`` per operation: 63 small d=2 tables, where per-call
  overhead dominates, and hashed vectorised sampling.
"""

from __future__ import annotations

import dataclasses
import math
from statistics import NormalDist

import numpy as np

# The workloads call the package through its module attributes, so that a
# traced run, which replaces those attributes, sees the benchmark's calls.
import rspsim.oracle as oracle
import rspsim.protocols as protocols
import rspsim.sweep as rsweep
from rspsim import ChannelSpec, TargetState, derive_rng

PROTOCOLS = ("deterministic", "probabilistic", "nguyen")

# Path of the generator that draws the configuration pools.  Trial i of the
# sampled workload uses derive_rng(seed, i); SeedSequence drops trailing
# zero words, so the pools take a path no trial index below 2^32 can reach.
CONFIG_PATH = (0, 1)


def family_z(n: int) -> float:
    """Per-comparison z threshold for a family of ``n`` comparisons at 4 sigma.

    Each comparison gets 1/n of the two-sided tail of a single 4-sigma
    test, so a correct program trips the whole family as rarely as it
    would trip one 4-sigma test.
    """
    tail = 2.0 * NormalDist().cdf(-4.0)
    return NormalDist().inv_cdf(1.0 - tail / (2.0 * max(n, 1)))


def random_target(rng: np.random.Generator, d: int) -> TargetState:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return TargetState.of(v / np.linalg.norm(v))


def random_schmidt(rng: np.random.Generator, d: int) -> ChannelSpec:
    lam = np.abs(rng.normal(size=d)) + 0.05
    return ChannelSpec.of(lam / np.linalg.norm(lam))


class Sampled:
    """Register-sampler runs over a pool of random configurations."""

    name = "sampled"
    configs_per_protocol = 16
    batch = 40  # ops between two speed measurements
    trace_ops = 300

    def __init__(self, seed: int):
        rng = derive_rng(seed, *CONFIG_PATH)
        self.seed = seed
        self.configs = []
        # alpha is drawn stratified over [0.05, 1/sqrt 2]: one draw per equal
        # slice.  The share of failure branches, which are cheaper than
        # successes, then hardly varies between seeds.
        slices = (rng.permutation(self.configs_per_protocol) + rng.uniform(size=self.configs_per_protocol))
        alphas = 0.05 + (1.0 / math.sqrt(2.0) - 0.05) * slices / self.configs_per_protocol
        for k in range(self.configs_per_protocol):
            for protocol in PROTOCOLS:
                target = random_target(rng, 2)
                if protocol == "deterministic":
                    channel = random_schmidt(rng, 2)
                elif protocol == "probabilistic":
                    alpha = float(alphas[k])
                    channel = ChannelSpec.of((alpha, math.sqrt(1.0 - alpha * alpha)))
                else:
                    channel = None
                self.configs.append((protocol, channel, target))

    def warm_up(self) -> None:
        for j, (protocol, channel, target) in enumerate(self.configs[: len(PROTOCOLS)]):
            protocols.run_protocol(protocol, channel, target, "repaired", derive_rng(self.seed, j))

    def prepare_checks(self) -> None:
        """Support of each configuration's exact table, for the per-op gate."""
        self.support = [
            {row.outcome for row in protocols.exact_outcome_table(p, ch, tg).rows}
            for p, ch, tg in self.configs
        ]
        self.observed: list[tuple[int, tuple[int, ...]]] = []

    def inputs(self, start: int, count: int) -> list:
        """Trials ``start .. start+count-1`` with their generators, built before timing."""
        out = []
        for i in range(start, start + count):
            j = i % len(self.configs)
            out.append((j, self.configs[j], derive_rng(self.seed, i)))
        return out

    @staticmethod
    def op(inp):
        _j, (protocol, channel, target), rng = inp
        return protocols.run_protocol(protocol, channel, target, "repaired", rng)

    def summarize(self, inp, transcript):
        return inp[0], oracle.transcript_outcome(transcript), bool(transcript.success)

    def check(self, result) -> bool:
        j, outcome, success = result
        protocol = self.configs[j][0]
        verdict = outcome == (0,) if protocol == "probabilistic" else True
        ok = outcome in self.support[j] and success == verdict
        if ok:
            self.observed.append((j, outcome))
        return ok

    @staticmethod
    def corrupt(result):
        j, outcome, success = result
        return j, outcome, not success

    def final_check(self) -> tuple[bool, str]:
        """Pooled outcome frequencies per protocol against the naive oracle."""
        naive = [
            oracle.enumerate_naive(p, ch, tg).as_dict() for p, ch, tg in self.configs
        ]
        n_ops = np.zeros(len(self.configs))
        counts: dict[tuple[str, tuple[int, ...]], int] = {}
        for j, outcome in self.observed:
            n_ops[j] += 1
            key = (self.configs[j][0], outcome)
            counts[key] = counts.get(key, 0) + 1
        expected: dict[tuple[str, tuple[int, ...]], list[float]] = {}
        for j, dist in enumerate(naive):
            for outcome, p in dist.items():
                e = expected.setdefault((self.configs[j][0], outcome), [0.0, 0.0])
                e[0] += n_ops[j] * p
                e[1] += n_ops[j] * p * (1.0 - p)
        z_max = family_z(len(expected))
        worst = 0.0
        for key, (mean, var) in expected.items():
            obs = counts.get(key, 0)
            if var <= 0.0:
                if abs(obs - mean) > 1e-9:
                    return False, f"pooled {key}: observed {obs}, expected exactly {mean}"
                continue
            worst = max(worst, abs(obs - mean) / math.sqrt(var))
        if any(key not in expected for key in counts):
            return False, "an observed outcome lies outside the oracle's outcome space"
        return bool(worst <= z_max), f"pooled max z {worst:.3f} (limit {z_max:.3f}, {len(expected)} comparisons)"


class Qudit:
    """Deterministic exact tables at d=32 over a pool of random channels and targets."""

    name = "qudit"
    d = 32
    pool = 8
    batch = 2
    trace_ops = 16

    def __init__(self, seed: int):
        rng = derive_rng(seed, *CONFIG_PATH)
        self.configs = [(random_schmidt(rng, self.d), random_target(rng, self.d)) for _ in range(self.pool)]

    def warm_up(self) -> None:
        for channel, target in self.configs[:2]:
            protocols.exact_outcome_table("deterministic", channel, target, "repaired")

    def prepare_checks(self) -> None:
        pass

    def inputs(self, start: int, count: int) -> list:
        return [(i % self.pool, self.configs[i % self.pool]) for i in range(start, start + count)]

    @staticmethod
    def op(inp):
        _j, (channel, target) = inp
        return protocols.exact_outcome_table("deterministic", channel, target, "repaired")

    def summarize(self, inp, table):
        return inp[0], table.rows

    def check(self, result) -> bool:
        """Only (m, m) outcomes, each with probability |lambda_m|^2, all at fidelity 1.

        The closed form follows from CADD, CSUB, CADD on sum_m lambda_m |m m 0>.
        """
        j, rows = result
        lambdas = self.configs[j][0].lambdas
        if sorted(row.outcome for row in rows) != [(m, m) for m in range(self.d)]:
            return False
        return all(
            abs(row.probability - abs(lambdas[row.outcome[0]]) ** 2) <= 1e-12
            and row.fidelity >= 1.0 - 1e-10
            for row in rows
        )

    @staticmethod
    def corrupt(result):
        j, rows = result
        first = dataclasses.replace(rows[0], probability=rows[0].probability + 1e-9)
        return j, (first,) + tuple(rows[1:])

    def final_check(self) -> tuple[bool, str]:
        return True, "per-op closed form only"


class Sweep:
    """The README sweep: 3 protocols x 21 angles in [0, pi/4] x 10^4 trials, then CSV."""

    name = "sweep"
    pool = 4
    batch = 1
    trace_ops = 8
    points = 21
    trials = 10_000

    def __init__(self, seed: int):
        rng = derive_rng(seed, *CONFIG_PATH)
        self.grid = rsweep.theta_grid(0.0, math.pi / 4.0, self.points)
        self.configs = [
            (random_target(rng, 2), int(rng.integers(0, 2**31))) for _ in range(self.pool)
        ]

    def warm_up(self) -> None:
        self.op((0, self.configs[0], self.grid))

    def prepare_checks(self) -> None:
        self.csv_seen: dict[int, str] = {}

    def inputs(self, start: int, count: int) -> list:
        return [(i % self.pool, self.configs[i % self.pool], self.grid) for i in range(start, start + count)]

    @staticmethod
    def op(inp):
        _j, (target, sweep_seed), grid = inp
        rows = rsweep.sweep_rows(list(PROTOCOLS), target, grid, Sweep.trials, sweep_seed)
        return rows, rsweep.rows_to_csv(rows)

    def summarize(self, inp, out):
        return inp[0], out[0], out[1]

    def check(self, result) -> bool:
        """exact_prob in closed form, est_prob within 4 sigma, CSV bytes repeat."""
        j, rows, csv = result
        if len(rows) != len(PROTOCOLS) * self.points:
            return False
        z_max = family_z(sum(1 for r in rows if 0.0 < r.exact_prob < 1.0))
        for r in rows:
            closed = 2.0 * math.sin(r.theta) ** 2 if r.protocol == "probabilistic" else 1.0
            if abs(r.exact_prob - closed) > 1e-12 or r.trials != self.trials:
                return False
            p = r.exact_prob
            var = p * (1.0 - p) / r.trials
            if var <= 0.0:
                if abs(r.est_prob - p) > 1e-12:
                    return False
            elif abs(r.est_prob - p) > z_max * math.sqrt(var):
                return False
        return self.csv_seen.setdefault(j, csv) == csv

    @staticmethod
    def corrupt(result):
        j, rows, csv = result
        k = next(i for i, r in enumerate(rows) if r.protocol == "probabilistic" and 0.0 < r.exact_prob < 1.0)
        bad = dataclasses.replace(rows[k], exact_prob=rows[k].exact_prob + 1e-9)
        return j, rows[:k] + [bad] + rows[k + 1:], csv

    def final_check(self) -> tuple[bool, str]:
        return True, f"{len(self.csv_seen)} distinct (target, seed) CSVs repeated byte for byte"


MIXES = {cls.name: cls for cls in (Sampled, Qudit, Sweep)}
