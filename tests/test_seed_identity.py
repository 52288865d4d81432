"""Seeded runs and sweeps draw the same branches from one release to the next.

The integers below were recorded from the code and pin, seed for seed,
which branch each seeded ``run_protocol`` call and each README sweep
draws; the digests pin every byte of those sweeps' CSVs.  A change to how
probabilities become branch indices (the CDF arithmetic, the floor, the
uniform read per draw) or to how a sweep scores its trials fails here
even when every distribution-level test still passes.
"""

import csv
import hashlib

import numpy as np
import pytest

from rspsim.cli import main
from rspsim.protocols import (ChannelSpec, TargetState, exact_outcome_table, exact_outcome_tables,
                              run_protocol)
from rspsim.register import derive_rng
from rspsim.sweep import rows_to_csv, sweep_rows, theta_grid

SEEDS = range(12)


def _phased(magnitudes, rng):
    v = np.asarray(magnitudes) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(magnitudes)))
    return v / np.linalg.norm(v)


def _configs():
    """(name, protocol, channel, target, mode, stream): 25 configurations of all three protocols.

    ``stream`` keys each configuration's seeds apart, so no two share uniforms.
    """
    rng = np.random.default_rng(20260)
    out = []
    for d in (2, 3, 4):
        for k in range(5):
            channel = ChannelSpec.of(_phased(rng.uniform(0.1, 1.0, size=d), rng))
            target = TargetState.of(_phased(rng.uniform(0.1, 1.0, size=d), rng))
            out.append((f"deterministic-d{d}-{k}", "deterministic", channel, target, "repaired"))
    for k in range(3):
        channel = ChannelSpec.of(_phased(rng.uniform(0.1, 1.0, size=2), rng))
        target = TargetState.of(_phased(rng.uniform(0.1, 1.0, size=2), rng))
        out.append((f"literal-{k}", "deterministic", channel, target, "literal"))
    for k in range(4):
        channel = ChannelSpec.of(_phased(np.sort(rng.uniform(0.1, 1.0, size=2)), rng))
        target = TargetState.of(_phased(rng.uniform(0.1, 1.0, size=2), rng))
        out.append((f"probabilistic-{k}", "probabilistic", channel, target, "repaired"))
    for k in range(3):
        target = TargetState.of(_phased(rng.uniform(0.1, 1.0, size=2), rng))
        out.append((f"nguyen-{k}", "nguyen", None, target, "repaired"))
    return [(*config, stream) for stream, config in enumerate(out)]


def _code(tr):
    """Every measured outcome index of a run, in order, as the digits after a leading 1."""
    return int("1" + "".join(str(v) for rec in tr.measurements for v in rec.outcome))


# Recorded codes, one per seed in SEEDS, drawn from derive_rng(seed, stream).
PINNED = {
    "deterministic-d2-0": [111, 111, 100, 100, 111, 111, 111, 111, 100, 111, 111, 100],
    "deterministic-d2-1": [111, 100, 111, 100, 111, 111, 111, 111, 100, 111, 100, 100],
    "deterministic-d2-2": [100, 100, 111, 100, 100, 100, 111, 100, 100, 100, 100, 111],
    "deterministic-d2-3": [111, 100, 100, 100, 100, 100, 100, 111, 111, 100, 100, 111],
    "deterministic-d2-4": [111, 111, 111, 111, 111, 111, 111, 111, 111, 111, 111, 111],
    "deterministic-d3-0": [111, 111, 111, 100, 111, 111, 111, 100, 111, 111, 122, 100],
    "deterministic-d3-1": [100, 100, 122, 111, 100, 111, 100, 111, 122, 111, 100, 100],
    "deterministic-d3-2": [100, 122, 100, 122, 122, 122, 111, 111, 100, 122, 122, 122],
    "deterministic-d3-3": [111, 100, 100, 100, 100, 122, 111, 111, 100, 100, 122, 111],
    "deterministic-d3-4": [111, 122, 111, 122, 111, 122, 111, 122, 111, 111, 111, 122],
    "deterministic-d4-0": [122, 122, 122, 122, 122, 100, 122, 122, 122, 100, 122, 122],
    "deterministic-d4-1": [111, 100, 111, 122, 100, 111, 122, 100, 122, 111, 111, 122],
    "deterministic-d4-2": [111, 133, 133, 111, 100, 133, 111, 100, 100, 133, 111, 100],
    "deterministic-d4-3": [122, 133, 133, 122, 133, 122, 111, 122, 111, 111, 111, 122],
    "deterministic-d4-4": [133, 133, 100, 133, 133, 133, 133, 122, 133, 133, 133, 122],
    "literal-0": [100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 111],
    "literal-1": [111, 111, 111, 111, 111, 111, 111, 111, 100, 111, 111, 111],
    "literal-2": [111, 111, 111, 111, 111, 111, 111, 111, 111, 111, 111, 111],
    "probabilistic-0": [11, 1010, 1001, 1001, 1011, 11, 1001, 11, 11, 1000, 1010, 11],
    "probabilistic-1": [1010, 1011, 11, 1011, 1000, 1010, 1011, 11, 11, 1011, 1000, 11],
    "probabilistic-2": [11, 11, 11, 11, 11, 1011, 11, 11, 11, 11, 11, 11],
    "probabilistic-3": [11, 11, 11, 11, 11, 11, 11, 1010, 11, 11, 11, 11],
    "nguyen-0": [100, 101, 101, 101, 110, 100, 111, 110, 110, 100, 100, 101],
    "nguyen-1": [110, 111, 101, 101, 110, 111, 111, 101, 110, 111, 111, 100],
    "nguyen-2": [100, 100, 101, 110, 100, 101, 100, 111, 111, 100, 111, 110],
}

README_SWEEPS = (
    ["--protocol", "probabilistic", "--target", "0.6,0:0,0.8", "--theta-min", "0",
     "--theta-max", "0.7853981633974483", "--points", "21", "--trials", "10000", "--seed", "1"],
    ["--protocol", "deterministic", "--mode", "repaired", "--target", "0.6,0:0,0.8",
     "--trials", "10000", "--seed", "1"],
)

# The successes column of each README sweep, row by row.
PINNED_SWEEPS = (
    (0, 29, 130, 252, 494, 747, 1038, 1495, 1877, 2364, 2887, 3499, 4131, 4695, 5474,
     6195, 6956, 7656, 8400, 9198, 10000),
    (10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000,
     10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000),
)


# SHA-256 of each README sweep's whole CSV: every column, every digit, the line endings.
PINNED_SWEEP_DIGESTS = (
    "5fa07f334687e2433efd0d04073be885b35c16ee09d8f7df442fb84b66376cb2",
    "9f398ba9d36f0c11f428b7814653dff581faa887147933078ff6f101cda7fa9f",
)


def test_every_configuration_is_pinned():
    assert sorted(PINNED) == sorted(name for name, *_ in _configs())


@pytest.mark.parametrize("name, protocol, channel, target, mode, stream", _configs(),
                         ids=[c[0] for c in _configs()])
def test_seeded_runs_draw_the_pinned_branches(name, protocol, channel, target, mode, stream):
    codes = [_code(run_protocol(protocol, channel, target, mode, derive_rng(s, stream)))
             for s in SEEDS]
    assert codes == PINNED[name]


@pytest.mark.parametrize("argv, successes", zip(README_SWEEPS, PINNED_SWEEPS),
                         ids=["fig1", "fig3"])
def test_readme_sweeps_draw_the_pinned_successes(argv, successes, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        assert [int(row["successes"]) for row in csv.DictReader(fh)] == list(successes)


@pytest.mark.parametrize("argv, digest", zip(README_SWEEPS, PINNED_SWEEP_DIGESTS),
                         ids=["fig1", "fig3"])
def test_readme_sweeps_write_the_pinned_csv_bytes(argv, digest, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of a three-protocol sweep's CSV: nguyen rows, a grid from theta = 0 (massless
# branches), 70 000 trials (two blocks of trials) and a negative seed.
PINNED_THREE_PROTOCOL_DIGEST = "2f539302a3e0a7958e6fede42ea931dee42c191efdc9c97f44b11358ad9b1912"


def test_a_three_protocol_sweep_writes_the_pinned_csv_bytes():
    rows = sweep_rows(["deterministic", "probabilistic", "nguyen"], TargetState.of((0.6, 0.8j)),
                      theta_grid(0.0, np.pi / 4, 5), 70_000, -20)
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == PINNED_THREE_PROTOCOL_DIGEST


def _digest_tables():
    """Exact tables of every protocol: deterministic at d = 2, 3, 5, 8, 32, literal, a grid, nguyen."""
    rng = np.random.default_rng(4401)
    tables = []
    for d in (2, 3, 5, 8, 32):
        channel = ChannelSpec.of(_phased(rng.uniform(0.1, 1.0, size=d), rng))
        target = TargetState.of(_phased(rng.uniform(0.1, 1.0, size=d), rng))
        tables.append(exact_outcome_table("deterministic", channel, target))
    channel = ChannelSpec.of(_phased(rng.uniform(0.1, 1.0, size=2), rng))
    target = TargetState.of(_phased(rng.uniform(0.1, 1.0, size=2), rng))
    tables.append(exact_outcome_table("deterministic", channel, target, "literal"))
    grid = [ChannelSpec.from_theta(t) for t in theta_grid(0.0, np.pi / 4, 21)]
    tables += exact_outcome_tables("probabilistic", grid, target)
    tables.append(exact_outcome_table("nguyen", None, target))
    return tables


# SHA-256 over the tables of _digest_tables (every row as float.hex, the row order and the
# outcome space) and over every seeded run of _configs (its repr, correction and B's bytes).
PINNED_TABLES_AND_RUNS_DIGEST = "6c2575429dc1f10986487134cee287beb388a43b04b1714947c980f207730a54"


def test_tables_and_transcripts_hash_to_the_pinned_digest():
    h = hashlib.sha256()
    for table in _digest_tables():
        h.update(repr((table.protocol, table.mode, table.outcome_space)).encode())
        for row in table.rows:
            h.update(repr((row.outcome, row.probability.hex(), row.fidelity.hex(),
                           row.corrected)).encode())
    for _name, protocol, channel, target, mode, stream in _configs():
        for s in SEEDS:
            tr = run_protocol(protocol, channel, target, mode, derive_rng(s, stream))
            h.update(repr(tr).encode())
            h.update(repr((tr.correction, tr.fidelity.hex())).encode())
            h.update(tr.bob_state.tobytes())
    assert h.hexdigest() == PINNED_TABLES_AND_RUNS_DIGEST
