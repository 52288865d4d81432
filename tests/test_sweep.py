import random
import tracemalloc

import numpy as np
import pytest

import rspsim.sweep

from rspsim.errors import DegenerateState, InvalidState
from rspsim.protocols import TargetState
from rspsim.register import PROB_FLOOR, _cdf, _pick
from rspsim.sweep import (
    CSV_COLUMNS,
    rows_to_csv,
    sweep_rows,
    theta_grid,
    trial_uniforms,
)

TARGET = TargetState.of((0.6, 0.8j))
GRID = theta_grid(0.0, np.pi / 4, 21)


def test_trial_uniforms_deterministic_and_distinct():
    u1 = trial_uniforms(7, 3, 1000)
    u2 = trial_uniforms(7, 3, 1000)
    np.testing.assert_array_equal(u1, u2)
    assert np.all((0.0 <= u1) & (u1 < 1.0))
    assert len(np.unique(u1)) > 990
    assert np.any(trial_uniforms(7, 4, 1000) != u1)
    assert np.any(trial_uniforms(8, 3, 1000) != u1)


def test_trial_uniforms_prefix_stable():
    # trial t's uniform does not depend on how many trials are requested
    np.testing.assert_array_equal(trial_uniforms(1, 0, 100), trial_uniforms(1, 0, 500)[:100])


def test_probabilistic_sweep_matches_closed_form():
    rows = sweep_rows(["probabilistic"], TARGET, GRID, trials=1000, seed=11)
    assert len(rows) == 21
    for row in rows:
        assert abs(row.exact_prob - 2 * np.sin(row.theta) ** 2) <= 1e-12
        sigma = np.sqrt(max(row.exact_prob * (1 - row.exact_prob), 0.0) / row.trials)
        assert abs(row.est_prob - row.exact_prob) <= 4 * sigma + 1e-12
        assert row.est_prob == row.successes / row.trials


def test_deterministic_sweep_is_flat_one():
    rows = sweep_rows(["deterministic"], TARGET, GRID, trials=200, seed=3)
    for row in rows:
        assert abs(row.exact_prob - 1.0) <= 1e-12
        assert row.successes == row.trials
        assert abs(row.mean_fidelity - 1.0) <= 1e-10


def test_success_certain_edge_has_exact_counts():
    grid = theta_grid(np.pi / 4, np.pi / 4, 1)
    row = sweep_rows(["probabilistic"], TARGET, grid, trials=10_000, seed=1)[0]
    assert abs(row.exact_prob - 1.0) <= 1e-12
    assert row.successes == row.trials


def test_rows_sorted_by_protocol_then_theta():
    rows = sweep_rows(["probabilistic", "deterministic"], TARGET, GRID, trials=50, seed=2)
    keys = [(r.protocol, r.theta) for r in rows]
    assert keys == sorted(keys)


def test_csv_schema_and_determinism():
    rows = sweep_rows(["probabilistic"], TARGET, GRID, trials=500, seed=9)
    text1 = rows_to_csv(rows)
    text2 = rows_to_csv(sweep_rows(["probabilistic"], TARGET, GRID, trials=500, seed=9))
    assert text1 == text2
    lines = text1.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 23  # header + 21 rows + trailing newline
    assert "\r" not in text1
    first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert first["protocol"] == "probabilistic"
    assert first["trials"] == "500"
    assert first["seed"] == "9"


def test_csv_floats_use_12_significant_digits():
    rows = sweep_rows(["probabilistic"], TARGET, theta_grid(0.1, 0.1, 1), trials=10, seed=0)
    line = rows_to_csv(rows).split("\n")[1]
    fields = dict(zip(CSV_COLUMNS, line.split(",")))
    assert fields["theta"] == f"{0.1:.12g}"
    assert fields["exact_prob"] == f"{rows[0].exact_prob:.12g}"


def test_sweep_guards():
    with pytest.raises(InvalidState):
        sweep_rows(["probabilistic"], TARGET, GRID, trials=0, seed=0)
    with pytest.raises(InvalidState):
        theta_grid(1.0, 0.0, 5)
    with pytest.raises(InvalidState):
        theta_grid(0.0, 1.0, 0)
    with pytest.raises(InvalidState):
        sweep_rows(["probabilistic"], TargetState.of((1.0, 0, 0)), GRID, trials=5, seed=0)


def test_probabilistic_sweep_does_not_count_the_failure_branch():
    # The abandoned state |1> matches this target: fidelity 1 on a failed branch.
    target = TargetState.of((0.0, 1.0))
    rows = sweep_rows(["probabilistic"], target, GRID, trials=2000, seed=5)
    for row in rows:
        p = 2 * np.sin(row.theta) ** 2
        assert abs(row.exact_prob - p) <= 1e-12
        assert abs(row.est_prob - p) <= 4 * np.sqrt(p * (1 - p) / row.trials) + 1e-12


def test_trial_uniforms_block_matches_the_whole_run():
    np.testing.assert_array_equal(trial_uniforms(1, 2, 50, first=30), trial_uniforms(1, 2, 80)[30:])


def test_sweep_builds_each_distinct_table_once(monkeypatch):
    builds = []
    original = rspsim.sweep.exact_outcome_tables

    def counted(protocol, channels, target, mode):
        builds.extend((protocol, channel) for channel in channels)
        return original(protocol, channels, target, mode)

    monkeypatch.setattr(rspsim.sweep, "exact_outcome_tables", counted)
    n = 6
    rows = sweep_rows(["deterministic", "probabilistic", "nguyen"], TARGET,
                      theta_grid(0.1, 0.7, n), trials=200, seed=3)
    assert len(rows) == 3 * n
    assert len(builds) == len(set(builds)) == 2 * n + 1


def test_sweep_in_blocks_matches_one_block(monkeypatch):
    protocols = ["deterministic", "probabilistic", "nguyen"]
    grid = theta_grid(0.0, np.pi / 4, 5)
    whole = sweep_rows(protocols, TARGET, grid, trials=100, seed=9)
    monkeypatch.setattr(rspsim.sweep, "_TRIAL_BLOCK", 7)
    blocked = sweep_rows(protocols, TARGET, grid, trials=100, seed=9)
    for a, b in zip(whole, blocked, strict=True):
        assert (a.protocol, a.theta, a.successes) == (b.protocol, b.theta, b.successes)
        assert a.est_prob == b.est_prob and a.exact_prob == b.exact_prob
        assert abs(a.mean_fidelity - b.mean_fidelity) <= 1e-15


def test_sweep_memory_does_not_grow_with_trials():
    grid = theta_grid(np.pi / 6, np.pi / 6, 1)
    tracemalloc.start()
    try:
        (row,) = sweep_rows(["probabilistic"], TARGET, grid, trials=10**6, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert row.trials == 10**6 and abs(row.est_prob - 0.5) <= 4 * np.sqrt(0.25 / 10**6)


def test_counting_trials_against_the_cdf_equals_the_bincount_of_draw():
    """_counts(_cdf(p), u) is bincount(_pick(_cdf(p), u)) exactly, at every CDF edge included."""
    rng = np.random.default_rng(15)
    degenerate = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        p = rng.uniform(size=n)
        p[rng.uniform(size=n) < 0.3] = 0.0
        sub = rng.uniform(size=n) < 0.2
        p[sub] = rng.choice([1e-16, 5e-16, np.nextafter(PROB_FLOOR, 0.0), 1e-13], size=sub.sum())
        if p[p >= PROB_FLOOR].sum() < 1e-12:
            degenerate += 1
            with pytest.raises(DegenerateState):
                _pick(_cdf(p), 0.5)
            continue
        cdf = _cdf(p)
        u = np.concatenate([rng.uniform(size=20), [0.0, 1.0 - 2.0**-53], cdf[cdf < 1.0]])
        expected = np.bincount(_pick(cdf, u), minlength=n)
        np.testing.assert_array_equal(rspsim.sweep._counts(cdf, u), expected)
    assert degenerate > 100


def _uint64_base_uniforms(seed, point_index, trials, first=0):
    """The per-point base hashed as a one-element uint64 array: the reference for the integer base."""
    golden = np.uint64(0x9E3779B97F4A7C15)
    seed_arr = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    point_arr = np.array([(int(point_index) + 1) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    base = rspsim.sweep._mix64(rspsim.sweep._mix64(seed_arr) + golden * point_arr)
    idx = np.arange(first + 1, first + trials + 1, dtype=np.uint64)
    words = rspsim.sweep._mix64(base + golden * idx)
    return (words >> np.uint64(11)).astype(np.float64) / float(1 << 53)


# (seed, point, trials, first) and the float.hex of each uniform, recorded from the
# uint64-array base: a negative seed, a seed past 2^64, a point past 2^32, and a run
# of trials across the first _TRIAL_BLOCK boundary.
PINNED_UNIFORMS = {
    (-1, 0, 3, 0): ["0x1.2d1a3d8043fedp-1", "0x1.e4eaab419ddcdp-1", "0x1.3a07b36e7e6a1p-1"],
    (2**64 + 5, 4, 3, 0): ["0x1.3f738c4d95394p-3", "0x1.5c758bfe7bf60p-3", "0x1.eb19766b18458p-4"],
    (9, 2**32 + 7, 3, 0): ["0x1.72f3960419ad8p-2", "0x1.5c0ac03ddf004p-3", "0x1.ce6ec48802f9dp-1"],
    (2001, 5, 12, 65_530): [
        "0x1.88a868bd8ba1bp-1", "0x1.641ec08e979f4p-1", "0x1.4089151c6ec70p-3",
        "0x1.65f5da0abbb0cp-1", "0x1.d03eb4ee067a2p-1", "0x1.41f0fa760fcf3p-1",
        "0x1.c7eb83175eb2ap-2", "0x1.8d515f8829dd1p-1", "0x1.83b89fa901575p-1",
        "0x1.827b7d40c3f60p-4", "0x1.2199a1c80f7a0p-4", "0x1.788ac2eb67e99p-1",
    ],
}


@pytest.mark.parametrize("args", PINNED_UNIFORMS, ids=["seed-1", "seed2^64+5", "point2^32+7",
                                                      "across-a-block"])
def test_trial_uniforms_keep_the_pinned_values(args):
    _seed, _point, trials, first = args
    if first:
        assert first < rspsim.sweep._TRIAL_BLOCK < first + trials
    assert [float(x).hex() for x in trial_uniforms(*args)] == PINNED_UNIFORMS[args]


def test_the_integer_base_equals_the_uint64_array_base():
    rng = random.Random(20)
    for _ in range(500):
        seed = rng.choice([rng.randint(-2**70, 2**70), rng.randint(-9, 9)])
        point = rng.choice([rng.randint(0, 40), rng.randint(-3, 2**66)])
        first, trials = rng.randint(0, 2**20), rng.randint(1, 40)
        got = trial_uniforms(seed, point, trials, first)
        assert got.tobytes() == _uint64_base_uniforms(seed, point, trials, first).tobytes()


@pytest.mark.parametrize("p, u, massless_tail", [
    ([0.25, 0.5, 0.25], [1.0 - 2.0**-53, 0.0, 0.75, 0.2], False),  # the largest uniform
    ([0.5, 0.5, 0.0, 0.0], [1.0 - 2.0**-53, 0.5, 0.49, 0.0], True),
    ([1.0], [1.0 - 2.0**-53, 0.0, 0.5], False),
], ids=["largest-uniform", "massless-tail", "one-entry"])
def test_counting_at_the_cdf_edges_equals_the_bincount_of_draw(p, u, massless_tail):
    """The last CDF entry is exactly 1 and counted as every uniform, even where cdf[-2] is 1 too."""
    cdf, u = _cdf(p), np.array(u)
    assert cdf[-1] == 1.0 and (len(cdf) > 1 and cdf[-2] == 1.0) == massless_tail
    np.testing.assert_array_equal(rspsim.sweep._counts(cdf, u),
                                  np.bincount(_pick(cdf, u), minlength=len(p)))
