import numpy as np
import pytest

import rspsim.oracle
import rspsim.protocols
import rspsim.verify
from rspsim.errors import CapacityExceeded, InvalidState, MismatchedOutcomeSpace
from rspsim.oracle import (
    BranchDistribution,
    RunSpec,
    compare_exact,
    compare_sampled,
    _naive_pass,
    enumerate_naive,
    table_distribution,
)
from rspsim.protocols import (
    ChannelSpec,
    TargetState,
    exact_outcome_table,
    run_protocol,
    success_probability,
)
from rspsim.register import derive_rng


def random_target(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return TargetState.of(v / np.linalg.norm(v))


def random_positive_channel(d, rng):
    v = rng.uniform(0.1, 1.0, size=d)
    return ChannelSpec.of(v / np.linalg.norm(v))


def test_naive_probabilistic_weights():
    dist = enumerate_naive(
        "probabilistic", ChannelSpec.of((0.6, 0.8)), TargetState.of((0.6, 0.8j))
    )
    probs = dist.as_dict()
    assert abs(probs[(0,)] - 0.72) <= 1e-12
    assert abs(probs[(1,)] - 0.28) <= 1e-12


def test_naive_deterministic_uniform_qutrit():
    channel = ChannelSpec.of(np.full(3, 1 / np.sqrt(3)))
    target = random_target(3, np.random.default_rng(0))
    dist = enumerate_naive("deterministic", channel, target)
    probs = dist.as_dict()
    for m in range(3):
        assert abs(probs[(m, m)] - 1 / 3) <= 1e-12
    fids = _naive_pass("deterministic", channel, target, "repaired")[1]
    assert set(fids) == {(0, 0), (1, 1), (2, 2)}
    assert all(f >= 1 - 1e-10 for f in fids.values())


def test_naive_product_channel_single_branch():
    dist = enumerate_naive(
        "deterministic", ChannelSpec.of((1.0, 0.0)), TargetState.of((0.6, 0.8))
    )
    probs = dist.as_dict()
    assert abs(probs[(0, 0)] - 1.0) <= 1e-12
    assert all(p == 0.0 for out, p in probs.items() if out != (0, 0))


def test_naive_literal_mode_matches_fast():
    channel = ChannelSpec.of((0.6, 0.8))
    target = TargetState.of((1 / np.sqrt(2), 1j / np.sqrt(2)))
    fast = table_distribution(
        exact_outcome_table("deterministic", channel, target, mode="literal")
    )
    naive = enumerate_naive("deterministic", channel, target, mode="literal")
    report = compare_exact(fast, naive)
    assert report.passed


def test_naive_capacity_cap():
    rng = np.random.default_rng(1)
    with pytest.raises(CapacityExceeded):
        enumerate_naive(
            "deterministic", random_positive_channel(9, rng), random_target(9, rng)
        )


def test_compare_exact_identical_distributions():
    dist = enumerate_naive("nguyen", None, TargetState.of((0.6, 0.8j)))
    report = compare_exact(dist, dist)
    assert report.passed and report.max_stat == 0.0


def test_compare_exact_detects_milli_shift():
    target = TargetState.of((0.6, 0.8j))
    dist = enumerate_naive("nguyen", None, target)
    shifted = []
    for k, (out, p) in enumerate(dist.entries):
        if k == 0:
            shifted.append((out, p + 1e-3))
        elif k == 1:
            shifted.append((out, p - 1e-3))
        else:
            shifted.append((out, p))
    other = BranchDistribution(tuple(shifted), dist.provenance)
    report = compare_exact(other, dist)
    assert not report.passed
    assert abs(report.max_stat - 1e-3) <= 1e-12


@pytest.mark.parametrize("nan_at", [0, 1])
def test_compare_exact_fails_on_nan(nan_at):
    spec = RunSpec("probabilistic", ChannelSpec.of((0.6, 0.8)), TargetState.of((0.6, 0.8)))
    bad = BranchDistribution(tuple(((k,), float("nan") if k == nan_at else 0.5) for k in (0, 1)),
                             spec)
    good = BranchDistribution((((0,), 0.5), ((1,), 0.5)), spec)
    report = compare_exact(bad, good)
    assert np.isnan(report.max_stat) and not report.passed


def test_alpha_equal_beta_channel_matches_the_oracle():
    # |alpha| passes |beta| by one ulp: a maximal channel, which always succeeds.
    channel = ChannelSpec.of((0.7071067811865476, 0.7071067811865475))
    target = TargetState.of((0.6, 0.8j))
    table = exact_outcome_table("probabilistic", channel, target)
    naive = enumerate_naive("probabilistic", channel, target)
    assert compare_exact(table_distribution(table), naive).passed
    assert abs(success_probability(table) - 1.0) <= 1e-12
    assert abs(naive.as_dict()[(0,)] - 1.0) <= 1e-12


def test_compare_exact_mismatched_space():
    t = TargetState.of((0.6, 0.8j))
    nguyen = enumerate_naive("nguyen", None, t)
    prob = enumerate_naive("probabilistic", ChannelSpec.of((0.6, 0.8)), t)
    with pytest.raises(MismatchedOutcomeSpace):
        compare_exact(nguyen, prob)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fast_vs_naive_random_configs(d):
    rng = np.random.default_rng(300 + d)
    for _ in range(5):
        channel = random_positive_channel(d, rng)
        target = random_target(d, rng)
        fast = table_distribution(exact_outcome_table("deterministic", channel, target))
        naive = enumerate_naive("deterministic", channel, target)
        assert compare_exact(fast, naive).max_stat <= 1e-10


def test_fast_vs_naive_probabilistic_and_nguyen():
    rng = np.random.default_rng(9)
    for _ in range(5):
        alpha = float(rng.uniform(0.05, 1 / np.sqrt(2)))
        channel = ChannelSpec.of((alpha, np.sqrt(1 - alpha * alpha)))
        target = random_target(2, rng)
        fast = table_distribution(exact_outcome_table("probabilistic", channel, target))
        assert compare_exact(fast, enumerate_naive("probabilistic", channel, target)).passed
        fast = table_distribution(exact_outcome_table("nguyen", None, target))
        assert compare_exact(fast, enumerate_naive("nguyen", None, target)).passed


@pytest.mark.parametrize("lambdas", [(0.0, 1.0), (0.0, np.exp(0.7j)),
                                     (1 / np.sqrt(2), 1 / np.sqrt(2))],
                         ids=["alpha0", "alpha0-beta-phase", "alpha-equals-beta"])
def test_fast_vs_naive_probabilistic_at_the_ends_of_the_curve(lambdas):
    """Both paths run CNOT, controlled-U, CNOT at every alpha; rows and fidelities agree."""
    channel = ChannelSpec.of(lambdas)
    for target in (TargetState.of((0.6, 0.8j)), random_target(2, np.random.default_rng(11))):
        table = exact_outcome_table("probabilistic", channel, target)
        naive = enumerate_naive("probabilistic", channel, target)
        assert compare_exact(table_distribution(table), naive).max_stat <= 1e-15
        fidelities = _naive_pass("probabilistic", channel, target, "repaired")[1]
        assert sorted(fidelities) == [row.outcome for row in table.rows]
        for row in table.rows:
            assert abs(row.fidelity - fidelities[row.outcome]) <= 1e-12


def test_compare_sampled_deterministic():
    dist = enumerate_naive(
        "deterministic", ChannelSpec.of((0.6, 0.8)), TargetState.of((0.6, 0.8j))
    )
    report = compare_sampled(dist, trials=1000, seed=5)
    assert report.passed
    assert report.max_stat <= 4.0


def test_compare_sampled_flags_impossible_outcome():
    # claim the realizable branches are impossible; observing them must fail
    target = TargetState.of((0.6, 0.8j))
    channel = ChannelSpec.of((0.6, 0.8))
    truth = enumerate_naive("deterministic", channel, target)
    lying = BranchDistribution(
        tuple((out, {(0, 1): 0.36, (1, 0): 0.64}.get(out, 0.0)) for out, _ in truth.entries),
        truth.provenance,
    )
    report = compare_sampled(lying, trials=200, seed=1)
    assert not report.passed
    assert report.max_stat == float("inf")


def test_compare_sampled_needs_trials():
    dist = enumerate_naive("nguyen", None, TargetState.of((0.6, 0.8)))
    with pytest.raises(InvalidState):
        compare_sampled(dist, trials=50, seed=0)


@pytest.mark.parametrize("protocol, channel, target", [
    ("nguyen", None, TargetState.of((0.6, 0.8, 0))),
    ("probabilistic", ChannelSpec.maximal(3), TargetState.of((0.6, 0.8))),
    ("probabilistic", ChannelSpec.maximal(3), TargetState.of((0.6, 0.8, 0))),
    ("deterministic", ChannelSpec.of((0.6, 0.8)), TargetState.of((0.6, 0.8, 0))),
], ids=["nguyen-d3", "probabilistic-qutrit-channel", "probabilistic-d3", "deterministic-d2-on-d3"])
def test_the_oracle_refuses_what_a_run_refuses(protocol, channel, target):
    """The naive path checks its inputs by the protocol's record: the run's error, not numpy's."""
    with pytest.raises(InvalidState) as naive:
        enumerate_naive(protocol, channel, target)
    with pytest.raises(InvalidState) as run:
        run_protocol(protocol, channel, target, rng=derive_rng(0))
    assert str(naive.value) == str(run.value)


def test_provenance_round_trip():
    channel = ChannelSpec.of((0.6, 0.8))
    target = TargetState.of((0.6, 0.8j))
    dist = enumerate_naive("probabilistic", channel, target)
    assert dist.provenance == RunSpec("probabilistic", channel, target, "repaired")


def test_oracle_module_shares_no_simulator_code():
    # the naive path must stay an independent oracle: no imports from the
    # register or gates modules, only config types and the run dispatcher
    import ast
    import inspect

    import rspsim.oracle as oracle_mod

    tree = ast.parse(inspect.getsource(oracle_mod))
    modules = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert not any("register" in m or "gates" in m for m in modules), modules


def _interval_measures(node, width=1.0):
    """(label, measure) of each leaf: the product of the CDF interval widths on its path.

    Those widths are the measure of the uniforms that reach the leaf, read
    from each measurement's cached CDF.
    """
    for i, child in node.children.items():
        w = width * (node.cdf[i] - (node.cdf[i - 1] if i else 0.0))
        if isinstance(child, rspsim.protocols._Node):
            yield from _interval_measures(child, w)
        else:
            block, k = child
            yield block.labels[k], w


def test_the_pick_rule_reaches_each_row_with_its_naive_probability(monkeypatch):
    """Exact audit of the draw over the 150 configurations of verify's fast-vs-naive check."""
    naive = []

    naive_pass = rspsim.oracle._naive_pass

    def spy(*args):
        dist, fidelities = naive_pass(*args)
        naive.append(dist)
        return dist, fidelities

    monkeypatch.setattr(rspsim.oracle, "_naive_pass", spy)
    assert rspsim.verify._check_oracle_exact(0)[0]
    assert len(naive) == 150
    for dist in naive:
        spec = dist.provenance
        *_, tree = rspsim.protocols._tree(spec.protocol, [spec.channel], spec.target, spec.mode)
        labels = [block.labels[k] for block, leaves in tree.blocks() for k in leaves]  # the full expansion
        measured = list(_interval_measures(tree))
        assert [label for label, _ in measured] == labels
        measures = dict.fromkeys(dist.as_dict(), 0.0)
        for label, w in measured:
            measures[label] += w
        report = compare_exact(BranchDistribution(tuple(measures.items()), spec), dist)
        assert report.passed, (spec, report.max_stat)


def test_compare_sampled_plans_once_and_leaves_runs_unchanged(monkeypatch):
    channel, target = ChannelSpec.of((0.6, 0.8)), TargetState.of((0.6, 0.8j))
    before = [run_protocol("probabilistic", channel, target, rng=derive_rng(3, k))
              for k in range(4)]
    plans = []
    plan = rspsim.protocols._plan

    def counted(*args):
        plans.append(args[0])
        return plan(*args)

    monkeypatch.setattr(rspsim.protocols, "_plan", counted)
    for trials in (100, 2000):
        dist = enumerate_naive("probabilistic", channel, target)
        assert compare_sampled(dist, trials=trials, seed=11).passed
    assert plans == ["probabilistic", "probabilistic"]
    for k, old in enumerate(before):
        new = run_protocol("probabilistic", channel, target, rng=derive_rng(3, k))
        assert new.bob_state.tobytes() == old.bob_state.tobytes()
        assert repr(new) == repr(old)
