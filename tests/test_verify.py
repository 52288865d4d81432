import hashlib

import numpy as np
import pytest

import rspsim.errors
import rspsim.gates
import rspsim.protocols
import rspsim.verify
from rspsim.cli import main
from rspsim.protocols import TargetState
from rspsim.verify import _judged, format_report, run_suite


def test_a_residual_passes_at_its_tolerance():
    passed, measured = _judged([("r", 1e-12, 1e-12), ("zero", [0.0, 0.0], 0.0)])
    assert passed and measured == "r<=1e-12 zero<=0"


def test_a_residual_above_its_tolerance_fails_and_prints_its_value():
    passed, measured = _judged([("ok", 0.0, 1e-12), ("r", [0.0, np.nextafter(1e-12, 1.0)], 1e-12)])
    assert not passed and measured == "ok<=1e-12 r=1.000e-12>1e-12"


def test_a_nan_residual_fails_wherever_it_sits():
    for values in ([np.nan, 0.0], [0.0, np.nan]):
        passed, measured = _judged([("r", values, 1e-12)])
        assert not passed and measured == "r=nan>1e-12"


def test_figures_print_first_and_holds_decides_with_the_residuals():
    passed, measured = _judged([("r", 0.0, 1e-12)], "cases=3", holds=False)
    assert not passed and measured == "cases=3 r<=1e-12"
    assert _judged((), "permutation=True") == (True, "permutation=True")


def test_one_ulp_on_every_random_target_leaves_the_report_unchanged(monkeypatch):
    """Roundoff that changes no verdict must not change the gates or protocols text."""
    before = format_report(run_suite("gates", 0) + run_suite("protocols", 0))
    draw = rspsim.verify._random_target

    def nudged(d, rng):
        v = draw(d, rng).vector()
        v[0] *= 1.0 + 2.0**-52
        return TargetState.of(v)

    monkeypatch.setattr(rspsim.verify, "_random_target", nudged)
    assert format_report(run_suite("gates", 0) + run_suite("protocols", 0)) == before


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_the_probabilistic_curve_sees_a_dropped_phase_diagonal(monkeypatch, seed):
    """The curve's channels carry Schmidt phases, so B's phase diagonal is not the identity."""
    def bare(channels):
        return np.broadcast_to(rspsim.protocols.PAULI_TABLE, (len(channels), 2, 2, 2, 2))

    monkeypatch.setattr(rspsim.protocols, "_nguyen_fixes", bare)
    failed = [r.name for r in run_suite("protocols", seed) if not r.passed]
    assert failed == ["protocols.probabilistic_success_2sin2"]


def test_the_verify_all_report_is_pinned(capsys):
    """Every verdict and every printed figure of ``verify all --seed 0``, byte for byte."""
    assert main(["verify", "all", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("16/16 checks passed\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9e3f800674aec09da3acdbb07e3c6cfd3e8ddf967e1e5b9ab0b968febc216259")


def test_a_check_that_raises_fails_and_the_suite_goes_on(monkeypatch, capsys):
    """CSUB replaced by CADD breaks the branch structure at d >= 3; every other verdict stays."""
    monkeypatch.setattr(rspsim.protocols, "csub", rspsim.gates.cadd)
    assert main(["verify", "all", "--seed", "0"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 17 and lines[-1] == "14/16 checks passed"
    raised = "SimulationError: branch A=0, C=1 has weight; branch structure is corrupted"
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        f"[FAIL] protocols.deterministic_success_is_1: {raised}",
        f"[FAIL] oracle.fast_vs_naive_agreement: {raised}",
    ]


def test_a_check_that_raises_is_named_and_other_errors_propagate(monkeypatch):
    def raises(error):
        def build(*args, **kwargs):
            raise error
        return build

    monkeypatch.setattr(rspsim.verify, "exact_outcome_tables",
                        raises(rspsim.errors.DegenerateState("no mass")))
    results = run_suite("protocols", 0)
    assert [r.passed for r in results] == [True, False, True, True, True]
    assert results[1] == rspsim.verify.CheckResult(
        "protocols.probabilistic_success_2sin2", False, "DegenerateState: no mass")
    monkeypatch.setattr(rspsim.verify, "exact_outcome_tables", raises(ZeroDivisionError("bug")))
    with pytest.raises(ZeroDivisionError):
        run_suite("protocols", 0)


def test_an_unknown_suite_is_an_input_error():
    """A library caller gets an rspsim error, with the text the CLI's choices imply."""
    with pytest.raises(rspsim.errors.InvalidState) as raised:
        run_suite("bogus")
    assert str(raised.value) == (
        f"unknown suite 'bogus'; expected all or one of {rspsim.verify.SUITES}")
