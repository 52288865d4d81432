import numpy as np

import rspsim.verify
from rspsim.protocols import TargetState
from rspsim.verify import _judged, format_report, run_suite


def test_a_residual_passes_at_its_tolerance():
    r = _judged("c", [("r", 1e-12, 1e-12), ("zero", [0.0, 0.0], 0.0)])
    assert r.passed and r.measured == "r<=1e-12 zero<=0"


def test_a_residual_above_its_tolerance_fails_and_prints_its_value():
    r = _judged("c", [("ok", 0.0, 1e-12), ("r", [0.0, np.nextafter(1e-12, 1.0)], 1e-12)])
    assert not r.passed and r.measured == "ok<=1e-12 r=1.000e-12>1e-12"


def test_a_nan_residual_fails_wherever_it_sits():
    for values in ([np.nan, 0.0], [0.0, np.nan]):
        r = _judged("c", [("r", values, 1e-12)])
        assert not r.passed and r.measured == "r=nan>1e-12"


def test_figures_print_first_and_holds_decides_with_the_residuals():
    r = _judged("c", [("r", 0.0, 1e-12)], "cases=3", holds=False)
    assert not r.passed and r.measured == "cases=3 r<=1e-12"
    assert _judged("c", (), "permutation=True").passed


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
