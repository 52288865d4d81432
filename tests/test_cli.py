import dataclasses
import shlex
from pathlib import Path

import numpy as np
import pytest

import rspsim.verify
from rspsim.cli import _COMMANDS, ConfigError, main, parse_complex_list, parse_config
from rspsim.gates import make_gate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_list():
    assert parse_complex_list("0.6,0:0.8,0", "lambda") == (0.6 + 0j, 0.8 + 0j)
    assert parse_complex_list("0.6:0,0.8", "target") == (0.6 + 0j, 0.8j)
    with pytest.raises(ConfigError):
        parse_complex_list("1,2,3", "lambda")
    with pytest.raises(ConfigError):
        parse_complex_list("abc", "lambda")


def test_parse_config_example_line():
    cfg = parse_config(
        ["run", "--protocol", "deterministic",
         "--lambda", "0.6,0:0.8,0", "--target", "0.6,0:0,0.8", "--seed", "42"]
    )
    assert cfg.protocol == "deterministic"
    assert cfg.lambdas == (0.6 + 0j, 0.8 + 0j)
    assert cfg.target == (0.6 + 0j, 0.8j)
    assert cfg.seed == 42


def test_missing_target_names_field(capsys):
    code, _out, err = run_cli(capsys, "run", "--protocol", "deterministic",
                              "--lambda", "0.6,0:0.8,0")
    assert code == 1
    assert "target" in err


def test_slightly_unnormalized_list_is_renormalized():
    # norm 0.999999 is accepted and renormalized exactly
    lam = np.array([0.6, 0.8]) * 0.999999
    cfg = parse_config(
        ["run", "--protocol", "deterministic",
         "--lambda", f"{lam[0]:.17g},0:{lam[1]:.17g},0", "--target", "1,0:0,0"]
    )
    assert abs(np.linalg.norm(np.array(cfg.lambdas)) - 1.0) <= 1e-15


def test_badly_unnormalized_list_is_rejected(capsys):
    code, _out, err = run_cli(capsys, "run", "--protocol", "deterministic",
                              "--lambda", "0.5,0:0.5,0", "--target", "1:0")
    assert code == 1
    assert "lambda" in err


def test_run_deterministic_prints_transcript(capsys):
    code, out, _err = run_cli(
        capsys, "run", "--protocol", "deterministic",
        "--lambda", "0.6,0:0.8,0", "--target", "0.6,0:0,0.8", "--seed", "42",
    )
    assert code == 0
    assert "fidelity: 1" in out
    assert "RESULT protocol=deterministic" in out
    assert "success=true" in out


def test_run_literal_flags_non_unitary_step(capsys):
    s = 1 / np.sqrt(2)
    code, out, _err = run_cli(
        capsys, "run", "--protocol", "deterministic", "--mode", "literal",
        "--lambda", "0.6,0:0.8,0", "--target", f"{s},0:0,{s}", "--seed", "1",
    )
    assert code == 0
    assert "NON-UNITARY STEP" in out
    assert "raw pre-measurement norm" in out


def test_run_probabilistic_branch_is_seed_stable(capsys):
    args = ("run", "--protocol", "probabilistic", "--lambda", "0.6,0:0.8,0",
            "--target", "0.6,0:0,0.8", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert ("success=true" in out1) or ("success=false" in out1)


def test_probabilistic_success_rate_over_seeds(capsys):
    # at theta = pi/6 the success probability is one half
    lam = f"{np.sin(np.pi / 6):.17g},0:{np.cos(np.pi / 6):.17g},0"
    successes = 0
    trials = 200
    for seed in range(trials):
        code, out, _ = run_cli(capsys, "run", "--protocol", "probabilistic",
                               "--lambda", lam, "--target", "0.6,0:0,0.8",
                               "--seed", str(seed))
        assert code == 0
        successes += "success=true" in out
    sigma = np.sqrt(trials * 0.25)
    assert abs(successes - trials * 0.5) <= 4 * sigma


def test_run_summary_prints_the_table_label(capsys):
    """A completed probabilistic run is labelled by its ancilla outcome alone."""
    code, out, _ = run_cli(capsys, "run", "--protocol", "probabilistic",
                           "--lambda", "0.6,0:0.8,0", "--target", "0.6,0:0,0.8", "--seed", "1")
    assert code == 0
    result = out.strip().splitlines()[-1]
    assert "outcome=(0) " in result and "success=true" in result


def test_probabilistic_run_corrects_a_channel_with_a_schmidt_phase(capsys):
    """README's example: lambda = (0.6i, 0.8), completed on its first draw."""
    code, out, _ = run_cli(capsys, "run", "--protocol", "probabilistic", "--lambda",
                           "0,0.6:0.8,0", "--target", "0.6,0:0,0.8", "--seed", "1")
    assert code == 0
    assert "success: true" in out and "outcome=(0) " in out


def test_nguyen_run(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "nguyen",
                           "--target", "0.6,0:0,0.8", "--seed", "3")
    assert code == 0
    assert "success=true" in out


def test_unknown_flag_exits_one(capsys):
    code, _out, err = run_cli(capsys, "run", "--bogus", "1")
    assert code == 1
    assert err


def test_sweep_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    code, _out, _err = run_cli(
        capsys, "sweep", "--protocol", "probabilistic", "--target", "0.6,0:0,0.8",
        "--trials", "300", "--seed", "5", "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("theta,alpha,beta,protocol,mode,d,")
    assert len(text.strip().split("\n")) == 22


def test_sweep_is_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _out, _err = run_cli(
            capsys, "sweep", "--protocol", "deterministic", "--target", "1,0:0,0",
            "--trials", "100", "--seed", "9", "--out", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_unwritable_path(capsys):
    code, _out, err = run_cli(
        capsys, "sweep", "--protocol", "probabilistic", "--target", "1,0:0,0",
        "--trials", "10", "--out", "/nonexistent-dir/x.csv",
    )
    assert code == 1
    assert "cannot write" in err


def test_sweep_rejects_non_qubit(capsys):
    code, _out, err = run_cli(
        capsys, "sweep", "--protocol", "deterministic", "--target", "1,0:0,0:0,0",
    )
    assert code == 1
    assert "d = 2" in err


def test_config_file_merging(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "protocol = deterministic\n"
        "lambda = 0.6,0:0.8,0\n"
        "target = 1,0:0,0\n"
        "seed = 4\n"
        "# comment line\n"
    )
    cfg = parse_config(["run", "--config", str(cfg_file)])
    assert cfg.protocol == "deterministic"
    assert cfg.seed == 4
    # explicit flags win
    cfg = parse_config(["run", "--config", str(cfg_file), "--seed", "12"])
    assert cfg.seed == 12


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("warp = 9\n")
    code, _out, err = run_cli(capsys, "run", "--config", str(cfg_file))
    assert code == 1
    assert "warp" in err


def test_verify_gates_passes(capsys):
    code, out, _err = run_cli(capsys, "verify", "gates")
    assert code == 0
    assert "[PASS] gates.literal_defect_closed_form" in out
    assert "FAIL" not in out


def test_verify_corrupted_gate_table_fails(capsys, monkeypatch):
    import rspsim.gates as gates_mod

    good = gates_mod.pauli_x.__wrapped__

    def corrupted(d):
        g = good(d)
        m = g.matrix.copy()
        m[0, 0] += 0.5
        return make_gate(m, g.dims, g.name)

    monkeypatch.setattr(rspsim.verify.gates, "pauli_x", corrupted)
    code, out, _err = run_cli(capsys, "verify", "gates")
    assert code == 2
    assert "[FAIL] gates.pauli_cyclic_order_d" in out


def test_verify_nguyen_quarters_checks_every_table(monkeypatch):
    """A 3-row table on the first of the check's tables must fail it, not only one on the last."""
    build = rspsim.verify.exact_outcome_table
    calls = []

    def first_table_loses_a_row(*args):
        table = build(*args)
        calls.append(args)
        return dataclasses.replace(table, rows=table.rows[:3]) if len(calls) == 1 else table

    assert rspsim.verify._check_nguyen_quarters(0)[0]
    monkeypatch.setattr(rspsim.verify, "exact_outcome_table", first_table_loses_a_row)
    assert not rspsim.verify._check_nguyen_quarters(0)[0]
    assert len(calls) == 20


def test_verify_report_bytes_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "oracle", "--seed", "1", "--trials", "150")
    code2, out2, _ = run_cli(capsys, "verify", "oracle", "--seed", "1", "--trials", "150")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "oracle.sampled_frequencies_4sigma" in out1


def test_tomo_command(capsys):
    code, out, _err = run_cli(
        capsys, "tomo", "--target", "0.6,0:0,0.8", "--lambda", "0.6,0:0.8,0",
        "--shots", "100000", "--seed", "2",
    )
    assert code == 0
    assert "fidelity_mixed" in out
    distance = float(out.split("trace distance to exact receiver state: ")[1].split()[0])
    assert distance <= 0.02


def test_run_internal_failure_exits_two(capsys, monkeypatch):
    import rspsim.cli as cli_mod
    from rspsim.errors import SimulationError

    def broken(*args, **kwargs):
        raise SimulationError("branch structure is corrupted")

    monkeypatch.setattr(cli_mod, "run_protocol", broken)
    code, _out, err = run_cli(capsys, "run", "--protocol", "nguyen", "--target", "1,0:0,0")
    assert code == 2
    assert "invariant failure" in err


def test_tomo_rejects_qutrits(capsys):
    code, _out, err = run_cli(capsys, "tomo", "--target", "1,0:0,0:0,0")
    assert code == 1
    assert "d = 2" in err


def test_missing_subcommand(capsys):
    code, _out, err = run_cli(capsys)
    assert code == 1
    assert "subcommand" in err


def test_probabilistic_alpha_above_beta_is_config_error(capsys):
    code, _out, err = run_cli(capsys, "run", "--protocol", "probabilistic",
                              "--lambda", "0.8,0:0.6,0", "--target", "0.6,0:0,0.8")
    assert code == 1
    assert "alpha" in err


@pytest.mark.parametrize("argv, expected", [
    (("run", "--protocol", "probabilistic", "--lambda", "0.7071067811865476:0.7071067811865475",
      "--target", "0.6:0.8"), "success: true"),
    (("sweep", "--protocol", "probabilistic", "--target", "0.6:0.8",
      "--theta-min", "0.7853981633974484", "--theta-max", "0.7853981633974484", "--points", "1"),
     ",10000,10000,1,1,1,"),
], ids=["run", "sweep"])
def test_probabilistic_alpha_equal_to_beta_within_roundoff_succeeds(capsys, argv, expected):
    code, out, _err = run_cli(capsys, *argv)
    assert code == 0
    assert expected in out


@pytest.mark.parametrize("flag", ["--theta-min", "--theta-max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_theta_is_config_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "sweep", "--protocol", "deterministic",
                             "--target", "0.6,0:0,0.8", "--trials", "10", f"{flag}={value}")
    assert code == 1
    assert flag.lstrip("-") in err
    assert out == ""


@pytest.mark.parametrize(
    "grid, field",
    [
        (("--theta-min=1", "--theta-max=0"), "theta-max"),
        (("--theta-min=0.5", "--theta-max=0.25", "--points=3"), "theta-max"),
        (("--points=0",), "points"),
        (("--points=-4",), "points"),
        (("--points=100000000000",), "points"),
        (("--theta-max=1.0",), "theta-max"),
    ],
)
def test_bad_sweep_grid_is_config_error(capsys, grid, field):
    code, out, err = run_cli(capsys, "sweep", "--protocol", "probabilistic",
                             "--target", "0.6,0:0,0.8", "--trials", "10", *grid)
    assert code == 1
    assert field in err
    assert "invariant failure" not in err
    assert out == ""


@pytest.mark.parametrize("d", [1, 102])
def test_register_dimension_out_of_range_is_config_error(capsys, d):
    amps = ":".join([f"{1 / np.sqrt(d):.17g}"] * d)
    code, out, err = run_cli(capsys, "run", "--protocol", "deterministic",
                             "--lambda", amps, "--target", amps)
    assert code == 1
    assert f"d = {d}" in err
    assert out == ""


_VALID = {
    "run": ("run", "--protocol", "nguyen", "--target", "1:0"),
    "sweep": ("sweep", "--protocol", "deterministic", "--target", "1:0",
              "--trials", "10", "--points", "2"),
    "tomo": ("tomo", "--target", "1:0", "--shots", "30"),
}
_DROPPED = {
    "run": {"--trials": "10", "--shots": "30", "--theta-min": "0", "--theta-max": "0.5",
            "--points": "3", "--out": "unused.csv", "--d": "2", "--tolerance": "0.1"},
    "sweep": {"--lambda": "0.6:0.8", "--shots": "30", "--d": "2", "--tolerance": "0.1"},
    "tomo": {"--protocol": "nguyen", "--trials": "10", "--theta-min": "0",
             "--theta-max": "0.5", "--points": "3", "--out": "unused.csv",
             "--tolerance": "0.1", "--d": "2"},
}
_DROPPED_CASES = [(c, f) for c, flags in _DROPPED.items() for f in flags]


@pytest.mark.parametrize("command, flag", _DROPPED_CASES)
def test_subcommand_rejects_options_it_does_not_read(capsys, command, flag):
    code, out, err = run_cli(capsys, *_VALID[command], flag, _DROPPED[command][flag])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unrecognized" in err and flag in err
    assert out == ""


@pytest.mark.parametrize("command, flag", _DROPPED_CASES)
def test_subcommand_rejects_config_keys_it_does_not_read(tmp_path, capsys, command, flag):
    cfg_file = tmp_path / "extra.cfg"
    cfg_file.write_text(f"{flag[2:]} = {_DROPPED[command][flag]}\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg_file), *_VALID[command][1:])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"unknown key {flag[2:]!r} for {command}" in err
    assert out == ""


_ABBREVIATED = {
    "run": ("run", "--prot", "nguyen", "--target", "1:0"),
    "sweep": ("sweep", "--protocol", "deterministic", "--targ", "1:0", "--trials", "10",
              "--points", "2"),
    "verify": ("verify", "gates", "--se", "0"),
    "tomo": ("tomo", "--target", "1:0", "--sh", "30"),
}


@pytest.mark.parametrize("command", list(_ABBREVIATED))
def test_subcommand_rejects_abbreviated_flags(capsys, command):
    """A flag's prefix is not the flag, just as a config key's prefix is not the key."""
    assert set(_ABBREVIATED) == set(_COMMANDS)
    code, out, err = run_cli(capsys, *_ABBREVIATED[command])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unrecognized" in err
    assert out == ""


def test_readme_option_table_matches_each_subcommand():
    """README's CLI table lists exactly the options each subcommand reads, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].strip("`") in _COMMANDS:
            table[cells[0].strip("`")] = [w for w in cells[1].split("`")[1].split()
                                          if w.startswith("--")]
    assert table == {c: [f"--{n}" for n in names] for c, (_, names) in _COMMANDS.items()}


@pytest.mark.parametrize(
    "argv, line",
    [
        (("run", "--target", "1:0", "--lambda", "0.6:0.8"), "mode = bogus"),
        (("run", "--target", "1:0", "--lambda", "0.6:0.8"), "protocol = bogus"),
        (("sweep", "--protocol", "deterministic", "--target", "1:0"), "trials = abc"),
        (("run", "--protocol", "nguyen", "--target", "1:0"), "seed = 2.5"),
        (("verify", "--trials", "100"), "suite = tomo"),
    ],
)
def test_bad_config_file_value_is_config_error(tmp_path, capsys, argv, line):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(line + "\n")
    command, *rest = argv
    code, out, err = run_cli(capsys, command, "--config", str(cfg_file), *rest)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert line.split(" = ")[0] in err
    assert out == ""


def test_flag_beats_config_file_for_lists_and_scalars(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("protocol = deterministic\nlambda = 0.8:0.6\nseed = 25\n")
    argv = ["run", "--config", str(cfg_file), "--target", "1:0"]
    cfg = parse_config(argv)
    assert (cfg.lambdas, cfg.seed) == ((0.8, 0.6), 25)
    cfg = parse_config(argv + ["--lambda", "0.6:0.8", "--seed", "50"])
    assert (cfg.lambdas, cfg.seed) == ((0.6, 0.8), 50)


def test_readme_examples_parse():
    """Every ``rspsim ...`` line of README's sh blocks, continuations joined, parses."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = "\n".join(b.split("```", 1)[0] for b in text.split("```sh\n")[1:])
    lines = blocks.replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln) for ln in lines if ln.startswith("rspsim ")]
    assert [argv[1] for argv in commands] == ["run", "run", "sweep", "sweep", "verify", "tomo"]
    for argv in commands:
        parse_config(argv[1:])


_SWEEP = ("--target", "1:0", "--trials", "10", "--points", "2")


@pytest.mark.parametrize(
    "argv, line, field",
    [
        (("run", "--protocol", "nguyen", "--target", "1:0", "--lambda", "0.6:0.8"), None,
         "lambda"),
        (("run", "--protocol", "nguyen", "--target", "1:0"), "lambda = 0.6:0.8", "lambda"),
        (("run", "--protocol", "nguyen", "--target", "1:0", "--mode", "repaired"), None,
         "mode"),
        (("run", "--protocol", "probabilistic", "--target", "1:0", "--lambda", "0.6:0.8",
          "--mode", "literal"), None, "mode"),
        (("run", "--protocol", "probabilistic", "--target", "1:0", "--lambda", "0.6:0.8"),
         "mode = repaired", "mode"),
        (("sweep", "--protocol", "probabilistic", "--mode", "literal", *_SWEEP), None, "mode"),
        (("sweep", "--protocol", "nguyen", *_SWEEP), "mode = literal", "mode"),
    ],
)
def test_option_the_protocol_ignores_is_config_error(tmp_path, capsys, argv, line, field):
    command, *rest = argv
    if line is not None:
        cfg_file = tmp_path / "extra.cfg"
        cfg_file.write_text(line + "\n")
        rest = ["--config", str(cfg_file), *rest]
    code, out, err = run_cli(capsys, command, *rest)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
    assert out == ""


def test_absent_mode_keeps_its_default_for_every_protocol():
    for protocol in ("deterministic", "probabilistic", "nguyen"):
        argv = ["run", "--protocol", protocol, "--target", "1:0"]
        if protocol != "nguyen":
            argv += ["--lambda", "0.6:0.8"]
        assert parse_config(argv).mode == "repaired"


@pytest.mark.parametrize("argv", [
    ("run", "--protocol", "deterministic", "--lambda", "0.6:0.8", "--target", "1:0"),
    _VALID["sweep"],
    ("verify", "gates"),
    _VALID["tomo"],
], ids=["run", "sweep", "verify", "tomo"])
def test_negative_seed_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed" in err
    assert out == ""


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "latin.cfg"
    cfg_file.write_bytes(b"seed = \xff\xfe\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg_file))
    assert code == 1
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("shots", [2**63, 10**20])
def test_tomo_shots_beyond_int64_is_config_error(capsys, shots):
    code, out, err = run_cli(capsys, "tomo", "--target", "0.6:0.8", "--shots", str(shots))
    assert code == 1
    assert err.startswith("error: ") and "shots" in err
    assert out == ""
    assert parse_config(["tomo", "--target", "0.6:0.8", "--shots", str(2**63 - 1)]).shots \
        == 2**63 - 1


_QUTRIT = "1:0:0"


@pytest.mark.parametrize("argv, message", [
    (("run", "--protocol", "nguyen", "--target", "1:0", "--lambda", "0.6:0.8"),
     "lambda does not apply to nguyen, which always uses the maximal channel"),
    (("run", "--protocol", "probabilistic", "--target", "1:0", "--lambda", "0.6:0.8",
      "--mode", "repaired"), "mode applies only to the deterministic protocol, not probabilistic"),
    (("run", "--protocol", "nguyen", "--target", "1:0", "--mode", "literal"),
     "mode applies only to the deterministic protocol, not nguyen"),
    (("run", "--protocol", "probabilistic", "--target", _QUTRIT, "--lambda", "0.6:0.8:0"),
     "the probabilistic baseline needs d = 2"),
    (("run", "--protocol", "probabilistic", "--target", _QUTRIT),
     "the probabilistic baseline needs d = 2"),
    (("run", "--protocol", "nguyen", "--target", _QUTRIT), "the nguyen baseline needs d = 2"),
    (("sweep", "--protocol", "probabilistic", "--target", _QUTRIT),
     "the probabilistic baseline needs d = 2"),
    (("sweep", "--protocol", "nguyen", "--target", _QUTRIT), "the nguyen baseline needs d = 2"),
    (("run", "--protocol", "probabilistic", "--target", "1:0", "--lambda", "0.8:0.6"),
     "the probabilistic baseline needs |alpha| <= |beta| in lambda"),
    (("run", "--protocol", "deterministic", "--target", "1:0"), "missing required field: lambda"),
    (("run", "--protocol", "probabilistic", "--target", "1:0"), "missing required field: lambda"),
    (("run", "--protocol", "deterministic", "--mode", "literal", "--target", _QUTRIT),
     "literal mode is defined only for d = 2"),
    (("tomo", "--mode", "literal", "--target", _QUTRIT), "literal mode is defined only for d = 2"),
    (("sweep", "--protocol", "probabilistic", "--target", "1:0", "--theta-max", "1.0"),
     "the probabilistic baseline needs |sin theta| <= |cos theta| at every grid point from "
     "theta-min to theta-max"),
])
def test_protocol_rule_errors_print_one_pinned_line(capsys, argv, message):
    """Each protocol rule the CLI enforces exits 1 with its one line, before any output."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


_SWEEP = ("sweep", "--protocol", "deterministic", "--target", "1:0")


@pytest.mark.parametrize("argv, message", [
    (("run", "--protocol", "nguyen", "--target", "1:0", "--seed", "-1"),
     "seed must be non-negative, got -1"),
    ((*_SWEEP, "--theta-min", "nan"), "theta-min must be finite"),
    (("verify", "--trials", "99"), "verify needs trials >= 100 for the sampled oracle gate"),
    (("run", "--target", "1:0"), "missing required field: protocol"),
    (("run", "--protocol", "nguyen"), "missing required field: target"),
    (("run", "--protocol", "nguyen", "--target", "1:1"),
     "target: norm 1.414213562 deviates from 1 by more than 1e-6"),
    (("run", "--protocol", "deterministic", "--target", "1:0", "--lambda", "0.6:0.8:0"),
     "lambda has 3 entries but target has 2"),
    (("tomo", "--target", "1:0", "--lambda", "0.6:0.8:0"), "lambda has 3 entries but target has 2"),
    (("run", "--protocol", "nguyen", "--target", "1"),
     "d = 1 is out of range; needs d >= 2 and a register of at most 1048576 amplitudes"),
    (("run", "--protocol", "deterministic", "--target", "1", "--lambda", "0.6:0.8"),
     "lambda has 2 entries but target has 1"),
    (("run", "--protocol", "probabilistic", "--target", _QUTRIT, "--lambda", "0.6:0.8"),
     "lambda has 2 entries but target has 3"),
    (("sweep", "--protocol", "deterministic", "--target", _QUTRIT),
     "sweep parametrizes qubit channels; needs d = 2"),
    (("tomo", "--target", _QUTRIT), "tomo parametrizes qubit channels; needs d = 2"),
    ((*_SWEEP, "--trials", "0"), "sweep needs trials >= 1"),
    ((*_SWEEP, "--points", "0"), "sweep needs 1 <= points <= 10000"),
    ((*_SWEEP, "--points", "10001"), "sweep needs 1 <= points <= 10000"),
    ((*_SWEEP, "--theta-min", "0.5", "--theta-max", "0.25"),
     "theta-max must not be below theta-min"),
    (("tomo", "--target", "1:0", "--shots", "2"), "tomo needs 3 <= shots <= 9223372036854775807"),
    (("tomo", "--target", "1:0", "--shots", str(2**63)),
     "tomo needs 3 <= shots <= 9223372036854775807"),
    (("sweep", "--protocol", "probabilistic", "--target", "1:0", "--theta-max", "1.0",
      "--points", "0"), "sweep needs 1 <= points <= 10000"),
    (("sweep", "--protocol", "deterministic", "--target", _QUTRIT, "--trials", "0"),
     "sweep parametrizes qubit channels; needs d = 2"),
], ids=["seed", "theta-nan", "verify-trials", "no-protocol", "no-target", "target-norm",
        "run-lambda-length", "tomo-lambda-length", "d1", "lambda-before-d",
        "lambda-before-protocol-d", "sweep-d3", "tomo-d3", "trials", "points-0", "points-10001",
        "theta-order", "shots-2", "shots-2**63", "points-before-grid", "d-before-trials"])
def test_input_errors_print_one_pinned_line(capsys, argv, message):
    """Each remaining input rule exits 1 with its one line; with two broken, the first wins."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
