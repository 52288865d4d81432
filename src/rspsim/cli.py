"""Command-line front end: run, sweep, verify, tomo.

Exit codes: 0 success (including a probabilistic failure branch, which is
a valid experimental outcome), 1 configuration error, 2 verification or
internal invariant failure, 3 reserved.

Complex lists are colon-separated entries, each "re" or "re,im", e.g.
``--lambda 0.6,0:0.8,0``.  A config file holds flat ``key = value`` lines
whose keys are the subcommand's long flags; explicit flags win on conflict.
Flags, like keys, must be spelled in full: a prefix is not accepted.
The dimension d is the length of ``--target``; ``--lambda`` must match it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .linalg import MAX_DIM, STRUCT_TOL
from .protocols import (
    MODES,
    PROTOCOLS,
    ChannelSpec,
    TargetState,
    Transcript,
    run_protocol,
)
from .register import StateRegister, derive_rng
from .sweep import rows_to_csv, sweep_rows, theta_grid, write_csv
from .tomography import exact_bloch, fidelity_mixed, tomograph
from .verify import SUITES, format_report, run_suite

# A sweep holds one row and up to three exact tables per grid point.
MAX_POINTS = 10_000
# The largest count numpy's binomial sampler takes (int64).
MAX_SHOTS = 2**63 - 1


class ConfigError(Exception):
    """Invalid command line or config file; mapped to exit code 1."""


@dataclass
class RunConfig:
    command: str
    protocol: str | None = None
    mode: str = "repaired"
    lambdas: tuple[complex, ...] | None = None
    target: tuple[complex, ...] | None = None
    trials: int = 10_000
    shots: int = 100_000
    seed: int = 0
    theta_min: float = 0.0
    theta_max: float = float(np.pi / 4)
    points: int = 21
    out: str | None = None
    suite: str = "all"


def parse_complex_list(text: str, name: str) -> tuple[complex, ...]:
    """Parse "re,im:re,im:..." (imaginary parts optional)."""
    out = []
    for tok in text.split(":"):
        parts = tok.split(",")
        if not 1 <= len(parts) <= 2:
            raise ConfigError(f"{name}: entry {tok!r} is not 're' or 're,im'")
        try:
            re_part = float(parts[0])
            im_part = float(parts[1]) if len(parts) == 2 else 0.0
        except ValueError:
            raise ConfigError(f"{name}: cannot parse {tok!r} as a complex number") from None
        out.append(complex(re_part, im_part))
    return tuple(out)


def _renormalized(values: tuple[complex, ...], name: str) -> tuple[complex, ...]:
    v = np.asarray(values, dtype=complex)
    norm = float(np.linalg.norm(v))
    if not 0.999999 <= norm <= 1.000001:
        raise ConfigError(f"{name}: norm {norm:.9f} deviates from 1 by more than 1e-6")
    return tuple(v / norm)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2 by default; we want 1
        raise ConfigError(message)


# Every option, declared once.  Defaults live in RunConfig, so argparse leaves
# an unset option at None.
_OPTIONS = {
    "protocol": {"choices": PROTOCOLS},
    "mode": {"choices": MODES},
    "lambda": {"dest": "lambdas", "metavar": "LIST",
               "type": lambda text: parse_complex_list(text, "lambda")},
    "target": {"metavar": "LIST", "type": lambda text: parse_complex_list(text, "target")},
    "trials": {"type": int},
    "shots": {"type": int},
    "seed": {"type": int},
    "theta-min": {"type": float},
    "theta-max": {"type": float},
    "points": {"type": int},
    "out": {},
    "config": {},
}

# Each subcommand's help line and the options it reads, and no others.
_COMMANDS = {
    "run": ("execute one protocol instance",
            ("protocol", "mode", "lambda", "target", "seed", "config")),
    "sweep": ("reproduce the success-probability curves",
              ("protocol", "mode", "target", "trials", "seed", "theta-min", "theta-max",
               "points", "out", "config")),
    "verify": ("run the invariant and oracle suites", ("seed", "trials", "config")),
    "tomo": ("tomograph the receiver state of one deterministic run",
             ("mode", "lambda", "target", "shots", "seed", "config")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="rspsim", description=__doc__, add_help=True, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)  # not inherited
        if command == "verify":
            p.add_argument("suite", nargs="?", choices=("all", *SUITES))
        for name in names:
            p.add_argument(f"--{name}", **_OPTIONS[name])
    return parser


def _config_args(path: str, command: str) -> list[str]:
    """A config file's ``key = value`` lines as ``--key=value`` arguments of ``command``."""
    args = []
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key == "config" or key not in _COMMANDS[command][1]:
                    raise ConfigError(f"{path}:{ln}: unknown key {key!r} for {command}")
                args.append(f"--{key}={value}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return args


def parse_config(argv: list[str]) -> RunConfig:
    """Parse config-file values, then flags (the last value wins), over RunConfig's defaults."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        raise ConfigError("missing subcommand; expected run, sweep, verify or tomo")
    if ns.config:
        i = argv.index(ns.command) + 1
        ns = parser.parse_args(argv[:i] + _config_args(ns.config, ns.command) + argv[i:])
    given = {k: v for k, v in vars(ns).items() if v is not None and k != "config"}
    protocol = given.get("protocol")
    if protocol == "nguyen" and "lambdas" in given:
        raise ConfigError("lambda does not apply to nguyen, which always uses the maximal channel")
    if protocol in ("probabilistic", "nguyen") and "mode" in given:
        raise ConfigError(f"mode applies only to the deterministic protocol, not {protocol}")
    return _validated(RunConfig(**given))


def _validated(cfg: RunConfig) -> RunConfig:
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    for name in ("theta_min", "theta_max"):
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name.replace('_', '-')} must be finite")
    if cfg.command == "verify":
        if cfg.trials < 100:
            raise ConfigError("verify needs trials >= 100 for the sampled oracle gate")
        return cfg
    if cfg.protocol is None and cfg.command != "tomo":
        raise ConfigError("missing required field: protocol")
    if cfg.target is None:
        raise ConfigError("missing required field: target")
    cfg.target = _renormalized(cfg.target, "target")
    d = len(cfg.target)
    if cfg.lambdas is not None:
        cfg.lambdas = _renormalized(cfg.lambdas, "lambda")
        if len(cfg.lambdas) != d:
            raise ConfigError(f"lambda has {len(cfg.lambdas)} entries but target has {d}")
    if d < 2 or d**3 > MAX_DIM:
        raise ConfigError(f"d = {d} is out of range; needs d >= 2 and d^3 <= {MAX_DIM}")
    if cfg.protocol == "probabilistic" and d != 2:
        raise ConfigError("the probabilistic baseline needs d = 2")
    if cfg.protocol == "probabilistic" and cfg.lambdas is not None \
            and abs(cfg.lambdas[0]) > abs(cfg.lambdas[1]) + STRUCT_TOL:
        raise ConfigError("the probabilistic baseline needs |alpha| <= |beta| in lambda")
    if cfg.protocol == "nguyen" and d != 2:
        raise ConfigError("the nguyen baseline needs d = 2")
    if cfg.mode == "literal" and d != 2:
        raise ConfigError("literal mode is defined only for d = 2")
    if cfg.command == "run" and cfg.protocol in ("deterministic", "probabilistic") \
            and cfg.lambdas is None:
        raise ConfigError("missing required field: lambda")
    if cfg.command in ("sweep", "tomo") and d != 2:
        raise ConfigError(f"{cfg.command} parametrizes qubit channels; needs d = 2")
    if cfg.command == "sweep" and cfg.trials < 1:
        raise ConfigError("sweep needs trials >= 1")
    if cfg.command == "sweep" and not 1 <= cfg.points <= MAX_POINTS:
        raise ConfigError(f"sweep needs 1 <= points <= {MAX_POINTS}")
    if cfg.command == "sweep" and cfg.theta_max < cfg.theta_min:
        raise ConfigError("theta-max must not be below theta-min")
    if cfg.command == "tomo" and not 3 <= cfg.shots <= MAX_SHOTS:
        raise ConfigError(f"tomo needs 3 <= shots <= {MAX_SHOTS}")
    return cfg


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return f"{z.real:.10g}"
    return f"{z.real:.10g}{z.imag:+.10g}j"


def render_transcript(tr: Transcript) -> str:
    lines = [
        f"protocol: {tr.protocol}" + (f" (mode={tr.mode})" if tr.mode else ""),
        "channel lambdas: " + ", ".join(_fmt_complex(z) for z in tr.channel.lambdas),
        "target amplitudes: " + ", ".join(_fmt_complex(z) for z in tr.target.amplitudes),
        "steps:",
    ]
    for i, s in enumerate(tr.steps, start=1):
        flag = "  [NON-UNITARY STEP]" if s.non_unitary else ""
        lines.append(f"  {i}. {s.name} on {s.targets}  defect={s.defect:.3e}{flag}")
    if tr.raw_norm is not None:
        lines.append(f"raw pre-measurement norm: {tr.raw_norm:.15g}")
    for rec in tr.measurements:
        lines.append(
            f"measurement {rec.subsystems} -> {rec.outcome}  (p={rec.probability:.12g})"
        )
    for msg in tr.messages:
        lines.append(f"classical message {msg.subsystems}: {msg.outcome}")
    lines.append(f"correction: {tr.correction}")
    lines.append("receiver state: " + ", ".join(_fmt_complex(z) for z in tr.bob_state))
    lines.append(f"fidelity: {tr.fidelity:.15g}")
    lines.append(f"success: {str(tr.success).lower()}")
    return "\n".join(lines)


def _summary_line(tr: Transcript, seed: int) -> str:
    outcome = ",".join(str(i) for i in tr.outcome)
    return (
        f"RESULT protocol={tr.protocol} mode={tr.mode or '-'} d={tr.target.d} "
        f"outcome=({outcome}) fidelity={tr.fidelity:.12g} "
        f"success={str(tr.success).lower()} seed={seed}"
    )


def cmd_run(cfg: RunConfig) -> int:
    channel = ChannelSpec.of(cfg.lambdas) if cfg.lambdas is not None else None
    target = TargetState.of(cfg.target)
    tr = run_protocol(cfg.protocol, channel, target, cfg.mode, derive_rng(cfg.seed))
    print(render_transcript(tr))
    print(_summary_line(tr, cfg.seed))
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    grid = theta_grid(cfg.theta_min, cfg.theta_max, cfg.points)
    if cfg.protocol == "probabilistic" and any(
            abs(np.sin(t)) > abs(np.cos(t)) + STRUCT_TOL for t in grid.tolist()):
        raise ConfigError("the probabilistic baseline needs |sin theta| <= |cos theta| "
                          "at every grid point from theta-min to theta-max")
    rows = sweep_rows([cfg.protocol], TargetState.of(cfg.target), grid, cfg.trials, cfg.seed,
                      cfg.mode)
    if cfg.out:
        try:
            write_csv(rows, cfg.out)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from None
        print(f"wrote {len(rows)} rows to {cfg.out}")
    else:
        sys.stdout.write(rows_to_csv(rows))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    results = run_suite(cfg.suite, seed=cfg.seed, oracle_trials=cfg.trials)
    sys.stdout.write(format_report(results))
    return 0 if all(r.passed for r in results) else 2


def cmd_tomo(cfg: RunConfig) -> int:
    channel = ChannelSpec.of(cfg.lambdas) if cfg.lambdas is not None else ChannelSpec.maximal(2)
    target = TargetState.of(cfg.target)
    tr = run_protocol("deterministic", channel, target, cfg.mode, derive_rng(cfg.seed))
    bob = StateRegister((2,), tr.bob_state)
    res = tomograph(bob, cfg.shots, derive_rng(cfg.seed, 1))
    est = res.estimates
    rx, ry, rz = exact_bloch(bob)
    print(f"deterministic run outcome: {tr.outcome}")
    print(f"exact bloch vector:     ({rx:+.6f}, {ry:+.6f}, {rz:+.6f})")
    print(f"estimated bloch vector: ({est.rx:+.6f}, {est.ry:+.6f}, {est.rz:+.6f})")
    print(f"shots: {cfg.shots} (per axis {est.shots_per_axis})")
    print(f"fidelity_mixed to target: {fidelity_mixed(res.rho, target.vector()):.6f}")
    print(f"trace distance to exact receiver state: {res.trace_distance:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.command == "run":
            return cmd_run(cfg)
        if cfg.command == "sweep":
            return cmd_sweep(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "tomo":
            return cmd_tomo(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
