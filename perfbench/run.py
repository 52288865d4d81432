"""rspsim benchmark: end-to-end figures per workload, or per-layer figures from a traced run.

    python3 perfbench/run.py --workload sampled --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it starts the workload in fresh processes several
times to time set-up, then measures one closed loop of untraced
operations for ``--seconds`` of operation time; times are reported at
reference speed (see ``KERNEL_REF_S`` in child.py).  With ``--trace 1`` it
runs every workload's operations under outside-in tracing, plus the
d-scaling curve of exact tables, and reports per-layer metrics; the
``--workload`` argument then only names the run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans of traced runs are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("sampled", "qudit", "sweep")
SETUP_RUNS = 7  # fresh processes timed for setup_s; the last one also measures
RUN_LIMIT_S = 170.0  # every child is killed past this wall time from the start


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One client thread and single-threaded BLAS keep the workload process
    # within the machine's cores and its timings steady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(mode: str, workload: str, seed: int, seconds: float, deadline: float):
    """Start child.py and time it to ``READY``.

    Returns the time to ``READY`` at reference speed (scaled by the
    ``SCALE`` the process reports, where it reports one) and the last JSON
    line the process printed.
    """
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--src", str(SRC), "--out", str(OUT),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(remaining, proc.kill)
    killer.start()
    ready = None
    scale = 1.0
    last = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.startswith("SCALE "):
                scale = float(line.split()[1])
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"{mode} process for {workload} exited with code {code}")
    if ready is None:
        raise BenchError(f"{mode} process for {workload} never reported READY")
    return ready * scale, (json.loads(last) if last is not None else None)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rspsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(child_env: dict) -> dict:
    return {
        "python": platform.python_version(),
        **child_env,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = []
    for _ in range(SETUP_RUNS - 1):
        ready, _ = run_child("setup", workload, seed, seconds, deadline)
        setups.append(ready)
    ready, res = run_child("measure", workload, seed, seconds, deadline)
    setups.append(ready)
    env = environment(res["env"])
    print(json.dumps({"env": env}))
    print(f"{workload}: {res['attempted']} ops in {res['busy_s']:.3f} s of operation time; "
          f"{res['final_msg']}; corrupted result rejected: {res['selftest_ok']}")
    print(json.dumps({"raw": res["raw"]}))
    threads_ok = env["process_threads"] is None or env["process_threads"] <= env["nproc"]
    if not threads_ok:
        print(f"workload process ran {env['process_threads']} threads on {env['nproc']} cores",
              file=sys.stderr)
    correct = res["failed"] == 0 and res["selftest_ok"] and res["final_ok"] and threads_ok
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_share": ((res["attempted"] - res["failed"]) / res["attempted"], "share"),
    }
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    metrics: dict = {}
    attempted = failed = 0
    correct = True
    for mix in WORKLOADS:
        _, res = run_child("trace", mix, seed, 0.0, deadline)
        metrics.update(res["metrics"])
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["final_ok"]
        print(f"traced {mix}: {res['attempted']} ops; {res['final_msg']}")
    _, res = run_child("curve", workload, seed, 0.0, deadline)
    metrics.update(res["metrics"])
    print(json.dumps({"env": environment(res["env"])}))
    return {"correct": correct and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "rspsim" / "__init__.py").is_file():
        print(f"no rspsim package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            out = per_layer(args.workload, args.seed, deadline)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
