"""One workload process, started by run.py from the root of the repository.

Modes:

* ``setup``: import, build the inputs, warm up, print ``READY``, then
  ``SCALE`` (the process's speed scale, see KERNEL_REF_S) and exit.
  run.py times this from process start to ``READY``.
* ``measure``: the same set-up, then back-to-back untraced operations for
  ``--seconds`` of operation time, checking every result; prints one JSON
  line with the end-to-end figures, at reference speed and raw.
* ``trace``: set-up with tracing on, the same operations untraced and
  then traced; prints one JSON line with the workload's per-layer metrics
  and writes its spans under ``--out``.
* ``curve``: the d-scaling curve of exact tables and the naive oracle.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Tracer


def environment() -> dict:
    """numpy, its BLAS, and the threads of this process and of that BLAS."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "process_threads": threads,
    }


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if an OpenBLAS is loaded."""
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


# Host contention on a shared machine changes the speed of every
# instruction by tens of percent within seconds.  Two fixed kernels, timed
# right after each batch of operations, measure that speed: a tight
# integer loop, and a run of small numpy calls (allocation and ufunc
# dispatch, which is most of rspsim's per-call overhead).  Their times over
# KERNEL_REF_S, averaged, give the machine's slowness now: 1.0 at the
# reference speed, which is about their speed on an idle 2-vCPU x86-64 VM
# with Python 3.11 and numpy 2.4.  Each operation time is divided by the
# median slowness around its batch, which states it at reference speed.
KERNEL_REF_S = (0.0033, 0.0020)


def slowness() -> float:
    """How many times slower than reference speed the machine runs now."""
    clock = time.perf_counter
    t0 = clock()
    acc = 0
    for i in range(50_000):
        acc += i * i
    t1 = clock()
    for _ in range(1000):
        v = np.zeros(8, dtype=complex)
        v[1] = 1.0
        float(np.abs(v).sum())
    t2 = clock()
    return 0.5 * ((t1 - t0) / KERNEL_REF_S[0] + (t2 - t1) / KERNEL_REF_S[1])


def speed_scale(samples: int = 9) -> float:
    """Factor that states this process's times at reference speed."""
    return 1.0 / statistics.median(slowness() for _ in range(samples))


def _p90(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def measure(mix, seconds: float) -> dict:
    mix.prepare_checks()
    batches: list[list[float]] = []
    slow: list[float] = []  # slowness() right after each batch
    attempted = failed = 0
    sample = None
    busy, start = 0.0, 0
    clock = time.perf_counter
    while busy < seconds:
        inputs = mix.inputs(start, mix.batch)
        start += len(inputs)
        batch = []
        for inp in inputs:
            t0 = clock()
            out = mix.op(inp)
            elapsed = clock() - t0
            batch.append(elapsed)
            busy += elapsed
            result = mix.summarize(inp, out)
            attempted += 1
            if not mix.check(result):
                failed += 1
            elif sample is None:
                sample = result
        batches.append(batch)
        slow.append(slowness())
    raw = [t for batch in batches for t in batch]
    around = [statistics.median(slow[max(0, i - 1):i + 2]) for i in range(len(batches))]
    latencies = [t / s for batch, s in zip(batches, around) for t in batch]  # at reference speed
    # The gate must reject a deliberately corrupted copy of a result it passed.
    selftest_ok = sample is None or not mix.check(mix.corrupt(sample))
    final_ok, final_msg = mix.final_check()
    return {
        "attempted": attempted,
        "failed": failed,
        "selftest_ok": selftest_ok,
        "final_ok": final_ok,
        "final_msg": final_msg,
        "ops_per_s": attempted / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": _p90(latencies) * 1e3,
        "raw": {
            "ops_per_s": attempted / busy,
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_p90_ms": _p90(raw) * 1e3,
        },
        "busy_s": busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }


TRACE_ROUNDS = 3  # untraced and traced passes alternate this many times


def _timed_pass(mix, tracer=None, results=None) -> float:
    busy = 0.0
    clock = time.perf_counter
    for k, inp in enumerate(mix.inputs(0, mix.trace_ops)):
        t0 = clock()
        if tracer is None:
            out = mix.op(inp)
        else:
            tracer.op = k
            with tracer.span("op"):
                out = mix.op(inp)
        busy += clock() - t0
        if results is not None:
            results.append(mix.summarize(inp, out))
    return busy


def trace(mix, tracer, layers, out_dir: Path, seed: int) -> dict:
    """Alternating untraced and traced passes over the same operations.

    Per-layer metrics come from the first traced pass and the set-up spans
    already in ``tracer``; later traced passes only time the overhead.
    """
    n = mix.trace_ops
    untraced, traced, results = [], [], []
    for r in range(TRACE_ROUNDS):
        untraced.append(_timed_pass(mix))
        pass_tracer = tracer if r == 0 else Tracer()
        layers.install(pass_tracer)
        try:
            traced.append(_timed_pass(mix, pass_tracer, results if r == 0 else None))
        finally:
            pass_tracer.uninstall()
    mix.prepare_checks()
    failed = sum(not mix.check(result) for result in results)
    final_ok, final_msg = mix.final_check()
    metrics = layers.mix_metrics(mix.name, tracer, n)
    share = 1.0 - statistics.median(untraced) / statistics.median(traced)
    metrics[f"trace.overhead_share.{mix.name}"] = (share, "share")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans-{mix.name}-seed{seed}.jsonl")
    return {
        "attempted": n,
        "failed": failed,
        "final_ok": final_ok,
        "final_msg": final_msg,
        "metrics": metrics,
        "env": environment(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "curve"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", default=".")
    args = ap.parse_args(argv)

    import rspsim

    src = Path(args.src).resolve()
    if src not in Path(rspsim.__file__).resolve().parents:
        print(f"rspsim was imported from {rspsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    from mixes import MIXES

    if args.mode == "curve":
        import layers

        print("READY", flush=True)
        print(json.dumps({"metrics": layers.table_curve(args.seed), "env": environment()}), flush=True)
        return 0

    mix = MIXES[args.workload](args.seed)
    if args.mode == "trace":
        import layers

        tracer = Tracer()
        layers.install(tracer)
        try:
            mix.warm_up()
        finally:
            tracer.uninstall()
        print("READY", flush=True)
        print(json.dumps(trace(mix, tracer, layers, Path(args.out), args.seed)), flush=True)
        return 0

    mix.warm_up()
    print("READY", flush=True)
    print(f"SCALE {speed_scale()!r}", flush=True)
    if args.mode == "measure":
        print(json.dumps(measure(mix, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
