"""Per-layer measurements: which calls are traced, and what is derived from them.

The layers are rspsim's modules.  ``protocols``, ``register``, ``gates``,
``linalg``, ``oracle`` and ``sweep`` are measured; ``cli`` and ``verify``
drive the same public calls and ``tomography`` lies on no hot path, so
they get no spans of their own.  Byte and flop figures are computed from
array sizes, not measured by hardware counters.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc

import numpy as np

import rspsim.gates as gates
import rspsim.linalg as linalg
import rspsim.oracle as oracle
import rspsim.protocols as protocols
import rspsim.register as register
import rspsim.sweep as rsweep
from rspsim import derive_rng

from mixes import CONFIG_PATH, PROTOCOLS, random_schmidt, random_target
from tracer import SETUP, Tracer


def _protocol_label(args, kwargs):
    return args[0] if args else kwargs["protocol"]


def _table_key(args, kwargs, table):
    return (table.protocol, table.channel, table.target, table.mode)


def _defect_flops(args, kwargs, result):
    n = np.shape(args[0] if args else kwargs["m"])[0]
    return 8 * n**3  # complex n x n product m^dag m, 8 real flops per multiply-add


def _gate_bytes(args, kwargs, gate):
    return gate.matrix.nbytes


FUNCTIONS = [
    ("linalg.as_cvec", linalg.as_cvec, None, None),
    ("linalg.unitarity_defect", linalg.unitarity_defect, None, _defect_flops),
    ("linalg.transport_unitary", linalg.transport_unitary, None, None),
    ("gates.make_gate", gates.make_gate, None, _gate_bytes),
    ("gates.controlled_shift", gates.controlled_shift, None, None),
    ("gates.correction_unitary", gates.correction_unitary, None, None),
    ("protocols.run_protocol", protocols.run_protocol, _protocol_label, None),
    ("protocols.exact_outcome_table", protocols.exact_outcome_table, _protocol_label, _table_key),
    ("sweep.trial_uniforms", rsweep.trial_uniforms, None, None),
    ("oracle.enumerate_naive", oracle.enumerate_naive, None, None),
]

METHODS = [
    (f"register.{label}", register.StateRegister, attr, None, None)
    for label, attr in (
        ("init", "__init__"),
        ("apply", "apply"),
        ("measure", "measure"),
        ("measure_in_basis", "measure_in_basis"),
        ("project", "project"),
        ("contract", "contract"),
        ("born_probabilities", "born_probabilities"),
    )
]


def install(tracer: Tracer) -> None:
    tracer.install(FUNCTIONS, METHODS)


def mix_metrics(mix_name: str, tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one workload's traced operations and set-up."""
    per_op = tracer.summary(set(range(n_ops)))
    setup = tracer.summary({SETUP})

    def calls(span):
        return per_op[span]["calls"] / n_ops if span in per_op else 0.0

    def self_ms(*spans, ops=n_ops):
        return sum(per_op[s]["self_s"] for s in spans if s in per_op) * 1e3 / max(ops, 1)

    def value(span, agg=per_op, ops=n_ops):
        return agg[span]["value"] / ops if span in agg else 0.0

    m: dict[str, tuple[float, str]] = {}
    if mix_name == "sampled":
        m["register.init.calls_per_op"] = (calls("register.init"), "count")
        m["register.apply.calls_per_op"] = (calls("register.apply"), "count")
        m["register.apply.self_ms_per_op"] = (self_ms("register.apply"), "ms")
        m["register.measure.self_ms_per_op"] = (
            self_ms("register.measure", "register.measure_in_basis"), "ms")
        m["gates.make_gate.calls_per_op"] = (calls("gates.make_gate"), "count")
        m["linalg.unitarity_defect.calls_per_op"] = (calls("linalg.unitarity_defect"), "count")
        m["linalg.unitarity_defect.flops_per_op"] = (value("linalg.unitarity_defect"), "flop")
        m["linalg.as_cvec.calls_per_op"] = (calls("linalg.as_cvec"), "count")
        m["linalg.transport_unitary.calls_per_op"] = (calls("linalg.transport_unitary"), "count")
        for p in PROTOCOLS:
            span = f"protocols.run_protocol.{p}"
            runs = per_op[span]["calls"] if span in per_op else 0
            m[f"protocols.run_protocol.self_ms_per_op.{p}"] = (self_ms(span, ops=runs), "ms")
    elif mix_name == "qudit":
        m["register.apply.calls_per_op"] = (calls("register.apply"), "count")
        m["register.apply.self_ms_per_op"] = (self_ms("register.apply"), "ms")
        for method in ("project", "contract", "born_probabilities"):
            m[f"register.{method}.self_ms_per_op"] = (self_ms(f"register.{method}"), "ms")
        m["gates.correction_unitary.self_ms_per_op"] = (self_ms("gates.correction_unitary"), "ms")
        m["gates.dense_bytes_per_op"] = (value("gates.make_gate"), "B")
        m["gates.dense_bytes_setup"] = (value("gates.make_gate", setup, 1), "B")
        # controlled_shift runs only on cadd/csub cache misses, which set-up takes.
        cshift = [(s[2] - s[1], own) for s, own in zip(tracer.spans, tracer.self_times())
                  if s[0] == "gates.controlled_shift"]
        m["gates.controlled_shift.self_s"] = (sum(own for _, own in cshift), "s")
        m["gates.controlled_shift.incl_s"] = (sum(dur for dur, _ in cshift), "s")
        m["linalg.unitarity_defect.calls_per_op"] = (calls("linalg.unitarity_defect"), "count")
        m["linalg.unitarity_defect.flops_per_op"] = (value("linalg.unitarity_defect"), "flop")
        m["linalg.unitarity_defect.setup_flops"] = (value("linalg.unitarity_defect", setup, 1), "flop")
        m["protocols.exact_outcome_table.self_ms_per_op.deterministic"] = (
            self_ms("protocols.exact_outcome_table.deterministic"), "ms")
    elif mix_name == "sweep":
        for method in ("project", "contract", "born_probabilities"):
            m[f"register.{method}.self_ms_per_op"] = (self_ms(f"register.{method}"), "ms")
        m["linalg.transport_unitary.calls_per_op"] = (calls("linalg.transport_unitary"), "count")
        for p in PROTOCOLS:
            m[f"protocols.exact_outcome_table.self_ms_per_op.{p}"] = (
                self_ms(f"protocols.exact_outcome_table.{p}"), "ms")
        tables = [s for s in tracer.spans if s[0].startswith("protocols.exact_outcome_table.") and s[4] >= 0]
        m["sweep.table_builds_per_op"] = (len(tables) / n_ops, "count")
        distinct = {(s[4], s[5]) for s in tables}
        m["sweep.distinct_tables_per_op"] = (len(distinct) / n_ops, "count")
        m["sweep.trial_uniforms.self_ms_per_op"] = (self_ms("sweep.trial_uniforms"), "ms")
    return {f"{mix_name}.{k}": v for k, v in m.items()}


def clear_gate_caches() -> None:
    """Empty every function-level cache in the package, so the next table is cold."""
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "rspsim" or key.startswith("rspsim.")):
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


CURVE_DIMS = (2, 8, 16, 32, 48)


def _table(channel, target):
    t0 = time.perf_counter()
    protocols.exact_outcome_table("deterministic", channel, target, "repaired")
    return time.perf_counter() - t0


def table_curve(seed: int) -> dict[str, tuple[float, str]]:
    """Cold and warm deterministic tables against d, with tracemalloc peaks.

    Times come from passes without tracemalloc, peaks from a separate pass
    with it, except at d=48, which runs once: one cold and one warm table
    with tracemalloc on, timed in the same pass.
    """
    rng = derive_rng(seed, *CONFIG_PATH)
    m: dict[str, tuple[float, str]] = {}
    for d in CURVE_DIMS:
        channel, target = random_schmidt(rng, d), random_target(rng, d)
        peaks = {}
        times: dict[str, list[float]] = {"cold": [], "warm": []}
        if d < 48:
            for _ in range(3):
                clear_gate_caches()
                times["cold"].append(_table(channel, target))
            for _ in range(5):
                times["warm"].append(_table(channel, target))
        tracemalloc.start()
        try:
            for kind in ("cold", "warm"):
                if kind == "cold":
                    clear_gate_caches()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                elapsed = _table(channel, target)
                peaks[kind] = tracemalloc.get_traced_memory()[1] - base
                if d == 48:
                    times[kind].append(elapsed)
        finally:
            tracemalloc.stop()
        for kind in ("cold", "warm"):
            m[f"protocols.exact_table_ms.{kind}.d{d}"] = (statistics.median(times[kind]) * 1e3, "ms")
            m[f"protocols.exact_table_peak_mb.{kind}.d{d}"] = (peaks[kind] / 2**20, "MB")
    for d, reps in ((2, 9), (8, 3)):
        channel, target = random_schmidt(rng, d), random_target(rng, d)
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            oracle.enumerate_naive("deterministic", channel, target)
            samples.append(time.perf_counter() - t0)
        m[f"oracle.enumerate_naive.ms.d{d}"] = (statistics.median(samples) * 1e3, "ms")
    return m
