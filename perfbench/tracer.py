"""Outside-in span tracing of rspsim's public functions.

The tracer wraps named functions and methods from the benchmark's side:
every module of the ``rspsim`` package that bound a wrapped function at
import time (``protocols`` binds ``make_gate`` and ``cadd``, for example)
gets the wrapper under the same name, and methods are replaced on the
class itself.  Nothing in the package is edited, and uninstalling puts
every original object back.

A span is ``[name, start, end, parent, op, value]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the operation the
benchmark was timing (-1 during set-up), and ``value`` an optional
quantity computed from the call (bytes of a built gate, flops of a
defect check, the key of a table).  Spans stay in memory until written.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

SETUP = -1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, label=None, note=None):
        def traced(*args, **kwargs):
            rec = self._open(name if label is None else f"{name}.{label(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    # -- patching ------------------------------------------------------------

    def install(self, functions, methods) -> None:
        """Wrap ``functions`` in every rspsim module and ``methods`` on their classes.

        ``functions`` holds ``(span name, function, label, note)``;
        ``methods`` holds ``(span name, class, attribute, label, note)``.
        """
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "rspsim" or key.startswith("rspsim."))
        ]
        for name, fn, label, note in functions:
            wrapper = self._wrap(name, fn, label, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for name, cls, attr, label, note in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, label, note))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover.

        Children of one span run one after another on a single thread, so
        the time they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, value in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summary(self, ops: set[int] | None = None) -> dict[str, dict]:
        """Per span name: calls, self seconds and summed values.

        ``ops`` selects the operations counted; ``{SETUP}`` selects set-up.
        """
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "value": 0.0})
        for rec, self_s in zip(self.spans, self.self_times()):
            if ops is not None and rec[4] not in ops:
                continue
            agg = out[rec[0]]
            agg["calls"] += 1
            agg["self_s"] += self_s
            if isinstance(rec[5], (int, float)):
                agg["value"] += rec[5]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, value in self.spans:
                if not isinstance(value, (int, float)):
                    value = None
                fh.write(json.dumps([name, start, end, parent, op, value]) + "\n")
