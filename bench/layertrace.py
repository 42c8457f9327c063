"""Spans around the public functions of each cableopt layer, from outside.

``Tracer.installed()`` replaces each traced function by a wrapper in every
``cableopt`` module namespace that holds it (the defining module and every
module that imported it by name), so calls between layers are seen, and
restores the originals on exit.  Spans are kept in memory as
(name, start, end, parent, op, failed, amount) and written out at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from cableopt.cable_model import DEFAULT_PROFILE_SEGMENTS
from cableopt.errors import CableOptError

#: (module, function) pairs wrapped by the tracer, by layer.
TRACED = (
    ("cli", "main"),
    ("config", "load_config"),
    ("results", "write_tables"),
    ("annual_energy", "compare_strategies"),
    ("annual_energy", "annual_efficiency"),
    ("annual_energy", "read_duration_csv"),
    ("optimizer", "optimize_at_production"),
    ("optimizer", "max_feasible_power"),
    ("optimizer", "transfer_envelope"),
    ("optimizer", "optimize_scaling_unconstrained"),
    ("power_flow", "solve_flow"),
    ("cable_model", "exact_pi_two_port"),
    ("cable_model", "segment_profile"),
)

#: Functions whose spans also carry an amount: bytes written, segments solved.
AMOUNTS = {"results.write_tables": "bytes", "cable_model.segment_profile": "segments"}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 for none
    op: int
    failed: bool     # a CableOptError left the call
    amount: int      # AMOUNTS quantity, else 0


def _segments(args, kwargs) -> int:
    if len(args) > 3:
        return int(args[3])
    return int(kwargs.get("n_segments", DEFAULT_PROFILE_SEGMENTS))


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        amount_kind = AMOUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = False
            amount = 0
            if amount_kind == "segments":
                amount = _segments(args, kwargs)
            elif amount_kind == "bytes":
                fh = args[0] if args else kwargs["fh"]
                pos = fh.tell()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except CableOptError:
                failed = True
                raise
            finally:
                t1 = time.perf_counter()
                if amount_kind == "bytes":
                    amount = fh.tell() - pos
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, self.op, failed, amount)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every TRACED function for the duration of the block."""
        patched = []
        try:
            for mod_name, fn_name in TRACED:
                original = getattr(sys.modules[f"cableopt.{mod_name}"], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for name, module in list(sys.modules.items()):
                    if name != "cableopt" and not name.startswith("cableopt."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def finished(self) -> list[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("trace has open spans")
        return self.spans  # type: ignore[return-value]


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per traced function: calls, self_s, failed and summed amount."""
    stats = {f"{m}.{f}": {"calls": 0, "self_s": 0.0, "failed": 0, "amount": 0}
             for m, f in TRACED}
    for s, own in zip(spans, self_times(spans)):
        st = stats[s.name]
        st["calls"] += 1
        st["self_s"] += own
        st["failed"] += int(s.failed)
        st["amount"] += s.amount
    return stats


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,op,failed,amount\n")
        for s in spans:
            fh.write(f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.op},{int(s.failed)},{s.amount}\n")
