"""Spans around the program's public functions, recorded from outside.

``installed(recorder)`` rebinds each traced function, in every
``ntn_harq`` module namespace that holds it, to a wrapper that records a
span (name, start, end, parent span, op id) and the counts named below,
and restores the originals on exit.  The program's code is not changed;
spans inside it are a separate piece of work.  Spans stay in memory and
are written once, when the run ends.
"""
from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from ntn_harq import scheduler
from ntn_harq.scheduler import ConflictReport

# layer (package module) -> its traced public functions
TRACED = {
    "scenario": ("config_from_mapping", "select_tbphc", "run_scenario", "calibrate"),
    "geometry": ("round_trip_time",),
    "linkbudget": ("snr_db",),
    "bler": ("select_repetitions",),
    "harq": ("harq_for_tbphc", "delay_plan"),
    "metrics": ("cycle_length_closed_form", "suf_closed_form"),
    "scheduler": (
        "build_proposed_cycle",
        "validate",
        "bs_view",
        "export_timeline",
        "build_legacy_cycle",
        "monte_carlo_goodput",
    ),
    "cli": ("render_timeline_text", "render_timeline"),
}

_MC_SIGNATURE = inspect.signature(scheduler.monte_carlo_goodput)


def _count_proposed(counts, args, kwargs, timeline) -> None:
    counts["scheduler.slots"] += len(timeline)


def _count_legacy(counts, args, kwargs, built) -> None:
    if isinstance(built, ConflictReport):
        counts["scheduler.build_legacy_cycle.conflicts"] += len(built.conflicts)
        built = built.attempt
    counts["scheduler.slots"] += len(built)


def _count_validate(counts, args, kwargs, report) -> None:
    counts["scheduler.validate.findings"] += len(report.conflicts)


def _count_monte_carlo(counts, args, kwargs, result) -> None:
    bound = _MC_SIGNATURE.bind(*args, **kwargs).arguments
    attempts = bound["n_cycles"] * bound["params"].n_tbphc
    counts["scheduler.monte_carlo_goodput.tb_attempts"] += attempts
    counts["scheduler.monte_carlo_goodput.retransmissions"] += result.retransmission_rate * attempts


COUNTERS = {
    "scheduler.build_proposed_cycle": _count_proposed,
    "scheduler.build_legacy_cycle": _count_legacy,
    "scheduler.validate": _count_validate,
    "scheduler.monte_carlo_goodput": _count_monte_carlo,
}


class Recorder:
    """Spans and counts of one phase of a run, kept in flat arrays."""

    def __init__(self, phase: str) -> None:
        self.phase = phase
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_keys: list[str] = []  # op id -> op key
        self.counts: dict[str, float] = defaultdict(float)
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_op(self, key: str) -> None:
        self.op_keys.append(key)

    def self_ns(self) -> array:
        """Per span: its duration minus the durations of its child spans."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[i] - self.start[i]
        return own

    def by_name(self) -> dict[str, list[tuple[str, int, int]]]:
        """Span name -> (op key, duration ns, self ns) of each span."""
        own = self.self_ns()
        out: dict[str, list[tuple[str, int, int]]] = defaultdict(list)
        for i in range(len(self.start)):
            out[self.names[self.name[i]]].append(
                (self.op_keys[self.op[i]], self.end[i] - self.start[i], own[i])
            )
        return out

    def write(self, out) -> None:
        own = self.self_ns()
        for i in range(len(self.start)):
            out.write(
                f"{self.phase},{self.op[i]},{self.op_keys[self.op[i]]},{i},{self.parent[i]},"
                f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},{own[i]}\n"
            )


def write_spans(path: Path, recorders: list[Recorder]) -> None:
    with gzip.open(path, "wt") as out:
        out.write("phase,op,op_key,span,parent,name,start_ns,end_ns,self_ns\n")
        for recorder in recorders:
            recorder.write(out)


def _wrap(recorder: Recorder, name: str, fn):
    nid = recorder.name_id(name)
    count = COUNTERS.get(name)
    clock = time.perf_counter_ns
    rec = recorder

    def traced(*args, **kwargs):
        sid = len(rec.start)
        rec.name.append(nid)
        rec.parent.append(rec.stack[-1])
        rec.op.append(len(rec.op_keys) - 1)
        rec.end.append(0)
        rec.stack.append(sid)
        rec.start.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end[sid] = clock()
            rec.stack.pop()
        if count is not None:
            count(rec.counts, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(recorder: Recorder):
    """Route every call to a traced function through ``recorder``."""
    modules = [m for n, m in list(sys.modules.items()) if n == "ntn_harq" or n.startswith("ntn_harq.")]
    patched = []
    try:
        for layer, functions in TRACED.items():
            module = sys.modules[f"ntn_harq.{layer}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = _wrap(recorder, f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, original))
        yield recorder
    finally:
        for m, attr, original in reversed(patched):
            setattr(m, attr, original)
