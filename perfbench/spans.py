"""Spans around gcec's layer boundaries, recorded from outside the package.

A :class:`Tracer` swaps the functions that ``gcec.pipeline`` imports, and
its public persistence calls, for timing wrappers; the originals come back
when the ``with`` block ends.  Spans stay in memory until the run writes
them out.  A function the pipeline no longer has is listed as an absent
layer, and its metrics read 0.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field

# gcec.pipeline attribute -> span name
LAYERS = {
    "build_discrete_system": "kernels.build",
    "build_lie_system": "kernels.build",
    "joint_nullspace": "kernels.nullspace",
    "covariance_residual": "kernels.residual",
    "solve_tp": "tp.solve",
    "test_extreme": "extremality.rank_test",
    "choi": "channels.choi",
    "kraus_from_dict": "channels.parse",
    "enumerate_reps": "reps.enumerate",
    "materialize": "reps.materialize",
    "run_enumeration": "pipeline.sweep",
    "save_manifest": "pipeline.json_write",
    "load_manifest": "pipeline.load",
    "classify_file": "pipeline.classify",
    "report": "pipeline.report",
}

# Spans whose self time is pipeline code outside every wrapped layer.
ENTRY_POINTS = ("pipeline.sweep", "pipeline.load", "pipeline.classify", "pipeline.report")

# TpSolveReport.detail fragment -> decision path
TP_PATHS = (
    ("empty family", "certificate"),
    ("rank deficient", "certificate"),
    ("identically zero", "lp"),
    ("infeasible", "lp"),
    ("moduli linear program", "lp"),
    ("multi-start", "nonlinear"),
    ("no start converged", "nonlinear"),
)

SWEEP_NAMES = ("SO3-7", "SU2-5", "Z2-2", "Z3-1", "S3-5", "A4-4", "D5-4", "Z4-3")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    instance: str | None
    info: dict = field(default_factory=dict)


def _tp_path(detail: str) -> str:
    for fragment, path in TP_PATHS:
        if fragment in detail:
            return path
    return "other"


def _note(name: str, args, result) -> dict:
    """Counts taken at the boundary.  ``result`` is None when the call
    raised; attributes a refactor removed read as absent."""
    if name == "kernels.nullspace":
        system = args[0]
        return {"cols": getattr(system, "K", 0) * getattr(system, "d", 0) ** 2}
    if name == "tp.solve":
        return {
            "path": "error" if result is None else _tp_path(str(getattr(result, "detail", ""))),
            "solved": getattr(result, "status", "") == "solved",
        }
    if name == "extremality.rank_test":
        return {"extreme": bool(getattr(result, "is_extreme", False))}
    if name == "pipeline.sweep":
        records = getattr(result, "records", [])
        return {
            "sweep": f"{args[0]}-{args[2]}",
            "instances": len(records),
            "empty": sum(getattr(r, "status", "") == "no_cp_map" for r in records),
        }
    if name == "pipeline.json_write":
        return {"bytes": os.path.getsize(args[1]) if os.path.exists(args[1]) else 0}
    return {}


class Tracer:
    """Times calls into gcec's layers while installed on ``gcec.pipeline``."""

    def __init__(self, module):
        self.module = module
        self.spans: list[Span] = []
        self.instance: str | None = None
        self.absent = sorted(a for a in LAYERS if not callable(getattr(module, a, None)))
        self._stack: list[int] = []
        self._saved: dict = {}
        self._sweep = ""
        self._count = 0

    def __enter__(self) -> "Tracer":
        for attr, name in LAYERS.items():
            fn = getattr(self.module, attr, None)
            if callable(fn):
                self._saved[attr] = fn
                setattr(self.module, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for attr, fn in self._saved.items():
            setattr(self.module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "pipeline.sweep":
                self._sweep, self._count, self.instance = f"{args[0]}-{args[2]}", 0, None
            elif name == "kernels.build":
                self._count += 1
                self.instance = f"{self._sweep}#{self._count}"
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.instance)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.info = _note(name, args, result)
                if name == "pipeline.sweep":
                    self.instance = None

        traced.__wrapped__ = fn
        return traced

    def write(self, path, pass_of) -> None:
        """Write every span as one JSON line; ``pass_of[i]`` labels span i."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": s.parent,
                    "instance": s.instance,
                    "pass": pass_of[i],
                    **s.info,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def self_times(spans: list[Span], offset: int = 0) -> dict[str, float]:
    """Per span name, total duration minus the time its direct children
    cover (calls are sequential, so children never overlap)."""
    own: dict[str, float] = {}
    for s in spans:
        dur = s.end - s.start
        own[s.name] = own.get(s.name, 0.0) + dur
        if s.parent >= offset:
            parent = spans[s.parent - offset].name
            own[parent] = own.get(parent, 0.0) - dur
    return own


def pass_metrics(spans: list[Span], offset: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``offset`` is the index of the
    pass's first span in the tracer, so parents resolve to local indices."""
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    own = self_times(spans, offset)

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in by.get(name, []))

    def calls(name: str) -> int:
        return len(by.get(name, []))

    tp, rank, sweeps = by.get("tp.solve", []), by.get("extremality.rank_test", []), by.get("pipeline.sweep", [])
    m = {
        "kernels.build_s": busy("kernels.build"),
        "kernels.build_calls": calls("kernels.build"),
        "kernels.nullspace_s": busy("kernels.nullspace"),
        "kernels.nullspace_calls": calls("kernels.nullspace"),
        "kernels.nullspace_cols": sum(s.info["cols"] for s in by.get("kernels.nullspace", [])),
        "kernels.empty_frac": _frac(sum(s.info["empty"] for s in sweeps), sum(s.info["instances"] for s in sweeps)),
        "kernels.residual_s": busy("kernels.residual"),
        "tp.solve_s": busy("tp.solve"),
        "tp.solve_calls": calls("tp.solve"),
        "tp.solved_frac": _frac(sum(s.info["solved"] for s in tp), len(tp)),
        "extremality.rank_test_s": busy("extremality.rank_test"),
        "extremality.rank_test_calls": calls("extremality.rank_test"),
        "extremality.extreme_frac": _frac(sum(s.info["extreme"] for s in rank), len(rank)),
        "channels.choi_s": busy("channels.choi"),
        "channels.parse_s": busy("channels.parse"),
        "reps.enumerate_s": busy("reps.enumerate"),
        "reps.enumerate_calls": calls("reps.enumerate"),
        "reps.materialize_s": busy("reps.materialize"),
        "pipeline.load_s": busy("pipeline.load"),
        "pipeline.classify_s": busy("pipeline.classify"),
        "pipeline.report_s": busy("pipeline.report"),
        "pipeline.json_write_s": busy("pipeline.json_write"),
        "pipeline.json_bytes": sum(s.info["bytes"] for s in by.get("pipeline.json_write", [])),
        "pipeline.self_s": sum(own.get(name, 0.0) for name in ENTRY_POINTS),
        "trace.spans": len(spans),
    }
    for path in ("certificate", "lp", "nonlinear", "other", "error"):
        m[f"tp.calls.{path}"] = sum(s.info["path"] == path for s in tp)
    for name in SWEEP_NAMES:
        m[f"pipeline.sweep_s.{name}"] = sum(s.end - s.start for s in sweeps if s.info["sweep"] == name)
    return m


def instance_times(spans: list[Span]) -> list[float]:
    """Wall time per instance: first span start to last span end."""
    bounds: dict[str, list[float]] = {}
    for s in spans:
        if s.instance is not None:
            b = bounds.setdefault(s.instance, [s.start, s.end])
            b[0], b[1] = min(b[0], s.start), max(b[1], s.end)
    return [b - a for a, b in bounds.values()]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile that leaves at
    least ten samples beyond it; the median when there are fewer than 20."""
    n = len(samples)
    if n < 2:
        return 50.0, samples[0] if samples else 0.0
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return pct, statistics.quantiles(samples, n=1000, method="inclusive")[round(pct * 10) - 1]
