"""Spans and counters around the library's public layer functions.

Nothing inside the library is instrumented.  ``Tracer.install`` replaces
each traced function with a timing wrapper in the namespace its caller
looks it up in (``contagion.tally.parse_ndjson`` for ``ingest_tally``,
``contagion.cli.sanitize`` for the CLI's labeler, and so on), and
``uninstall`` puts the originals back.

Coarse calls (a command's stages, one per call or per year) become spans:
name, start, end, parent span and the CLI call (request) they belong to.
Hot per-item calls (``classify``, ``sanitize``, ``accumulate``,
per-language reads) only add to a count and a busy time, because a span
each would cost more than the call.  Both kinds also add to the counters
``<name>.calls`` and ``<name>.busy_s``, which the benchmark reads around
each CLI call.  Busy time is wall time inside the call, summed over
threads, so calls made from the ``--shards`` threads include time spent
waiting for the interpreter lock held by the other shard.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, counter name): one span per call
SPANS = (
    ("contagion.cli", "_atomic_write", "cli.write"),
    ("contagion.tally", "ingest_tally", "tally.ingest_tally"),
    ("contagion.tally", "merge", "tally.merge"),
    ("contagion.tally", "save_csv", "tally.save_csv"),
    ("contagion.tally", "load_csv", "tally.load_csv"),
    ("contagion.metrics", "annual_glm_table", "metrics.annual_glm_table"),
    ("contagion.compare", "agreement_report", "compare.agreement_report"),
    ("contagion.forecast", "forecast_pipeline", "forecast.forecast_pipeline"),
    ("contagion.forecast", "sample_posterior", "forecast.sample_posterior"),
    ("contagion.forecast", "fit_random_walk", "forecast.fit_random_walk"),
    ("contagion.forecast", "forecast_next", "forecast.forecast_next"),
)

# (module, attribute, counter name): aggregated count and busy time only
HOT = (
    ("contagion.cli", "sanitize", "sanitize.sanitize"),
    ("contagion.lid", "classify", "lid.classify"),
    ("contagion.tally", "accumulate", "tally.accumulate"),
    ("contagion.tally", "categorize", "ingest.categorize"),
    ("contagion.ingest", "categorize", "ingest.categorize"),
    ("contagion.tally:TallyStore", "daily_counts", "tally.daily_counts"),
    ("contagion.metrics", "aggregate_metric", "metrics.aggregate_metric"),
    ("contagion.metrics", "rebucket", "tally.rebucket"),
)

# generators: busy time is the time spent producing each item
GENERATORS = (
    ("contagion.tally", "parse_ndjson", "ingest.parse_ndjson"),
    ("contagion.ingest", "parse_ndjson", "ingest.parse_ndjson"),
)


def _extra_counts(name: str, args: tuple, result) -> Dict[str, float]:
    """Work counts beyond calls and busy time, read off a call's arguments and result."""
    if name == "ingest.categorize":
        return {"ingest.categorize.parts": len(result)}
    if name == "sanitize.sanitize":
        return {"sanitize.removed": sum(result.removed_counts.values())}
    if name == "lid.classify":
        return {"lid.classify.und": result.language == "und"}
    if name == "tally.daily_counts":
        return {"tally.daily_counts.cells_visited": len(args[0].entries)}
    if name == "tally.load_csv":
        return {"tally.load_csv.cells": len(result)}
    if name == "compare.agreement_report":
        return {"compare.pairs": len(args[0])}
    if name == "forecast.sample_posterior":
        config = args[1]
        return {"forecast.stage1.iters": config.chains * (config.warmup + config.draws)}
    if name == "cli.write":
        return {"cli.write.bytes": len(args[1].encode("utf-8"))}
    return {}


def _target(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _Span:
    __slots__ = ("id", "parent", "request", "name", "thread", "start", "end")

    def __init__(self, id, parent, request, name, thread, start):
        self.id, self.parent, self.request = id, parent, request
        self.name, self.thread, self.start, self.end = name, thread, start, None


class _TimedFile:
    """File object whose reads add to the ``cli.read`` busy time."""

    def __init__(self, fh, tracer: "Tracer"):
        self._fh, self._tracer = fh, tracer

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __iter__(self):
        return self

    def __next__(self):
        t0 = time.perf_counter()
        try:
            return next(self._fh)
        finally:
            self._tracer.add("cli.read.busy_s", time.perf_counter() - t0)

    def read(self, *args):
        t0 = time.perf_counter()
        try:
            return self._fh.read(*args)
        finally:
            self._tracer.add("cli.read.busy_s", time.perf_counter() - t0)


class Tracer:
    def __init__(self) -> None:
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[_Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []
        self._request = 0
        self._root: Optional[_Span] = None

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def _record(self, name: str, seconds: float, extra: Dict[str, float]) -> None:
        with self._lock:
            self.counters[name + ".calls"] += 1
            self.counters[name + ".busy_s"] += seconds
            for key, value in extra.items():
                self.counters[key] += value

    def _open_span(self, name: str) -> _Span:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = _Span(len(self.spans), parent.id if parent else None, self._request,
                         name, threading.get_ident(), time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def _close_span(self, span: _Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    def request(self, name: str, fn: Callable[[], int]) -> int:
        """Run one CLI call as the root span of a new request."""
        self._request += 1
        self._root = self._open_span(name)
        try:
            return fn()
        finally:
            self._close_span(self._root)
            self._root = None

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = self._open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_span(span)
            self._record(name, span.end - span.start, _extra_counts(name, args, result))
            return result
        return traced

    def _hot_wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self._record(name, time.perf_counter() - t0, _extra_counts(name, args, result))
            return result
        return traced

    def _generator_wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(lines, stats=None):
            from contagion.ingest import ParseStats

            stats = stats if stats is not None else ParseStats()
            errors_before = dict(stats.errors)
            items = fn(lines, stats=stats)
            busy, records = 0.0, 0
            while True:
                t0 = time.perf_counter()
                try:
                    record = next(items)
                except StopIteration:
                    busy += time.perf_counter() - t0
                    break
                busy += time.perf_counter() - t0
                records += 1
                yield record
            errors = {key: n - errors_before[key] for key, n in stats.errors.items()}
            counts = {name + ".errors." + key: n for key, n in errors.items()}
            counts[name + ".records"] = records
            counts[name + ".errors"] = sum(errors.values())
            self._record(name, busy, counts)
        return traced

    def _open(self, *args, **kwargs):
        return _TimedFile(open(*args, **kwargs), self)

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for path, attr, name in SPANS:
            owner = _target(path)
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for path, attr, name in HOT:
            owner = _target(path)
            self._patch(owner, attr, self._hot_wrapper(name, getattr(owner, attr)))
        for path, attr, name in GENERATORS:
            owner = _target(path)
            self._patch(owner, attr, self._generator_wrapper(name, getattr(owner, attr)))
        # the CLI reads its inputs through the builtin open
        self._patch(_target("contagion.cli"), "open", self._open)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self.counters)

    def dump(self, path: str) -> None:
        """Write every span with its duration and self time (the part of its
        interval that no child span covers)."""
        children: Dict[int, List[_Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = []
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children[span.id], key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            duration = span.end - span.start
            out.append({
                "id": span.id, "parent": span.parent, "request": span.request,
                "name": span.name, "thread": span.thread,
                "start_s": span.start - self.spans[0].start,
                "duration_s": duration, "self_s": duration - covered,
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": out}, fh, indent=1)
