"""The workload process: drives ``contagion.cli.main`` in a closed loop.

Started by ``run.py`` as a fresh interpreter, so its peak RSS is the
workload's own.  One client issues one CLI call at a time and waits for
it (a closed loop), for the time budget.

With tracing on, the budget is split: untraced calls first, then calls
with the tracer installed, so the two can be compared for the tracing
overhead.  Counters are read before and after each traced call.

    python3 worker.py SPEC.json      (SPEC is written by run.py)
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import speed

ROUNDS = 3


def _call(run, out: Path) -> dict:
    reference = speed.reference_seconds()  # the host's speed just before the call
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        rc = run()
    except Exception:  # a crash is one failed call, not the end of the run
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - t0
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return {"rc": rc, "wall_s": wall, "digest": digest, "reference_s": reference}


def _run_calls(commands, seconds: float, run_one) -> dict:
    """Call every command ``ROUNDS`` times, its k-th call falling due
    k / ``ROUNDS`` of the way through ``seconds``; between due calls, call
    the command with the least time spent so far.  Stops when the next
    call would end past ``seconds`` (the first round always runs).

    The due calls give the long commands (forecast, glm-input) several
    calls to take a median over, spread over the run so that they meet the
    host in more than one state; the rest of the time goes to the short
    ones."""
    argv = {name: (a, Path(out)) for name, a, out in commands}
    calls = {name: [] for name in argv}
    spent = dict.fromkeys(argv, 0.0)
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        due = [name for name in argv
               if len(calls[name]) < ROUNDS and elapsed >= len(calls[name]) * seconds / ROUNDS]
        name = min(due, key=lambda n: len(calls[n])) if due else min(spent, key=spent.get)
        if calls[name] and elapsed + calls[name][-1]["wall_s"] > seconds:
            return calls
        calls[name].append(run_one(name, *argv[name]))
        spent[name] += calls[name][-1]["wall_s"]


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from contagion import cli, lid

    # the CPUs this process (and every thread and child of it) may use
    result = {"default_model_s": [], "cpus": sorted(os.sched_getaffinity(0))}
    if spec["builtin"]:
        lid.default_model()  # what every builtin CLI call pays at start
    commands = spec["commands"]

    def untraced(name, argv, out):
        return _call(lambda: cli.main(argv), out)

    if not spec["trace"]:
        result["calls"] = _run_calls(commands, spec["seconds"], untraced)
    else:
        from tracing import Tracer

        if spec["builtin"]:
            for _ in range(5):
                lid.default_model.cache_clear()
                t0 = time.perf_counter()
                lid.default_model()
                result["default_model_s"].append(time.perf_counter() - t0)
        result["calls"] = _run_calls(commands, spec["seconds"] / 2, untraced)
        tracer = Tracer()

        def traced(name, argv, out):
            before = tracer.snapshot()
            call = _call(lambda: tracer.request(name, lambda: cli.main(argv)), out)
            after = tracer.snapshot()
            call["counters"] = {k: v - before.get(k, 0.0) for k, v in after.items()}
            return call

        tracer.install()
        try:
            result["traced_calls"] = _run_calls(commands, spec["seconds"] / 2, traced)
            if spec["compare"]:
                name, argv, out = spec["compare"]
                result["compare"] = traced(name, argv, Path(out))
        finally:
            tracer.uninstall()
        tracer.dump(spec["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
