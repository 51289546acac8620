"""Benchmark of the contagion CLI: two seeded workloads, end to end and per layer.

    python3 bench/run.py --workload ingest-builtin --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/``.  One run:

1. generates the workload's inputs from ``--seed`` (see workloads.py);
2. times ``setup_s``: fresh interpreters importing ``contagion.cli`` (and
   training the default classifier on workloads that use it), median of 5;
3. starts worker.py, a fresh process that calls ``contagion.cli.main`` in
   a closed loop, one call at a time, for ``--seconds``;
4. checks every output (checks.py) and prints the metrics.

Every workload runs all five commands (worker.py: three calls of each
spread over the run, the rest of the time in equal shares), so every
end-to-end metric named in BENCHMARK.json is measured on every workload.
Each timing is the median over that command's calls in the run, scaled
to the speed of a reference loop timed before every call and every
set-up probe (speed.py), because the shared host's speed drifts from run
to run.  With ``--trace 1`` half the time runs untraced and half with
tracing.py's wrappers installed, and the run prints the per-layer
metrics instead, plus the tracing overhead.  Per-layer values are for
one call of each command (so one round parses the stream twice: single
pass and ``--shards 2``), each the median over that command's traced
calls.  Spans go to ``bench/out/trace_<workload>.json`` and a record of
the run, with the machine it ran on, to
``bench/out/BENCH_<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
CLI calls; a call fails if it exits non-zero or its output fails a check.
Exit status is 0 when a result was printed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

import checks
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _fail(message: str) -> None:
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def _setup_seconds(builtin: bool) -> Tuple[List[float], List[float]]:
    """Fresh interpreter until ready, as every CLI call pays it; and the
    reference loop's times, three before each probe."""
    code = "import sys; sys.path.insert(0, %r); import contagion.cli" % str(SRC)
    if builtin:
        code += "; contagion.cli.lid.default_model()"
    code += "; print('ready', flush=True)"
    samples, references = [], []
    for _ in range(SETUP_SAMPLES):
        references += [speed.reference_seconds() for _ in range(3)]
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.wait(timeout=60)
        if ready.strip() != b"ready" or proc.returncode:
            _fail("set-up probe failed (exit %s)" % proc.returncode)
    return samples, references


def _run_worker(spec: dict, workdir: Path) -> dict:
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path)])
    try:
        proc.wait(timeout=spec["seconds"] * 2 + 90)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        _fail("worker timed out")
    if proc.returncode:
        _fail("worker exited with %d" % proc.returncode)
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def _check_outputs(inputs: workloads.Inputs, cmds, languages) -> Dict[str, List[str]]:
    """Problems per command, from the last output of each (every call's
    output must be byte-identical to it)."""
    s, ref = inputs.sizes, inputs.stream_ref
    text = {name: Path(out).read_text(encoding="utf-8") if Path(out).exists() else None
            for name, _, out in cmds}
    problems: Dict[str, List[str]] = {}
    for name, body in text.items():
        if body is None:
            problems[name] = ["no output"]
        elif name in ("ingest", "ingest_sharded"):
            problems[name] = checks.check_ingest(body, ref, s.lid, languages)
        elif name == "glm_input":
            problems[name] = checks.check_glm_input(body, inputs.tally_cells)
        elif name == "series_month":
            problems[name] = checks.check_series_month(body, inputs.tally_cells)
        elif name == "forecast":
            problems[name] = checks.check_forecast(body, s.glm_years, workloads.CHAINS, workloads.DRAWS)
        elif name == "compare":
            problems[name] = checks.check_compare(body, ref)
    if text.get("ingest") != text.get("ingest_sharded"):
        problems["ingest_sharded"].append("--shards 2 output differs from the single pass")
    return problems


def _walls(calls: Dict[str, List[dict]], name: str) -> List[float]:
    return [call["wall_s"] for call in calls[name]]


def _per_round(calls: Dict[str, List[dict]]) -> Dict[str, float]:
    """Counters for one call of each command: the sum over commands of the
    median over that command's traced calls."""
    keys = {key for runs in calls.values() for call in runs for key in call["counters"]}
    return {
        key: sum(median(call["counters"].get(key, 0.0) for call in runs) for runs in calls.values())
        for key in keys
    }


def _layer_metrics(result: dict, names, forecast_doc) -> Dict[str, float]:
    counts = _per_round(result["traced_calls"])

    def get(key: str) -> float:
        return counts.get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    untraced = sum(median(_walls(result["calls"], n)) for n in result["calls"])
    traced = sum(median(_walls(result["traced_calls"], n)) for n in result["calls"])
    compare = result.get("compare", {}).get("counters", {})
    fc = forecast_doc or {"per_year": [], "walk": {"acceptance": [0.0]},
                          "forecast": {"n_rejected": 0}}
    derived = {
        "cli.read_s": get("cli.read.busy_s"),
        "cli.write_s": get("cli.write.busy_s"),
        "cli.out_bytes": get("cli.write.bytes"),
        "lid.default_model.s": median(result["default_model_s"] or [0.0]),
        "lid.classify.und_frac": ratio(get("lid.classify.und"), get("lid.classify.calls")),
        "compare.agreement_report.busy_s": compare.get("compare.agreement_report.busy_s", 0.0),
        "compare.pairs": compare.get("compare.pairs", 0.0),
        "forecast.sample_posterior.busy_s_per_year": ratio(
            get("forecast.sample_posterior.busy_s"), get("forecast.sample_posterior.calls")),
        "forecast.stage1.iters_per_s": ratio(
            get("forecast.stage1.iters"), get("forecast.sample_posterior.busy_s")),
        "forecast.accept_min": min(
            [a for year in fc["per_year"] for a in year["acceptance"]] + fc["walk"]["acceptance"]),
        "forecast.n_rejected": fc["forecast"]["n_rejected"],
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    return {name: derived[name] if name in derived else get(name) for name in names}


def _trace_problems(result: dict, ref) -> Dict[str, List[str]]:
    """Each traced ingest call parses the whole stream once: the records
    and the errors under each ``ParseStats`` key that the library counts
    must match what the generator put in."""
    problems: Dict[str, List[str]] = {"ingest": [], "ingest_sharded": []}
    for name, found in problems.items():
        for call in result["traced_calls"][name]:
            counters = call["counters"]
            records = counters.get("ingest.parse_ndjson.records", 0.0)
            errors = {key: counters.get("ingest.parse_ndjson.errors." + key, 0.0)
                      for key in ref.errors}
            if errors != ref.errors or records != ref.records:
                found.append("%s parsed %d records, errors %r; the stream has %d, %r"
                             % (name, records, errors, ref.records, ref.errors))
    return problems


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = ap.parse_args()

    if not (SRC / "contagion" / "__init__.py").is_file():
        _fail("no library at %s; run from a checkout of the repository" % SRC)
    try:
        spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        _fail("cannot read BENCHMARK.json: %s" % exc)
    declared = spec_doc["per_layer" if args.trace else "end_to_end"]

    machine = _machine()
    sys.path.insert(0, str(SRC))
    from contagion import lid

    corpus = lid.bundled_corpus("heldout")
    languages = sorted({lang for lang, _ in lid.bundled_corpus("train")})
    sizes = workloads.sizes_for(args.workload, args.tiny)
    builtin = sizes.lid == "builtin"

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        inputs = workloads.write_inputs(
            workdir, args.seed, sizes, corpus, need_labeled=bool(args.trace) and builtin)
        cmds = workloads.commands(inputs, workdir, args.seed)
        compare = workloads.compare_command(inputs, workdir) if args.trace and builtin else None
        setup, setup_references = _setup_seconds(builtin)
        result = _run_worker({
            "src": str(SRC), "seconds": args.seconds, "trace": args.trace,
            "builtin": builtin, "commands": [[n, a, str(o)] for n, a, o in cmds],
            "compare": [compare[0], compare[1], str(compare[2])] if compare else None,
            "result": str(workdir / "result.json"),
            "spans": str(out_dir / ("trace_%s.json" % args.workload)),
        }, workdir)
        problems = _check_outputs(inputs, cmds + ([compare] if compare else []), languages)
        if args.trace:
            for name, found in _trace_problems(result, inputs.stream_ref).items():
                problems[name] += found
        forecast_doc = json.loads(Path(cmds[-1][2]).read_text(encoding="utf-8")) \
            if not problems["forecast"] else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a call fails on a non-zero exit, on any problem with its command's
    # output, or on an output that differs from the one checked
    calls = [(name, call) for runs in (result["calls"], result.get("traced_calls", {}))
             for name, own in runs.items() for call in own]
    if "compare" in result:
        calls.append(("compare", result["compare"]))
    final = {name: call["digest"] for name, call in calls}
    failed = sum(1 for name, call in calls
                 if call["rc"] != 0 or problems[name] or call["digest"] != final[name])

    timed = result["calls"]
    lines = sizes.messages

    def end_to_end(setup_scale: float, worker_scale: float) -> Dict[str, float]:
        def seconds(name: str) -> float:
            return median(_walls(timed, name)) * worker_scale

        return {
            "setup_s": median(setup) * setup_scale,
            "ingest_msgs_per_s": lines / seconds("ingest"),
            "ingest_sharded_msgs_per_s": lines / seconds("ingest_sharded"),
            "glm_input_s": seconds("glm_input"),
            "series_month_s": seconds("series_month"),
            "forecast_s": seconds("forecast"),
            "peak_rss_mb": result["peak_rss_mb"],
        }

    scales = {
        "setup": speed.scale(setup_references),
        "worker": speed.scale([call["reference_s"] for runs in timed.values() for call in runs]),
    }
    raw = end_to_end(1.0, 1.0)
    values = end_to_end(scales["setup"], scales["worker"])
    if args.trace:
        values = _layer_metrics(result, [m["name"] for m in declared], forecast_doc)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}

    machine["worker_cpus"] = result["cpus"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": machine,
        "sizes": sizes.__dict__, "setup_samples": setup,
        "wall_samples": {name: _walls(timed, name) for name in timed},
        "speed_scale": scales, "raw_end_to_end": raw,
        "attempted": len(calls), "failed": failed,
        "failed_frac": failed / len(calls),
        "problems": {k: v for k, v in problems.items() if v}, "metrics": metrics,
    }
    (out_dir / ("BENCH_%s.json" % args.workload)).write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for name, problem in record["problems"].items():
        print("FAILED %s: %s" % (name, "; ".join(problem)))
    print("machine: %s" % json.dumps(machine, sort_keys=True))
    print("%s seed %d: %d calls, %d failed" % (args.workload, args.seed, len(calls), failed))
    print("speed scale: set-up %.4f, worker %.4f" % (scales["setup"], scales["worker"]))
    for name, m in metrics.items():
        print("  %-45s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": failed == 0 and not record["problems"],
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
