"""Subcommand CLI wiring the pipeline stages together.

    contagion ingest     NDJSON messages -> tally CSV
    contagion metric     tally CSV -> bucketed series (CSV or JSON)
    contagion compare    dual-labeled NDJSON -> agreement report JSON
    contagion forecast   annual export CSV -> forecast JSON
    contagion train-lid  labeled TSV corpus -> classifier model file
    contagion eval-lid   labeled TSV corpus + model -> accuracy JSON
    contagion sanitize   one raw text -> cleaned text + removal counts

Exit codes: 0 success, 1 validation error (bad flags, bad file content),
2 I/O error.  Output files are written to a temp file in the destination
directory and renamed into place, so a failed run never leaves a partial
file behind.  All randomness flows from --seed; rerunning any command
with the same inputs and seed reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import reduce
from typing import Callable, List, Optional, Sequence

from . import compare as compare_mod
from . import forecast as forecast_mod
from . import ingest, lid, metrics, tally
from .sanitize import char_count, sanitize

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

GLM_INPUT_HEADER = ("year", "language", "log10_n", "ratio")
SERIES_HEADER = ("bucket_start", "language", "metric", "value")


class CliError(Exception):
    """Invalid flags or file content; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract wants 1 for validation
    def error(self, message: str):
        raise CliError(message)


@dataclass(frozen=True)
class RunConfig:
    """One command's validated settings."""

    input: str = ""
    output: Optional[str] = None
    text: Optional[str] = None
    lid_source: str = "builtin"
    model_path: Optional[str] = None
    metric: str = "ratio"
    resolution: str = "year"
    method: str = "mean_of_daily"
    window: Optional[int] = None
    language: Optional[str] = None
    seed: int = 0
    shards: int = 1
    out_format: str = "csv"
    chains: int = 4
    warmup: int = 5000
    draws: int = 5000
    eta: float = 2.0
    points_per_draw: int = 10
    draws_out: Optional[str] = None
    n_min: int = 1
    n_max: int = 3
    smoothing: float = 1.0


def _config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        **{
            k: v
            for k, v in vars(args).items()
            if k in RunConfig.__dataclass_fields__ and v is not None
        }
    )
    if cfg.shards < 1:
        raise CliError("--shards must be >= 1")
    if cfg.window is not None:
        if cfg.window < 1:
            raise CliError("--window must be >= 1")
        if cfg.resolution != "day":
            raise CliError("--window requires --resolution day")
    return cfg


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".contagion-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # mkstemp files are 0600; give the final file ordinary permissions
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        _atomic_write(cfg.output, text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cell(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


# ---------------------------------------------------------------------------
# labeling


def _builtin_model(cfg: RunConfig) -> lid.NgramModel:
    if cfg.model_path:
        return lid.load_model(cfg.model_path)
    return lid.default_model()


def _make_labeler(cfg: RunConfig) -> Callable[[ingest.CategorizedMessage], str]:
    """Single-label chooser for ingest.

    builtin: the bundled (or --model) classifier on the sanitized text.
    external: the label carried on the record (und when absent).
    both: the external label where present, the classifier elsewhere.
    """
    source = cfg.lid_source
    model = _builtin_model(cfg) if source in ("builtin", "both") else None

    def label(part: ingest.CategorizedMessage) -> str:
        if source != "builtin":
            external = lid.resolve_label(part, source="external")
            if source == "external" or external != lid.UND:
                return external
        return lid.classify(model, sanitize(part.text)).language

    return label


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(cfg: RunConfig) -> None:
    labeler = _make_labeler(cfg)
    with open(cfg.input, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)

    # contiguous line ranges, tallied one after another and merged in shard
    # order; merge is a commutative monoid, so every K gives the single pass
    bounds = [
        (len(lines) * k // cfg.shards, len(lines) * (k + 1) // cfg.shards)
        for k in range(cfg.shards)
    ]
    store = reduce(
        tally.merge,
        (tally.ingest_tally(lines[lo:hi], labeler, source=cfg.input) for lo, hi in bounds),
    )

    buf = io.StringIO()
    tally.save_csv(store, buf)
    _emit(cfg, buf.getvalue())


def _load_store(cfg: RunConfig) -> tally.TallyStore:
    with open(cfg.input, encoding="utf-8", newline="") as fh:
        return tally.load_csv(fh, source=cfg.input)


def cmd_metric(cfg: RunConfig) -> None:
    store = _load_store(cfg)

    if cfg.metric == "glm-input":
        rows = metrics.annual_glm_table(store, method=cfg.method)
        if cfg.out_format == "csv":
            text = _csv_text(
                GLM_INPUT_HEADER,
                [(y, lang, repr(x), repr(r)) for y, lang, x, r in rows],
            )
        else:
            text = _json_text(
                [
                    {"year": y, "language": lang, "log10_n": x, "ratio": r}
                    for y, lang, x, r in rows
                ]
            )
        _emit(cfg, text)
        return

    languages = [cfg.language] if cfg.language else list(store.languages())
    out_rows = []
    for lang in languages:
        if cfg.window is not None:
            points = tally.rolling_mean(
                metrics.daily_series(store, lang, cfg.metric), cfg.window
            )
        else:
            points = metrics.aggregate_metric(
                store, lang, cfg.resolution, cfg.metric, cfg.method
            ).points
        for start, value in points:
            out_rows.append((start.isoformat(), lang, value))

    if cfg.out_format == "csv":
        text = _csv_text(
            SERIES_HEADER,
            [(d, lang, cfg.metric, _cell(v)) for d, lang, v in out_rows],
        )
    else:
        text = _json_text(
            [
                {"bucket_start": d, "language": lang, "metric": cfg.metric, "value": v}
                for d, lang, v in out_rows
            ]
        )
    _emit(cfg, text)


def cmd_compare(cfg: RunConfig) -> None:
    model = _builtin_model(cfg)
    stats = ingest.ParseStats()
    pairs = []
    with open(cfg.input, "rb") as fh:
        for record in ingest.parse_ndjson(fh.read().splitlines(), stats=stats):
            for part in ingest.categorize(record):
                pred = lid.classify(model, sanitize(part.text))
                label_a, label_b = lid.resolve_label(part, pred, source="both")
                pairs.append(
                    compare_mod.LabeledPair(
                        day=part.day(),
                        category=part.category,
                        label_a=label_a,
                        label_b=label_b,
                        chars=char_count(part.text),
                    )
                )
    report = compare_mod.agreement_report(pairs)
    if cfg.out_format == "csv":
        grid = compare_mod.confusion_to_csv_rows(report.confusion)
        text = _csv_text(grid[0], grid[1:])
    else:
        doc = compare_mod.report_to_dict(report)
        doc["parse_errors"] = {k: stats.errors[k] for k in sorted(stats.errors)}
        text = _json_text(doc)
    _emit(cfg, text)


def _read_glm_rows(path: str) -> List[tuple]:
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != GLM_INPUT_HEADER:
            raise CliError("expected header %s" % ",".join(GLM_INPUT_HEADER))
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise CliError("line %d: expected 4 fields" % lineno)
            try:
                year, log10_n, ratio = int(row[0]), float(row[2]), float(row[3])
            except ValueError:
                raise CliError("line %d: bad numeric field" % lineno) from None
            if not (math.isfinite(log10_n) and math.isfinite(ratio)):
                raise CliError("line %d: non-finite numeric field" % lineno)
            rows.append((year, row[1], log10_n, ratio))
    return rows


def cmd_forecast(cfg: RunConfig) -> None:
    rows = _read_glm_rows(cfg.input)
    if cfg.language:
        rows = [r for r in rows if r[1] == cfg.language]
        if not rows:
            raise CliError("no rows for language %r" % cfg.language)
    sampler = forecast_mod.SamplerConfig(
        seed=cfg.seed,
        chains=cfg.chains,
        warmup=cfg.warmup,
        draws=cfg.draws,
        eta=cfg.eta,
        points_per_draw=cfg.points_per_draw,
    )
    result = forecast_mod.forecast_pipeline(rows, sampler)
    _emit(cfg, _json_text(result.summary))
    if cfg.draws_out:
        bundle = result.bundle
        draw_rows = [
            tuple(repr(float(bundle.state_draws[k][i])) for k in forecast_mod.PARAM_NAMES)
            for i in range(bundle.n_draws)
        ]
        _atomic_write(
            cfg.draws_out, _csv_text(forecast_mod.PARAM_NAMES, draw_rows)
        )


def cmd_train_lid(cfg: RunConfig) -> None:
    corpus = lid.read_corpus(cfg.input)
    model = lid.train(corpus, n_range=(cfg.n_min, cfg.n_max), smoothing=cfg.smoothing)
    _emit(cfg, lid.dumps_model(model))


def cmd_eval_lid(cfg: RunConfig) -> None:
    model = _builtin_model(cfg)
    report = lid.evaluate(model, lid.read_corpus(cfg.input))
    _emit(cfg, _json_text(report))


def cmd_sanitize(cfg: RunConfig) -> None:
    clean = sanitize(cfg.text)
    _emit(
        cfg,
        _json_text(
            {
                "text": clean.text,
                "removed_counts": clean.removed_counts,
                "chars_in": char_count(cfg.text),
                "chars_out": char_count(clean.text),
            }
        ),
    )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contagion", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, output_default_stdout: bool = False) -> None:
        p.add_argument("--in", dest="input", required=True, help="input file")
        p.add_argument(
            "--out",
            dest="output",
            default=None,
            help="output file (default: stdout)" if output_default_stdout else "output file",
            required=not output_default_stdout,
        )

    p = sub.add_parser("ingest", help="tally an NDJSON message stream")
    common(p)
    p.add_argument(
        "--lid",
        dest="lid_source",
        choices=("builtin", "external", "both"),
        default="builtin",
        help="label source (default: builtin)",
    )
    p.add_argument("--model", dest="model_path", help="classifier model file (default: bundled)")
    p.add_argument("--shards", type=int, default=1, help="line-range shards tallied in turn and merged (default: 1)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("metric", help="bucketed metric series from a tally CSV")
    common(p)
    p.add_argument(
        "--metric",
        choices=metrics.METRICS + ("glm-input",),
        default="ratio",
        help="quantity to export (default: ratio); glm-input emits the annual forecast input table",
    )
    p.add_argument(
        "--resolution",
        choices=tally.RESOLUTIONS,
        default="year",
        help="bucket size (default: year)",
    )
    p.add_argument(
        "--method",
        choices=metrics.METHODS,
        default="mean_of_daily",
        help="bucket statistic (default: mean_of_daily)",
    )
    p.add_argument("--window", type=int, help="trailing rolling-mean window in days (day resolution only)")
    p.add_argument("--language", help="restrict to one language code")
    p.add_argument("--format", dest="out_format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("compare", help="agreement report for dual-labeled NDJSON")
    common(p)
    p.add_argument("--model", dest="model_path", help="classifier model file (default: bundled)")
    p.add_argument(
        "--format",
        dest="out_format",
        choices=("csv", "json"),
        default="json",
        help="json: full report; csv: confusion-matrix grid",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("forecast", help="fit and forecast the annual dynamic model")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="rng seed (default: 0)")
    p.add_argument("--chains", type=int, default=4, help="MCMC chains (default: 4)")
    p.add_argument("--warmup", type=int, default=5000, help="adaptation iterations per chain (default: 5000)")
    p.add_argument("--draws", type=int, default=5000, help="kept iterations per chain (default: 5000)")
    p.add_argument("--eta", type=float, default=2.0, help="LKJ concentration (default: 2.0)")
    p.add_argument(
        "--points-per-draw",
        dest="points_per_draw",
        type=int,
        default=10,
        help="synthetic volume points per forecast draw (default: 10)",
    )
    p.add_argument("--draws-out", dest="draws_out", help="also write raw forecast state draws CSV here")
    p.add_argument("--language", help="restrict to one language code")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("train-lid", help="train a character n-gram classifier")
    common(p)
    p.add_argument("--n-min", dest="n_min", type=int, default=1, help="shortest n-gram (default: 1)")
    p.add_argument("--n-max", dest="n_max", type=int, default=3, help="longest n-gram (default: 3)")
    p.add_argument("--smoothing", type=float, default=1.0, help="additive smoothing (default: 1.0)")
    p.set_defaults(func=cmd_train_lid)

    p = sub.add_parser("eval-lid", help="score a classifier on a labeled corpus")
    common(p, output_default_stdout=True)
    p.add_argument("--model", dest="model_path", help="classifier model file (default: bundled)")
    p.set_defaults(func=cmd_eval_lid)

    p = sub.add_parser("sanitize", help="clean one text and show what was removed")
    p.add_argument("--text", required=True, help="raw message text")
    p.add_argument("--out", dest="output", help="output file (default: stdout)")
    p.set_defaults(func=cmd_sanitize)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(_config(args))
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
