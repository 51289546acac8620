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
import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
from functools import reduce
from typing import Callable, List, Optional, Sequence

from . import ingest, lid, metrics, tally
from .sampler import SamplerConfig
from .sanitize import char_count, sanitize

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

GLM_INPUT_HEADER = ("year", "language", "log10_n", "ratio")
# no finite count has |log10_n| above ~308; a larger one is a bad field,
# and squared in the forecast's likelihood it would overflow
MAX_ABS_LOG10_N = 400.0
SERIES_HEADER = ("bucket_start", "language", "metric", "value")


class CliError(Exception):
    """Invalid flags or file content; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract wants 1 for validation
    def error(self, message: str):
        raise CliError(message)


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


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        _atomic_write(args.output, text)
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


# ---------------------------------------------------------------------------
# labeling


def _builtin_model(args: argparse.Namespace) -> lid.NgramModel:
    if args.model_path:
        return lid.load_model(args.model_path)
    return lid.default_model()


def _make_labeler(args: argparse.Namespace) -> Callable[[ingest.MessageRecord, str], str]:
    """Single-label chooser for ingest, from a record and one part's text.

    builtin: the bundled (or --model) classifier on the sanitized text.
    external: the label carried on the record (und when absent).
    both: the external label where present, the classifier elsewhere.
    """
    source = args.lid_source
    model = _builtin_model(args) if source in ("builtin", "both") else None

    def label(record: ingest.MessageRecord, text: str) -> str:
        if source != "builtin":
            external = lid.wire_label(record)
            if source == "external" or external != lid.UND:
                return external
        return lid.classify(model, sanitize(text)).language

    return label


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args: argparse.Namespace) -> None:
    if args.shards < 1:
        raise CliError("--shards must be >= 1")
    labeler = _make_labeler(args)
    # iterating splits at b"\n" only (a bare CR inside a record is JSON
    # whitespace); bench/tracing.py's file wrapper iterates but has no readlines
    with open(args.input, "rb") as fh:
        lines = list(fh)

    # contiguous line ranges, tallied one after another and merged in shard
    # order; merge is a commutative monoid, so every K gives the single pass,
    # and K above the line count is one shard per line (an empty range adds
    # nothing)
    shards = min(args.shards, max(1, len(lines)))
    bounds = [
        (len(lines) * k // shards, len(lines) * (k + 1) // shards) for k in range(shards)
    ]
    store = reduce(
        tally.merge, (tally.ingest_tally(lines[lo:hi], labeler) for lo, hi in bounds)
    )

    buf = io.StringIO()
    tally.save_csv(store, buf)
    _emit(args, buf.getvalue())


def _load_store(args: argparse.Namespace) -> tally.TallyStore:
    with open(args.input, encoding="utf-8", newline="") as fh:
        return tally.load_csv(fh)


def cmd_metric(args: argparse.Namespace) -> None:
    if args.metric == "glm-input":
        # the annual table covers every language-year; no flag narrows it
        for flag, given in (
            ("--language", args.language is not None),
            ("--window", args.window is not None),
            ("--resolution", args.resolution != "year"),
        ):
            if given:
                raise CliError("%s does not apply to --metric glm-input" % flag)
    if args.window is not None:
        if args.window < 1:
            raise CliError("--window must be >= 1")
        if args.resolution != "day":
            raise CliError("--window requires --resolution day")
    store = _load_store(args)
    if args.language and args.language not in store.entries:
        raise CliError("no rows for language %r" % args.language)

    # csv.writer writes a float as its repr and None as an empty field
    if args.metric == "glm-input":
        header = GLM_INPUT_HEADER
        rows = metrics.annual_glm_table(store, method=args.method)
    else:
        header = SERIES_HEADER
        rows = []
        for lang in [args.language] if args.language else store.languages():
            if args.window is not None:
                points = tally.rolling_mean(
                    metrics.daily_series(store, lang, args.metric), args.window
                )
            else:
                points = metrics.aggregate_metric(
                    store, lang, args.resolution, args.metric, args.method
                ).points
            rows.extend((start.isoformat(), lang, args.metric, v) for start, v in points)

    if args.out_format == "csv":
        _emit(args, _csv_text(header, rows))
    else:
        _emit(args, _json_text([dict(zip(header, row)) for row in rows]))


def cmd_compare(args: argparse.Namespace) -> None:
    from . import compare as compare_mod

    model = _builtin_model(args)
    stats = ingest.ParseStats()
    pairs = []
    with open(args.input, "rb") as fh:
        for record in ingest.parse_ndjson(fh, stats=stats):
            for category, text in ingest.categorize(record):
                pairs.append(
                    compare_mod.LabeledPair(
                        day=record.day(),
                        category=category,
                        label_a=lid.classify(model, sanitize(text)).language,
                        label_b=lid.wire_label(record),
                        chars=char_count(text),
                    )
                )
    report = compare_mod.agreement_report(pairs)
    if args.out_format == "csv":
        grid = compare_mod.confusion_to_csv_rows(report.confusion)
        text = _csv_text(grid[0], grid[1:])
    else:
        doc = compare_mod.report_to_dict(report)
        doc["parse_errors"] = {k: stats.errors[k] for k in sorted(stats.errors)}
        text = _json_text(doc)
    _emit(args, text)


def _read_glm_rows(path: str) -> List[tuple]:
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != GLM_INPUT_HEADER:
                raise CliError("expected header %s" % ",".join(GLM_INPUT_HEADER))
            # errors name reader.line_num, the physical line: a quoted field may span lines
            for row in reader:
                if not row:
                    continue
                if len(row) != 4:
                    raise CliError("line %d: expected 4 fields" % reader.line_num)
                try:
                    year, log10_n, ratio = int(row[0]), float(row[2]), float(row[3])
                except ValueError:
                    raise CliError("line %d: bad numeric field" % reader.line_num) from None
                if not (math.isfinite(log10_n) and math.isfinite(ratio)):
                    raise CliError("line %d: non-finite numeric field" % reader.line_num)
                if abs(log10_n) > MAX_ABS_LOG10_N:
                    raise CliError(
                        "line %d: log10_n %r outside [-%g, %g]"
                        % (reader.line_num, log10_n, MAX_ABS_LOG10_N, MAX_ABS_LOG10_N)
                    )
                rows.append((year, row[1], log10_n, ratio))
        except csv.Error as exc:  # e.g. a field past csv's size limit
            raise CliError("line %d: %s" % (reader.line_num, exc)) from None
    return rows


def cmd_forecast(args: argparse.Namespace) -> None:
    # one would overwrite the other: reject the pair before any work
    if args.draws_out and os.path.realpath(args.draws_out) == os.path.realpath(args.output):
        raise CliError("--draws-out and --out name the same file")
    from . import forecast as forecast_mod  # numpy loads here, not at start-up

    rows = _read_glm_rows(args.input)
    if args.language:
        rows = [r for r in rows if r[1] == args.language]
        if not rows:
            raise CliError("no rows for language %r" % args.language)
    sampler = SamplerConfig(
        seed=args.seed,
        chains=args.chains,
        warmup=args.warmup,
        draws=args.draws,
        eta=args.eta,
        points_per_draw=args.points_per_draw,
    )
    result = forecast_mod.forecast_pipeline(rows, sampler)
    # the draws first, taken back if --out then fails: a failed run leaves
    # neither output
    if args.draws_out:
        draws = result.bundle.state_draws
        draw_rows = zip(*(draws[k].tolist() for k in forecast_mod.PARAM_NAMES))
        _atomic_write(args.draws_out, _csv_text(forecast_mod.PARAM_NAMES, draw_rows))
    try:
        _emit(args, _json_text(result.summary))
    except BaseException:
        if args.draws_out:
            with contextlib.suppress(OSError):
                os.unlink(args.draws_out)
        raise


def cmd_train_lid(args: argparse.Namespace) -> None:
    corpus = lid.read_corpus(args.input)
    model = lid.train(corpus, n_range=(args.n_min, args.n_max), smoothing=args.smoothing)
    _emit(args, lid.dumps_model(model))


def cmd_eval_lid(args: argparse.Namespace) -> None:
    model = _builtin_model(args)
    report = lid.evaluate(model, lid.read_corpus(args.input))
    _emit(args, _json_text(report))


def cmd_sanitize(args: argparse.Namespace) -> None:
    clean = sanitize(args.text)
    _emit(
        args,
        _json_text(
            {
                "text": clean.text,
                "removed_counts": clean.removed_counts,
                "chars_in": char_count(args.text),
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
    sampler = SamplerConfig
    p.add_argument("--seed", type=int, default=sampler.seed, help="rng seed (default: %(default)s)")
    p.add_argument("--chains", type=int, default=sampler.chains, help="random-walk MCMC chains (default: %(default)s)")
    p.add_argument("--warmup", type=int, default=sampler.warmup, help="adaptation iterations per random-walk chain; the per-year fit has none (default: %(default)s)")
    p.add_argument("--draws", type=int, default=sampler.draws, help="kept iterations per random-walk chain (default: %(default)s)")
    p.add_argument("--eta", type=float, default=sampler.eta, help="LKJ concentration (default: %(default)s)")
    p.add_argument(
        "--points-per-draw",
        dest="points_per_draw",
        type=int,
        default=sampler.points_per_draw,
        help="synthetic volume points per forecast draw (default: %(default)s)",
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
        args.func(args)
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
