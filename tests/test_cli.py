"""Command-line interface tests.

Golden files under fixtures/golden/ were produced by the same commands the
tests replay; byte equality guards both the pipeline math and the exact
serialization (column order, float repr, trailing newline).
"""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from contagion import cli, forecast, ingest, lid, metrics, tally
from contagion.sampler import SamplerConfig
from contagion.sanitize import sanitize

from conftest import CLI_SURFACE_GOLDEN, FIXTURES, REPO, cli_surface, trend_rows

GOLDEN = FIXTURES / "golden"
MINI = str(FIXTURES / "mini.ndjson")
ANNUAL = str(FIXTURES / "annual_2019_tally.csv")
GLM_INPUT = str(FIXTURES / "glm_input_2009_2019.csv")
TRAIN_TSV = str(REPO / "src" / "contagion" / "data" / "lid_corpus_train.tsv")
HELDOUT_TSV = str(REPO / "src" / "contagion" / "data" / "lid_corpus_heldout.tsv")


def run(*argv):
    return cli.main(list(argv))


def run_stdout(capsys, *argv):
    code = run(*argv)
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK, out
    return out


def run_read(tmp_path, *argv):
    out = tmp_path / "cmd_output"
    assert run(*argv, "--out", str(out)) == cli.EXIT_OK
    return out.read_text()


# -- golden replays -----------------------------------------------------------


def test_golden_ingest_builtin(tmp_path):
    out = tmp_path / "tally.csv"
    assert run("ingest", "--in", MINI, "--out", str(out)) == 0
    assert out.read_bytes() == (GOLDEN / "tally_builtin.csv").read_bytes()


def test_golden_ingest_external(tmp_path):
    out = tmp_path / "tally.csv"
    assert run("ingest", "--in", MINI, "--lid", "external", "--out", str(out)) == 0
    assert out.read_bytes() == (GOLDEN / "tally_external.csv").read_bytes()


def test_golden_metric_ratio_year(tmp_path):
    out = tmp_path / "ratio.csv"
    assert run("metric", "--in", ANNUAL, "--out", str(out)) == 0
    assert out.read_bytes() == (GOLDEN / "ratio_year.csv").read_bytes()


def test_golden_compare_json(tmp_path):
    out = tmp_path / "agreement.json"
    assert run("compare", "--in", MINI, "--out", str(out)) == 0
    assert out.read_bytes() == (GOLDEN / "agreement.json").read_bytes()


def test_golden_eval_lid_heldout(tmp_path):
    # mean_confidence sums every confidence: pins the scoring arithmetic bit for bit
    out = tmp_path / "eval.json"
    assert run("eval-lid", "--in", HELDOUT_TSV, "--out", str(out)) == 0
    assert out.read_bytes() == (GOLDEN / "eval_lid_heldout.json").read_bytes()


def test_golden_compare_csv(tmp_path):
    out = tmp_path / "confusion.csv"
    assert run("compare", "--in", MINI, "--format", "csv", "--out", str(out)) == 0
    assert out.read_bytes() == (GOLDEN / "confusion.csv").read_bytes()


def test_golden_forecast(tmp_path):
    # the summary and the walk's forecast cloud, at the benchmark's sampler settings
    out, draws = tmp_path / "forecast.json", tmp_path / "draws.csv"
    assert run("forecast", "--in", GLM_INPUT, "--seed", "7", "--chains", "4",
               "--warmup", "1000", "--draws", "250", "--out", str(out),
               "--draws-out", str(draws)) == 0
    assert out.read_bytes() == (GOLDEN / "forecast_2009_2019.json").read_bytes()
    assert draws.read_bytes() == (GOLDEN / "forecast_2009_2019_draws.csv").read_bytes()


# -- ingest variants ----------------------------------------------------------


def test_sharded_ingest_matches_single_pass(tmp_path):
    single = tmp_path / "single.csv"
    sharded = tmp_path / "sharded.csv"
    assert run("ingest", "--in", MINI, "--out", str(single)) == 0
    assert run("ingest", "--in", MINI, "--shards", "3", "--out", str(sharded)) == 0
    assert single.read_bytes() == sharded.read_bytes()


_RECORD = hs.fixed_dictionaries({
    "id": hs.sampled_from(["a", "b", "c"]),
    "ts": hs.integers(1559347200, 1559347200 + 3 * 86400),
    "kind": hs.sampled_from(["tweet", "reply", "retweet", "quote"]),
    "text": hs.sampled_from(["x", "y z"]),
    "quoted_text": hs.sampled_from(["q", "r s"]),
    "lang": hs.sampled_from(["en", "fi", "es"]),
})
_MALFORMED = hs.sampled_from([
    b"", b"   ", b"{not json", b"\xff\xfe{}", b"[1, 2]",
    b'{"id":"m","ts":1,"kind":"boost","text":"x"}',
    b'{"id":"m","ts":1,"kind":"quote","text":"x"}',
    b'{"id":"m","ts":1e20,"kind":"tweet","text":"x"}',
])
_LINE = hs.one_of(_RECORD.map(lambda r: json.dumps(r).encode()), _MALFORMED)


@settings(max_examples=50, deadline=None)
@given(lines=hs.lists(_LINE, max_size=10), trailing_newline=hs.booleans())
def test_sharded_ingest_any_k_matches_single_pass(lines, trailing_newline):
    # K past the line count leaves some shards empty
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "stream.ndjson"
        src.write_bytes(b"\n".join(lines) + (b"\n" if trailing_newline else b""))
        outputs = set()
        for k in range(1, len(lines) + 3):
            out = pathlib.Path(tmp) / ("k%d.csv" % k)
            assert run("ingest", "--in", str(src), "--lid", "external",
                       "--shards", str(k), "--out", str(out)) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1


def test_bare_cr_between_tokens_is_json_whitespace(tmp_path):
    # only LF ends an NDJSON line; a CR inside a record is whitespace
    stream = tmp_path / "cr.ndjson"
    stream.write_bytes(
        b'{"id":"a",\r"ts":1559347200,"kind":"tweet","text":"x","lang":"en"}\n'
        b'{"id":"b","ts":1559347200,"kind":"tweet","text":"y","lang":"en"}\n'
    )
    assert run_read(tmp_path, "ingest", "--in", str(stream), "--lid", "external") == (
        "date,language,f_ot,f_rt\n2019-06-01,en,2,0\n"
    )
    doc = json.loads(run_read(tmp_path, "compare", "--in", str(stream)))
    assert doc["n_pairs"] == 2
    assert not any(doc["parse_errors"].values())


_WS = hs.text(alphabet=" \t\r", max_size=2)


def _spaced(args):
    """(plain line, the same record with random whitespace between its tokens)."""
    record, lead, before_comma, after_comma, before_colon, after_colon, trail = args
    separators = (before_comma + "," + after_comma, before_colon + ":" + after_colon)
    spaced = lead + json.dumps(record, separators=separators) + trail
    return json.dumps(record).encode(), spaced.encode()


_SPACED_LINE = hs.one_of(
    hs.tuples(_RECORD, *[_WS] * 6).map(_spaced),
    _MALFORMED.map(lambda line: (line, line)),
)


@settings(max_examples=30, deadline=None)
@given(pairs=hs.lists(_SPACED_LINE, max_size=8))
def test_cr_whitespace_in_records_changes_no_count(pairs):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        plain, spaced = tmp / "plain.ndjson", tmp / "spaced.ndjson"
        plain.write_bytes(b"".join(p + b"\n" for p, _ in pairs))
        spaced.write_bytes(b"".join(s + b"\n" for _, s in pairs))
        reports = [run_read(tmp, "compare", "--in", str(src)) for src in (plain, spaced)]
        assert reports[0] == reports[1]  # pairs, labels and parse_errors
        expected = run_read(tmp, "ingest", "--in", str(plain), "--lid", "external")
        for k in range(1, len(pairs) + 3):
            assert run_read(tmp, "ingest", "--in", str(spaced), "--lid", "external",
                            "--shards", str(k)) == expected


def test_shards_above_line_count_tally_one_line_each(tmp_path, monkeypatch):
    calls = []
    ingest_tally = cli.tally.ingest_tally

    def counting(lines, labeler, **kwargs):
        calls.append(len(lines))
        return ingest_tally(lines, labeler, **kwargs)

    single = tmp_path / "single.csv"
    assert run("ingest", "--in", MINI, "--out", str(single)) == 0
    monkeypatch.setattr(cli.tally, "ingest_tally", counting)
    sharded = tmp_path / "sharded.csv"
    assert run("ingest", "--in", MINI, "--shards", "1000", "--out", str(sharded)) == 0
    with open(MINI, "rb") as fh:
        assert len(calls) <= len(fh.read().splitlines()) == 28
    assert sharded.read_bytes() == single.read_bytes()


def test_ingest_out_of_range_ts_counted_not_fatal(tmp_path):
    good = [
        json.dumps({"id": "1", "ts": 1559347200, "kind": "tweet", "text": "x", "lang": "en"}),
        json.dumps({"id": "2", "ts": 1559433600, "kind": "retweet", "text": "y", "lang": "fi"}),
    ]
    bad = [
        '{"id":"3","ts":1e20,"kind":"tweet","text":"x","lang":"en"}',
        '{"id":"4","ts":-99999999999999,"kind":"tweet","text":"x","lang":"en"}',
    ]
    clean = tmp_path / "clean.ndjson"
    mixed = tmp_path / "mixed.ndjson"
    clean.write_text("\n".join(good) + "\n")
    mixed.write_text("\n".join([bad[0], good[0], bad[1], good[1]]) + "\n")
    expected = run_read(tmp_path, "ingest", "--in", str(clean), "--lid", "external")
    assert expected.count("\n") == 3  # header + both good records
    assert run_read(tmp_path, "ingest", "--in", str(mixed), "--lid", "external") == expected


def test_undecodable_json_lines_counted_not_fatal(tmp_path):
    # nesting past the decoder's recursion limit raises RecursionError and an
    # integer past the int-parsing digit limit a plain ValueError: both lines
    # are bad_json, and ingest and compare tally the good lines and exit 0
    good = [
        json.dumps({"id": "1", "ts": 1559347200, "kind": "tweet", "text": "x", "lang": "en"}),
        json.dumps({"id": "2", "ts": 1559433600, "kind": "retweet", "text": "y", "lang": "fi"}),
    ]
    deep = "[" * 100_000 + "]" * 100_000
    long_int = '{"id":"3","ts":%s,"kind":"tweet","text":"x"}' % ("9" * 5000)
    clean = tmp_path / "clean.ndjson"
    mixed = tmp_path / "mixed.ndjson"
    clean.write_text("\n".join(good) + "\n")
    mixed.write_text("\n".join([deep, good[0], long_int, good[1]]) + "\n")
    expected = run_read(tmp_path, "ingest", "--in", str(clean), "--lid", "external")
    assert expected.count("\n") == 3  # header + both good records
    assert run_read(tmp_path, "ingest", "--in", str(mixed), "--lid", "external") == expected
    doc = json.loads(run_read(tmp_path, "compare", "--in", str(mixed)))
    assert doc["n_pairs"] == 2
    assert doc["parse_errors"] == dict.fromkeys(doc["parse_errors"], 0) | {"bad_json": 2}


def test_wire_confidence_outside_unit_interval_is_und(tmp_path):
    # not a finite number in [0, 1] (NaN, 7, an integer too big for a float,
    # Infinity, -0.5, a string, true): the part is und, never a confident label
    def line(i, conf):
        return json.dumps({"id": str(i), "ts": 1559347200, "kind": "tweet",
                           "text": "bonjour tout le monde", "lang": "fr"})[:-1] + ', "lang_conf": %s}' % conf
    bad = ["NaN", "7", "1" + "0" * 400, "Infinity", "-0.5", '"0.9"', "true"]
    confident = ["0.9", "1", "0.25"]
    src = tmp_path / "conf.ndjson"
    src.write_text("\n".join(line(i, c) for i, c in enumerate(bad + confident)) + "\n")
    assert run_read(tmp_path, "ingest", "--in", str(src), "--lid", "external") == (
        "date,language,f_ot,f_rt\n2019-06-01,fr,3,0\n2019-06-01,und,7,0\n"
    )
    doc = json.loads(run_read(tmp_path, "compare", "--in", str(src)))
    labels, counts = doc["confusion"]["labels"], doc["confusion"]["counts"]
    wire = {label: sum(row[j] for row in counts) for j, label in enumerate(labels)}
    assert {k: v for k, v in wire.items() if v} == {"fr": 3, "und": 7}
    assert not any(doc["parse_errors"].values())


def test_lid_both_prefers_external_then_builtin(tmp_path):
    src = tmp_path / "two.ndjson"
    english = "the quick brown fox jumps over the lazy dog and runs far away home"
    lines = [
        json.dumps({"id": "1", "ts": 1559347200, "kind": "tweet", "text": english,
                    "lang": "fi", "lang_confidence": 0.9}),
        json.dumps({"id": "2", "ts": 1559347201, "kind": "tweet", "text": english}),
    ]
    src.write_text("\n".join(lines) + "\n")

    def cells(*extra):
        out = run_read(tmp_path, "ingest", "--in", str(src), *extra)
        return sorted((row[1], int(row[2])) for row in csv.reader(out.splitlines()[1:]))

    assert cells() == [("en", 2)]  # builtin ignores the external label
    assert cells("--lid", "external") == [("fi", 1), ("und", 1)]
    assert cells("--lid", "both") == [("en", 1), ("fi", 1)]


def test_lid_both_classifies_only_parts_without_a_wire_label(tmp_path, monkeypatch):
    calls = []
    classify = lid.classify

    def counting(model, text):
        calls.append(text)
        return classify(model, text)

    monkeypatch.setattr(lid, "classify", counting)
    run_read(tmp_path, "ingest", "--in", MINI, "--lid", "both")
    with open(MINI, "rb") as fh:
        parts = [(rec, part) for rec in ingest.parse_ndjson(fh.read().splitlines())
                 for part in ingest.categorize(rec)]
    unlabeled = [part for rec, part in parts if lid.wire_label(rec) == lid.UND]
    assert 0 < len(unlabeled) < len(parts)
    assert len(calls) == len(unlabeled)


def test_ingest_tallies_through_the_tally_namespace(tmp_path, monkeypatch):
    # the benchmark's tracer patches these three names on contagion.tally and
    # checks each traced ingest's parse counts against its input
    seen = {"stats": [], "records": 0, "categorize": 0, "parts": 0, "accumulate": 0}
    parse, categorize, accumulate = tally.parse_ndjson, tally.categorize, tally.accumulate

    def counting_parse(lines, stats=None):
        seen["stats"].append(stats)
        for record in parse(lines, stats=stats):
            seen["records"] += 1
            yield record

    def counting_categorize(record):
        parts = categorize(record)
        seen["categorize"] += 1
        seen["parts"] += len(parts)
        return parts

    def counting_accumulate(store, record, category, label):
        seen["accumulate"] += 1
        return accumulate(store, record, category, label)

    monkeypatch.setattr(tally, "parse_ndjson", counting_parse)
    monkeypatch.setattr(tally, "categorize", counting_categorize)
    monkeypatch.setattr(tally, "accumulate", counting_accumulate)
    out = run_read(tmp_path, "ingest", "--in", MINI, "--lid", "external")
    assert out == (GOLDEN / "tally_external.csv").read_text()

    stats = ingest.ParseStats()
    with open(MINI, "rb") as fh:
        records = list(ingest.parse_ndjson(fh, stats=stats))
    n_parts = sum(len(ingest.categorize(r)) for r in records)
    assert len(seen["stats"]) == 1 and seen["stats"][0] is not None
    assert seen["stats"][0].errors == stats.errors and seen["stats"][0].parsed == len(records)
    assert seen["records"] == seen["categorize"] == len(records)
    assert seen["parts"] == seen["accumulate"] == n_parts == 26


# one wire label repeated at confidences that pass, then fail, then pass,
# and the reverse: the cached normalisation of a label must not let it
# through when its own confidence says und
WIRE_LABELS = [" EN_us ", "PT-br", "", None, "x" * 10_000, "ES_ñ", "日本語", "ZH_tw"]
WIRE_CONFS = [[0.9, 0.1, 7, None, "0.8", 0.25], [0.2, float("nan"), 0.6, 1.0, 0.24]]


def _wire_label_stream(path: pathlib.Path) -> None:
    texts = ["the house is big and the garden is green", "la casa es grande y verde"]
    lines, n = [], 0
    for label in WIRE_LABELS:
        for confs in WIRE_CONFS:
            for conf in confs:
                rec = {"id": "m%d" % n, "ts": 1546300800 + 86400 * (n % 3),
                       "kind": ("tweet", "quote", "retweet")[n % 3], "text": texts[n % 2]}
                if rec["kind"] == "quote":
                    rec["quoted_text"] = texts[(n + 1) % 2]
                if label is not None:
                    rec["lang"] = label
                if conf is not None:
                    rec["lang_conf"] = conf
                lines.append(json.dumps(rec, ensure_ascii=False))
                n += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("source", ["external", "both"])
def test_labeler_matches_wire_label_per_part(tmp_path, source):
    stream = tmp_path / "labels.ndjson"
    _wire_label_stream(stream)
    out = run_read(tmp_path, "ingest", "--in", str(stream), "--lid", source)

    model = lid.default_model()
    expected = tally.TallyStore()
    with open(stream, "rb") as fh:
        records = list(ingest.parse_ndjson(fh))
    for record in records:
        for category, text in ingest.categorize(record):
            label = lid.wire_label(record)
            if source == "both" and label == lid.UND:
                label = lid.classify(model, sanitize(text)).language
            tally.accumulate(expected, record, category, label)
    buf = io.StringIO()
    tally.save_csv(expected, buf)
    assert out == buf.getvalue()
    if source == "external":
        labels = {row.split(",")[1] for row in out.splitlines()[1:]}
        assert labels == {"en-us", "pt-br", "zh-tw", "und"}


# (line prefix, replacement or None to drop the line) for a model file
# written by dumps_model for languages aa and bb
BAD_MODEL_EDITS = {
    "missing_unseen": ("unseen\taa\t", None),
    "nan_prior": ("prior\taa\t", "prior\taa\tnan"),
    "inf_unseen": ("unseen\tbb\t", "unseen\tbb\tinf"),
    "inf_gram": ("gram\taa\tab\t", "gram\taa\tab\t-inf"),
    "n_range_reversed": ("n_range\t", "n_range\t3\t1"),
    "n_range_zero": ("n_range\t", "n_range\t0\t3"),
    "gram_without_prior": ("gram\tbb\t", "gram\tcc\tzz\t-1.5"),
    "nan_smoothing": ("smoothing\t", "smoothing\tnan"),
    "negative_smoothing": ("smoothing\t", "smoothing\t-3"),
    "zero_smoothing": ("smoothing\t", "smoothing\t0"),
    "vocab_size_negative": ("vocab_size\t", "vocab_size\t-7"),
    "vocab_size_too_large": ("vocab_size\t", "vocab_size\t9999"),
}


@pytest.mark.parametrize("edit", sorted(BAD_MODEL_EDITS))
def test_inconsistent_model_file_exits_1(tmp_path, capsys, edit):
    prefix, replacement = BAD_MODEL_EDITS[edit]
    lines = lid.dumps_model(lid.train([("aa", "abab abba"), ("bb", "cdcd dccd")])).splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    lines[i : i + 1] = [] if replacement is None else [replacement]
    model = tmp_path / "model.tsv"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("ingest", "--in", MINI, "--lid", "builtin", "--model", str(model),
               "--out", str(tmp_path / "tally.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model" in err and "Traceback" not in err


# -- metric variants ----------------------------------------------------------


def test_metric_glm_input_rows(tmp_path):
    out = run_read(tmp_path, "metric", "--in", ANNUAL, "--metric", "glm-input")
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == list(cli.GLM_INPUT_HEADER)
    assert [r[:2] for r in rows[1:]] == [["2019", "fi"], ["2019", "th"]]
    fi, th = rows[1], rows[2]
    assert float(fi[2]) == pytest.approx(math.log10(126 * 365), abs=1e-12)
    assert float(fi[3]) == 0.26
    assert float(th[2]) == pytest.approx(math.log10(829 * 365), abs=1e-12)
    assert float(th[3]) == 7.29


def test_metric_glm_input_json(tmp_path):
    out = run_read(tmp_path, "metric", "--in", ANNUAL, "--metric", "glm-input",
                   "--format", "json")
    doc = json.loads(out)
    assert [d["language"] for d in doc] == ["fi", "th"]
    assert doc[1]["ratio"] == 7.29


def test_metric_rolling_window_json(tmp_path):
    tally_csv = tmp_path / "tally.csv"
    assert run("ingest", "--in", MINI, "--out", str(tally_csv)) == 0
    out = run_read(
        tmp_path, "metric", "--in", str(tally_csv), "--resolution", "day",
        "--window", "2", "--language", "en", "--format", "json",
    )
    doc = json.loads(out)
    assert [d["bucket_start"] for d in doc] == [
        "2019-06-01", "2019-06-02", "2019-06-03"
    ]
    assert all(d["metric"] == "ratio" and d["language"] == "en" for d in doc)
    # en days: (2,1) (4,2) (2,1) -> daily ratios 0.5, 0.5, 0.5
    assert [d["value"] for d in doc] == [0.5, 0.5, 0.5]


@pytest.mark.parametrize("days", [("0001-01-01", "0001-01-02"), ("9999-12-30", "9999-12-31")])
def test_metric_rolling_window_at_calendar_edges(tmp_path, days):
    tally_csv = tmp_path / "tally.csv"
    tally_csv.write_text("date,language,f_ot,f_rt\n%s,en,2,1\n%s,en,1,1\n" % days)
    out = run_read(
        tmp_path, "metric", "--in", str(tally_csv), "--resolution", "day", "--window", "3"
    )
    assert out == (
        "bucket_start,language,metric,value\n%s,en,ratio,0.5\n%s,en,ratio,0.75\n" % days
    )


# -- the table writer: one policy for csv and json --------------------------------


def _csv_and_json(tmp_path, *argv):
    text = run_read(tmp_path, *argv, "--format", "csv")
    doc = json.loads(run_read(tmp_path, *argv, "--format", "json"))
    return list(csv.reader(text.splitlines())), doc


@pytest.mark.parametrize("resolution", ["day", "week"])
def test_metric_undefined_value_is_empty_csv_field_and_json_null(tmp_path, resolution):
    # 2019-01-02 has no organic message (ratio undefined); the weeks of
    # 2019-01-07 and 2019-01-14 hold no day at all
    tally_csv = tmp_path / "tally.csv"
    tally_csv.write_text(
        "date,language,f_ot,f_rt\n"
        "2019-01-01,en,2,1\n2019-01-02,en,0,3\n2019-01-21,en,4,4\n"
    )
    rows, doc = _csv_and_json(
        tmp_path, "metric", "--in", str(tally_csv), "--resolution", resolution
    )
    assert rows[0] == list(cli.SERIES_HEADER)
    assert all(set(d) == set(cli.SERIES_HEADER) for d in doc)
    assert [[d[k] for k in cli.SERIES_HEADER] for d in doc] == [
        row[:3] + [None if row[3] == "" else float(row[3])] for row in rows[1:]
    ]
    assert all(row[3] == "" or row[3] == repr(float(row[3])) for row in rows[1:])
    values = {row[0]: row[3] for row in rows[1:]}
    if resolution == "day":
        assert len(values) == 21
        assert (values["2019-01-01"], values["2019-01-02"], values["2019-01-21"]) == (
            "0.5", "", "1.0"
        )
    else:
        assert values == {
            "2018-12-31": "0.5", "2019-01-07": "", "2019-01-14": "", "2019-01-21": "1.0"
        }


@pytest.mark.parametrize("method", ["mean_of_daily", "ratio_of_sums"])
def test_glm_input_csv_fields_are_float_reprs(tmp_path, method):
    rows, doc = _csv_and_json(
        tmp_path, "metric", "--in", ANNUAL, "--metric", "glm-input", "--method", method
    )
    with open(ANNUAL, encoding="utf-8", newline="") as fh:
        expected = metrics.annual_glm_table(tally.load_csv(fh), method=method)
    assert rows[0] == list(cli.GLM_INPUT_HEADER)
    assert rows[1:] == [[str(y), lang, repr(x), repr(r)] for y, lang, x, r in expected]
    assert [tuple(d[k] for k in cli.GLM_INPUT_HEADER) for d in doc] == list(expected)


def test_draws_out_values_are_float_reprs_of_the_state_draws(tmp_path):
    short = tmp_path / "glm.csv"
    with open(GLM_INPUT, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if line.startswith("year") or int(line.split(",")[0]) <= 2011]
    short.write_text("\n".join(lines) + "\n")
    draws_out = tmp_path / "draws.csv"
    settings_argv = ["--seed", "3", "--chains", "2", "--warmup", "200", "--draws", "500"]
    run_read(tmp_path, "forecast", "--in", str(short), "--language", "en",
             *settings_argv, "--draws-out", str(draws_out))
    rows = cli._read_glm_rows(str(short))
    config = SamplerConfig(seed=3, chains=2, warmup=200, draws=500)
    bundle = forecast.forecast_pipeline([r for r in rows if r[1] == "en"], config).bundle
    expected = [list(forecast.PARAM_NAMES)] + [
        [repr(float(bundle.state_draws[k][i])) for k in forecast.PARAM_NAMES]
        for i in range(bundle.n_draws)
    ]
    assert list(csv.reader(draws_out.read_text().splitlines())) == expected


# -- forecast -------------------------------------------------------------------


def test_forecast_command_summary_and_draws(tmp_path):
    short = tmp_path / "glm.csv"
    with open(GLM_INPUT, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if line.startswith("year") or int(line.split(",")[0]) <= 2012]
    short.write_text("\n".join(lines) + "\n")
    draws_out = tmp_path / "draws.csv"
    out = run_read(
        tmp_path, "forecast", "--in", str(short), "--language", "en",
        "--seed", "7", "--chains", "2", "--warmup", "1000", "--draws", "500",
        "--draws-out", str(draws_out),
    )
    doc = json.loads(out)
    assert set(doc) == {"forecast", "per_year", "pseudo_observations",
                        "sampler", "seed", "walk"}
    assert [e["year"] for e in doc["per_year"]] == [2009, 2010, 2011, 2012]
    assert doc["forecast"]["year"] == 2013
    rows = list(csv.reader(draws_out.read_text().splitlines()))
    assert rows[0] == list(forecast.PARAM_NAMES)
    assert len(rows) - 1 == doc["forecast"]["n_draws"]
    for row in rows[1:3]:
        assert all(isinstance(float(v), float) for v in row)


def test_forecast_too_few_draws_fails_before_sampling(tmp_path, capsys):
    # 1 chain x 10 draws is rejected by the config, before 100k warmup steps
    t0 = time.perf_counter()
    assert run("forecast", "--in", GLM_INPUT, "--chains", "1", "--warmup", "100000",
               "--draws", "10", "--out", str(tmp_path / "f.json")) == 1
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == "error: need at least 1000 post-warmup draws\n"


_LOADED = """import sys
from contagion import cli


def loaded():
    return sorted(m for m in sys.modules
                  if m.partition(".")[0] in ("numpy", "scipy")
                  or m in ("contagion.forecast", "contagion.compare"))
"""


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _fresh_python(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_does_not_load_scipy(tmp_path):
    # numpy, scipy and the forecast and compare layers load in the commands
    # that compute with them: not at start-up, nor in ingest --lid external
    # or either metric path (the GLM table and a bucketed series), nor in
    # training the default classifier (its dense matrix waits for classify)
    script = _LOADED + """
print(loaded())
assert cli.main(["ingest", "--lid", "external", "--in", sys.argv[1], "--out", sys.argv[3]]) == 0
assert cli.main(["metric", "--metric", "glm-input", "--in", sys.argv[2], "--out", sys.argv[4]]) == 0
assert cli.main(["metric", "--metric", "ratio", "--resolution", "month",
                 "--in", sys.argv[2], "--out", sys.argv[5]]) == 0
print(loaded())
from contagion import lid
lid.default_model()
print(loaded())
import contagion
print(contagion.compare.__name__)  # submodules still load on attribute access
"""
    out = _fresh_python(script, MINI, ANNUAL, str(tmp_path / "t.csv"), str(tmp_path / "g.csv"),
                        str(tmp_path / "m.csv"))
    assert out == "[]\n[]\n[]\ncontagion.compare\n"
    assert (tmp_path / "m.csv").read_text().count(",ratio,") == 2 * 12
    assert (tmp_path / "t.csv").read_bytes() == (GOLDEN / "tally_external.csv").read_bytes()


def test_forecast_and_compare_load_their_layer_in_a_fresh_process(tmp_path):
    script = _LOADED + """
assert cli.main(sys.argv[1:]) == 0
print([m for m in loaded() if m.startswith("contagion.")])
"""
    agreement = tmp_path / "agreement.json"
    out = _fresh_python(script, "compare", "--in", MINI, "--out", str(agreement))
    assert out == "['contagion.compare']\n"
    assert agreement.read_bytes() == (GOLDEN / "agreement.json").read_bytes()

    argv = ["forecast", "--in", GLM_INPUT, "--language", "en", "--seed", "7",
            "--chains", "1", "--warmup", "0", "--draws", "1000"]
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    out = _fresh_python(script, *argv, "--out", str(fresh))
    assert out == "['contagion.forecast']\n"
    assert run(*argv, "--out", str(here)) == 0
    assert fresh.read_bytes() == here.read_bytes()


def _far_volume_input(tmp_path):
    """The fixture's 2009 and 2011 around a 2010 of 30 points at log10_n near 400."""
    with open(GLM_INPUT, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    lines = [line for line in lines if line.split(",")[0] in ("2009", "2011")]
    lines += ["2010,en,%r,%r" % (400.0 - 0.01 * i, 0.2 + 0.01 * i) for i in range(30)]
    path = tmp_path / "far.csv"
    path.write_text("\n".join([header] + lines) + "\n")
    return path


def test_forecast_year_at_the_log10_n_bound_gets_its_exact_posterior(tmp_path, capsys):
    # log10_n near 400 is a value the reader accepts.  The stage-1 sampler
    # exited 0 on this input with 2010's chains far from its posterior (mu
    # 2.56, beta0 2.41 and alpha 3.64, each over 2.5 posterior sds off); the
    # grid gives the exact posterior: mu stays near its prior, because a
    # scale of hundreds explains points 395 above it, and b is the ratios'
    # spread
    out = tmp_path / "f.json"
    assert run("forecast", "--in", str(_far_volume_input(tmp_path)), "--seed", "7",
               "--chains", "2", "--warmup", "1000", "--draws", "500", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    far = json.loads(out.read_text())["per_year"][1]
    assert far["year"] == 2010 and far["n_points"] == 30
    assert far["self_check"] <= forecast.SELF_CHECK_BOUND
    rows = [r for r in cli._read_glm_rows(str(_far_volume_input(tmp_path))) if r[0] == 2010]
    obs = forecast.observations_from_rows(rows)[0]
    finer = forecast._fit_year(obs, nodes=80)
    for k in forecast.PARAM_NAMES:
        assert abs(far["posterior_mean"][k] - finer.mean[k]) <= 0.01 * finer.sd[k], k
    mean, sd = far["posterior_mean"], far["posterior_sd"]
    assert abs(mean["mu"] - 5.0) < 0.5 and sd["mu"] == pytest.approx(1.0, abs=0.05)
    assert mean["tau"] < 1e-4 and 0.05 < mean["b"] < 0.15


def test_forecast_year_failing_the_grid_self_check_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(forecast, "SELF_CHECK_BOUND", 0.0)
    out = tmp_path / "f.json"
    assert run("forecast", "--in", str(_far_volume_input(tmp_path)), "--chains", "1",
               "--draws", "1000", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: year 2009: grid self-check: ") and err.count("\n") == 1
    assert not out.exists()


def test_forecast_unknown_language_fails(tmp_path, capsys):
    assert run("forecast", "--in", GLM_INPUT, "--language", "xx",
               "--out", str(tmp_path / "f.json")) == 1
    assert "no rows" in capsys.readouterr().err


def _fixture_with_ratios_of(tmp_path, years, ratio):
    """The fixture's 2009-2013, with every ratio of the given years set to ratio."""
    with open(GLM_INPUT, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    kept = []
    for line in lines:
        year, lang, log10_n, _ = line.split(",")
        if int(year) <= 2013:
            kept.append(",".join((year, lang, log10_n, ratio)) if int(year) in years else line)
    path = tmp_path / "ratios.csv"
    path.write_text("\n".join([header] + kept) + "\n")
    return path


def test_forecast_year_inside_the_span_without_usable_points_exits_1(tmp_path, capsys):
    # every 2011 ratio is >= 1: the year is named, not reported as a gap
    out = tmp_path / "f.json"
    for ratio in ("1.0", "1.5"):
        path = _fixture_with_ratios_of(tmp_path, {2011}, ratio)
        assert run("forecast", "--in", str(path), "--chains", "1", "--warmup", "100",
                   "--draws", "1000", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: year 2011: no points with ratio in (0, 1)\n"
        assert not out.exists()


def test_forecast_drops_leading_and_trailing_years_without_usable_points(tmp_path):
    out = tmp_path / "f.json"
    path = _fixture_with_ratios_of(tmp_path, {2009, 2013}, "2.0")
    assert run("forecast", "--in", str(path), "--chains", "1", "--warmup", "100",
               "--draws", "1000", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert [e["year"] for e in doc["per_year"]] == [2010, 2011, 2012]
    assert doc["forecast"]["year"] == 2013


# -- classifier commands --------------------------------------------------------


def test_eval_lid_bundled_model(capsys):
    out = run_stdout(capsys, "eval-lid", "--in", HELDOUT_TSV)
    doc = json.loads(out)
    assert doc["accuracy"] >= 0.95
    assert set(doc["bucket_counts"]) == {"und", "low", "mid", "high"}
    assert sum(doc["bucket_counts"].values()) == doc["total"]


def test_eval_lid_and_train_lid_read_labels_by_one_rule(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    english = "the house is big and the garden is green"
    corpus.write_text("EN\t%s\nen\t%s\n" % (english, english), encoding="utf-8")
    report = json.loads(run_stdout(capsys, "eval-lid", "--in", str(corpus)))
    assert report["per_language"] == {"en": {"n": 2, "correct": 2, "accuracy": 1.0}}

    corpus.write_text("en\t%s\nen!\t%s\n" % (english, english), encoding="utf-8")
    errors = []
    for command in ("eval-lid", "train-lid"):
        out = tmp_path / command
        assert run(command, "--in", str(corpus), "--out", str(out)) == 1
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors == ["error: invalid corpus language code: 'en!'\n"] * 2


def test_train_lid_custom_ngram_range(tmp_path):
    out = tmp_path / "model.tsv"
    assert run("train-lid", "--in", TRAIN_TSV, "--n-min", "2", "--n-max", "2",
               "--out", str(out)) == 0
    model = lid.load_model(str(out))
    assert (model.n_lo, model.n_hi) == (2, 2)
    assert len(model.languages) >= 10


def test_sanitize_command(capsys):
    out = run_stdout(
        capsys, "sanitize", "--text",
        "RT @alice: Check https://t.co/xyz #breaking \U0001F600",
    )
    doc = json.loads(out)
    assert doc["text"] == "Check"
    assert doc["removed_counts"]["rt_prefix"] == 1
    assert doc["removed_counts"]["link"] == 1
    assert doc["removed_counts"]["hashtag"] == 1
    assert doc["removed_counts"]["emoji"] == 1
    assert doc["chars_out"] == 5


# -- exit codes -------------------------------------------------------------------


def test_exit_code_missing_input_file(capsys):
    assert run("ingest", "--in", "/nonexistent/messages.ndjson",
               "--out", "/tmp/never.csv") == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_bad_choice(capsys):
    assert run("metric", "--in", ANNUAL, "--metric", "nope",
               "--out", "/tmp/never.csv") == 1
    capsys.readouterr()


def test_exit_code_window_without_day_resolution(capsys):
    assert run("metric", "--in", ANNUAL, "--window", "7",
               "--out", "/tmp/never.csv") == 1
    assert "resolution" in capsys.readouterr().err
    # flags are checked before the input is read
    missing = "/nonexistent/tally.csv"
    for argv, message in [
        (("--in", ANNUAL, "--window", "0", "--resolution", "day"), "--window must be >= 1"),
        (("--in", missing, "--window", "7", "--resolution", "month"),
         "--window requires --resolution day"),
    ]:
        assert run("metric", *argv, "--out", "/tmp/never.csv") == 1
        assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize(
    "flags", [("--language", "en"), ("--window", "3"), ("--resolution", "day"),
              ("--resolution", "day", "--window", "3"), ("--resolution", "quarter")],
    ids=" ".join,
)
def test_glm_input_rejects_flags_it_does_not_read(tmp_path, capsys, flags):
    out = tmp_path / "glm.csv"
    assert run("metric", "--metric", "glm-input", "--in", ANNUAL, *flags, "--out", str(out)) == 1
    flag = "--window" if "--window" in flags else flags[0]
    assert capsys.readouterr().err == "error: %s does not apply to --metric glm-input\n" % flag
    assert not out.exists()
    # --resolution year is the table's own resolution
    plain = run_read(tmp_path, "metric", "--metric", "glm-input", "--in", ANNUAL)
    assert run_read(tmp_path, "metric", "--metric", "glm-input", "--in", ANNUAL,
                    "--resolution", "year") == plain


@pytest.mark.parametrize("failing", ["--out", "--draws-out"])
def test_forecast_failing_either_output_leaves_neither(tmp_path, capsys, failing):
    paths = {"--out": tmp_path / "forecast.json", "--draws-out": tmp_path / "draws.csv"}
    paths[failing] = tmp_path / "missing" / paths[failing].name
    assert run("forecast", "--in", GLM_INPUT, "--language", "en", "--seed", "7",
               "--chains", "1", "--warmup", "0", "--draws", "1000",
               "--out", str(paths["--out"]), "--draws-out", str(paths["--draws-out"])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # no output and no .contagion-* temp file


def test_exit_code_bad_shards(capsys):
    # flags are checked before the input is read
    for path in (MINI, "/nonexistent/stream.ndjson"):
        assert run("ingest", "--in", path, "--out", "/tmp/never.csv",
                   "--shards", "0") == 1
        assert capsys.readouterr().err == "error: --shards must be >= 1\n"


@pytest.mark.parametrize("count", ["1" + "0" * 320, str(2**53 + 1)])
def test_metric_count_above_2_53_exits_1(tmp_path, capsys, count):
    src = tmp_path / "tally.csv"
    src.write_text("date,language,f_ot,f_rt\n2019-01-01,en,1,0\n2019-01-02,en,1,%s\n" % count)
    out = tmp_path / "ratio.csv"
    assert run("metric", "--in", str(src), "--out", str(out),
               "--metric", "ratio", "--resolution", "year") == 1
    assert capsys.readouterr().err == "error: line 3: count above 2**53\n"
    assert not out.exists()


def test_ratio_of_sums_sums_counts_past_2_53_exactly(tmp_path):
    # the organic sum 2**53 + 1 is not a float: summed as floats it rounds
    # to 2**53 and the ratio reads 1.0
    src = tmp_path / "tally.csv"
    src.write_text("date,language,f_ot,f_rt\n2019-01-01,en,%d,%d\n2019-01-02,en,1,0\n"
                   % (2**53, 2**53))
    assert repr(2**53 / (2**53 + 1)) == "0.9999999999999999"
    series = run_read(tmp_path, "metric", "--in", str(src), "--metric", "ratio",
                      "--resolution", "month", "--method", "ratio_of_sums")
    assert series == "bucket_start,language,metric,value\n2019-01-01,en,ratio,0.9999999999999999\n"
    glm = run_read(tmp_path, "metric", "--in", str(src), "--metric", "glm-input",
                   "--method", "ratio_of_sums")
    assert glm == "year,language,log10_n,ratio\n2019,en,%r,0.9999999999999999\n" % (
        math.log10(2**54 + 1))


@pytest.mark.parametrize("day", ["20190102", "2019-W01-3", "2019W013"])
def test_metric_non_canonical_date_exits_1(tmp_path, capsys, day):
    # save_csv writes date.isoformat() only; other forms date.fromisoformat
    # may accept (2019-W01-1 would load as 2018-12-31) are rejected
    src = tmp_path / "tally.csv"
    src.write_text("date,language,f_ot,f_rt\n2019-01-01,en,1,0\n%s,en,1,2\n" % day)
    out = tmp_path / "ratio.csv"
    assert run("metric", "--in", str(src), "--out", str(out),
               "--metric", "ratio", "--resolution", "day") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["1_000", " 1", "1 ", "+4", "\u0663", "01", "-0"])
def test_metric_count_not_written_as_save_csv_writes_exits_1(tmp_path, capsys, count):
    # save_csv writes str(n); int() would also read each of these
    src = tmp_path / "tally.csv"
    src.write_text("date,language,f_ot,f_rt\n2019-01-01,en,1,0\n2019-01-02,en,%s,2\n" % count,
                   encoding="utf-8")
    out = tmp_path / "ratio.csv"
    assert run("metric", "--in", str(src), "--out", str(out),
               "--metric", "ratio", "--resolution", "day") == 1
    err = capsys.readouterr().err
    assert err == "error: line 3: count %r is not in the form save_csv writes\n" % count
    assert not out.exists()


def test_exit_code_bad_glm_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("year,lang,n,ratio\n2019,en,5.0,0.5\n")
    assert run("forecast", "--in", str(bad), "--out", str(tmp_path / "f.json")) == 1
    assert "header" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields", ["nan,0.5", "inf,0.5", "-inf,0.5", "5.0,nan", "5.0,inf", "5.0,-inf"]
)
def test_exit_code_non_finite_glm_field(tmp_path, capsys, fields):
    bad = tmp_path / "bad.csv"
    bad.write_text("year,language,log10_n,ratio\n2019,en,5.0,0.5\n2020,en,%s\n" % fields)
    assert run("forecast", "--in", str(bad), "--out", str(tmp_path / "f.json")) == 1
    assert "line 3: non-finite" in capsys.readouterr().err


def test_glm_reader_errors_name_the_physical_line_after_a_multiline_field(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text('year,language,log10_n,ratio\n2019,"a\nb",5.0,0.5\n2020,en,x,0.5\n')
    assert run("forecast", "--in", str(bad), "--out", str(tmp_path / "f.json")) == 1
    assert capsys.readouterr().err == "error: line 4: bad numeric field\n"


# csv.reader refuses a field past its limit (131072 characters) with csv.Error
_HUGE_FIELD = "x" * 200_000


def test_metric_field_past_the_csv_limit_exits_1_with_one_line(tmp_path, capsys):
    src = tmp_path / "tally.csv"
    src.write_text("date,language,f_ot,f_rt\n2019-01-01,en,1,0\n2019-01-02,%s,1,0\n"
                   % _HUGE_FIELD)
    out = tmp_path / "ratio.csv"
    assert run("metric", "--in", str(src), "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: line 3: field larger than field limit (131072)\n"
    assert not out.exists()


def test_forecast_field_past_the_csv_limit_exits_1_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("year,language,log10_n,ratio\n2019,en,5.0,0.5\n2020,%s,5.0,0.5\n"
                   % _HUGE_FIELD)
    out = tmp_path / "f.json"
    assert run("forecast", "--in", str(bad), "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: line 3: field larger than field limit (131072)\n"
    assert not out.exists()


def test_forecast_rejects_draws_out_naming_the_out_file(tmp_path, capsys):
    # checked before the input is read: the input here does not exist
    out = tmp_path / "f.json"
    for draws_out in (out, tmp_path / "sub" / ".." / "f.json"):
        assert run("forecast", "--in", "/nonexistent/glm.csv", "--out", str(out),
                   "--draws-out", str(draws_out)) == 1
        assert capsys.readouterr().err == "error: --draws-out and --out name the same file\n"
    assert not out.exists()


def test_metric_unknown_language_fails(tmp_path, capsys):
    out = tmp_path / "zz.csv"
    for extra in ((), ("--resolution", "day", "--window", "3")):
        assert run("metric", "--in", ANNUAL, "--language", "zz", "--out", str(out), *extra) == 1
        assert capsys.readouterr().err == "error: no rows for language 'zz'\n"
    assert not out.exists()


@pytest.mark.parametrize("log10_n", ["1e160", "1e200", "-400.5", "401"])
def test_forecast_rejects_log10_n_no_count_can_have(tmp_path, log10_n):
    # squared in the likelihood, 1e160 overflowed: a RuntimeWarning on
    # stderr ahead of the error line.  The reader now names the line instead
    bad = tmp_path / "bad.csv"
    rows = ["%d,en,%s,0.5" % (year, 5.0 + 0.01 * i) for year in (2017, 2018, 2019)
            for i in range(20)]
    rows[25] = "2018,en,%s,0.5" % log10_n
    bad.write_text("year,language,log10_n,ratio\n" + "\n".join(rows) + "\n")
    out = tmp_path / "f.json"
    proc = subprocess.run(
        [sys.executable, "-m", "contagion.cli", "forecast", "--in", str(bad),
         "--out", str(out), "--chains", "1", "--warmup", "0", "--draws", "1000"],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: line 27: log10_n %r outside [-400, 400]\n" % float(log10_n)
    assert not out.exists()


def test_glm_reader_keeps_log10_n_on_the_bound(tmp_path):
    path = tmp_path / "edge.csv"
    path.write_text("year,language,log10_n,ratio\n2019,en,400.0,0.5\n2019,th,-400,0.5\n")
    assert cli._read_glm_rows(str(path)) == [(2019, "en", 400.0, 0.5), (2019, "th", -400.0, 0.5)]


def test_exit_code_unknown_subcommand(capsys):
    assert run("explode") == 1
    capsys.readouterr()


def test_exit_code_no_arguments(capsys):
    assert run() == 1
    capsys.readouterr()


# -- fixture provenance -----------------------------------------------------------


def test_cli_surface_matches_golden():
    # every subcommand's flags, dests, defaults, choices and raw help; a new
    # or changed flag fails here until the golden is regenerated on purpose
    golden = json.loads(CLI_SURFACE_GOLDEN.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(cli_surface())) == golden


def test_glm_fixture_matches_generator():
    # the checked-in forecast input is regenerable from the documented
    # synthetic trend; guards accidental edits to either side
    rows = trend_rows(points_per_year=150)
    lines = ["year,language,log10_n,ratio"]
    lines += ["%d,en,%s,%s" % (y, repr(x), repr(r)) for y, _, x, r in rows]
    with open(GLM_INPUT, encoding="utf-8") as fh:
        assert fh.read() == "\n".join(lines) + "\n"
