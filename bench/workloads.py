"""Seeded inputs for the benchmark workloads, with the reference each implies.

Every workload runs the same five CLI commands (single-pass ingest,
``--shards 2`` ingest, ``metric glm-input``, monthly ``metric ratio`` and
``forecast``), so that every end-to-end metric is measured on every
workload.

Inputs come from numpy generators seeded by ``--seed`` and from the text
of the package's bundled held-out corpus; nothing is downloaded and no
data file is committed.  Each generator returns the facts its output must
reproduce (expected tally, injected parse errors, part counts), computed
here by a route of its own rather than by the code under test.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

EPOCH = dt.date(1970, 1, 1)
STREAM_START = dt.date(2019, 1, 1)
STREAM_DAYS = 365
TALLY_START = dt.date(2018, 1, 1)
GLM_FIRST_YEAR = 2009
UND = "und"
UND_THRESHOLD = 0.25
ERROR_KEYS = (
    "empty_line",
    "bad_encoding",
    "bad_json",
    "bad_record",
    "unknown_kind",
    "missing_quoted_text",
)
KIND_MIX = (("tweet", 0.45), ("reply", 0.15), ("retweet", 0.30), ("quote", 0.10))
EMOJI = ("\U0001F600", "\U0001F44D", "❤️", "\U0001F1EA\U0001F1F8", "➡", "\U0001F468‍\U0001F4BB")
ENTITIES = ("&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&nbsp;")

# forecast sampler: the fewest draws the library accepts (chains x draws >= 1000)
CHAINS, DRAWS = 4, 250

# distinct rng streams per input kind, so one size change leaves the others alone
_STREAM_TAG, _TALLY_TAG, _GLM_TAG = 11, 23, 37


@dataclass(frozen=True)
class Sizes:
    """Input sizes for one workload (or the tiny smoke-test variant)."""

    messages: int  # NDJSON lines, malformed ones included
    lid: str  # label source for both ingest commands
    tally_langs: int
    tally_days: int
    glm_years: int
    glm_points: int
    warmup: int


# Every workload runs the tally commands on 150 Zipf-skewed languages over
# two years (the read side of tally: one full scan per language), and the
# forecast on 11 years x 150 points with 4 chains and warmup 1000, so both
# proposal refreshes run (stage 1 MCMC takes most of its time).  The two
# workloads differ in the label source of the stream they ingest.
_PAPER_SCALE = dict(
    tally_langs=150, tally_days=730, glm_years=11, glm_points=150, warmup=1000,
)

WORKLOADS: Dict[str, Sizes] = {
    # lid.classify takes most of the ingest time: a faster classifier shows
    # here; a short stream (about 0.5 s a call) gives many calls to a run
    "ingest-builtin": Sizes(messages=500, lid="builtin", **_PAPER_SCALE),
    # wire labels: parse and tally writes only, sanitize and lid never run,
    # so a lid change must not move it
    "ingest-external": Sizes(messages=20000, lid="external", **_PAPER_SCALE),
}

TINY = dict(messages=60, tally_langs=5, tally_days=400, glm_years=3, glm_points=30, warmup=100)


def sizes_for(workload: str, tiny: bool = False) -> Sizes:
    sizes = WORKLOADS[workload]
    if tiny:
        sizes = Sizes(**{**sizes.__dict__, **TINY})
    return sizes


# ---------------------------------------------------------------------------
# message stream


@dataclass
class StreamRef:
    """What an ingest of the generated stream must produce."""

    records: int
    quotes: int
    errors: Dict[str, int]
    # (day iso, label, category) -> parts, under the external-label rule
    external: Dict[Tuple[str, str, str], int]
    # (day iso, true language, category) -> parts
    truth: Dict[Tuple[str, str, str], int]

    @property
    def parts(self) -> int:
        return self.records + self.quotes


def _texts_by_language(corpus: Sequence[Tuple[str, str]]) -> Dict[str, List[str]]:
    by_lang: Dict[str, List[str]] = {}
    for lang, text in corpus:
        by_lang.setdefault(lang, []).append(text)
    return {k: by_lang[k] for k in sorted(by_lang)}


def _cut_text(rng: np.random.Generator, sentences: List[str]) -> str:
    """Sentences of one language joined and cut to 20-280 characters."""
    target = int(rng.integers(20, 281))
    pieces: List[str] = []
    total = 0
    while total < target:
        pieces.append(sentences[int(rng.integers(len(sentences)))])
        total += len(pieces[-1]) + 1
    return " ".join(pieces)[:target].strip()


def _decorate(rng: np.random.Generator, text: str) -> str:
    words = text.split(" ")
    extras = []
    u = rng.random(5)
    if u[0] < 0.3:
        extras.append("https://t.co/%s" % "".join(rng.choice(list("abcdefgh0123"), 8)))
    if u[1] < 0.3:
        extras.append("#" + (words[int(rng.integers(len(words)))] or "tag"))
    if u[2] < 0.25:
        extras.append("@user%d" % rng.integers(1000))
    if u[3] < 0.15:
        extras.append(ENTITIES[int(rng.integers(len(ENTITIES)))])
    if u[4] < 0.25:
        extras.append(EMOJI[int(rng.integers(len(EMOJI)))])
    for extra in extras:
        words.insert(int(rng.integers(len(words) + 1)), extra)
    return " ".join(words)


def _external_fields(rng: np.random.Generator, lang: str) -> Tuple[dict, str]:
    """Wire label fields for a record and the label they must resolve to."""
    u, conf = rng.random(), float(rng.random())
    if u < 0.05:
        return {}, UND  # no label at all
    if u < 0.10:
        return {"lang": lang, "lang_conf": conf * UND_THRESHOLD * 0.99}, UND
    if u < 0.15:
        return {"lang": lang.upper()}, lang  # label without confidence
    return {"lang": lang, "lang_conf": UND_THRESHOLD + conf * (1 - UND_THRESHOLD)}, lang


def _malformed(rng: np.random.Generator, key: str, i: int) -> bytes:
    good = {"id": "x%07d" % i, "ts": 1546300800 + i, "kind": "tweet", "text": "broken line"}
    if key == "empty_line":
        return b"   " if rng.random() < 0.5 else b""
    if key == "bad_encoding":
        return b'{"id": "x%07d", "text": "\xff\xfe"}' % i
    if key == "bad_json":
        line = json.dumps(good)
        return line[: int(rng.integers(1, len(line) - 1))].encode("utf-8")
    if key == "bad_record":
        bad = dict(good, ts="yesterday") if rng.random() < 0.5 else dict(good, id="")
        return json.dumps(bad).encode("utf-8")
    if key == "unknown_kind":
        return json.dumps(dict(good, kind="poll")).encode("utf-8")
    if key == "missing_quoted_text":
        return json.dumps(dict(good, kind="quote")).encode("utf-8")
    raise ValueError(key)


def make_stream(
    seed: int, n_lines: int, corpus: Sequence[Tuple[str, str]], labels: bool
) -> Tuple[bytes, StreamRef]:
    """NDJSON stream of ``n_lines`` lines, about 1% of them malformed.

    ``labels`` adds the external ``lang``/``lang_conf`` fields; every other
    byte of the stream is the same with or without them.
    """
    rng = np.random.default_rng([seed, _STREAM_TAG])
    by_lang = _texts_by_language(corpus)
    langs = list(by_lang)
    kinds, weights = zip(*KIND_MIX)

    n_bad = max(len(ERROR_KEYS), round(0.01 * n_lines))
    bad_at = set(rng.choice(n_lines, size=n_bad, replace=False).tolist())
    start_ts = (STREAM_START - EPOCH).days * 86400
    stamps = np.sort(rng.integers(start_ts, start_ts + STREAM_DAYS * 86400, size=n_lines))

    ref = StreamRef(0, 0, dict.fromkeys(ERROR_KEYS, 0), {}, {})
    out: List[bytes] = []
    n_bad_done = 0
    for i in range(n_lines):
        if i in bad_at:
            key = ERROR_KEYS[n_bad_done % len(ERROR_KEYS)]
            n_bad_done += 1
            ref.errors[key] += 1
            out.append(_malformed(rng, key, i))
            continue
        ts = int(stamps[i])
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        lang = langs[int(rng.integers(len(langs)))]
        text = _decorate(rng, _cut_text(rng, by_lang[lang]))
        rec = {"id": "m%07d" % i, "ts": ts, "kind": kind}
        parts = [(lang, "OT" if kind in ("tweet", "reply", "quote") else "RT")]
        if kind == "retweet" and rng.random() < 0.8:
            text = "RT @user%d: %s" % (rng.integers(1000), text)
        rec["text"] = text
        if kind == "quote":
            q_lang = langs[int(rng.integers(len(langs)))]
            rec["quoted_text"] = _decorate(rng, _cut_text(rng, by_lang[q_lang]))
            parts.append((q_lang, "RT"))
            ref.quotes += 1
        fields, label = _external_fields(rng, lang)
        if labels:
            rec.update(fields)
        ref.records += 1
        day = (EPOCH + dt.timedelta(days=ts // 86400)).isoformat()
        for true_lang, category in parts:
            key_ext = (day, label, category)
            key_true = (day, true_lang, category)
            ref.external[key_ext] = ref.external.get(key_ext, 0) + 1
            ref.truth[key_true] = ref.truth.get(key_true, 0) + 1
        out.append(json.dumps(rec, ensure_ascii=False).encode("utf-8"))
    return b"\n".join(out) + b"\n", ref


# ---------------------------------------------------------------------------
# tally


def _language_codes(n: int) -> List[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    codes = [a + b for a in letters for b in letters]
    codes += [a + b + c for a in letters for b in letters for c in letters]
    return codes[:n]


def make_tally(seed: int, n_langs: int, n_days: int) -> List[Tuple[dt.date, str, int, int]]:
    """Zipf-skewed daily (date, language, f_ot, f_rt) cells, empty cells omitted.

    The rank-k language averages 2000 / k^1.6 messages a day, so the tail
    has many missing days and single-message days whose only message is a
    retweet (f_ot = 0, ratio undefined).
    """
    rng = np.random.default_rng([seed, _TALLY_TAG])
    codes = _language_codes(n_langs)
    rng.shuffle(codes)
    volume = 2000.0 / np.arange(1, n_langs + 1) ** 1.6
    weekly = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(n_days) / 7.0)
    n_at = rng.poisson(volume[:, None] * weekly[None, :])
    rt_share = rng.uniform(0.1, 0.9, size=n_langs)
    f_rt = rng.binomial(n_at, rt_share[:, None])
    f_ot = n_at - f_rt
    days = [TALLY_START + dt.timedelta(days=d) for d in range(n_days)]
    cells = []
    for k, code in enumerate(codes):
        for d in np.nonzero(n_at[k])[0].tolist():
            cells.append((days[d], code, int(f_ot[k, d]), int(f_rt[k, d])))
    cells.sort()
    return cells


def tally_csv(cells: Sequence[Tuple[dt.date, str, int, int]]) -> str:
    lines = ["date,language,f_ot,f_rt"]
    lines += ["%s,%s,%d,%d" % (d.isoformat(), lang, ot, rt) for d, lang, ot, rt in cells]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# GLM input


def _skewnorm(rng: np.random.Generator, loc: float, scale: float, shape: float, size: int):
    delta = shape / math.sqrt(1.0 + shape * shape)
    u0, u1 = rng.standard_normal(size), rng.standard_normal(size)
    return loc + scale * (delta * np.abs(u0) + math.sqrt(1.0 - delta * delta) * u1)


def make_glm_rows(seed: int, years: int, points: int) -> List[Tuple[int, str, float, float]]:
    """The drifting-truth GLM input of ``fixtures/glm_input_2009_2019.csv``,
    drawn from rng([seed, tag, year]) instead of the fixture's fixed seed."""
    rows = []
    for t in range(years):
        year = GLM_FIRST_YEAR + t
        mu, tau, alpha = 4.5 + 0.05 * t, 10.0, 1.0
        beta0, beta1, b = 0.10 + 0.005 * t, 0.040 + 0.002 * t, 0.03
        rng = np.random.default_rng([seed, _GLM_TAG, year])
        x = _skewnorm(rng, mu, tau ** -0.5, alpha, points)
        r = beta0 + beta1 * x + rng.laplace(0.0, b, size=points)
        rows.extend((year, "en", float(xi), float(ri)) for xi, ri in zip(x, r))
    return rows


def glm_csv(rows: Sequence[Tuple[int, str, float, float]]) -> str:
    lines = ["year,language,log10_n,ratio"]
    lines += ["%d,%s,%r,%r" % row for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# one workload's files


@dataclass
class Inputs:
    sizes: Sizes
    stream: Path
    stream_labeled: Path  # same stream with external labels, for compare
    stream_ref: StreamRef
    tally: Path
    tally_cells: List[Tuple[dt.date, str, int, int]]
    glm: Path
    glm_rows: List[Tuple[int, str, float, float]]


def write_inputs(
    workdir: Path, seed: int, sizes: Sizes, corpus: Sequence[Tuple[str, str]],
    need_labeled: bool = False,
) -> Inputs:
    stream, ref = make_stream(seed, sizes.messages, corpus, labels=sizes.lid == "external")
    labeled_path = workdir / "stream_labeled.ndjson"
    if need_labeled:
        labeled, _ = make_stream(seed, sizes.messages, corpus, labels=True)
        labeled_path.write_bytes(labeled)
    cells = make_tally(seed, sizes.tally_langs, sizes.tally_days)
    rows = make_glm_rows(seed, sizes.glm_years, sizes.glm_points)
    paths = {name: workdir / name for name in ("stream.ndjson", "tally.csv", "glm.csv")}
    paths["stream.ndjson"].write_bytes(stream)
    paths["tally.csv"].write_text(tally_csv(cells), encoding="utf-8")
    paths["glm.csv"].write_text(glm_csv(rows), encoding="utf-8")
    return Inputs(
        sizes, paths["stream.ndjson"], labeled_path, ref,
        paths["tally.csv"], cells, paths["glm.csv"], rows,
    )


def commands(inputs: Inputs, workdir: Path, seed: int) -> List[Tuple[str, List[str], Path]]:
    """(name, CLI argv, output path) of each command the workload runs."""
    s = inputs.sizes
    out = {name: workdir / ("out_" + name) for name in
           ("ingest", "ingest_sharded", "glm_input", "series_month", "forecast")}
    ingest = ["ingest", "--in", str(inputs.stream), "--lid", s.lid]
    return [
        ("ingest", ingest + ["--out", str(out["ingest"])], out["ingest"]),
        ("ingest_sharded", ingest + ["--shards", "2", "--out", str(out["ingest_sharded"])],
         out["ingest_sharded"]),
        ("glm_input", ["metric", "--in", str(inputs.tally), "--metric", "glm-input",
                       "--out", str(out["glm_input"])], out["glm_input"]),
        ("series_month", ["metric", "--in", str(inputs.tally), "--metric", "ratio",
                          "--resolution", "month", "--out", str(out["series_month"])],
         out["series_month"]),
        ("forecast", ["forecast", "--in", str(inputs.glm), "--seed", str(seed),
                      "--chains", str(CHAINS), "--warmup", str(s.warmup),
                      "--draws", str(DRAWS), "--out", str(out["forecast"])],
         out["forecast"]),
    ]


def compare_command(inputs: Inputs, workdir: Path) -> Tuple[str, List[str], Path]:
    out = workdir / "out_compare"
    return ("compare", ["compare", "--in", str(inputs.stream_labeled), "--out", str(out)], out)
