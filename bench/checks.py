"""Output checks: each returns a list of problems, empty when the output is right.

References are rebuilt here in plain Python from the generator's own
records, by a different route from the library's (for example
``math.fsum`` of daily ratios per language-year for the GLM table), so a
change to the library cannot move the reference with it.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from workloads import UND, StreamRef

Cell = Tuple[dt.date, str, int, int]

# the classifier must put at least this share of parts under their true
# language (about 0.995 on these streams; a broken model is near 0)
MIN_BUILTIN_AGREEMENT = 0.95


def _read_csv(text: str, header: Sequence[str]) -> Tuple[List[List[str]], List[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != list(header):
        return [], ["bad header %r" % (rows[0] if rows else None)]
    return rows[1:], []


def _tally_cells(text: str) -> Tuple[Dict[Tuple[str, str, str], int], List[str]]:
    rows, problems = _read_csv(text, ("date", "language", "f_ot", "f_rt"))
    cells: Dict[Tuple[str, str, str], int] = {}
    for day, lang, ot, rt in rows:
        for category, n in (("OT", int(ot)), ("RT", int(rt))):
            if n:
                cells[(day, lang, category)] = n
    return cells, problems


def _by_day(cells: Dict[Tuple[str, str, str], int]) -> Dict[Tuple[str, str], int]:
    out: Dict[Tuple[str, str], int] = {}
    for (day, _, category), n in cells.items():
        out[(day, category)] = out.get((day, category), 0) + n
    return out


def check_ingest(text: str, ref: StreamRef, lid: str, languages: Iterable[str]) -> List[str]:
    cells, problems = _tally_cells(text)
    if problems:
        return problems
    # part count: one part per well-formed record, two for a quote (the
    # lines the library skipped, per ParseStats key, are checked on traced
    # runs, where its counters can be read)
    tallied = sum(cells.values())
    if tallied != ref.parts:
        problems.append(
            "part count: %d parts tallied, the stream has %d records + %d quotes"
            % (tallied, ref.records, ref.quotes)
        )
    if lid == "external":
        if cells != ref.external:
            diff = set(cells.items()) ^ set(ref.external.items())
            problems.append("external tally differs from reference in %d cells" % len(diff))
        return problems
    # builtin labels are the classifier's; day x category totals are not
    if _by_day(cells) != _by_day(ref.truth):
        problems.append("per-day OT/RT totals differ from the stream")
    allowed = set(languages) | {UND}
    unknown = {lang for _, lang, _ in cells} - allowed
    if unknown:
        problems.append("labels outside the model: %s" % sorted(unknown))
    agree = sum(min(n, ref.truth.get(key, 0)) for key, n in cells.items())
    if agree < MIN_BUILTIN_AGREEMENT * ref.parts:
        problems.append("only %d of %d parts under their true language" % (agree, ref.parts))
    return problems


def _year_reference(cells: Sequence[Cell]) -> List[Tuple[int, str, float, float]]:
    ratios: Dict[Tuple[int, str], List[float]] = {}
    volume: Dict[Tuple[int, str], int] = {}
    for day, lang, ot, rt in cells:
        key = (day.year, lang)
        volume[key] = volume.get(key, 0) + ot + rt
        if ot:
            ratios.setdefault(key, []).append(rt / ot)
    return sorted(
        (year, lang, math.log10(volume[(year, lang)]), math.fsum(r) / len(r))
        for (year, lang), r in ratios.items()
        if volume[(year, lang)]
    )


def check_glm_input(text: str, cells: Sequence[Cell]) -> List[str]:
    rows, problems = _read_csv(text, ("year", "language", "log10_n", "ratio"))
    if problems:
        return problems
    got = [(int(y), lang, float(x), float(r)) for y, lang, x, r in rows]
    want = _year_reference(cells)
    if got != want:
        bad = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
        problems.append("glm-input differs from the fsum reference in %d rows" % bad)
    return problems


def _month_reference(cells: Sequence[Cell]) -> List[Tuple[str, str, Optional[float]]]:
    by_lang: Dict[str, List[Cell]] = {}
    for cell in cells:
        by_lang.setdefault(cell[1], []).append(cell)
    rows = []
    for lang in sorted(by_lang):
        own = sorted(by_lang[lang])
        ratios: Dict[Tuple[int, int], List[float]] = {}
        for day, _, ot, rt in own:
            if ot:
                ratios.setdefault((day.year, day.month), []).append(rt / ot)
        year, month = own[0][0].year, own[0][0].month
        while (year, month) <= (own[-1][0].year, own[-1][0].month):
            r = ratios.get((year, month))
            value = math.fsum(r) / len(r) if r else None
            rows.append((dt.date(year, month, 1).isoformat(), lang, value))
            year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    return rows


def check_series_month(text: str, cells: Sequence[Cell]) -> List[str]:
    rows, problems = _read_csv(text, ("bucket_start", "language", "metric", "value"))
    if problems:
        return problems
    got = [(d, lang, float(v) if v else None) for d, lang, metric, v in rows]
    if any(metric != "ratio" for _, _, metric, _ in rows):
        problems.append("metric column is not 'ratio'")
    want = _month_reference(cells)
    if got != want:
        bad = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
        problems.append("monthly ratios differ from the fsum reference in %d rows" % bad)
    return problems


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def check_forecast(text: str, years: int, chains: int, draws: int) -> List[str]:
    doc = json.loads(text)
    problems = []
    if not _all_finite(doc):
        problems.append("non-finite number in forecast JSON")
    fc = doc["forecast"]
    if fc["n_draws"] + fc["n_rejected"] != chains * draws:
        problems.append(
            "n_draws %d + n_rejected %d != chains x draws %d"
            % (fc["n_draws"], fc["n_rejected"], chains * draws)
        )
    if len(doc["per_year"]) != years:
        problems.append("%d per-year fits for %d years" % (len(doc["per_year"]), years))
    return problems


def check_compare(text: str, ref: StreamRef) -> List[str]:
    doc = json.loads(text)
    problems = []
    if doc["n_pairs"] != ref.parts:
        problems.append("compare saw %d pairs, stream has %d parts" % (doc["n_pairs"], ref.parts))
    if doc["parse_errors"] != ref.errors:
        problems.append("parse errors %r != injected %r" % (doc["parse_errors"], ref.errors))
    return problems
