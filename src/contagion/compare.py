"""Agreement analytics between two language-label sources.

Given a stream of messages labeled twice (source A, typically the
built-in classifier, and source B, typically labels shipped with the
data), this module reports where and how the two disagree:

    confusion matrix   who says what, jointly
    divergence         per language, |C_A - C_B| / (C_A + C_B) over the
                       marginal counts; 0 = same volume, 1 = one-sided
    margin of error    per language, |R - R_a| where R is the contagion
                       ratio under source A and R_a the same ratio
                       restricted to messages both sources agree on
    mismatch by length histogram of raw character counts over messages
                       the two sources label differently

Labels are compared after each source's own und mapping, so "confidently
different" and "one side abstained" both count as disagreement.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .metrics import bucket_reducer
from .tally import TallyStore

# width of the mismatch-by-length histogram, in characters
MAX_CHARS = 600


@dataclass(frozen=True)
class LabeledPair:
    """One (category, text) part of a message, seen by both label sources."""

    day: dt.date
    category: str  # OT or RT
    label_a: str
    label_b: str
    chars: int  # raw (pre-sanitization) character count


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square joint-count matrix; rows = source A label, columns = source B."""

    labels: Tuple[str, ...]
    counts: Tuple[Tuple[float, ...], ...]
    normalization: str = "none"

    def total(self) -> float:
        return sum(sum(row) for row in self.counts)

    def row_normalized(self) -> "ConfusionMatrix":
        """Rows rescaled to sum to 1; all-zero rows stay all-zero."""
        rows = []
        for row in self.counts:
            s = sum(row)
            rows.append(tuple(v / s for v in row) if s else tuple(row))
        return ConfusionMatrix(self.labels, tuple(rows), "row")

    def marginals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(row sums keyed by label, column sums keyed by label)."""
        by_a = {lab: sum(row) for lab, row in zip(self.labels, self.counts)}
        by_b = {
            lab: sum(row[j] for row in self.counts)
            for j, lab in enumerate(self.labels)
        }
        return by_a, by_b


@dataclass(frozen=True)
class LengthHistogram:
    """Unit-width char-count bins 0..max_chars plus one overflow bin."""

    max_chars: int
    bins: Tuple[int, ...]  # length max_chars + 2; bins[-1] is overflow

    def total(self) -> int:
        return sum(self.bins)


@dataclass(frozen=True)
class AgreementReport:
    period: Tuple[Optional[dt.date], Optional[dt.date]]
    confusion: ConfusionMatrix
    divergence_by_language: Dict[str, float]
    margin_by_language: Dict[str, float]
    mismatch_by_length: LengthHistogram
    n_pairs: int


def confusion(pairs: Iterable[Tuple[str, str]]) -> ConfusionMatrix:
    """Joint label counts; label set is the sorted union of both sides."""
    joint: Dict[Tuple[str, str], int] = {}
    labels = set()
    for a, b in pairs:
        labels.add(a)
        labels.add(b)
        joint[(a, b)] = joint.get((a, b), 0) + 1
    ordered = tuple(sorted(labels))
    counts = tuple(
        tuple(float(joint.get((a, b), 0)) for b in ordered) for a in ordered
    )
    return ConfusionMatrix(ordered, counts)


def divergence(c_a: float, c_b: float) -> float:
    """Normalized absolute count difference, in [0, 1]."""
    total = c_a + c_b
    if total <= 0:
        raise ValueError("divergence undefined when both counts are zero")
    return abs(c_a - c_b) / total


def margin_of_error(r_all: Optional[float], r_agree: Optional[float]) -> Optional[float]:
    """|R - R_a|; None when either ratio is undefined."""
    if r_all is None or r_agree is None:
        return None
    return abs(r_all - r_agree)


def mismatch_by_length(pairs: Iterable[LabeledPair]) -> LengthHistogram:
    """Histogram of raw char counts over pairs the two sources disagree on."""
    bins = [0] * (MAX_CHARS + 2)
    for pair in pairs:
        if pair.label_a == pair.label_b:
            continue
        idx = pair.chars if 0 <= pair.chars <= MAX_CHARS else MAX_CHARS + 1
        bins[idx] += 1
    return LengthHistogram(MAX_CHARS, tuple(bins))


def agreement_report(pairs: Sequence[LabeledPair]) -> AgreementReport:
    """Full four-part agreement report over a dual-labeled stream.

    Divergence uses the confusion-matrix marginals and is reported for
    every language at least one source used.  The margin of error takes
    source A as primary: R is the mean of A's defined daily ratios over
    the period and R_a the same statistic restricted to agreeing pairs.
    """
    matrix = confusion((p.label_a, p.label_b) for p in pairs)

    by_a, by_b = matrix.marginals()
    div = {}
    for lang in matrix.labels:
        total = by_a.get(lang, 0.0) + by_b.get(lang, 0.0)
        if total > 0:
            div[lang] = divergence(by_a.get(lang, 0.0), by_b.get(lang, 0.0))

    # Daily tallies under source A labels, full stream and agreement
    # subset, for the per-language ratio margin.
    all_store, agree_store = TallyStore(), TallyStore()
    for p in pairs:
        all_store.add(p.day, p.label_a, p.category)
        if p.label_a == p.label_b:
            agree_store.add(p.day, p.label_a, p.category)

    # R and R_a: the mean of a language's defined daily ratios, in date order
    mean_daily_ratio = bucket_reducer("ratio", "mean_of_daily")
    margins = {}
    for lang in matrix.labels:
        r_all = mean_daily_ratio([cell for _, cell in all_store.day_counts(lang)])
        r_agree = mean_daily_ratio([cell for _, cell in agree_store.day_counts(lang)])
        delta = margin_of_error(r_all, r_agree)
        if delta is not None:
            margins[lang] = delta

    if pairs:
        days = [p.day for p in pairs]
        period: Tuple[Optional[dt.date], Optional[dt.date]] = (min(days), max(days))
    else:
        period = (None, None)

    return AgreementReport(
        period=period,
        confusion=matrix,
        divergence_by_language=div,
        margin_by_language=margins,
        mismatch_by_length=mismatch_by_length(pairs),
        n_pairs=len(pairs),
    )


def report_to_dict(report: AgreementReport) -> dict:
    """JSON-ready view of a report (dates as ISO strings, matrices as lists)."""
    start, end = report.period
    return {
        "period": {
            "start": start.isoformat() if start else None,
            "end": end.isoformat() if end else None,
        },
        "n_pairs": report.n_pairs,
        "confusion": {
            "labels": list(report.confusion.labels),
            "counts": [list(row) for row in report.confusion.counts],
            "normalization": report.confusion.normalization,
        },
        "divergence_by_language": {
            k: report.divergence_by_language[k]
            for k in sorted(report.divergence_by_language)
        },
        "margin_by_language": {
            k: report.margin_by_language[k]
            for k in sorted(report.margin_by_language)
        },
        "mismatch_by_length": {
            "max_chars": report.mismatch_by_length.max_chars,
            "bins": list(report.mismatch_by_length.bins),
        },
    }


def confusion_to_csv_rows(matrix: ConfusionMatrix) -> Tuple[Tuple[str, ...], ...]:
    """Confusion matrix as a CSV-ready grid with label header row/column."""
    header = ("label_a\\label_b",) + matrix.labels
    rows = [header]
    for lab, row in zip(matrix.labels, matrix.counts):
        rows.append((lab,) + tuple(repr(v) if v != int(v) else str(int(v)) for v in row))
    return tuple(rows)
