"""Classifier-agreement tests: confusion, divergence, margins, length bins."""

import datetime as dt
import json
import random

import pytest

from contagion import compare
from contagion.compare import LabeledPair
from contagion.ingest import OT, RT

D = dt.date


def _pair(label_a, label_b, day=D(2019, 6, 1), category=OT, chars=20):
    return LabeledPair(day=day, category=category, label_a=label_a, label_b=label_b, chars=chars)


# -- confusion matrix --------------------------------------------------------


def test_identical_streams_diagonal():
    pairs = [("en", "en")] * 3 + [("es", "es")] * 2
    matrix = compare.confusion(pairs)
    assert matrix.labels == ("en", "es")
    assert matrix.counts[0][0] == 3 and matrix.counts[1][1] == 2
    assert matrix.counts[0][1] == 0 and matrix.counts[1][0] == 0


def test_single_offdiagonal():
    matrix = compare.confusion([("en", "es")])
    i, j = matrix.labels.index("en"), matrix.labels.index("es")
    assert matrix.counts[i][j] == 1
    assert matrix.total() == 1


def test_row_normalization():
    pairs = [("en", "en"), ("en", "en"), ("en", "es"), ("en", "es")]
    matrix = compare.confusion(pairs).row_normalized()
    assert matrix.normalization == "row"
    i, j = matrix.labels.index("en"), matrix.labels.index("es")
    assert matrix.counts[i][i] == 0.5 and matrix.counts[i][j] == 0.5
    # "es" never appears as a source-A label: its row stays all zero
    assert all(v == 0.0 for v in matrix.counts[j])


def test_cell_sum_equals_pair_count():
    rnd = random.Random(7)
    labels = ["en", "es", "th", "und"]
    pairs = [(rnd.choice(labels), rnd.choice(labels)) for _ in range(500)]
    matrix = compare.confusion(pairs)
    assert matrix.total() == 500


def test_row_normalized_invariant():
    matrix = compare.confusion([("en", "es"), ("en", "en"), ("th", "en")]).row_normalized()
    for row in matrix.counts:
        total = sum(row)
        assert total == 0.0 or total == pytest.approx(1.0, abs=1e-9)


# -- divergence --------------------------------------------------------------


def test_divergence_examples():
    assert compare.divergence(100, 100) == 0.0
    assert compare.divergence(100, 0) == 1.0
    assert compare.divergence(300, 100) == 0.5


def test_divergence_properties():
    rnd = random.Random(8)
    for _ in range(2000):
        a, b = rnd.randrange(0, 500), rnd.randrange(0, 500)
        if a + b == 0:
            continue
        d = compare.divergence(a, b)
        assert d == compare.divergence(b, a)
        assert 0.0 <= d <= 1.0
        assert (d == 0.0) == (a == b)


def test_divergence_undefined_when_both_zero():
    with pytest.raises(ValueError):
        compare.divergence(0, 0)


# -- margin of error ---------------------------------------------------------


def test_margin_examples():
    assert compare.margin_of_error(1.44, 1.35) == pytest.approx(0.09, abs=1e-12)
    assert compare.margin_of_error(0.5, 0.5) == 0.0
    assert compare.margin_of_error(None, 1.0) is None
    assert compare.margin_of_error(1.0, None) is None


# -- mismatch-by-length histogram --------------------------------------------


def test_no_mismatches_zero_histogram():
    pairs = [_pair("en", "en", chars=n) for n in (5, 50, 500)]
    hist = compare.mismatch_by_length(pairs)
    assert hist.total() == 0
    assert len(hist.bins) == compare.MAX_CHARS + 2


def test_single_mismatch_bins_at_char_count():
    hist = compare.mismatch_by_length([_pair("en", "es", chars=140)])
    assert hist.bins[140] == 1
    assert hist.total() == 1


def test_overflow_bin():
    hist = compare.mismatch_by_length([_pair("en", "es", chars=601)])
    assert hist.bins[601] == 1  # one shared bin past the max
    hist = compare.mismatch_by_length([_pair("en", "es", chars=9000)])
    assert hist.bins[601] == 1


def test_randomized_mismatch_rate():
    # source B flips 10% of labels: the mismatch rate must land near 0.10
    rnd = random.Random(9)
    labels = ["en", "es", "pt", "th"]
    pairs = []
    for _ in range(10_000):
        lang = rnd.choice(labels)
        if rnd.random() < 0.10:
            other = rnd.choice([l for l in labels if l != lang])
        else:
            other = lang
        pairs.append(_pair(lang, other, chars=rnd.randrange(1, 280)))
    hist = compare.mismatch_by_length(pairs)
    assert hist.total() / len(pairs) == pytest.approx(0.10, abs=0.01)


# -- full report -------------------------------------------------------------


def _fixture_pairs(mislabel=False):
    pairs = []
    rnd = random.Random(10)
    for day_offset in range(3):
        day = D(2019, 6, 1) + dt.timedelta(day_offset)
        for lang, n_ot, n_rt in [("en", 4, 2), ("es", 2, 1)]:
            for k in range(n_ot + n_rt):
                category = OT if k < n_ot else RT
                label_b = lang
                if mislabel and rnd.random() < 0.5:
                    label_b = "th"
                pairs.append(_pair(lang, label_b, day=day, category=category))
    return pairs


def test_full_agreement_report_is_all_zero():
    report = compare.agreement_report(_fixture_pairs())
    assert all(v == 0.0 for v in report.divergence_by_language.values())
    assert all(v == 0.0 for v in report.margin_by_language.values())
    matrix = report.confusion
    for i, row in enumerate(matrix.counts):
        for j, v in enumerate(row):
            assert v == 0 or i == j
    assert report.mismatch_by_length.total() == 0
    assert report.period == (D(2019, 6, 1), D(2019, 6, 3))
    assert report.n_pairs == 27


def test_disagreement_populates_all_sections():
    report = compare.agreement_report(_fixture_pairs(mislabel=True))
    assert report.mismatch_by_length.total() > 0
    assert any(v > 0 for v in report.divergence_by_language.values())
    # divergence recomputable from the confusion marginals
    by_a, by_b = report.confusion.marginals()
    for lang, d in report.divergence_by_language.items():
        assert d == compare.divergence(by_a.get(lang, 0), by_b.get(lang, 0))


def test_margin_uses_agreement_subset():
    # en: day ratios 1/2 (all) vs 1/1 (agreeing subset only)
    day = D(2019, 6, 1)
    pairs = [
        _pair("en", "en", day=day, category=OT),
        _pair("en", "en", day=day, category=OT),  # one agrees
        _pair("en", "th", day=day, category=OT),  # one disagrees
        _pair("en", "en", day=day, category=RT),
    ]
    # all: f_ot=3 (en rows), f_rt=1 -> 1/3; agree: f_ot=2, f_rt=1 -> 1/2
    report = compare.agreement_report(pairs)
    assert report.margin_by_language["en"] == pytest.approx(abs(1 / 3 - 1 / 2))


def test_report_to_dict_is_json_ready():
    report = compare.agreement_report(_fixture_pairs(mislabel=True))
    doc = compare.report_to_dict(report)
    text = json.dumps(doc, sort_keys=True)
    parsed = json.loads(text)
    assert set(parsed) >= {
        "confusion", "divergence_by_language", "margin_by_language",
        "mismatch_by_length", "period", "n_pairs",
    }
    assert parsed["period"] == {"start": "2019-06-01", "end": "2019-06-03"}


def test_confusion_csv_grid():
    matrix = compare.confusion([("en", "es"), ("en", "en")])
    rows = compare.confusion_to_csv_rows(matrix)
    assert rows[0] == ("label_a\\label_b", "en", "es")
    assert rows[1] == ("en", "1", "1")
    assert rows[2] == ("es", "0", "0")


def test_empty_report():
    report = compare.agreement_report([])
    assert report.n_pairs == 0
    assert report.period == (None, None)
    assert report.divergence_by_language == {}
