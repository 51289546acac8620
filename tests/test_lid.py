"""Language-identification tests: classifier, thresholding, serialization."""

import math
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from conftest import reference_classify, reference_grams
from contagion import lid
from contagion.ingest import MessageRecord
from contagion.sanitize import sanitize


def _record(**kw):
    base = dict(id="1", ts=0, kind="tweet", text="x")
    base.update(kw)
    return MessageRecord(**base)


# -- confidence buckets ------------------------------------------------------


def test_bucket_boundaries():
    assert lid.bucket_confidence(0.0) == "und"
    assert lid.bucket_confidence(0.2) == "und"
    assert lid.bucket_confidence(0.2499) == "und"
    assert lid.bucket_confidence(0.25) == "low"
    assert lid.bucket_confidence(0.4999) == "low"
    assert lid.bucket_confidence(0.5) == "mid"
    assert lid.bucket_confidence(0.7499) == "mid"
    assert lid.bucket_confidence(0.75) == "high"
    assert lid.bucket_confidence(1.0) == "high"


def test_bucket_out_of_range():
    with pytest.raises(ValueError):
        lid.bucket_confidence(-0.01)
    with pytest.raises(ValueError):
        lid.bucket_confidence(1.01)


def test_normalize_language():
    assert lid.normalize_language("EN") == "en"
    assert lid.normalize_language(" pt ") == "pt"
    assert lid.normalize_language("zh_TW") == "zh-tw"
    assert lid.normalize_language("x") == "und"  # too short
    assert lid.normalize_language("notalanguage") == "und"  # too long
    assert lid.normalize_language("e1") == "und"  # bad charset
    assert lid.normalize_language(None) == "und"
    assert lid.normalize_language("") == "und"


# -- training ----------------------------------------------------------------

DISJOINT = [
    ("aa", "abab abba baab"),
    ("aa", "bbaa abab abab"),
    ("bb", "cdcd dccd cddc"),
    ("bb", "dcdc cdcd dcdc"),
]


def test_train_disjoint_alphabets_perfect():
    model = lid.train(DISJOINT)
    held = [("aa", "ababab baba"), ("bb", "cdcddc dcdc")]
    for lang, text in held:
        assert lid.classify(model, text).language == lang


def test_train_single_language_rejected():
    with pytest.raises(ValueError):
        lid.train([("aa", "abab")])


def test_train_empty_corpus_rejected():
    with pytest.raises(ValueError):
        lid.train([])


def test_train_invalid_language_code_rejected():
    with pytest.raises(ValueError):
        lid.train([("a!", "xx"), ("bb", "yy")])


def test_duplicated_corpus_doubles_counts():
    counts1, examples1 = lid.count_grams(DISJOINT)
    counts2, examples2 = lid.count_grams(DISJOINT + DISJOINT)
    for lang, table in counts1.items():
        for gram, c in table.items():
            assert counts2[lang][gram] == 2 * c
    assert all(examples2[lang] == 2 * n for lang, n in examples1.items())
    # and the model built from doubled counts equals training on the doubled corpus
    doubled = lid.model_from_counts(counts2, examples2)
    retrained = lid.train(DISJOINT + DISJOINT)
    for lang in doubled.languages:
        assert doubled.class_log_priors[lang] == pytest.approx(
            retrained.class_log_priors[lang], abs=1e-9
        )
        for gram, ll in doubled.gram_log_liks[lang].items():
            assert retrained.gram_log_liks[lang][gram] == pytest.approx(ll, abs=1e-9)


def test_training_counts_commute():
    a = lid.train(DISJOINT)
    b = lid.train(list(reversed(DISJOINT)))
    assert a.gram_log_liks == b.gram_log_liks
    assert a.class_log_priors == b.class_log_priors


def test_likelihoods_normalize():
    # per language: vocabulary plus the unseen slot exp-sums to 1
    model = lid.train(DISJOINT)
    vocab = set()
    for table in model.gram_log_liks.values():
        vocab.update(table)
    for lang in model.languages:
        table = model.gram_log_liks[lang]
        unseen = model.unseen_log_liks[lang]
        total = sum(math.exp(table.get(g, unseen)) for g in vocab) + math.exp(unseen)
        assert total == pytest.approx(1.0, abs=1e-9)


# -- classification ----------------------------------------------------------


def test_classify_empty_text():
    model = lid.train(DISJOINT)
    pred = lid.classify(model, "")
    assert pred == lid.LidPrediction("und", 0.0, "und")


def test_classify_single_class_model():
    model = lid.NgramModel(
        n_lo=1,
        n_hi=1,
        smoothing=1.0,
        class_log_priors={"xx": 0.0},
        gram_log_liks={"xx": {"a": math.log(0.5)}},
        unseen_log_liks={"xx": math.log(0.5)},
        vocab_size=1,
    )
    pred = lid.classify(model, "anything")
    assert pred.language == "xx"
    assert pred.confidence == 1.0
    assert pred.bucket == "high"


def test_classify_accepts_sanitized_text():
    model = lid.train(DISJOINT)
    raw = "abab #tag abba"
    assert lid.classify(model, sanitize(raw)) == lid.classify(model, "abab abba")


def test_classify_tie_breaks_lexicographically():
    # symmetric corpus: both languages are the mirror image of each other
    model = lid.train([("aa", "xy"), ("bb", "xy")])
    pred = lid.classify(model, "xy")
    assert pred.language == "aa"
    assert pred.confidence == pytest.approx(0.5)


def test_classify_never_confident_label_below_threshold():
    model = lid.train(DISJOINT + [("cc", "efef fefe"), ("dd", "ffee efef")])
    # fuzz short ambiguous strings; und rule must hold everywhere
    for text in ["a", "c", "e", "f", "ab", "cd", "ef", "fe", "ace", "bdf", "x"]:
        pred = lid.classify(model, text)
        if pred.confidence < 0.25:
            assert pred.language == "und"
        assert pred.bucket == lid.bucket_confidence(pred.confidence)


# -- dense scoring against the scalar reference ----------------------------------


def _classify_reference(model, text):
    """The per-language scalar loop that lid.classify's dense scoring replaces."""
    if not text:
        return lid.LidPrediction(lid.UND, 0.0, "und")
    grams = reference_grams(text, model.n_lo, model.n_hi)
    if not grams:
        return lid.LidPrediction(lid.UND, 0.0, "und")
    best_lang = None
    best_score = -math.inf
    scores = []
    for lang in model.languages:
        table = model.gram_log_liks[lang]
        fallback = model.unseen_log_liks[lang]
        score = model.class_log_priors[lang]
        for gram, count in grams.items():
            score += count * table.get(gram, fallback)
        scores.append(score)
        if score > best_score:  # strict: first (smallest) code wins ties
            best_score = score
            best_lang = lang
    lse = best_score + math.log(sum(math.exp(s - best_score) for s in scores))
    confidence = math.exp(best_score - lse)
    language = best_lang if confidence >= lid.UND_THRESHOLD else lid.UND
    return lid.LidPrediction(language, confidence, lid.bucket_confidence(confidence))


# covers every subset of {a, b, c, d} unevenly; "zz" carries no grams at all
SUBSET_MODEL = lid.NgramModel(
    n_lo=1,
    n_hi=2,
    smoothing=1.0,
    class_log_priors={"xx": math.log(0.5), "yy": math.log(0.3), "zz": math.log(0.2)},
    gram_log_liks={
        "xx": {"a": -1.0, "b": -2.5, "ab": -3.0},
        "yy": {"b": -0.7, "c": -1.9, "bc": -2.2, "cd": -4.1},
        "zz": {},
    },
    unseen_log_liks={"xx": -6.0, "yy": -5.5, "zz": -1.5},
    vocab_size=6,
)

TEXTS = ["", " ", "a", "ab", "abab", "abcd", "dcba", "xy", "yx", "cdcd dccd",
         "efef fefe", "abab cdcd efef", "\U0001F600\x00\u200b", "\u4e2d\u6587 \ud55c"]


def _assert_matches_reference(model, text):
    assert lid.classify(model, text) == _classify_reference(model, text)


def test_grams_match_nested_loop_in_order():
    for text in TEXTS + ["aaaa", "the quick brown fox"]:
        for n_lo, n_hi in [(1, 1), (1, 3), (2, 2), (2, 5), (4, 4)]:
            got = lid._grams(text, n_lo, n_hi)
            assert list(got.items()) == list(reference_grams(text, n_lo, n_hi).items())


def test_dense_layout_rows_and_unseen_slot():
    model = lid.train(DISJOINT)
    assert "dense" not in model.__dict__  # built on first classify, not in train
    index, matrix, priors = model.dense
    langs = model.languages
    assert matrix.shape == (len(index) + 1, len(langs))
    assert priors.tolist() == [model.class_log_priors[lang] for lang in langs]
    assert matrix[-1].tolist() == [model.unseen_log_liks[lang] for lang in langs]
    for gram, row in index.items():
        assert matrix[row].tolist() == [
            model.gram_log_liks[lang].get(gram, model.unseen_log_liks[lang]) for lang in langs
        ]


def test_dense_matches_reference_on_bundled_corpora():
    model = lid.default_model()
    for split in ("train", "heldout"):
        for _, text in lid.bundled_corpus(split):
            _assert_matches_reference(model, sanitize(text).text)


@pytest.mark.parametrize("corpus,n_range,smoothing", [
    (DISJOINT, (1, 3), 1.0),
    (DISJOINT, (1, 2), 0.5),
    (DISJOINT + [("cc", "efef fefe"), ("dd", "ffee efef")], (2, 4), 0.1),
    ([("aa", "xy"), ("bb", "xy")], (1, 3), 1.0),  # mirrored: every score ties
])
def test_dense_matches_reference_on_small_models(corpus, n_range, smoothing):
    model = lid.train(corpus, n_range=n_range, smoothing=smoothing)
    for text in TEXTS:
        _assert_matches_reference(model, text)


def test_dense_matches_reference_on_tables_over_vocabulary_subsets():
    for text in TEXTS + ["bcd", "abcbcd", "dddd"]:
        _assert_matches_reference(SUBSET_MODEL, text)


_HOSTILE = hs.text(alphabet=hs.characters(blacklist_categories=("Cs",)), max_size=80)
_SCRIPTS = hs.text(alphabet="ab cdxy\t\n\x00\u200d\u0301\U0001F600\U0001F1EA\U00010348\u4e2d",
                   max_size=40)


@settings(max_examples=150, deadline=None)
@given(text=hs.one_of(_HOSTILE, _SCRIPTS))
def test_dense_matches_reference_on_arbitrary_text(text):
    model = lid.default_model()
    _assert_matches_reference(model, text)
    _assert_matches_reference(model, sanitize(text).text)
    _assert_matches_reference(SUBSET_MODEL, text)


# lone surrogates, astral code points, CR/LF and texts shorter than n
_ANY_TEXT = hs.one_of(
    hs.text(alphabet=hs.characters(blacklist_categories=()), max_size=12),
    hs.text(alphabet="ab\r\n\ud800\udfff\U0001F600\U00010348", max_size=12),
)
_N_RANGE = hs.lists(hs.integers(1, 5), min_size=2, max_size=2).map(sorted)


@settings(max_examples=300, deadline=None)
@given(text=_ANY_TEXT, n_range=_N_RANGE)
def test_grams_match_reference_in_items_and_order(text, n_range):
    n_lo, n_hi = n_range
    got = lid._grams(text, n_lo, n_hi)
    assert list(got.items()) == list(reference_grams(text, n_lo, n_hi).items())


def test_a_model_file_n_hi_past_the_text_adds_no_runs():
    # a model file may carry any n_hi >= n_lo; runs longer than the text are
    # empty, so none is built (10**12 of them took forever)
    assert list(lid._grams("abcd", 2, 10**12).items()) == list(reference_grams("abcd", 2, 4).items())
    text = lid.dumps_model(SUBSET_MODEL)
    wide = lid.loads_model(text.replace("n_range\t1\t2", "n_range\t1\t%d" % 10**12))
    narrow = lid.loads_model(text.replace("n_range\t1\t2", "n_range\t1\t4"))
    assert lid.classify(wide, "abcd") == lid.classify(narrow, "abcd")


@lru_cache(maxsize=1)
def _model_2_4():
    return lid.train(lid.bundled_corpus("train"), n_range=(2, 4))


def _bits(pred):
    return pred.language, pred.confidence.hex(), pred.bucket


_HELDOUT = hs.sampled_from(lid.bundled_corpus("heldout")).map(lambda pair: sanitize(pair[1]).text)


@settings(max_examples=150, deadline=None)
@given(text=hs.one_of(_ANY_TEXT, _SCRIPTS, _HELDOUT))
def test_classify_matches_stacked_reference_bit_for_bit(text):
    for model in (lid.default_model(), _model_2_4()):
        assert _bits(lid.classify(model, text)) == _bits(reference_classify(model, text))


def test_untrained_model_is_configuration_error():
    empty = lid.NgramModel(
        n_lo=1, n_hi=1, smoothing=1.0,
        class_log_priors={}, gram_log_liks={}, unseen_log_liks={}, vocab_size=0,
    )
    with pytest.raises(ValueError):
        lid.classify(empty, "text")


# -- wire labels -------------------------------------------------------------


def test_resolve_external_passthrough():
    assert lid.wire_label(_record(external_label="en")) == "en"


def test_resolve_external_absent_is_und():
    assert lid.wire_label(_record()) == "und"
    assert lid.wire_label(_record(external_label="")) == "und"


def test_resolve_external_low_confidence_is_und():
    rec = _record(external_label="fr", external_confidence=0.05)
    assert lid.wire_label(rec) == "und"
    rec = _record(external_label="fr", external_confidence=0.41)
    assert lid.wire_label(rec) == "fr"
    # not a finite number in [0, 1]: und as well
    for conf in (math.nan, math.inf, 7.0, -0.5, 10**400, 1.0 + 1e-12):
        assert lid.wire_label(_record(external_label="fr", external_confidence=conf)) == "und"
    for conf in (lid.UND_THRESHOLD, 1.0, 1):
        assert lid.wire_label(_record(external_label="fr", external_confidence=conf)) == "fr"


# -- serialization -----------------------------------------------------------


def test_model_roundtrip_bit_exact():
    model = lid.train(DISJOINT, n_range=(1, 2), smoothing=0.5)
    clone = lid.loads_model(lid.dumps_model(model))
    assert clone == model  # dataclass equality covers every float


def test_model_file_roundtrip(tmp_path):
    model = lid.train(DISJOINT)
    path = tmp_path / "model.tsv"
    path.write_text(lid.dumps_model(model), encoding="utf-8")
    assert lid.load_model(path) == model


_GRAM_COUNTS = hs.dictionaries(
    hs.text(hs.characters(exclude_characters="\t\n\r"), min_size=1, max_size=3),
    hs.integers(1, 9),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(a=_GRAM_COUNTS, b=_GRAM_COUNTS)
@example(a={"\x1c": 1, "\u2028": 2}, b={"\x85": 3, "x\x0by": 1})
def test_model_text_roundtrip_any_gram(a, b):
    # dumps_model accepts every gram without tab, LF or CR; loads_model
    # must read each back, from LF and from CRLF text alike
    model = lid.model_from_counts({"aa": Counter(a), "bb": Counter(b)}, {"aa": 1, "bb": 2})
    text = lid.dumps_model(model)
    assert lid.loads_model(text) == model
    assert lid.loads_model(text.replace("\n", "\r\n")) == model


def test_loads_rejects_wrong_magic():
    model = lid.train(DISJOINT)
    data = lid.dumps_model(model)
    with pytest.raises(ValueError):
        lid.loads_model(data.replace("contagion-lid", "other-model", 1))


def test_dumps_is_deterministic():
    model = lid.train(DISJOINT)
    assert lid.dumps_model(model) == lid.dumps_model(model)


# -- corpus + bundled model --------------------------------------------------


def test_read_corpus_rejects_missing_tab(tmp_path):
    bad = tmp_path / "corpus.tsv"
    bad.write_text("en\thello\nno tab here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        lid.read_corpus(bad)


def test_bundled_corpus_shape():
    for split in ("train", "heldout"):
        corpus = lid.bundled_corpus(split)
        langs = {lang for lang, _ in corpus}
        assert len(langs) >= 10
        assert all(len(text) >= 60 for _, text in corpus)
    with pytest.raises(ValueError):
        lid.bundled_corpus("validation")


def test_default_model_heldout_accuracy():
    report = lid.evaluate(lid.default_model(), lid.bundled_corpus("heldout"))
    assert report["accuracy"] >= 0.95
    assert report["total"] == sum(s["n"] for s in report["per_language"].values())
    assert set(report["bucket_counts"]) == set(lid.BUCKETS)


def test_evaluate_reads_corpus_labels_by_the_training_rule():
    # train and evaluate share one label rule: stripped, lowercased, and
    # anything that is then no valid code is the same ValueError in both
    model = lid.train(DISJOINT)
    report = lid.evaluate(model, [("AA", "ababab baba"), (" aa ", "abab"), ("bb", "cdcddc dcdc")])
    assert report["per_language"] == {
        "aa": {"n": 2, "correct": 2, "accuracy": 1.0},
        "bb": {"n": 1, "correct": 1, "accuracy": 1.0},
    }
    for bad in ("a!", "", " ", "x" * 8, "e_n"):
        corpus = [(bad, "abab"), ("bb", "cdcd")]
        with pytest.raises(ValueError) as trained:
            lid.count_grams(corpus)
        with pytest.raises(ValueError) as evaluated:
            lid.evaluate(model, corpus)
        assert str(trained.value) == str(evaluated.value) == (
            "invalid corpus language code: %r" % bad.strip().lower()
        )
