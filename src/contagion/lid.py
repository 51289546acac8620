"""Language identification.

Built-in classifier: character n-gram naive Bayes with additive smoothing,
trained on sanitized text. Scores are normalized into a posterior whose top
value doubles as the confidence; anything under 0.25 is reported as "und".
External labels carried on the wire can be passed through instead of, or in
addition to, the built-in prediction.

Scoring runs on a dense copy of the model, built on first use: a
``(vocab + 1, languages)`` log-likelihood matrix whose last row is the
unseen slot, so each distinct gram of a message costs one vocabulary
lookup whatever the number of languages.

Grams are enumerated run by run: each n-gram extends the (n-1)-gram at
the same position by one character, and a text's grams come first-seen
in order of n, then of position. Training counts in that order, and the
dense scorer sums a text's grams in that order.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .sanitize import SanitizedText, sanitize

if TYPE_CHECKING:
    import numpy as np

UND = "und"
BUCKETS = ("und", "low", "mid", "high")
UND_THRESHOLD = 0.25

_LANG_RE = re.compile(r"[a-z-]{2,7}")

_MAGIC = "contagion-lid"
_VERSION = 1


# bounded: a hostile stream can carry any number of distinct labels
@lru_cache(maxsize=1 << 12)
def normalize_language(code: Optional[str]) -> str:
    """Map a wire language label onto a valid code, or "und"."""
    if not code:
        return UND
    code = code.strip().lower().replace("_", "-")
    return code if _LANG_RE.fullmatch(code) else UND


def bucket_confidence(confidence: float) -> str:
    """Band a confidence value: und < .25 <= low < .5 <= mid < .75 <= high."""
    if not 0.0 <= confidence <= 1.0:
        raise ValueError("confidence outside [0, 1]: %r" % (confidence,))
    if confidence < 0.25:
        return "und"
    if confidence < 0.5:
        return "low"
    if confidence < 0.75:
        return "mid"
    return "high"


@dataclass(frozen=True)
class LidPrediction:
    language: str
    confidence: float
    bucket: str


@dataclass(frozen=True)
class NgramModel:
    """Naive Bayes over character n-grams.

    ``gram_log_liks`` stores per-language log-likelihoods for grams seen in
    training; grams absent there (vocabulary zeros and true unknowns alike)
    fall back on that language's ``unseen_log_lik``, the smoothed mass of
    one extra vocabulary slot. Likelihoods therefore sum to one over the
    vocabulary plus the unseen slot.

    ``dense`` lays the same numbers out for scoring: one row per gram of
    the vocabulary (the union of the tables) and one column per language
    in ``languages`` order, a gram absent from a language's table holding
    that language's unseen value; the extra last row is the unseen slot.
    """

    n_lo: int
    n_hi: int
    smoothing: float
    class_log_priors: dict
    gram_log_liks: dict
    unseen_log_liks: dict
    vocab_size: int

    @property
    def languages(self) -> list[str]:
        return sorted(self.class_log_priors)

    @cached_property
    def dense(self) -> tuple[dict, np.ndarray, np.ndarray]:
        """(gram -> row, log-likelihood matrix, log priors), built once for every classify call."""
        import numpy as np  # loads with the first classify, not with the CLI

        langs = self.languages
        index: dict = {}
        for lang in langs:
            for gram in self.gram_log_liks[lang]:
                index.setdefault(gram, len(index))
        matrix = np.empty((len(index) + 1, len(langs)))
        for col, lang in enumerate(langs):
            table = self.gram_log_liks[lang]
            matrix[:, col] = self.unseen_log_liks[lang]
            matrix[[index[g] for g in table], col] = list(table.values())
        priors = np.array([self.class_log_priors[lang] for lang in langs])
        return index, matrix, priors


def _grams(text: str, n_lo: int, n_hi: int, counts: Optional[Counter] = None) -> Counter:
    """Count the n-grams of text, n_lo <= n <= n_hi, into counts (default: a new Counter).

    Run n is run n-1 with each gram extended by the character after it, so
    no gram is sliced from the text; grams come first-seen by n, then by
    position.
    """
    if counts is None:
        counts = Counter()
    run = text  # the 1-grams
    for n in range(1, min(n_hi, len(text)) + 1):  # a model file may set any n_hi
        if n > 1:
            run = map(add, run, text[n - 1 :])
            if n < n_hi:  # the next run extends this one
                run = list(run)
        if n >= n_lo:
            counts.update(run)
    return counts


def count_grams(corpus: Iterable[tuple[str, str]], n_range: tuple[int, int] = (1, 3)):
    """Sanitize each (language, text) pair and count its n-grams.

    Returns (gram counts per language, example counts per language). Counts
    commute, so the result is independent of corpus order.
    """
    n_lo, n_hi = n_range
    gram_counts: dict[str, Counter] = {}
    example_counts: Counter = Counter()
    for lang, text in corpus:
        lang = lang.strip().lower()
        if not _LANG_RE.fullmatch(lang):
            raise ValueError("invalid training language code: %r" % (lang,))
        _grams(sanitize(text).text, n_lo, n_hi, gram_counts.setdefault(lang, Counter()))
        example_counts[lang] += 1
    return gram_counts, example_counts


def model_from_counts(
    gram_counts: dict,
    example_counts: dict,
    n_range: tuple[int, int] = (1, 3),
    smoothing: float = 1.0,
) -> NgramModel:
    """Normalize count tables into an NgramModel."""
    if smoothing <= 0:
        raise ValueError("smoothing must be positive")
    n_lo, n_hi = n_range
    if not (1 <= n_lo <= n_hi):
        raise ValueError("invalid n-gram range: %r" % ((n_lo, n_hi),))
    languages = sorted(example_counts)
    if len(languages) < 2:
        raise ValueError("need at least two languages, got %r" % (languages,))
    vocab = set()
    for lang in languages:
        vocab.update(gram_counts.get(lang, ()))
    v1 = len(vocab) + 1  # one extra slot carries the unseen mass
    total_examples = sum(example_counts.values())
    priors = {}
    log_liks = {}
    unseen = {}
    for lang in languages:
        if example_counts[lang] < 1:
            raise ValueError("language without examples: %r" % (lang,))
        priors[lang] = math.log(example_counts[lang] / total_examples)
        counts = gram_counts.get(lang, Counter())
        denom = sum(counts.values()) + smoothing * v1
        log_liks[lang] = {g: math.log((c + smoothing) / denom) for g, c in counts.items()}
        unseen[lang] = math.log(smoothing / denom)
    return NgramModel(
        n_lo=n_lo,
        n_hi=n_hi,
        smoothing=smoothing,
        class_log_priors=priors,
        gram_log_liks=log_liks,
        unseen_log_liks=unseen,
        vocab_size=len(vocab),
    )


def train(
    corpus: Iterable[tuple[str, str]],
    n_range: tuple[int, int] = (1, 3),
    smoothing: float = 1.0,
) -> NgramModel:
    """Train the built-in classifier on (language, text) pairs."""
    gram_counts, example_counts = count_grams(corpus, n_range)
    if not example_counts:
        raise ValueError("empty training corpus")
    return model_from_counts(gram_counts, example_counts, n_range, smoothing)


def classify(model: NgramModel, text: Union[str, SanitizedText]) -> LidPrediction:
    """Predict the language of sanitized text.

    Empty text and posteriors under 0.25 come back as "und"; ties go to the
    lexicographically smallest code.
    """
    if isinstance(text, SanitizedText):
        text = text.text
    if not model.class_log_priors:
        raise ValueError("model has no trained languages")
    if not text:
        return LidPrediction(UND, 0.0, "und")
    grams = _grams(text, model.n_lo, model.n_hi)
    if not grams:
        return LidPrediction(UND, 0.0, "und")
    import numpy as np

    index, matrix, priors = model.dense
    size = len(grams)
    rows = matrix[np.fromiter(map(index.get, grams, repeat(len(index))), np.intp, size)]
    rows *= np.fromiter(grams.values(), float, size)[:, None]
    # cumsum adds row after row: with the priors in the first row (float
    # addition commutes) these are the same float additions, in the same
    # order, as prior + count * log_lik summed gram by gram
    rows[0] += priors
    scores = rows.cumsum(axis=0)[-1].tolist()
    best_score = max(scores)
    best_lang = model.languages[scores.index(best_score)]  # first (smallest) code wins ties
    lse = best_score + math.log(sum(math.exp(s - best_score) for s in scores))
    confidence = math.exp(best_score - lse)
    language = best_lang if confidence >= UND_THRESHOLD else UND
    return LidPrediction(language, confidence, bucket_confidence(confidence))


def wire_label(record) -> str:
    """The language label a record carried on the wire.

    An absent or invalid label maps to "und", as does a wire confidence
    below the und threshold or not a finite number in [0, 1].
    """
    confidence = record.external_confidence
    if confidence is not None and not UND_THRESHOLD <= confidence <= 1.0:
        return UND
    return normalize_language(record.external_label)


# -- serialization: versioned sorted text table, bit-exact round trips ------


def dumps_model(model: NgramModel) -> str:
    lines = ["%s %d" % (_MAGIC, _VERSION)]
    lines.append("n_range\t%d\t%d" % (model.n_lo, model.n_hi))
    lines.append("smoothing\t%.17g" % model.smoothing)
    lines.append("vocab_size\t%d" % model.vocab_size)
    for lang in model.languages:
        lines.append("prior\t%s\t%.17g" % (lang, model.class_log_priors[lang]))
    for lang in model.languages:
        lines.append("unseen\t%s\t%.17g" % (lang, model.unseen_log_liks[lang]))
    for lang in model.languages:
        table = model.gram_log_liks[lang]
        for gram in sorted(table):
            if "\t" in gram or "\n" in gram or "\r" in gram:
                raise ValueError("gram not serializable: %r" % (gram,))
            lines.append("gram\t%s\t%s\t%.17g" % (lang, gram, table[gram]))
    return "\n".join(lines) + "\n"


def _finite(field: str, line: str) -> float:
    value = float(field)
    if not math.isfinite(value):
        raise ValueError("non-finite value in model line: %r" % (line,))
    return value


def loads_model(data: str) -> NgramModel:
    """Parse a v1 model file; inconsistent or non-finite contents raise ValueError."""
    if not data:
        raise ValueError("empty model file")
    # "\n" only: str.splitlines also breaks at \x0b, \x1c, \x85, \u2028 and
    # the like, which a gram may hold; strip one "\r" so CRLF files load
    lines = [line[:-1] if line.endswith("\r") else line for line in data.split("\n")]
    header = lines[0].split()
    if len(header) != 2 or header[0] != _MAGIC or header[1] != str(_VERSION):
        raise ValueError("unsupported model header: %r" % (lines[0],))
    n_lo = n_hi = None
    smoothing = None
    vocab_size = None
    priors: dict = {}
    unseen: dict = {}
    tables: dict = {}
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split("\t")
        tag = parts[0]
        if tag == "n_range" and len(parts) == 3:
            n_lo, n_hi = int(parts[1]), int(parts[2])
        elif tag == "smoothing" and len(parts) == 2:
            smoothing = float(parts[1])
        elif tag == "vocab_size" and len(parts) == 2:
            vocab_size = int(parts[1])
        elif tag == "prior" and len(parts) == 3:
            priors[parts[1]] = _finite(parts[2], line)
        elif tag == "unseen" and len(parts) == 3:
            unseen[parts[1]] = _finite(parts[2], line)
        elif tag == "gram" and len(parts) == 4:
            tables.setdefault(parts[1], {})[parts[2]] = _finite(parts[3], line)
        else:
            raise ValueError("bad model line: %r" % (line,))
    if n_lo is None or smoothing is None or vocab_size is None or not priors:
        raise ValueError("incomplete model file")
    if not (1 <= n_lo <= n_hi):
        raise ValueError("model n-gram range invalid: %r" % ((n_lo, n_hi),))
    if not (0.0 < smoothing < math.inf):
        raise ValueError("model smoothing must be finite and positive: %r" % (smoothing,))
    if set(unseen) != set(priors):
        raise ValueError("model unseen languages %r differ from prior languages %r"
                         % (sorted(unseen), sorted(priors)))
    if not set(tables) <= set(priors):
        raise ValueError("model grams for languages without a prior: %r"
                         % sorted(set(tables) - set(priors)))
    n_grams = len(set().union(*tables.values()))
    if vocab_size != n_grams:
        raise ValueError("model vocab_size %d differs from its %d distinct grams"
                         % (vocab_size, n_grams))
    for lang in priors:
        tables.setdefault(lang, {})
    return NgramModel(
        n_lo=n_lo,
        n_hi=n_hi,
        smoothing=smoothing,
        class_log_priors=priors,
        gram_log_liks=tables,
        unseen_log_liks=unseen,
        vocab_size=vocab_size,
    )


def load_model(path) -> NgramModel:
    return loads_model(Path(path).read_text(encoding="utf-8"))


# -- bundled corpus ----------------------------------------------------------


def _data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


def read_corpus(path) -> list[tuple[str, str]]:
    """Read a labeled corpus: one ``language<TAB>sentence`` per line."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError("line %d: expected language<TAB>text" % lineno)
            lang, text = line.split("\t", 1)
            pairs.append((lang, text))
    return pairs


def bundled_corpus(split: str = "train") -> list[tuple[str, str]]:
    """The multilingual sentence corpus shipped with the package.

    ``split`` is "train" or "heldout"; each line of the underlying TSV is
    ``language<TAB>sentence``.
    """
    if split not in ("train", "heldout"):
        raise ValueError("split must be 'train' or 'heldout'")
    return read_corpus(_data_path("lid_corpus_%s.tsv" % split))


@lru_cache(maxsize=1)
def default_model() -> NgramModel:
    """Classifier trained on the bundled corpus (cached per process)."""
    return train(bundled_corpus("train"))


def evaluate(model: NgramModel, corpus: Iterable[tuple[str, str]]) -> dict:
    """Accuracy report for a labeled corpus against a trained model."""
    per_language: dict[str, dict] = {}
    buckets = dict.fromkeys(BUCKETS, 0)
    correct = 0
    total = 0
    confidence_sum = 0.0
    for lang, text in corpus:
        pred = classify(model, sanitize(text))
        stats = per_language.setdefault(lang, {"n": 0, "correct": 0})
        stats["n"] += 1
        total += 1
        confidence_sum += pred.confidence
        buckets[pred.bucket] += 1
        if pred.language == lang:
            stats["correct"] += 1
            correct += 1
    for stats in per_language.values():
        stats["accuracy"] = stats["correct"] / stats["n"]
    return {
        "total": total,
        "correct": correct,
        "accuracy": correct / total if total else 0.0,
        "mean_confidence": confidence_sum / total if total else 0.0,
        "bucket_counts": buckets,
        "per_language": dict(sorted(per_language.items())),
    }
