#!/usr/bin/env python3
"""End-to-end tour: synthesize a message stream, tally it, report ratios.

Generates a few thousand NDJSON messages across several languages with a
different retweet appetite per language, pushes them through the same code
path the `contagion ingest` command uses (including the sharded variant),
and prints the per-language contagion table.  Good first read if you want
to see how the pieces connect.

    python3 demos/pipeline_tour.py --messages 4000 --shards 4
"""

import argparse
import datetime as dt
import io
import json
import random
from functools import reduce

from contagion import lid, metrics, tally

# per-language probability that a synthetic message is a retweet; the point
# of the demo is that the tally recovers exactly these appetites as ratios
RETWEET_APPETITE = {
    "en": 0.45,
    "es": 0.55,
    "pt": 0.60,
    "ja": 0.35,
    "th": 0.85,
    "fi": 0.25,
}

SAMPLE_TEXTS = {
    "en": "the quick brown fox jumps over the lazy dog tonight",
    "es": "el rapido zorro marron salta sobre el perro perezoso",
    "pt": "a rapida raposa marrom pula sobre o cachorro preguicoso",
    "ja": "素早い茶色の狐が怠け者の犬を飛び越える",
    "th": "สุนัขจิ้งจอกสีน้ำตาลกระโดดข้ามหมาขี้เกียจ",
    "fi": "nopea ruskea kettu hyppaa laiskan koiran ylitse tanaan",
}


def synthesize(n: int, seed: int) -> list:
    """NDJSON lines with external labels and a per-language retweet bias."""
    rng = random.Random(seed)
    langs = list(RETWEET_APPETITE)
    start = dt.datetime(2019, 6, 1, tzinfo=dt.timezone.utc)
    lines = []
    for i in range(n):
        lang = rng.choice(langs)
        retweet = rng.random() < RETWEET_APPETITE[lang]
        record = {
            "id": str(i),
            "ts": int(start.timestamp()) + rng.randrange(0, 14 * 86400),
            "kind": "retweet" if retweet else rng.choice(["tweet", "reply"]),
            "text": SAMPLE_TEXTS[lang] + " #%d" % i,
            "lang": lang,
            "lang_confidence": round(rng.uniform(0.55, 0.99), 3),
        }
        lines.append(json.dumps(record).encode())
    return lines


def labeler_from(source: str):
    """The label chooser `contagion ingest --lid SOURCE` uses: from a record
    and one part's text to a language code."""
    if source == "external":
        return lambda record, text: lid.wire_label(record)
    model = lid.default_model()
    from contagion.sanitize import sanitize

    def label(record, text):
        if source == "both" and lid.wire_label(record) != lid.UND:
            return lid.wire_label(record)
        return lid.classify(model, sanitize(text)).language

    return label


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--messages", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--shards", type=int, default=4)
    ap.add_argument("--lid", default="external", choices=("builtin", "external", "both"))
    args = ap.parse_args()

    lines = synthesize(args.messages, args.seed)
    labeler = labeler_from(args.lid)

    # single pass and sharded pass; the merged result must be identical
    whole = tally.ingest_tally(lines, labeler)
    bounds = [
        (len(lines) * k // args.shards, len(lines) * (k + 1) // args.shards)
        for k in range(args.shards)
    ]
    parts = [tally.ingest_tally(lines[a:b], labeler) for a, b in bounds]
    merged = reduce(tally.merge, parts)
    print("sharded merge equals single pass:", merged == whole)

    buf = io.StringIO()
    tally.save_csv(whole, buf)
    rows = whole.rows()  # (date, language, f_ot, f_rt), sorted by date
    print("tally rows: %d cells spanning %s .. %s" % (len(whole), rows[0][0], rows[-1][0]))

    print("\n%-6s %8s %8s %8s %8s %10s" % ("lang", "f_ot", "f_rt", "ratio", "gain_db", "appetite"))
    for lang in sorted(whole.languages()):
        counts = [c for _, c in whole.day_counts(lang)]  # (f_ot, f_rt) per day
        f_ot = sum(c[0] for c in counts)
        f_rt = sum(c[1] for c in counts)
        ratio = metrics.contagion_ratio(f_ot, f_rt)
        gain = metrics.gain(f_ot, f_rt)
        appetite = RETWEET_APPETITE.get(lang)
        expect = "" if appetite is None else "%.3f" % (appetite / (1 - appetite))
        print("%-6s %8d %8d %8.3f %8.3f %10s" % (lang, f_ot, f_rt, ratio, gain, expect))
    print("\nratio > 1 (gain above %.4f dB) marks languages whose retweets"
          % metrics.CONTAGION_THRESHOLD_DB)
    print("outnumber their organically written messages.")


if __name__ == "__main__":
    main()
