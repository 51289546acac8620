#!/usr/bin/env python3
"""Agreement audit between two label sources on one message stream.

Labels every message twice: once with the built-in character n-gram
classifier, once with the external label carried on the record.  A
configurable fraction of external labels is corrupted so the report has
something to show: confusion cells off the diagonal, per-language count
divergence, and the ratio margin measured on the subset both sources agree
on.

    python3 demos/classifier_agreement.py --corrupt 0.1
"""

import argparse
import datetime as dt
import json
import random

from contagion import compare, ingest, lid
from contagion.sanitize import char_count, sanitize

TEXTS = {
    "en": "the committee will meet on thursday to discuss the annual budget",
    "es": "el comite se reunira el jueves para discutir el presupuesto anual",
    "pt": "o comite se reunira na quinta-feira para discutir o orcamento anual",
    "fi": "komitea kokoontuu torstaina keskustelemaan vuosibudjetista tarkasti",
    "sv": "kommitten sammantrader pa torsdag for att diskutera arsbudgeten",
    "de": "der ausschuss trifft sich am donnerstag um das jahresbudget zu besprechen",
}


def synthesize(n: int, corrupt: float, seed: int):
    rng = random.Random(seed)
    langs = list(TEXTS)
    start = int(dt.datetime(2019, 6, 1, tzinfo=dt.timezone.utc).timestamp())
    for i in range(n):
        lang = rng.choice(langs)
        external = lang
        if rng.random() < corrupt:  # simulate a disagreeing second source
            external = rng.choice([lg for lg in langs if lg != lang])
        yield ingest.MessageRecord(
            id=str(i),
            ts=start + rng.randrange(0, 3 * 86400),
            kind=rng.choice(["tweet", "reply", "retweet"]),
            text=TEXTS[lang] + " %d" % i,
            quoted_text=None,
            external_label=external,
            external_confidence=round(rng.uniform(0.6, 0.99), 3),
        )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--messages", type=int, default=1500)
    ap.add_argument("--corrupt", type=float, default=0.1,
                    help="fraction of external labels replaced with a wrong one")
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    model = lid.default_model()
    pairs = []
    for record in synthesize(args.messages, args.corrupt, args.seed):
        for category, text in ingest.categorize(record):
            pairs.append(compare.LabeledPair(
                day=record.day(),
                category=category,
                label_a=lid.classify(model, sanitize(text)).language,
                label_b=lid.wire_label(record),
                chars=char_count(text),
            ))

    report = compare.agreement_report(pairs)
    matrix = report.confusion

    print("confusion matrix (rows: built-in, columns: external):")
    header = "%8s" % "" + "".join("%8s" % lab for lab in matrix.labels)
    print(header)
    for lab, row in zip(matrix.labels, matrix.counts):
        print("%8s" % lab + "".join("%8d" % c for c in row))

    print("\nper-language count divergence (0 = identical volumes):")
    for lang, d in sorted(report.divergence_by_language.items()):
        print("  %-5s %.4f" % (lang, d))

    print("\nratio margin |R - R_agree| (None when a side has no organics):")
    for lang, m in sorted(report.margin_by_language.items()):
        print("  %-5s %s" % (lang, "None" if m is None else "%.4f" % m))

    mismatches = report.mismatch_by_length.total()
    print("\npairs: %d   label mismatches: %d (%.2f%%, corruption was %.0f%%)"
          % (report.n_pairs, mismatches, 100 * mismatches / report.n_pairs,
             100 * args.corrupt))
    print("\nfull report as JSON:")
    doc = compare.report_to_dict(report)
    print(json.dumps({k: doc[k] for k in ("n_pairs", "period")}, indent=2))


if __name__ == "__main__":
    main()
