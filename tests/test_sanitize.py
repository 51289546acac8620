"""Sanitizer unit tests: the documented examples plus the cleanup invariants."""

import random

from contagion.sanitize import EMOJI_RANGES, REMOVAL_CLASSES, char_count, sanitize


def test_full_cleanup_example():
    out = sanitize("RT @user: Hello world https://t.co/xyz #greetings")
    assert out.text == "Hello world"
    assert out.removed_counts["rt_prefix"] == 1
    assert out.removed_counts["link"] == 1
    assert out.removed_counts["hashtag"] == 1


def test_empty_input():
    out = sanitize("")
    assert out.text == ""
    assert set(out.removed_counts) == set(REMOVAL_CLASSES)
    assert all(v == 0 for v in out.removed_counts.values())


def test_entity_example():
    out = sanitize("&gt; bonjour &amp; merci")
    assert out.text == "bonjour merci"
    assert out.removed_counts["html_entity"] == 2


def test_char_count():
    assert char_count("abc") == 3
    assert char_count("") == 0
    assert char_count("\U0001f600") == 1  # one code point, not Twitter weighting
    assert char_count("a" * 300) == 300  # may exceed 280


def test_rt_prefix_rules():
    assert sanitize("RT @user: hi").text == "hi"
    assert sanitize("RT hi").text == "hi"  # bare RT token
    # case-sensitive and start-anchored
    assert sanitize("rt @user: hi").text == "rt : hi"
    assert sanitize("ok RT @u: x").text == "ok RT : x"
    assert sanitize("RTs are fine").text == "RTs are fine"


def test_url_variants():
    assert sanitize("see https://t.co/abc now").text == "see now"
    assert sanitize("see http://x.y now").text == "see now"
    assert sanitize("www.example.com first").text == "first"
    assert sanitize("HTTPS://X.CO y").text == "y"  # scheme match is case-insensitive


def test_hashtag_and_handle_word_chars():
    assert sanitize("#tag rest").text == "rest"
    assert sanitize("#日本語 test").text == "test"  # non-ASCII letters
    assert sanitize("@user_name ok").text == "ok"
    assert sanitize("@üser ok").text == "ok"
    # bare markers are not tokens
    assert sanitize("# @ &").text == "# @ &"


def test_html_entity_bounds():
    assert sanitize("&gt;x").text == "x"
    assert sanitize("&toolongentity; x").text == "&toolongentity; x"
    assert sanitize("& amp; x").text == "& amp; x"  # space breaks the entity


def test_numeric_entity_loses_digits_to_hashtag_rule():
    # hashtags are stripped before entities, and "#128512" is a hashtag
    # token, so a numeric entity leaves only the "&;" husk behind
    out = sanitize("&#128512;x")
    assert out.text == "&;x"
    assert out.removed_counts["hashtag"] == 1
    assert out.removed_counts["html_entity"] == 0


def test_emoji_removal():
    assert sanitize("\U0001f600☀️").text == ""
    assert sanitize("hi \U0001f600 there").text == "hi there"
    counts = sanitize("\U0001f1EB\U0001f1EE flag").removed_counts
    assert counts["emoji"] == 2  # regional indicators count per code point


def test_whitespace_collapse():
    assert sanitize("a \t b\n\nc").text == "a b c"
    assert sanitize("   padded   ").text == "padded"


def test_nested_entity_needs_second_pass():
    # "&am&amp;p;" leaves "&amp;" after one pass; the fixpoint removes it too
    out = sanitize("&am&amp;p;")
    assert out.text == ""
    assert out.removed_counts["html_entity"] == 2


def test_revealed_rt_prefix_needs_second_pass():
    out = sanitize("@u RT hi")
    assert out.text == "hi"
    assert out.removed_counts["handle"] == 1
    assert out.removed_counts["rt_prefix"] == 1


def test_link_only_and_emoji_only_vanish():
    assert sanitize("https://t.co/a https://t.co/b").text == ""
    assert sanitize("\U0001f600\U0001f601\U0001f602").text == ""


def _fuzz_strings(n: int, seed: int):
    rnd = random.Random(seed)
    pool = [
        "word", "RT", "@user", "#tag", "&amp;", "&#x;", "&gt;", "http://a.b",
        "www.c", "\U0001f600", "❤", "️", "‍", "café",
        "日本", " ", "  ", "\t", "\n", "@", "#", "&", ";", ":",
        "हि", "ру", "x" * 30,
    ]
    for _ in range(n):
        yield "".join(rnd.choice(pool) for _ in range(rnd.randrange(0, 40)))


def test_idempotence_and_monotonicity_fuzz():
    for raw in _fuzz_strings(2000, seed=4):
        once = sanitize(raw)
        twice = sanitize(once.text)
        assert twice.text == once.text
        assert char_count(once.text) <= char_count(raw)
        # nothing removable may survive sanitization
        assert all(v == 0 for v in twice.removed_counts.values())


def test_emoji_table_endpoints_removed_and_counted():
    # each range's first and last code point is emoji; the code point just
    # past either end is kept unless another range holds it
    def in_table(cp):
        return any(lo <= cp <= hi for lo, hi in EMOJI_RANGES)

    for lo, hi in EMOJI_RANGES:
        assert lo <= hi
        for cp in (lo, hi):
            out = sanitize("a%sb" % chr(cp))
            assert out.text == "ab"
            assert out.removed_counts == dict.fromkeys(REMOVAL_CLASSES, 0) | {"emoji": 1}
        for cp in (lo - 1, hi + 1):
            if not in_table(cp):
                out = sanitize("a%sb" % chr(cp))
                assert out.text == "a%sb" % chr(cp)
                assert out.removed_counts["emoji"] == 0
