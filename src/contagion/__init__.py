"""Measure how much of each language's daily message volume is retweeted.

The pipeline: parse NDJSON message streams, split them into organic (OT)
and retweeted (RT) units, sanitize the text, identify its language, tally
counts per language per day, and derive contagion ratios, decibel gains,
rank tables and Pareto fronts. Two label sources can be compared head to
head, and annual (volume, ratio) observations feed a Bayesian dynamic GLM
that forecasts the next year.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "cli", "compare", "forecast", "ingest", "lid", "metrics", "sampler", "sanitize", "tally",
)


def __getattr__(name: str):
    # PEP 562: ``contagion.forecast`` and the rest load on first access, so
    # importing the package (as every CLI call does) loads none of them,
    # and numpy only with the modules that compute with it
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
