"""Every name the benchmark's tracer patches resolves in the library.

bench/tracing.py wraps library functions by module and attribute name, so
a rename or deletion in src/ would only surface when the benchmark runs.
This test reads the tracer's tables and looks each name up.
"""

import importlib.util

import pytest

from conftest import REPO


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


@pytest.mark.parametrize(
    "path, attr",
    [(path, attr) for path, attr, _ in TRACING.SPANS + TRACING.HOT + TRACING.GENERATORS],
)
def test_tracer_target_resolves(path, attr):
    assert callable(getattr(TRACING._target(path), attr))
