"""Every name the benchmark's traced run patches still exists in the package.

``bench/run.py --trace 1`` wraps each function and method that
``bench/spans.py`` lists, by module and attribute name.  Some of them
(``numerics.slice_cols``, ``attention.nystrom_attention``, ...) are
called only by oracles and tests, so a simplification could delete one
without failing any other test; this test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _module(name):
    return importlib.import_module(f"detectbert.{name}")


def test_every_traced_function_exists():
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.FUNCTIONS + spans.NODE_FUNCTIONS
        if not callable(getattr(_module(module), attr, None))
    ]
    assert not missing, f"bench/spans.py traces names the package no longer has: {missing}"


def test_every_traced_method_exists():
    missing = [
        f"{module}.{cls}.{attr}"
        for module, cls, attr, _ in spans.METHODS
        if not callable(getattr(_module(module), cls).__dict__.get(attr))
    ]
    assert not missing, f"bench/spans.py traces methods the package no longer has: {missing}"
