"""Every function the benchmark's tracer wraps must exist in blockpoly.

``bench/tracer.py`` looks each ``SPANS`` entry up with ``getattr`` when a
traced run starts, so a renamed or deleted function would only show as an
``AttributeError`` in ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tracer = _load_tracer()
    assert tracer.SPANS
    for home, fname in tracer.SPANS:
        assert callable(getattr(importlib.import_module(home), fname, None)), (
            f"{home}.{fname} is traced by bench/tracer.py but does not exist"
        )
    for name in tracer.MODULES:
        importlib.import_module(name)
