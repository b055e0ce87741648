"""The benchmark's tracer names library functions by (module, attribute).

A deletion or rename in ``zeno_qfi`` that drops one of those names breaks
``perfbench/run.py --trace 1``; these tests catch it first.  They read
``perfbench/spans.py`` and never edit it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, attr", spans.TRACED)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # The tracer wraps the method found in the class's own namespace.
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_counters_name_traced_spans():
    assert set(spans.COUNTERS) <= set(spans.SPAN_NAMES)


def test_tracer_installs_and_restores():
    from zeno_qfi import channels

    original = channels.evolve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert channels.evolve is not original
    finally:
        tracer.uninstall()
    assert channels.evolve is original
