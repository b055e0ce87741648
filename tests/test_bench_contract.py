"""The benchmark's tracer names library functions by (module, attribute).

A deletion or rename in ``zeno_qfi`` that drops one of those names breaks
``perfbench/run.py --trace 1``; these tests catch it first.  They read
``perfbench/spans.py`` and never edit it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
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
    import zeno_qfi.cli  # noqa: F401
    from zeno_qfi import channels

    original = channels.evolve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert channels.evolve is not original
    finally:
        tracer.uninstall()
    assert channels.evolve is original


def test_tracer_counters_count():
    """One call each at N = 1 under the installed tracer moves every work
    counter the benchmark reports.  ``install`` looks every traced module up
    in ``sys.modules``, so the CLI, which imports them all, comes first."""
    import zeno_qfi.cli  # noqa: F401
    from zeno_qfi import channels, dense, paulis, qfi, states

    model = channels.build_dephasing_model(1, 1.0, 1.0)
    labels = model.labels
    psi = states.tensor_state(states.plus_state(1), states.zero_environment(1))
    rho = dense.DenseOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    basis = qfi.EnvOperatorBasis.single_qubit_paulis(labels)
    h_hat = channels.generator(model)

    def calls():
        paulis.apply_operator(h_hat, psi)
        paulis.pauli_rotation_apply(paulis.PauliTerm(1.0, "ZX"), 0.3, psi)
        dense.partial_trace(rho, labels, states.SYSTEM)
        qfi.minimize_qfi_bound(h_hat, basis, psi, 0.5)

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.root("calls", 0, calls)
    finally:
        tracer.uninstall()
    counts = tracer.counters[0]
    for name in ("paulis.amps", "dense.partial_trace.elems", "qfi.gram_entries"):
        assert counts[name] > 0, name


def test_tracer_records_the_oracles_generator_calls():
    """The SLD oracle looks ``generator`` up under a name the tracer wraps,
    so each traced oracle call records one ``channels.generator`` span,
    the cached sum included."""
    import zeno_qfi.cli  # noqa: F401
    from zeno_qfi import channels, qfi, states

    model = channels.build_dephasing_model(1, 1.0, 1.0)

    def calls():
        for _ in range(2):
            qfi.qfi_sld_oracle(model, states.plus_state(1), 0.5)

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.root("calls", 0, calls)
    finally:
        tracer.uninstall()
    assert [span[3] for span in tracer.spans].count("channels.generator") == 2
