"""Span tracing around calls into zeno_qfi, installed from outside the package.

Modules bind imported names at import time (``zeno.py`` calls its own
``evolve``, which is the object ``channels.evolve`` held when ``zeno`` was
imported), so a function is wrapped under every name it is looked up by:
each module attribute and each module-level dict entry that holds it.
Constructors are wrapped on the class, so ``isinstance`` checks still hold.

Spans are kept in memory as tuples and written out when the run ends; self
time is derived from them afterwards, never measured inside the wrapper.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "zeno_qfi"


def _amps_rotation(pauli, theta, state):
    return state.dim


def _amps_operator(op, state):
    return state.dim * (len(op.terms) if hasattr(op, "terms") else 1)


def _gram_entries(h_hat, basis, psi_full, tau, dense_cap=None):
    k = len(basis.elements)
    return k * (k + 1) // 2


def _traced_elems(rho, labels, keep):
    return rho.dim * rho.dim


# The traced functions as (module, attribute).  "Class.__init__" wraps the
# constructor, reported as "module.Class".
TRACED = (
    ("states", "StateVector.__init__"),
    ("states", "tensor_state"),
    ("states", "register_order"),
    ("states", "system_env_matrix"),
    ("states", "from_system_env_matrix"),
    ("paulis", "OperatorSum.__init__"),
    ("paulis", "apply_operator"),
    ("paulis", "pauli_rotation_apply"),
    ("paulis", "to_dense"),
    ("dense", "partial_trace"),
    ("dense", "hermitian_expm"),
    ("channels", "build_dephasing_model"),
    ("channels", "generator"),
    ("channels", "evolve"),
    ("channels", "kraus_from_dilation"),
    ("channels", "apply_channel"),
    ("zeno", "survival_probability_exact"),
    ("zeno", "conditional_state"),
    ("zeno", "zeno_hamiltonian"),
    ("qfi", "qfi_sld_oracle"),
    ("qfi", "minimize_qfi_bound"),
    ("qfi", "conjugate_env_operator"),
    ("sweeps", "run_verify"),
    ("sweeps", "run_ratio_vs_n"),
    ("sweeps", "run_qfi_vs_gamma"),
    ("sweeps", "run_zeno_time"),
    ("cli", "run"),
)

# Work counts computed from a traced call's arguments: span name ->
# (counter name, count).  They repeat exactly for a workload round.
COUNTERS = {
    "paulis.apply_operator": ("paulis.amps", _amps_operator),
    "paulis.pauli_rotation_apply": ("paulis.amps", _amps_rotation),
    "dense.partial_trace": ("dense.partial_trace.elems", _traced_elems),
    "qfi.minimize_qfi_bound": ("qfi.gram_entries", _gram_entries),
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in TRACED)
COUNTER_NAMES = tuple(dict.fromkeys(c for c, _ in COUNTERS.values()))


def _set(target, key, value):
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


class Tracer:
    """Records spans (id, parent id, op id, name, start, end) while
    installed.  No traced function calls itself, so busy time is the plain
    sum of a name's span durations."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn):
        counter, count = COUNTERS.get(name, (None, None))
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counters[tracer.op_id][counter] += count(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, tracer.op_id, name, t0, t1)

        return wrapper

    def root(self, name, op_id, fn):
        """Call ``fn()`` inside a root span; spans below it carry ``op_id``."""
        self.op_id = op_id
        return self._wrap(name, fn)()

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module, attr in TRACED:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._patch(value, dkey, original, wrapper)

    def _patch(self, target, key, original, wrapper):
        _set(target, key, wrapper)
        self._patches.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            _set(target, key, original)
        self._patches.clear()

    def layer_totals(self) -> dict[int, dict[str, list[float]]]:
        """Per op id: name -> [calls, busy seconds, self seconds]."""
        child = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0])
        )
        for sid, _, op, name, t0, t1 in self.spans:
            row = out[op][name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
