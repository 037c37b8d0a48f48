"""Spans and counters installed on ``hha`` from the outside.

``Tracer.install`` rebinds public functions and methods of the ``hha``
modules to timing wrappers; ``uninstall`` restores the originals.  Nothing in
``src/`` changes.  A wrapper keeps a stack of open spans: a span's self time
is its duration minus the durations of the spans opened inside it, which on
one thread are exactly the intervals its children cover.

Scalar arithmetic is counted by a separate ``ScalarCounter`` in its own pass,
so that counting millions of multiplies does not inflate any span.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Every call of these is a span: (module, qualified name) -> span name.
# A traced catalog pass records about 75 000 spans (10 MB of JSON lines).
SPANS = {
    ("cli", "main"): "cli.main",
    ("documents", "parse_input"): "documents.parse",
    ("documents", "load_document"): "documents.load",
    ("documents", "report_document"): "documents.report",
    ("documents", "report_json"): "documents.report",
    ("catalog", "check_entry"): "catalog.check_entry",
    ("constructions", "joyce_build"): "constructions.joyce_build",
    ("constructions", "arroyo_nicolini"): "constructions.arroyo_nicolini",
    ("constructions", "direct_sum"): "constructions.direct_sum",
    ("constructions", "barberis_fino"): "constructions.barberis_fino",
    ("classify", "classify_metric"): "classify.classify_metric",
    ("classify", "solve_exactness"): "classify.solve_exactness",
    ("classify", "einstein_factor"): "classify.einstein_factor",
    ("classify", "sl_and_class_check"): "classify.sl_check",
    ("classify", "conformal_class_obstruction"): "classify.obstruction",
    ("classify", "qgau_family_symbolic_check"): "classify.family_checks",
    ("classify", "family_qsg_obstruction"): "classify.family_checks",
    ("classify", "qbal_nonexistence_certificate"): "classify.family_checks",
    ("hypercomplex", "Geometry.__init__"): "hypercomplex.geometry",
    ("hypercomplex", "Geometry.rotated"): "hypercomplex.rotated",
    ("hermitian", "Metric.__init__"): "hermitian.metric_init",
    ("hermitian", "Metric.canonical_forms"): "hermitian.canonical_forms",
    ("hermitian", "Metric.curvature"): "hermitian.curvature",
    ("hermitian", "Metric.in_rotated_frame"): "hermitian.in_rotated_frame",
    ("hermitian", "Metric.lefschetz_adjoint"): "hermitian.lefschetz_adjoint",
    ("liealg", "LieAlgebraData.validate"): "liealg.validate",
    ("hermitian", "Metric.omega_power"): "hermitian.omega_power",
    ("hermitian", "Metric.inner_product"): "hermitian.inner_product",
    ("hypercomplex", "ComplexFrame.d"): "hypercomplex.d",
    ("hypercomplex", "ComplexFrame.del_j"): "hypercomplex.del_j",
    ("liealg", "LieAlgebraData.ce_differential"): "liealg.ce_differential",
    ("forms", "Form.wedge"): "forms.wedge",
    ("forms", "Form.wedge_power"): "forms.wedge_power",
    ("forms", "Form.substitute"): "forms.substitute",
    ("forms", "Form.contract"): "forms.contract",
    ("linalg", "det"): "linalg.det",
    ("linalg", "solve"): "linalg.solve",
    ("linalg", "inverse"): "linalg.inverse",
    ("linalg", "rank"): "linalg.rank",
    ("linalg", "hermitian_definiteness"): "linalg.definiteness",
}
# Inclusive time per call is also kept by real dimension for these.
BY_DIMENSION = {"classify.classify_metric": lambda m, *a, **k: m.geometry.algebra.dim,
                "forms.wedge_power": lambda f, *a, **k: f.nsym}
# The matrix order is recorded for these.
MATRIX_ARGUMENT = {"linalg.det", "linalg.solve", "linalg.inverse", "linalg.rank",
                   "linalg.definiteness"}


def _hha_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "hha" or name.startswith("hha.")]


def _resolve(module: str, qualname: str):
    """(owner, attribute, original) for a function or method of ``hha.module``."""
    owner = sys.modules[f"hha.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


class _Patches:
    """Rebinds functions everywhere ``hha`` holds them, and undoes it."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if inspect.isclass(owner):
            return
        # ``from .module import name`` copies the binding into other modules.
        for mod in _hha_modules():
            for name, value in list(vars(mod).items()):
                if value is original and (mod, name) != (owner, attr):
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def undo(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Tracer:
    """Span stack, per-name self and inclusive time, and span records."""

    def __init__(self):
        self.input_id = None
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.by_dim = defaultdict(lambda: [0, 0.0])   # (name, dim) -> [calls, s]
        self.wedge_terms_out = 0
        self.max_order = 0
        self.records = []   # (name, start, end, parent record index, input id)
        self._stack = []    # open spans: [seconds covered by children, record index]
        self._active = Counter()
        self._patches = _Patches()

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack
        dim_of = BY_DIMENSION.get(name)
        matrix = name in MATRIX_ARGUMENT
        wedge = name == "forms.wedge"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, len(tracer.records)]
            tracer.records.append(None)
            stack.append(frame)
            outermost = tracer._active[name] == 0
            tracer._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._active[name] -= 1
                seconds = end - start
                if parent is not None:
                    parent[0] += seconds
                tracer.calls[name] += 1
                tracer.self_s[name] += seconds - frame[0]
                tracer.records[frame[1]] = (
                    name, start, end, parent[1] if parent else None, tracer.input_id)
                if dim_of is not None and outermost:
                    cell = tracer.by_dim[(name, dim_of(*args, **kwargs))]
                    cell[0] += 1
                    cell[1] += seconds
                if matrix:
                    tracer.max_order = max(tracer.max_order, len(args[0]))
            if wedge:
                tracer.wedge_terms_out += len(result.terms)
            return result

        return wrapper

    def install(self):
        for (module, qualname), name in SPANS.items():
            owner, attr, original = _resolve(module, qualname)
            self._patches.replace(owner, attr, original, self._wrap(name, original))

    def uninstall(self):
        self._patches.undo()

    def write(self, path):
        """Span records as JSON lines, times relative to the first span."""
        t0 = self.records[0][1] if self.records else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, input_id) in enumerate(self.records):
                fh.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "input": input_id, "start_s": start - t0,
                    "end_s": end - t0}) + "\n")


class ScalarCounter:
    """Counts Scalar multiplies, adds and inverses, and irrational multiplies."""

    def __init__(self):
        self.counts = Counter()
        self._patches = _Patches()

    def install(self):
        scalar = sys.modules["hha.scalars"].Scalar
        counts = self.counts
        mul, add, inv = scalar.__mul__, scalar.__add__, scalar.inverse

        def counted_mul(self, other):
            counts["mul"] += 1
            if self.d or getattr(other, "d", 0):
                counts["irrational_mul"] += 1
            return mul(self, other)

        def counted_add(self, other):
            counts["add"] += 1
            return add(self, other)

        def counted_inverse(self):
            counts["inverse"] += 1
            return inv(self)

        for attr, wrapper, original in (("__mul__", counted_mul, mul),
                                        ("__rmul__", counted_mul, mul),
                                        ("__add__", counted_add, add),
                                        ("__radd__", counted_add, add),
                                        ("inverse", counted_inverse, inv)):
            self._patches.replace(scalar, attr, original, wrapper)

    def uninstall(self):
        self._patches.undo()
