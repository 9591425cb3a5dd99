"""Per-layer tracer for the benchmark's traced run.

It wraps the public entry points of each cstarframes module, and the
numpy.linalg calls the library makes, from outside the library: the
wrappers replace the module attributes (every binding of the same
function object across the package) and class attributes, and
`uninstall` puts the originals back.  Nothing under src/ changes.

Layer entry points record spans (name, start, end, parent, job) kept in
memory, where job is the index of the job's root span; self time is a
span's duration minus that of its child spans.  The hot calls of `modules`, `algebra` and `linalg` only bump counters
(calls and inclusive nanoseconds, the outermost call of a name only), so
their cost stays small and they never split a span's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns

# (module, attribute) pairs; "Class.method" wraps a method on the class.
SPANS = {
    "cli.main": ("cstarframes.cli", "main"),
    "serialization.parse": ("cstarframes.serialization", "parse"),
    "serialization.serialize": ("cstarframes.serialization", "serialize"),
    "frames.build": ("cstarframes.frames", "Frame.__init__"),
    "frames.tail": ("cstarframes.frames", "Frame.reconstruction_tail"),
    "certify.cond_a": ("cstarframes.certify", "check_condition_a"),
    "certify.cond_b": ("cstarframes.certify", "check_condition_b"),
    "certify.cond_cd": ("cstarframes.certify", "check_condition_cd"),
    "certify.equivalences": ("cstarframes.certify", "certify_equivalences"),
    "certify.series": ("cstarframes.certify", "series_decompose"),
    "seminorms.net": ("cstarframes.seminorms", "epsilon_net"),
    "seminorms.admissible": ("cstarframes.seminorms", "admissible_check"),
    "counterexample.build_setting": ("cstarframes.counterexample", "build_setting"),
    "counterexample.coeff_growth": ("cstarframes.counterexample", "coeff_growth"),
    "counterexample.tail_obstruction": ("cstarframes.counterexample", "tail_obstruction"),
}

COUNTERS = {
    "modules.inner_product": ("cstarframes.modules", "inner_product"),
    "modules.vector_norm": ("cstarframes.modules", "ModuleVector.norm"),
    "modules.submodule_distance": ("cstarframes.modules", "submodule_distance"),
    "modules.span_family": ("cstarframes.modules", "orthogonal_span_family"),
    "algebra.elements_built": ("cstarframes.algebra", "AlgebraElement.__post_init__"),
    "algebra.state_eval": ("cstarframes.algebra", "State.__call__"),
    "seminorms.pseudometric": ("cstarframes.seminorms", "pseudometric_eval"),
    "linalg.eigh": ("numpy.linalg", "eigh"),
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "linalg.svd": ("numpy.linalg", "svd"),
    "linalg.norm": ("numpy.linalg", "norm"),
    "linalg.pinv": ("numpy.linalg", "pinv"),
    "linalg.inv": ("numpy.linalg", "inv"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.bytes_in = 0
        self.bytes_out = 0
        self.norm2_calls = 0
        self.job = -1
        self._current = -1
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._current
            idx = len(spans)
            spans.append(None)
            if parent < 0:  # a root span starts a new job
                tracer.job = idx
            tracer._current = idx
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, _now(), parent, tracer.job)
                tracer._current = parent

        return wrapper

    def _counter(self, name, fn):
        stat = self.counters[name]
        depth = [0]

        def wrapper(*args, **kwargs):
            stat[0] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += _now() - start
                depth[0] = 0

        return wrapper

    def _parse(self, fn):
        def wrapper(kind, data):
            self.bytes_in += len(data)
            return fn(kind, data)

        return wrapper

    def _serialize(self, fn):
        def wrapper(value):
            out = fn(value)
            self.bytes_out += len(out)
            return out

        return wrapper

    def _norm(self, fn):
        def wrapper(x, ord=None, *args, **kwargs):
            if ord == 2:
                self.norm2_calls += 1
            return fn(x, ord, *args, **kwargs)

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _patch(self, module_name: str, attr: str, wrap) -> None:
        module = sys.modules[module_name]
        if "." in attr:  # a method: the one class attribute serves every caller
            cls_name, attr = attr.split(".")
            owners = [getattr(module, cls_name)]
            orig = owners[0].__dict__[attr]
        else:  # a function: replace every binding of it in the package
            orig = getattr(module, attr)
            owners = [
                m for n, m in list(sys.modules.items())
                if (m is module or n.startswith("cstarframes")) and getattr(m, attr, None) is orig
            ]
        wrapped = wrap(orig)
        for owner in owners:
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, orig))

    def install(self) -> None:
        inner = {
            "serialization.parse": self._parse,
            "serialization.serialize": self._serialize,
            "linalg.norm": self._norm,
        }
        for table, record in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, (module, attr) in table.items():
                first = inner.get(name, lambda f: f)
                self._patch(module, attr, lambda f, n=name, r=record, i=first: r(n, i(f)))

    def uninstall(self):
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def span_times(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, outermost inclusive ns, and self ns."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
        for i, (name, start, end, parent, _) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_ns"] += end - start - child_ns[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["incl_ns"] += end - start
        return dict(out)

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in ns, parent index, job."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
