"""Outside-in tracing of the package's public functions.

`Tracer.installed()` replaces each traced function by a wrapper that
records a span (name, start, end, parent span, document id, work count) and
puts every original back on exit.  Nothing inside the package changes.

Two details of the package shape this module:

* modules bind names with `from .groups import smith_normal_form`, so a
  wrapper is installed in every module namespace that holds the original
  (for example both `abelcover.groups` and `abelcover.cover`);
* the attribute `abelcover.classify` is the re-exported function, so
  modules are reached through `sys.modules`.

Spans stay in memory; `layer_metrics` turns them into per-document layer
metrics, where a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict
from math import comb
from statistics import median

PACKAGE_MODULES = (
    "abelcover", "abelcover.groups", "abelcover.cover", "abelcover.fiber",
    "abelcover.classify", "abelcover.cli",
)


def _snf_cells(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    return len(matrix) * (len(matrix[0]) if len(matrix) else 0)


def _closure_elements(args, kwargs, result):
    return len(result)


def _table_cells(args, kwargs, result):
    return len(result) ** 2


def _monomials_scanned(args, kwargs, result):
    data = args[0]
    max_degree = args[1] if len(args) > 1 else kwargs.get("max_degree", 12)
    return comb(max_degree + data.size, data.size)


#: (defining module, function or Class.method, work counter or None).
TARGETS = (
    ("abelcover.cli", "parse_input", None),
    ("abelcover.cli", "report_to_json_dict", None),
    ("abelcover.cli", "render_report", None),
    ("abelcover.cli", "cmd_validate", None),
    ("abelcover.cli", "cmd_classify", None),
    ("abelcover.cli", "cmd_fiber", None),
    ("abelcover.cli", "cmd_socle", None),
    ("abelcover.cli", "cmd_hilbert", None),
    ("abelcover.cli", "cmd_factor", None),
    ("abelcover.cover", "validate", None),
    ("abelcover.cover", "kernel_K", None),
    ("abelcover.cover", "ramification_factorization", None),
    ("abelcover.cover", "sum_map", None),
    ("abelcover.groups", "smith_normal_form", _snf_cells),
    ("abelcover.groups", "closure", _closure_elements),
    ("abelcover.groups", "solve_character_congruences", None),
    ("abelcover.fiber", "build_fiber_ring", None),
    ("abelcover.fiber", "socle_basis", None),
    ("abelcover.fiber", "hilbert_numerator", None),
    ("abelcover.fiber", "FiberRing.product_table", _table_cells),
    ("abelcover.fiber", "invariant_monomials_up_to_degree", _monomials_scanned),
    ("abelcover.classify", "classify", None),
    ("abelcover.classify", "gorenstein_lift", None),
    ("abelcover.classify", "gorenstein_watanabe", None),
    ("abelcover.classify", "lci_classify", None),
)

#: Per-layer metrics, each per document: summed self time in ms, number of
#: calls, or summed work count of the named traced functions.
SELF_MS = {
    "cli.parse_ms": ("parse_input",),
    "cli.render_ms": ("report_to_json_dict", "render_report"),
    "cli.command_ms": ("cmd_validate", "cmd_classify", "cmd_fiber", "cmd_socle",
                       "cmd_hilbert", "cmd_factor"),
    "cover.validate_ms": ("validate",),
    "cover.kernel_ms": ("kernel_K",),
    "cover.factor_ms": ("ramification_factorization",),
    "groups.snf_ms": ("smith_normal_form",),
    "groups.solve_ms": ("solve_character_congruences",),
    "groups.closure_ms": ("closure",),
    "fiber.build_ms": ("build_fiber_ring",),
    "fiber.socle_ms": ("socle_basis",),
    "fiber.hilbert_ms": ("hilbert_numerator",),
    "classify.self_ms": ("classify",),
    "classify.lift_ms": ("gorenstein_lift",),
    "classify.watanabe_ms": ("gorenstein_watanabe",),
    "classify.lci_ms": ("lci_classify",),
}
CALLS = {
    "cover.sum_map_calls": "sum_map",
    "groups.snf_calls": "smith_normal_form",
}
WORK = {
    "groups.snf_cells": "smith_normal_form",
    "groups.closure_elements": "closure",
    "fiber.table_cells": "FiberRing.product_table",
    "fiber.monomials_scanned": "invariant_monomials_up_to_degree",
}

#: (child, parent) pairs whose child spans count toward the parent's self
#: time: the coset scan of the congruence solve is a `closure` call, and it
#: belongs to the solve; `groups.closure_ms` keeps the other enumerations.
FOLDED = {("closure", "solve_character_congruences")}

NAME, START, END, PARENT, DOC, WORK_COUNT = range(6)

#: Prefix of the stderr line on which a traced CLI child reports its spans.
SPANS_MARKER = "bench-spans: "


class Tracer:
    """Span recorder.  `doc` is the id stamped on spans opened from now on.

    A span is stored as a tuple when it closes: tuples of atoms leave the
    garbage collector's tracking, so a long run does not slow collection."""

    def __init__(self):
        self.spans: list[list] = []
        self.doc = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.doc, 0)
            if counter is not None:
                spans[index] = (name, start, end, parent, self.doc, counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.bench_traced = True
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextlib.contextmanager
    def span(self, name: str, doc=None):
        """A span opened by the benchmark itself, e.g. one per document."""
        self.doc = doc
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, doc, 0)

    def install(self) -> None:
        modules = [sys.modules[m] for m in PACKAGE_MODULES]
        for home, attr, counter in TARGETS:
            owner = sys.modules[home]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(attr, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(attr, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def untouched() -> bool:
    """True when no module or class of the package holds a tracing wrapper."""
    for name in PACKAGE_MODULES:
        module = sys.modules.get(name)
        if module is None:
            continue
        for value in vars(module).values():
            if getattr(value, "bench_traced", False):
                return False
            if isinstance(value, type) and any(
                    getattr(v, "bench_traced", False) for v in vars(value).values()):
                return False
    return True


def self_times(spans) -> list[int]:
    """Self time of each span in ns: its duration minus its children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans, documents: int) -> dict[str, float]:
    """Per-document layer metrics from the spans of `documents` documents."""
    selfs = self_times(spans)
    ms = defaultdict(int)
    calls = defaultdict(int)
    work = defaultdict(int)
    for s, self_ns in zip(spans, selfs):
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        ms[parent if (s[NAME], parent) in FOLDED else s[NAME]] += self_ns
        calls[s[NAME]] += 1
        work[s[NAME]] += s[WORK_COUNT]
    out = {}
    for metric, names in SELF_MS.items():
        out[metric] = sum(ms[n] for n in names) / 1e6 / documents
    for metric, name in CALLS.items():
        out[metric] = calls[name] / documents
    for metric, name in WORK.items():
        out[metric] = work[name] / documents
    # Fiber routes that ran inside classify, over classify calls.
    classify_spans = {i for i, s in enumerate(spans) if s[NAME] == "classify"}
    with_fiber = {s[PARENT] for s in spans
                  if s[NAME] == "build_fiber_ring" and s[PARENT] in classify_spans}
    out["classify.fiber_routes_ratio"] = (
        len(with_fiber) / len(classify_spans) if classify_spans else 0.0)
    return out


def importtime_split(stderr: str) -> tuple[float, float]:
    """(cumulative ms of `abelcover.cli`, cumulative ms of `numpy`) from the
    `python -X importtime` log of `import abelcover.cli`."""
    cli_us = numpy_us = None
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == "abelcover.cli":
            cli_us = int(parts[1])
        elif name == "numpy":
            numpy_us = int(parts[1])
    if cli_us is None:
        raise ValueError("no import of abelcover.cli in the importtime log")
    return cli_us / 1000, (numpy_us or 0) / 1000


def median_split(logs) -> tuple[float, float]:
    pairs = [importtime_split(log) for log in logs]
    return median(p[0] for p in pairs), median(p[1] for p in pairs)
