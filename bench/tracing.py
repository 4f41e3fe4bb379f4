"""In-memory span recorder and module-boundary wrappers for the traced run.

A span is (name, start, end, parent); a tag, where given, is appended to
the name.  The benchmark opens spans around its own calls into mmtensor;
``Tracer.install`` also wraps public functions at the module boundary, from
the benchmark side only, so that the stages inside ``laderman_variant``,
``census`` and ``recursive_multiply`` get spans.  mmtensor's files are not
changed.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs wrapped wherever mmtensor modules refer to them.
FUNCTIONS = (
    ("constructions", "laderman_variant"),
    ("constructions", "correction_term"),
    ("constructions", "merge_shared_factors"),
    ("isotropy", "act"),
    ("isotropy", "orbit_sum"),
    ("isotropy", "monomial_stabilizer_search"),
    ("tensor", "to_coefficient_form"),
    ("tensor", "tensor_type"),
    ("transforms", "tensor_project"),
    ("tensorfile", "read_tensor_file"),
    ("tensorfile", "write_tensor_file"),
    ("codegen", "extract_schedule"),
)
# Matrix kernels, wrapped on the class.
METHODS = (("matmul", "__matmul__"), ("add", "__add__"), ("scale", "scale"),
           ("rank", "rank"), ("inverse", "inverse"))
# Span names whose self time is a per-layer metric; names with a tag count
# towards their untagged prefix.
LAYERS = ("cli.run",) + tuple(f"{m}.{f}" for m, f in FUNCTIONS) + (
    "codegen.recursive_multiply",) + tuple(f"matrix.{s}" for s, _ in METHODS)
# Spans whose argument and result term counts are added to ``counters``.
TERM_COUNTS = {"constructions.merge_shared_factors"}


class Tracer:
    """Records spans while installed; aggregates them per op afterwards."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = defaultdict(int)
        self.patches = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        idx = self.open(f"{name}.{tag}" if tag else name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name, fn):
        count_terms = name in TERM_COUNTS

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count_terms:
                self.counters[f"{name}.terms_in"] += len(args[0].terms)
                self.counters[f"{name}.terms_out"] += len(result.terms)
            return result
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every listed function in every mmtensor module naming it."""
        from mmtensor.matrix import Matrix
        modules = [m for k, m in sys.modules.items()
                   if k == "mmtensor" or k.startswith("mmtensor.")]
        for short, fname in FUNCTIONS:
            orig = getattr(sys.modules[f"mmtensor.{short}"], fname)
            wrapped = self._wrap(f"{short}.{fname}", orig)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is orig:
                        self.patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for short, meth in METHODS:
            orig = Matrix.__dict__[meth]
            self.patches.append((Matrix, meth, orig))
            setattr(Matrix, meth, self._wrap(f"matrix.{short}", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()

    # -- aggregation ----------------------------------------------------------

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Seconds of self time per span name over spans [first, last)."""
        child = defaultdict(float)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(float)
        for i in range(first, last):
            out[self.names[self.name_of[i]]] += (
                self.end[i] - self.start[i] - child[i])
        return out

    def calls(self, first: int, last: int) -> dict[str, int]:
        out = defaultdict(int)
        for i in range(first, last):
            out[self.names[self.name_of[i]]] += 1
        return out

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_of[i]],
                                     self.start[i], self.end[i],
                                     self.parent[i]]) + "\n")
