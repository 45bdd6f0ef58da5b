"""Spans around calls into bohreq's public functions, recorded from outside.

``Tracer.install`` replaces each named function by a wrapper in every bohreq
module namespace that holds it, so calls made through names one module
imports from another (``zeros.evaluate``, ``equivalence.size_reduce``) are
traced too.  A span is (name, start, end, parent); spans are kept in flat
arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array
from pathlib import Path

import numpy as np

#: Traced functions, as (module, attribute path) pairs.
TARGETS = (
    ("lattice", "lll_reduce"),
    ("lattice", "size_reduce"),
    ("lattice", "integer_left_kernel"),
    ("lattice", "solve_integer_rows"),
    ("lattice", "diagonalize"),
    ("equivalence", "solve_phase_system"),
    ("equivalence", "closure_demo"),
    ("basis", "compute_basis"),
    ("valuesets", "sample_strip_direct"),
    ("valuesets", "sample_strip_via_equivalence"),
    ("valuesets", "sample_line"),
    ("valuesets", "hausdorff"),
    ("valuesets", "kronecker_find_t"),
    ("evaluation", "evaluate"),
    ("evaluation", "evaluate_grid"),
    ("evaluation", "uniform_distance"),
    ("core", "SeriesSpec.numeric_exponents"),
    ("zeros", "count_zeros"),
    ("zeros", "sigma_star"),
    ("seriesio", "parse_series_file"),
    ("seriesio", "atomic_write_text"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: While set, wrapped calls record nothing (the benchmark's own checks).
        self.paused = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(idx)

    def _wrap(self, name: str, fn):
        tracer_begin, tracer_finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = tracer_begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer_finish(idx)

        return traced

    def install(self) -> None:
        """Wrap every target wherever a bohreq module refers to it."""
        import bohreq

        modules = [bohreq] + [
            importlib.import_module(f"bohreq.{info.name}")
            for info in pkgutil.iter_modules(bohreq.__path__)
            if info.name != "__main__"
        ]
        for module_name, attr in TARGETS:
            owner = importlib.import_module(f"bohreq.{module_name}")
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self._wrap(f"{module_name}.{attr}", original)
            if outer:  # a method: patch the class only
                self._patch(owner, leaf, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def totals(self, first: int, last: int) -> dict[str, float]:
        """calls, ms and self_ms per name over spans first..last-1."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[first:last]
            - np.frombuffer(self.start, dtype=np.float64)[first:last]
        ) * 1e3
        child = np.zeros(len(dur))
        inside = parent >= first
        np.add.at(child, parent[inside] - first, dur[inside])
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            sel = name_id == i
            if sel.any():
                out[f"{name}.calls"] = float(sel.sum())
                out[f"{name}.ms"] = float(dur[sel].sum())
                out[f"{name}.self_ms"] = float((dur[sel] - child[sel]).sum())
        return out

    def write(self, path: Path) -> None:
        """All spans as parallel arrays in one compressed NumPy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
