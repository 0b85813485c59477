"""Spans and counts around the public calls into each stokeslab module.

The tracer wraps functions from outside the library.  Python modules bind
imported names at import time, so each wrap goes on the name where its
caller looks it up (``stokeslab.driver.solve_direct``, not
``stokeslab.linalg.solve_direct``).  A target that no longer exists is
skipped, and a layer whose targets are all gone is reported as absent.

A span is ``[layer, start, end, parent index]``.  A layer's self time is the
sum of its spans' durations minus the durations of their child spans.  Work
the tracer does for its own counts runs in ``trace.bookkeeping_s`` spans, so
it is not charged to the layer that was being measured.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time
from contextlib import contextmanager

BOOKKEEPING = "trace.bookkeeping_s"

# reported self-time layers, in call-tree order
TIME_LAYERS = (
    "cli.self_s",
    "mesh.build_s",
    "driver.self_s",
    "formulations.assemble_s",
    "linalg.triplets_s",
    "cases.constraints_s",
    "linalg.constrain_s",
    "linalg.factor_s",
    "linalg.solve_s",
    "analysis.error_norms_s",
    "analysis.spectrum_s",
    "analysis.mass_s",
    "linalg.eig_s",
    "vtk_io.write_s",
)

# derived metric -> the layer whose wraps produce it
DERIVED_FROM = {
    "mesh.n_elements": "mesh.build_s",
    "formulations.elements_per_s": "formulations.assemble_s",
    "formulations.calls": "formulations.assemble_s",
    "linalg.triplets_in": "linalg.triplets_s",
    "linalg.nnz": "linalg.triplets_s",
    "linalg.dup_ratio": "linalg.triplets_s",
    "linalg.lu_fill": "linalg.factor_s",
    "linalg.pivot_ratio": "linalg.factor_s",
    "linalg.residual": "driver.self_s",
    "analysis.eig_n": "linalg.eig_s",
    "vtk_io.bytes": "vtk_io.write_s",
    "cases.callable_calls": "cases.callables",
}


def _mesh_built(c, args, kwargs, mesh):
    c["mesh.n_elements"] += mesh.n_elements


def _assembled(c, args, kwargs, result):
    c["formulations.calls"] += 1
    c["formulations.elements"] += args[0].n_elements


def _triplets(c, args, kwargs, matrix):
    c["linalg.triplets_in"] += len(args[3])  # (cls, n_rows, n_cols, rows, ...)
    c["linalg.nnz"] += matrix.nnz


def _factored(c, args, kwargs, lu):
    U = lu.U
    c["linalg.a_nnz"] += args[0].nnz
    c["linalg.lu_nnz"] += lu.L.nnz + U.nnz
    pivots = abs(U.diagonal())
    ratio = float(pivots.min() / pivots.max())
    c["linalg.pivot_ratio"] = min(c.get("linalg.pivot_ratio", ratio), ratio)


def _solved(c, args, kwargs, solution):
    c["linalg.residual"] = max(c.get("linalg.residual", 0.0), solution.residual)


def _eig(c, args, kwargs, result):
    c["analysis.eig_n"] += len(args[0])


def _written(c, args, kwargs, result):
    c["vtk_io.bytes"] += os.path.getsize(args[0])


# (layer, module, attribute path, hook run after the call)
TARGETS = (
    ("cli.self_s", "stokeslab.cli", "main", None),
    ("mesh.build_s", "stokeslab.cli", "generate_grid", _mesh_built),
    ("mesh.build_s", "stokeslab.analysis", "generate_grid", _mesh_built),
    ("driver.self_s", "stokeslab.cli", "solve_case", _solved),
    ("driver.self_s", "stokeslab.analysis", "solve_case", _solved),
    ("formulations.assemble_s", "stokeslab.driver", "assemble", _assembled),
    ("formulations.assemble_s", "stokeslab.driver", "assemble_enriched", _assembled),
    ("formulations.assemble_s", "stokeslab.analysis", "assemble", _assembled),
    ("formulations.assemble_s", "stokeslab.analysis", "assemble_enriched", _assembled),
    ("linalg.triplets_s", "stokeslab.linalg", "SparseMatrix.from_triplets", _triplets),
    ("cases.constraints_s", "stokeslab.driver", "apply_case", None),
    ("linalg.constrain_s", "stokeslab.cases", "apply_constraints", None),
    ("linalg.factor_s", "stokeslab.linalg", "spla.splu", _factored),
    ("linalg.solve_s", "stokeslab.driver", "solve_direct", None),
    ("analysis.error_norms_s", "stokeslab.analysis", "error_norms", None),
    ("analysis.spectrum_s", "stokeslab.analysis", "lbb_spectrum", None),
    ("analysis.mass_s", "stokeslab.analysis", "pressure_mass_matrix", None),
    ("linalg.eig_s", "stokeslab.analysis", "eig_sym_generalized", _eig),
    ("vtk_io.write_s", "stokeslab.cli", "write_vtk", _written),
    ("vtk_io.write_s", "stokeslab.cli", "write_csv", _written),
)

# where test cases are made; their Python callables get call counters
CASE_FACTORIES = (("stokeslab.cli", "case_by_name"),
                  ("stokeslab.analysis", "case_by_name"))
CASE_CALLABLES = ("body_force", "exact_velocity", "exact_pressure",
                  "exact_pressure_grad")


def _resolve(module, path):
    """(owner, attribute name, raw attribute) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    def __init__(self):
        self.reset()
        self._stack = []
        self._patches = []
        self.present = set()
        for layer, module, path, _ in TARGETS:
            if _resolve(module, path) is not None:
                self.present.add(layer)
        if any(_resolve(m, p) for m, p in CASE_FACTORIES):
            self.present.add("cases.callables")

    def _span(self, layer, fn, *args, **kwargs):
        index = len(self.spans)
        span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _run_hook(self, hook, args, kwargs, result):
        try:
            hook(self.counts, args, kwargs, result)
        except Exception as exc:  # a changed signature must not stop the run
            self.hook_errors.append(f"{hook.__name__}: {exc!r}")

    def _wrapped(self, layer, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(layer, fn, *args, **kwargs)
            if hook is not None:
                self._span(BOOKKEEPING, self._run_hook, hook, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts["cases.callable_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def _case_factory(self, fn):
        @functools.wraps(fn)
        def make_case(*args, **kwargs):
            case = fn(*args, **kwargs)
            try:
                fields = {name: self._counted(getattr(case, name)) for name in
                          CASE_CALLABLES if callable(getattr(case, name, None))}
                fields["dirichlet"] = {tag: self._counted(f)
                                       for tag, f in case.dirichlet.items()}
                return dataclasses.replace(case, **fields)
            except Exception as exc:  # a changed TestCase must not stop the run
                self.hook_errors.append(f"case callables: {exc!r}")
                return case
        return make_case

    def _patch(self, found, new):
        owner, attr, _ = found
        self._patches.append(found)
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        """Wrap every present target for the duration of the block."""
        try:
            for layer, module, path, hook in TARGETS:
                found = _resolve(module, path)
                if found is None:
                    continue
                raw = found[2]
                if isinstance(raw, classmethod):
                    self._patch(found, classmethod(self._wrapped(layer, raw.__func__, hook)))
                else:
                    self._patch(found, self._wrapped(layer, raw, hook))
            for module, path in CASE_FACTORIES:
                found = _resolve(module, path)
                if found is not None:
                    self._patch(found, self._case_factory(found[2]))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def reset(self):
        self.spans = []
        self.counts = {key: 0 for key in (
            "mesh.n_elements", "formulations.calls", "formulations.elements",
            "linalg.triplets_in", "linalg.nnz", "linalg.a_nnz", "linalg.lu_nnz",
            "analysis.eig_n", "vtk_io.bytes", "cases.callable_calls")}
        self.hook_errors = []

    def take_pass(self, wall_s):
        """Per-layer metrics of the pass just traced, whose harness-measured
        wall time is ``wall_s``; then forget its spans and counts."""
        child_s = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_s = dict.fromkeys(TIME_LAYERS + (BOOKKEEPING,), 0.0)
        for (layer, start, end, _), children in zip(self.spans, child_s):
            self_s[layer] += (end - start) - children
        c = self.counts
        layers = dict(self_s)
        layers.update({
            "mesh.n_elements": c["mesh.n_elements"],
            "formulations.calls": c["formulations.calls"],
            "formulations.elements_per_s": (
                c["formulations.elements"] / self_s["formulations.assemble_s"]
                if self_s["formulations.assemble_s"] > 0 else 0.0),
            "linalg.triplets_in": c["linalg.triplets_in"],
            "linalg.nnz": c["linalg.nnz"],
            "linalg.dup_ratio": (c["linalg.triplets_in"] / c["linalg.nnz"]
                                 if c["linalg.nnz"] else 0.0),
            "linalg.lu_fill": (c["linalg.lu_nnz"] / c["linalg.a_nnz"]
                               if c["linalg.a_nnz"] else 0.0),
            "linalg.pivot_ratio": c.get("linalg.pivot_ratio", 0.0),
            "linalg.residual": c.get("linalg.residual", 0.0),
            "analysis.eig_n": c["analysis.eig_n"],
            "vtk_io.bytes": c["vtk_io.bytes"],
            "cases.callable_calls": c["cases.callable_calls"],
            "trace.unattributed_s": wall_s - sum(self_s.values()),
        })
        origin = self.spans[0][1] if self.spans else 0.0
        record = {
            "layers": layers,
            "spans": [[layer, start - origin, end - origin, parent]
                      for layer, start, end, parent in self.spans],
            "hook_errors": self.hook_errors,
        }
        self.reset()
        return record

    def absent(self):
        """Reported metrics whose layer has no wrap target left."""
        layers = [m for m in TIME_LAYERS if m not in self.present]
        derived = [m for m, layer in DERIVED_FROM.items() if layer not in self.present]
        return layers + derived
