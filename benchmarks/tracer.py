"""Per-layer spans for minksurf, recorded from outside the package.

Every traced function is replaced, in each ``minksurf`` module that binds
it, by a wrapper that records a span: name, start, end, parent span and
job id.  Callers resolve these names at call time (``verify_surface`` in
``minksurf.cli``, ``solve_psi`` in ``minksurf.surfaces``, ``evaluate`` in
``minksurf.forms`` ...), so the wrappers see every call and nothing under
``src/`` changes.  ``uninstall`` puts the original functions back.

Self time is a span's duration minus the time its child spans cover.  Hot
leaves (``expr.evaluate`` runs ~10^4-10^5 times per job, the ``fd``
stencils dozens of times per surface) are aggregated into a call count and
a total time instead of one span record per call.  Spans stay in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (defining module, function, span name, aggregate): layer = span name prefix
POINTS = (
    ("minksurf.cli", "main", "cli.main", False),
    ("minksurf.config", "load_config", "config.load", False),
    ("minksurf.expr", "parse_expr", "expr.parse", False),
    ("minksurf.expr", "differentiate", "expr.differentiate", False),
    ("minksurf.expr", "evaluate", "expr.evaluate", True),
    ("minksurf.domain", "sample_data", "domain.sample", False),
    ("minksurf.forms", "build_xi", "forms.build_xi", False),
    ("minksurf.integrate", "solve_psi", "integrate.transport", False),
    ("minksurf.integrate", "solve_path_system", "integrate.transport", False),
    ("minksurf.integrate", "integrate_closed_form", "integrate.quadrature", False),
    ("minksurf.integrate", "iteration_law_defect", "integrate.iteration_law", False),
    ("minksurf.surfaces", "make_affine_surface", "surfaces.affine", False),
    ("minksurf.surfaces", "make_quadric_surface", "surfaces.quadric", False),
    ("minksurf.surfaces", "uy_perturb", "surfaces.uy_perturb", False),
    ("minksurf.surfaces", "make_lw_bryant", "surfaces.lw", False),
    ("minksurf.verify", "verify_surface", "verify.verify_surface", False),
    ("minksurf.verify", "first_form", "verify.first_form", False),
    ("minksurf.fd", "central_diff", "fd.stencil", True),
    ("minksurf.fd", "second_diff", "fd.stencil", True),
    ("minksurf.fd", "mixed_diff", "fd.stencil", True),
    ("minksurf.fd", "stencil_valid", "fd.stencil", True),
    ("minksurf.meshout", "export_mesh", "meshout.export", False),
    ("minksurf.meshout", "project_surface", "meshout.project", False),
    ("minksurf.meshout", "triangulate", "meshout.triangulate", False),
    ("minksurf.meshout", "_write_obj", "meshout.obj", False),
    ("minksurf.meshout", "_write_ply", "meshout.ply", False),
    ("minksurf.meshout", "write_curvature_csv", "meshout.csv", False),
    ("minksurf.meshout", "write_report", "meshout.report", False),
)


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def _bound(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _observe_evaluate(tr, fn, args, kwargs, result, parent):
    # positional fast path: evaluate(e, z) runs ~10^4-10^5 times per job
    z = args[1] if len(args) > 1 else kwargs.get("z")
    tr.counts["expr.points_evaluated"] += int(np.size(z))


def _observe_transport(tr, fn, args, kwargs, result, parent):
    if parent is not None and parent[0] == "integrate.transport":
        return      # solve_psi -> solve_path_system is one transport
    bound = _bound(fn, args, kwargs)
    grid = bound.get("grid")
    frames = len(bound.get("frames", ())) or 1
    if grid is not None:
        edges = (grid.nu - 1) + (grid.nv - 1) * grid.nu
        tr.counts["integrate.frame_edges"] += frames * edges
    drifts = getattr(result, "det_drifts", None)
    if drifts is None:
        drifts = [getattr(result, "det_drift", float("nan"))]
    for d in drifts:
        tr.note_max("integrate.det_drift_max", float(d))


def _observe_surface(tr, fn, args, kwargs, result, parent):
    surface = result[0] if isinstance(result, tuple) else result
    mask = np.asarray(surface.mask, dtype=bool)
    tr.counts["surfaces.nodes"] += mask.size
    tr.counts["surfaces.masked"] += int(mask.size - mask.sum())


def _observe_verify(tr, fn, args, kwargs, result, parent):
    tr.counts["verify.surfaces"] += 1
    if result.interior is not None:
        tr.counts["verify.nodes_gated"] += int(np.sum(result.interior))


def _observe_export(tr, fn, args, kwargs, result, parent):
    tr.counts["meshout.vertices"] += int(result[0])
    tr.counts["meshout.faces"] += int(result[1])


OBSERVERS = {
    "expr.evaluate": _observe_evaluate,
    "integrate.transport": _observe_transport,
    "surfaces.affine": _observe_surface,
    "surfaces.quadric": _observe_surface,
    "surfaces.uy_perturb": _observe_surface,
    "surfaces.lw": _observe_surface,
    "verify.verify_surface": _observe_verify,
    "meshout.export": _observe_export,
}


class Tracer:
    """Spans, self times and counts for one traced stretch of a run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []                 # [name, start, end, parent index, job]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)   # calls entering a span name from outside it
        self.counts = defaultdict(float)
        self.missing = []               # trace points absent from this commit
        self.job = None
        self._stack = []                # open frames: [name, child seconds, span index]
        self._patched = []

    def note_max(self, key, value):
        """Running maximum of finite values (jobs gate non-finite ones)."""
        if np.isfinite(value) and value > self.counts.get(key, -np.inf):
            self.counts[key] = value

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "minksurf" or name.startswith("minksurf."))]
        for modname, attr, span_name, aggregate in POINTS:
            try:
                original = getattr(importlib.import_module(modname), attr, None)
            except ImportError:
                original = None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, span_name, aggregate)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording --------------------------------------------------------

    def _enter(self, name, record):
        stack = self._stack
        parent = stack[-1] if stack else None
        if record:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent[2] if parent else None, self.job])
        else:
            index = parent[2] if parent else None
        frame = [name, 0.0, index]
        stack.append(frame)
        return parent, frame

    def _leave(self, name, parent, frame, start, end, record):
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
        if parent is None or parent[0] != name:
            self.calls[name] += 1
        if record:
            span = self.spans[frame[2]]
            span[1], span[2] = start, end

    def _wrap(self, fn, name, aggregate):
        observe = OBSERVERS.get(name)
        clock = self.clock
        record = not aggregate

        def wrapper(*args, **kwargs):
            parent, frame = self._enter(name, record)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, parent, frame, start, clock(), record)
            if observe is not None:
                observe(self, fn, args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def span(self, name, job=None):
        """Open a span from the harness itself (one per job)."""
        if job is not None:
            self.job = job
        parent, frame = self._enter(name, True)
        start = self.clock()
        try:
            yield
        finally:
            self._leave(name, parent, frame, start, self.clock(), True)

    # -- results ----------------------------------------------------------

    def layer_self_s(self):
        out = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[layer_of(name)] += seconds
        return dict(out)

    def durations(self, name, job=None):
        """Inclusive durations of the recorded spans with this name."""
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (job is None or s[4] == job)]

    def dump(self, path, extra=None):
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": self.spans,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "missing_points": self.missing,
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
