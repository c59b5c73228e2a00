"""In-memory spans around memkern's public functions, installed from outside.

A span is ``[name, start, end, parent span, op id]``.  ``Tracer.install``
swaps each target for a wrapper on its owning module or class, and also
rebinds every ``memkern`` module attribute that holds the same object, so
names imported by value (``from .kernels import one_star_k_eval`` in
``solver``, ``l_eval`` in ``geometry``, ``solve`` in ``harnack``) are caught
when the package calls them internally.  The source tree is never edited.

A span's self time is its duration minus the time its direct children
cover.  Counters are kept at the same boundaries, computed from the
arguments (array sizes), never from inside the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter


def _count_points(name):
    """Evaluation points ``p`` of a Laplace-plane call."""
    def prepare(tracer, args, kwargs):
        p = args[1] if len(args) > 1 else kwargs["p"]
        tracer.counters[name + ".points"] += int(getattr(p, "size", 1))
        return args, kwargs
    return prepare


def _count_inversion(tracer, args, kwargs):
    """Time points inverted through the Laplace-plane integral.

    The key of a distinct point is (op, theta, t): sampling ``l`` twice for
    the same measure at the same time is repeated work.
    """
    t = args[1] if len(args) > 1 else kwargs["t"]
    theta = args[2] if len(args) > 2 else kwargs.get("theta", 0.0)
    values = t.ravel().tolist() if hasattr(t, "ravel") else [float(t)]
    tracer.counters["kernels.inversion.times"] += len(values)
    key = (tracer.op, float(theta))
    tracer.inversion_keys.update((key, v) for v in values)
    return args, kwargs


def _count_history(tracer, args, kwargs):
    """History matvec of one step reads (m-1) slices of ``du`` (computed)."""
    stepper = args[0]
    m = stepper.m + 1
    tracer.counters["solver.history.bytes_computed"] += (
        max(m - 1, 0) * stepper.grid.n_total * 8)
    return args, kwargs


def _count_cg(tracer, args, kwargs):
    """Count CG iterations through the preconditioner's matvec."""
    precond = kwargs.get("M")
    if precond is None:
        return args, kwargs
    from scipy.sparse.linalg import LinearOperator

    def matvec(v):
        tracer.counters["solver.cg.iterations"] += 1
        return precond.matvec(v)

    kwargs = dict(kwargs, M=LinearOperator(precond.shape, matvec=matvec,
                                           dtype=precond.dtype))
    return args, kwargs


# (owner, attribute, span name, argument hook); the owner is a module or a
# class reached from one.
TARGETS = [
    ("memkern.measure", "sin_cos_moments", "measure.sin_cos_moments",
     _count_points("measure.sin_cos_moments")),
    ("memkern.kernels", "h_laplace_eval", "kernels.h_laplace_eval",
     _count_points("kernels.h_laplace_eval")),
    ("memkern.kernels", "l_eval", "kernels.l_eval", _count_inversion),
    ("memkern.kernels", "r_theta_eval", "kernels.r_theta_eval",
     _count_inversion),
    ("memkern.kernels", "resolvent_running_integral",
     "kernels.resolvent_running_integral", _count_inversion),
    ("memkern.kernels", "resolvent_tables", "kernels.resolvent_tables",
     _count_inversion),
    ("memkern.kernels", "one_star_k_eval", "kernels.one_star_k_eval", None),
    ("memkern.kernels", "sample_kernel", "kernels.sample_kernel", None),
    ("memkern.kernels", "bound_certificates", "kernels.bound_certificates",
     None),
    ("memkern.volterra", "sample_l", "volterra.sample_l", None),
    ("memkern.volterra", "sample_k", "volterra.sample_k", None),
    ("memkern.volterra", "conv", "volterra.conv", None),
    ("memkern.volterra", "sonine_partner", "volterra.sonine_partner", None),
    ("memkern.geometry", "phi", "geometry.phi", None),
    ("memkern.geometry", "scaling_certificate",
     "geometry.scaling_certificate", None),
    ("memkern.solver", "solve", "solver.solve", None),
    ("memkern.solver.TimeStepper", "__init__", "solver.TimeStepper.__init__",
     None),
    ("memkern.solver.TimeStepper", "advance", "solver.TimeStepper.advance",
     _count_history),
    ("scipy.sparse.linalg", "cg", "solver.cg", _count_cg),
    ("memkern.harnack", "harnack_ensemble", "harnack.harnack_ensemble", None),
    ("memkern.harnack", "weak_harnack_ratio", "harnack.weak_harnack_ratio",
     None),
    ("memkern.harnack", "oscillation_profile", "harnack.oscillation_profile",
     None),
    ("memkern.cli", "main", "cli.main", None),
]

COUNTERS = ("measure.sin_cos_moments.points", "kernels.h_laplace_eval.points",
            "kernels.inversion.times", "solver.history.bytes_computed",
            "solver.cg.iterations", "cli.bytes_written")

# The untraced run keeps only the ensemble-member boundary, so that member
# times exist without the per-layer wrappers.
OP_CLOCK_TARGETS = [t for t in TARGETS
                    if t[2] in ("solver.solve", "harnack.weak_harnack_ratio")]


def _resolve(owner_path):
    parts = owner_path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(owner_path)


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.inversion_keys: set = set()
        self.op = None
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def install(self, targets) -> None:
        for owner_path, attr, name, prepare in targets:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, prepare)
            self._rebind(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "memkern" and not mod_name.startswith("memkern."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, prepare):
        spans, open_spans, errors = self.spans, self._open, self.errors
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(tracer, args, kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0,
                          open_spans[-1] if open_spans else -1, tracer.op])
            open_spans.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = time.perf_counter()
                open_spans.pop()
                span = spans[index]
                span[1] = start
                span[2] = end
        return wrapper

    # -- summaries ---------------------------------------------------------

    def stats(self) -> dict:
        """Per span name: calls, total and self seconds, errors."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent, _op) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        for name, count in self.errors.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                  "self_s": 0.0})["errors"] = count
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _n, start, end, parent, _op in self.spans
                   if parent < 0)

    def write(self, path, extra: dict) -> None:
        """Write the spans once, names interned, times relative to the first."""
        names: dict[str, int] = {}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[names.setdefault(name, len(names)), round(start - origin, 9),
                 round(end - origin, 9), parent, op]
                for name, start, end, parent, op in self.spans]
        doc = {"fields": ["name", "start_s", "end_s", "parent", "op"],
               "names": list(names), "spans": rows, "stats": self.stats(),
               "counters": dict(self.counters), **extra}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
