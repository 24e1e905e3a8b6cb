"""Outside-in tracing: wrap public functions of gradedsrc at their call sites.

A module-level function is patched in every gradedsrc module that binds
its name, so calls through ``from .linalg import kernel_basis`` are seen.
A self-recursive target is not patched in its own module: its inner calls
would be counted twice.  Methods are patched on their class.  A target the
program no longer defines is reported as absent.

Spans are aggregated in memory per target: calls, total time and self time
(the span minus the time its traced children took, tracer bookkeeping
included).  Counters are computed by hooks that run outside the span's
clock and are excluded from the enclosing spans as well.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter


def _matrix_counts(matrix, ring, ncols=None):
    nnz = sum(1 for row in matrix for a in row if not ring.is_zero(a))
    cols = ncols if ncols is not None else (len(matrix[0]) if matrix else 0)
    return {"rows": len(matrix), "cols": cols, "nnz": nnz}


def _lift_counts(lifted):
    ring = lifted.base_ring
    rows = len(lifted.matrix)
    cols = len(lifted.col_index)
    nnz = sum(1 for row in lifted.matrix for a in row if not ring.is_zero(a))
    return {"cells": rows * cols, "nnz": nnz}


@dataclass(frozen=True)
class Target:
    name: str  # metric prefix: defining module, then qualified name
    module: str
    attr: str
    cls: str | None = None
    is_classmethod: bool = False
    recursive: bool = False
    counters: tuple = ()
    before: object = None  # (args, kwargs) -> counter increments
    after: object = None  # result -> counter increments


TARGETS = (
    Target("groups.FiniteGroup.symmetric", "groups", "symmetric", cls="FiniteGroup",
           is_classmethod=True),
    Target("groups.folner_search", "groups", "folner_search"),
    Target("groups.folner_ratio_ok", "groups", "folner_ratio_ok", counters=("accepted",),
           after=lambda r: {"accepted": int(bool(r))}),
    Target("groups.product_set", "groups", "product_set"),
    Target("groups.ball", "groups", "ball", counters=("elements",),
           after=lambda r: {"elements": len(r)}),
    Target("srcsolve.solve_src", "srcsolve", "solve_src"),
    Target("srcsolve.lift_system", "srcsolve", "lift_system", counters=("cells", "nnz"),
           after=_lift_counts),
    Target("srcsolve.assemble_solution", "srcsolve", "assemble_solution"),
    Target("srcsolve.verify_solution", "srcsolve", "verify_solution"),
    Target("srcsolve.truncated_kernel", "srcsolve", "truncated_kernel"),
    Target("linalg.kernel_basis", "linalg", "kernel_basis", recursive=True,
           counters=("rows", "cols", "nnz", "vectors"),
           before=lambda args, kwargs: _matrix_counts(*args, **kwargs),
           after=lambda r: {"vectors": len(r)}),
    Target("linalg.determinant", "linalg", "determinant"),
    Target("linalg.rank", "linalg", "rank"),
    Target("coeff.ExtField.mul", "coeff", "mul", cls="ExtField"),
    Target("coeff.ExtField.inv", "coeff", "inv", cls="ExtField"),
    Target("coeff.ExtField.sub", "coeff", "sub", cls="ExtField"),
    Target("coeff.ff_extend", "coeff", "ff_extend"),
    Target("gring.GRElement.mul", "gring", "__mul__", cls="GRElement"),
    Target("bartholdi.search_set_system", "bartholdi", "search_set_system"),
    Target("bartholdi.SetSystem.validate", "bartholdi", "validate", cls="SetSystem",
           counters=("accepted",), after=lambda r: {"accepted": int(bool(r[0]))}),
    Target("bartholdi.construct_alphas", "bartholdi", "construct_alphas",
           counters=("attempts", "extension_degree"),
           after=lambda r: {"attempts": r.provenance["attempt"] + 1,
                            "extension_degree": r.field.k}),
    Target("bartholdi.verify_alphas", "bartholdi", "verify_alphas"),
    Target("bartholdi.admissible_families", "bartholdi", "admissible_families",
           counters=("families",), after=lambda r: {"families": len(r)}),
    Target("bartholdi.theta_certify", "bartholdi", "theta_certify", counters=("ncols", "rank"),
           after=lambda r: {"ncols": r.ncols, "rank": r.rank}),
    Target("bartholdi.theta_apply", "bartholdi", "theta_apply"),
    Target("serialize.system_from_json", "serialize", "system_from_json"),
    Target("serialize.solution_to_json", "serialize", "solution_to_json"),
    Target("cli.emit", "cli", "emit"),
)

# Counters that keep the largest value seen instead of a sum.
MAX_COUNTERS = {"extension_degree"}


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> {counter: value}
        self.absent = set()  # targets the program does not define
        self.broken = set()  # targets whose counter hook failed
        self._stack = []  # per open span: time taken by its traced children
        self._undo = []  # (object, attribute, original value) per patch

    def install(self, targets=TARGETS):
        modules = [m for n, m in sys.modules.items() if n.startswith("gradedsrc.")]
        for t in targets:
            try:
                owner = importlib.import_module(f"gradedsrc.{t.module}")
            except ImportError:
                self.absent.add(t.name)
                continue
            holder = getattr(owner, t.cls, None) if t.cls else owner
            raw = None if holder is None else vars(holder).get(t.attr)
            if raw is None:
                self.absent.add(t.name)
                continue
            self.spans[t.name] = [0, 0.0, 0.0]
            self.counts[t.name] = dict.fromkeys(t.counters, 0)
            if t.cls and t.is_classmethod:
                self._patch(holder, t.attr, classmethod(self._wrap(t, raw.__func__)))
            elif t.cls:
                self._patch(holder, t.attr, self._wrap(t, raw))
            else:
                wrapped = self._wrap(t, raw)
                for mod in modules:
                    if vars(mod).get(t.attr) is raw and not (mod is owner and t.recursive):
                        self._patch(mod, t.attr, wrapped)

    def _patch(self, obj, attr, value):
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def _wrap(self, target, fn):
        def traced(*args, **kwargs):
            return self.call(target.name, fn, args, kwargs, target)

        traced.__wrapped__ = fn
        return traced

    def _count(self, target, hook, *args):
        try:
            incr = hook(*args)
        except Exception:  # a changed return type loses the counter, not the run
            self.broken.add(target.name)
            return
        counts = self.counts[target.name]
        for k, v in incr.items():
            counts[k] = max(counts[k], v) if k in MAX_COUNTERS else counts[k] + v

    def call(self, name, fn, args, kwargs, target=None):
        enter = perf_counter()
        if target is not None and target.before is not None:
            self._count(target, target.before, args, kwargs)
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            stop = perf_counter()
            self._stack.pop()
            span = self.spans.setdefault(name, [0, 0.0, 0.0])
            span[0] += 1
            span[1] += stop - start
            span[2] += stop - start - frame[0]
            if self._stack:
                self._stack[-1][0] += stop - enter
        if target is not None and target.after is not None:
            t = perf_counter()
            self._count(target, target.after, result)
            if self._stack:
                self._stack[-1][0] += perf_counter() - t
        return result

    def report(self, emitted_bytes: int) -> dict:
        metrics = {}
        for name, (calls, total, self_s) in self.spans.items():
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.total_s"] = total
            metrics[f"{name}.self_s"] = self_s
        for name, counts in self.counts.items():
            if name not in self.broken:
                metrics.update({f"{name}.{k}": v for k, v in counts.items()})
        metrics["cli.emit.bytes"] = emitted_bytes
        return {"metrics": metrics, "absent": sorted(self.absent), "broken": sorted(self.broken)}
