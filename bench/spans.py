"""Spans around koszul's public functions, recorded from outside the package.

A :class:`Tracer` wraps every public function of the traced modules, plus a
few ``PolyMatrix`` methods, and rebinds each ``koszul`` module global and
class attribute that refers to one of them.  Rebinding the globals matters
because ``from .poly import sup_operator_norm`` copies the binding into the
importing module.  Nothing under ``src/`` is edited, and :meth:`uninstall`
puts every original back.

Each timed call becomes a span (operation, name, start, end, parent) kept in
memory; :meth:`Tracer.dump` writes them out.  A span's self time is its
duration minus the time covered by its child spans.  Calls into
``combinat`` are counted but not timed, because timing a call that small
costs more than the call; their time stays with the caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from math import comb, factorial

import numpy as np

MODULES = ("cli", "fixtures", "report", "assemble", "corona", "poly", "exterior",
           "opdet", "detk", "combinat", "estimates", "suite")
COUNT_ONLY = ("combinat",)
METHODS = {("poly", "PolyMatrix"): ("eval", "__matmul__", "__add__", "__sub__", "scale",
                                    "hstack")}
FILE_IO = ("fixtures.load_fixture", "fixtures.save_fixture", "fixtures.load_solution",
           "fixtures.save_solution")


def _det_k_minors(args, kwargs, result):
    B = kwargs.get("B", args[0] if args else None)
    k = kwargs.get("k", args[1] if len(args) > 1 else None)
    return comb(np.shape(getattr(B, "matrix", B))[0], k)


#: Work counts read from a call's arguments or result: span name ->
#: (metric, function returning the amount to add).
HOOKS = {
    "opdet.operator_det": ("opdet.perm_terms", lambda a, kw, r: factorial(len(a[0].blocks))),
    "detk.det_k": ("detk.minors", _det_k_minors),
    "poly.coefficient_match_solve": ("poly.lstsq_unknowns",
                                     lambda a, kw, r: r[1].system_shape[1]),
    "corona.scalar_corona_solve": ("corona.rows_failed", lambda a, kw, r: int(not r.success)),
}

#: Per-layer metrics read straight off one span name: metric -> (span, field).
#: ``poly.lstsq_s`` is the whole coefficient-space solve, including the grid
#: residual sweep that coefficient_match_solve runs after the least squares.
SPAN_METRICS = {
    "poly.eval_calls": ("poly.PolyMatrix.eval", "calls"),
    "poly.eval_s": ("poly.PolyMatrix.eval", "s"),
    "poly.sup_norm_calls": ("poly.sup_operator_norm", "calls"),
    "poly.sup_norm_s": ("poly.sup_operator_norm", "s"),
    "poly.lstsq_s": ("poly.coefficient_match_solve", "s"),
    "poly.matmul_calls": ("poly.PolyMatrix.__matmul__", "calls"),
    "poly.matmul_s": ("poly.PolyMatrix.__matmul__", "s"),
    "opdet.operator_det_calls": ("opdet.operator_det", "calls"),
    "opdet.operator_det_s": ("opdet.operator_det", "s"),
    "opdet.numeric_rank_calls": ("opdet.numeric_rank", "calls"),
    "opdet.numeric_rank_s": ("opdet.numeric_rank", "s"),
    "exterior.q_matrix_calls": ("exterior.q_matrix", "calls"),
    "exterior.q_matrix_s": ("exterior.q_matrix", "s"),
    "exterior.chain_row_s": ("exterior.chain_row", "s"),
    "detk.det_k_calls": ("detk.det_k", "calls"),
    "detk.det_k_s": ("detk.det_k", "s"),
    "corona.check_hypotheses_s": ("corona.check_hypotheses", "s"),
    "corona.pointwise_solve_calls": ("corona.pointwise_min_norm_solution", "calls"),
    "corona.pointwise_solve_s": ("corona.pointwise_min_norm_solution", "s"),
    "corona.corona_row_calls": ("corona.corona_row", "calls"),
    "corona.scalar_solve_s": ("corona.scalar_corona_solve", "s"),
    "assemble.solve_full_s": ("assemble.solve_full", "s"),
    "assemble.build_Gi_calls": ("assemble.build_Gi", "calls"),
    "assemble.build_Gi_s": ("assemble.build_Gi", "s"),
    "assemble.radical_s": ("assemble.radical_necessary_check", "s"),
    "cli.main_s": ("cli.main", "s"),
    "estimates.alpha_check_s": ("estimates.alpha_hypothesis_check", "s"),
    "suite.battery_s": ("suite.run_identity_suite", "s"),
    "combinat.insertion_sign_calls": ("combinat.insertion_sign", "calls"),
    "combinat.enumerate_tuples_calls": ("combinat.enumerate_tuples", "calls"),
}

SELF_TIME_MODULES = ("poly", "opdet", "exterior", "detk", "corona", "assemble", "cli")


def _targets():
    """(span name, module, function) for everything a Tracer wraps."""
    out = []
    for mod_name in MODULES:
        try:
            mod = importlib.import_module(f"koszul.{mod_name}")
        except ImportError:
            continue
        for name, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not name.startswith("_")):
                out.append((f"{mod_name}.{name}", mod_name, value))
    for (mod_name, cls_name), names in METHODS.items():
        cls = getattr(sys.modules.get(f"koszul.{mod_name}"), cls_name, None)
        for name in names:
            fn = vars(cls).get(name) if cls is not None else None
            if inspect.isfunction(fn):
                out.append((f"{mod_name}.{cls_name}.{name}", mod_name, fn))
    return out


class Tracer:
    """Per-pass span recorder; install it around each operation."""

    def __init__(self):
        self.spans: list = []       # [op, name, start, end, parent index]
        self.ops: list = []         # operation names, indexed by the span's op
        self.calls: dict = {}       # name -> call count
        self.inclusive: dict = {}   # name -> seconds of outermost calls of that name
        self.self_s: dict = {}      # module -> self seconds
        self.module_top: dict = {}  # module -> seconds of calls not made from that module
        self.extra: dict = {}       # hook metric -> summed amount
        self.broken: set = set()    # hook metrics whose hook failed
        self._stack: list = []      # open frames: [module, child seconds, span index, name]
        self._active: dict = {}     # name -> open call depth
        self._wrapped = {}          # id(original) -> (original, wrapper)
        self._rebound: list = []    # (owner, attribute, original)
        for name, module, fn in _targets():
            self.calls[name] = 0
            self.inclusive[name] = 0.0
            self.self_s.setdefault(module, 0.0)
            self.module_top.setdefault(module, 0.0)
            wrapper = self._count(name, fn) if module in COUNT_ONLY else self._time(name, module, fn)
            self._wrapped[id(fn)] = (fn, wrapper)
        self.modules = set(self.self_s)

    # -- wrappers ---------------------------------------------------------

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _time(self, name, module, fn):
        stack, spans, active = self._stack, self.spans, self._active
        hook = HOOKS.get(name)
        perf = time.perf_counter
        active[name] = 0

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append([len(self.ops) - 1, name, 0.0, 0.0,
                          parent[2] if parent else -1])
            frame = [module, 0.0, index, name]
            stack.append(frame)
            active[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[name] -= 1
                self._close(frame, parent, start, end)
            if hook is not None:
                self._hook(hook, args, kwargs, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def _close(self, frame, parent, start, end):
        module, child_s, index, name = frame
        span = self.spans[index]
        span[2], span[3] = start, end
        duration = end - start
        self.calls[name] += 1
        if not self._active[name]:
            self.inclusive[name] += duration
        self.self_s[module] += duration - child_s
        if parent is None or parent[0] != module:
            self.module_top[module] += duration
        if parent is not None:
            parent[1] += duration

    def _hook(self, hook, args, kwargs, result):
        metric, amount = hook
        try:
            self.extra[metric] = self.extra.get(metric, 0) + amount(args, kwargs, result)
        except Exception:  # a changed signature leaves the metric absent
            self.broken.add(metric)

    # -- installation -----------------------------------------------------

    def install(self, op_name: str) -> None:
        """Rebind every koszul global and class attribute to its wrapper."""
        self.ops.append(op_name)
        seen = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "koszul" and not mod_name.startswith("koszul."):
                continue
            self._rebind(mod)
            for value in list(vars(mod).values()):
                if (inspect.isclass(value) and id(value) not in seen
                        and value.__module__.startswith("koszul")):
                    seen.add(id(value))
                    self._rebind(value)

    def _rebind(self, owner) -> None:
        for attr, value in list(vars(owner).items()):
            pair = self._wrapped.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(owner, attr, pair[1])
                self._rebound.append((owner, attr, value))

    def uninstall(self) -> None:
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self, grid_touches: int) -> dict:
        """Per-layer metrics of the traced operations; a metric whose span
        name is not defined by the program is left out."""
        out = {}
        for metric, (name, field) in SPAN_METRICS.items():
            if name in self.calls:
                out[metric] = self.calls[name] if field == "calls" else self.inclusive[name]
        for module in SELF_TIME_MODULES:
            if module in self.modules:
                out[f"{module}.self_s"] = self.self_s[module]
        if "report" in self.modules:
            out["report.emit_s"] = self.module_top["report"]
        io_names = [n for n in FILE_IO if n in self.calls]
        if io_names:
            out["fixtures.io_calls"] = sum(self.calls[n] for n in io_names)
            out["fixtures.io_s"] = sum(self.inclusive[n] for n in io_names)
        if "poly.PolyMatrix.eval" in self.calls:
            evals = self.calls["poly.PolyMatrix.eval"]
            out["poly.evals_per_point"] = evals / grid_touches if grid_touches else 0.0
        for name, (metric, _) in HOOKS.items():
            if name in self.calls and metric not in self.broken:
                out[metric] = self.extra.get(metric, 0)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"ops": self.ops, "fields": ["op", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
