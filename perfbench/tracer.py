"""Per-layer spans recorded around calls into vecot's modules.

A layer is one module of ``src/vecot``.  Every public function of a layer
(its ``__all__``, or its non-underscore functions when it has none) is
wrapped, and the wrapper is installed at every place the function is
bound: on its own module, on the package, and on every vecot module that
imported it by name (``from .lp import solve`` in scalar, vector, chain
and applications; the solvers and ``canonical_dumps`` in cli).  Patching
``vecot.lp.solve`` alone would miss nearly every call.

A call made while a span of the same layer is open (``solve_vertex``
calling ``solve``, ``dominates_n`` calling ``dominates``, ``to_jsonable``
recursing) runs unwrapped: the open span already covers it, so nested
spans of one layer count once.  A layer's self time is its span time
minus the time of the child spans of other layers it caused.  Time spent
in modules that are not layers (``measures``, ``tolerances``) counts as
self time of the layer that called them.

The program is not changed: only its module attributes are rebound, in
the benchmark's own process.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("lp", "scalar", "vector", "chain", "applications", "serialize", "cli", "generate")

_LP_SOLVES = frozenset({"solve", "solve_vertex"})
_SERIALIZE_LOADS = frozenset({"parse_problem", "loads", "load", "load_payload"})


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


def _account(layer: str, name: str) -> str:
    """Name of the self-time account a function's time is booked to."""
    if layer == "serialize":
        loads = name in _SERIALIZE_LOADS or name.endswith("_from_json")
        return "serialize.load" if loads else "serialize.dump"
    return layer


class Tracer:
    """Span recorder for one process; install() once, before any timed call."""

    def __init__(self):
        self.active = False
        self._stack = []  # one [layer, child_seconds] per open span
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (spans must not be open)."""
        self.self_s = defaultdict(float)  # account -> seconds
        self.outer_s = defaultdict(float)  # layer -> seconds of its outermost spans
        self.lp_calls = 0
        self.lp_pivots = 0
        self.lp_infeasible = 0
        self.lp_cells = 0
        self.out_bytes = 0

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"vecot.{layer}")
            for name, fn in _public_functions(module):
                wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "vecot" and not modname.startswith("vecot."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, layer, name, fn):
        account = _account(layer, name)
        counts_solve = layer == "lp" and name in _LP_SOLVES
        counts_text = layer == "serialize" and name == "canonical_dumps"
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if not self.active or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            if counts_solve:
                self.lp_calls += 1
                problem = args[0] if args else kwargs["problem"]
                self.lp_cells += problem.A.size
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self.self_s[account] += dur - frame[1]
                self.outer_s[layer] += dur
                if stack:
                    stack[-1][1] += dur
            if counts_solve:
                self.lp_pivots += out.iterations
                self.lp_infeasible += out.status == "infeasible"
            elif counts_text:
                self.out_bytes += len(out)
            return out

        return functools.update_wrapper(span, fn)
