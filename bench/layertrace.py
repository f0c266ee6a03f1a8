"""Outside-in layer tracer for the orthoproc benchmark.

Wraps the public functions listed in LAYER_FUNCTIONS at every binding the
package holds: module attributes (``bounds``, ``process`` and ``cli`` import
by name, and ``__init__`` re-exports) and values of module-level dicts (the
CLI's command table). Each call records a span (function, start, end,
parent, job id) in memory; the summary is computed once the job list ends.

Parent stacks are thread-local. A span opened by a worker thread with an
empty stack takes the main thread's innermost open span as its parent, so a
thread pool's work is charged to the call that started the pool.

Counts are calls into the public functions: a cache placed in front of a
function lowers them, a cache inside it does not.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


class TraceInstallError(RuntimeError):
    """A listed function is missing or no binding of it could be patched."""


def _rule_note(args, kwargs):
    n = args[0] if args else kwargs["n"]
    power = args[1] if len(args) > 1 else kwargs.get("singularity_power", 0.0)
    return int(n), (int(n), float(power))


def _coef_note(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs["n"]
    return int(n) + 1, None


def _tail_note(args, kwargs):
    k_max = args[2] if len(args) > 2 else kwargs["k_max"]
    return int(k_max) + 1, None


# layer module -> public functions timed in it; the optional note turns a
# call's arguments into (work units, distinct-work key)
LAYER_FUNCTIONS = {
    "quadrature": {
        "gauss_legendre_rule": _rule_note,
        "semi_infinite_rule": _rule_note,
        "cosine_mapped_rule": _rule_note,
        "simpson_weights": None,
    },
    "orthopoly": {"legendre_pair": None, "orthonormal_block": None},
    "specfun": {"hyp2f1_regularized": None},
    "bounds": {
        "select_N": None,
        "c_n_bound": None,
        "gf_square_integral_oracle": None,
        "tail_weights": _tail_note,
    },
    "process": {
        "compute_coefficients": _coef_note,
        "draw_xi": None,
        "path_rng": None,
        "synthesize_path": None,
        "verify_reliability": None,
    },
    "cli": {
        "main": None,
        "cmd_bound": None,
        "cmd_select_n": None,
        "cmd_simulate": None,
        "cmd_verify": None,
        "cmd_tables": None,
    },
}


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Span recorder installed over one imported orthoproc package."""

    def __init__(self):
        self.job = 0
        self._ids = itertools.count(1)
        self._spans = []
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.main_thread()
        self._undo = []

    def _stack(self):
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, note):
        spans = self._spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else 0
            sid = next(ids)
            units, key = note(args, kwargs) if note is not None else (0, None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.job, units, key))

        return traced

    def install(self, package):
        """Patch every binding of every listed function under ``package``.

        Raises:
            TraceInstallError: when a listed module or function is missing.
        """
        prefix = package.__name__ + "."
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))
        ]
        targets = []
        for layer, functions in LAYER_FUNCTIONS.items():
            home = sys.modules.get(prefix + layer)
            if home is None:
                raise TraceInstallError(f"module {prefix}{layer} is not loaded")
            for name, note in functions.items():
                original = vars(home).get(name)
                if not callable(original):
                    raise TraceInstallError(f"{prefix}{layer}.{name} is missing")
                bindings = []
                for module in modules:
                    namespace = vars(module)
                    for attr, value in namespace.items():
                        if value is original:
                            bindings.append((namespace, attr))
                        elif type(value) is dict:
                            bindings += [(value, k) for k, v in value.items() if v is original]
                if not bindings:
                    raise TraceInstallError(f"no binding of {prefix}{layer}.{name} to patch")
                targets.append((f"{layer}.{name}", original, note, bindings))
        # patch only once every function is known to be patchable
        for span_name, original, note, bindings in targets:
            wrapper = self._wrap(span_name, original, note)
            for table, key in bindings:
                self._undo.append((table, key, original))
                table[key] = wrapper

    def uninstall(self):
        for table, key, original in reversed(self._undo):
            table[key] = original
        self._undo.clear()

    def summary(self):
        """Per-function calls, self seconds, work units and distinct keys,
        plus per-job self seconds. Self time is a span's duration minus the
        union of its children's intervals."""
        children = defaultdict(list)
        for sid, parent, _name, start, end, *_ in self._spans:
            if parent:
                children[parent].append((start, end))
        functions = {}
        job_self = defaultdict(float)
        for sid, _parent, name, start, end, job, units, key in self._spans:
            self_s = (end - start) - _union_length(children.get(sid, ()), start, end)
            f = functions.setdefault(name, {"calls": 0, "self_s": 0.0, "units": 0, "keys": set()})
            f["calls"] += 1
            f["self_s"] += self_s
            f["units"] += units
            if key is not None:
                f["keys"].add(key)
            job_self[job] += self_s
        for f in functions.values():
            f["distinct"] = len(f.pop("keys"))
        return {"functions": functions, "job_self_s": dict(job_self)}
