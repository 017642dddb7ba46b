"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each named public function with a timing
wrapper in every ``pnormcert`` module namespace that holds a reference to
it (``dependence.ratio_factor`` and ``exppoly.ratio_factor`` are the same
function reached through two names), so every call site is seen without
touching the package source.  ``uninstall`` puts the originals back.

Each thread keeps its own span stack, so a span's self time (its duration
minus the time its child spans cover) stays right when the CLI runs a
thread pool.  Spans are folded into per-name totals in memory; ``report``
reads them out once the traced region is over.  A function that is never
called reports zero calls instead of vanishing.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "pnormcert"
SPANS = {
    "cli": ("main", "parse_jobspec", "run", "emit_curves", "to_json"),
    "vectors": ("partition", "equivalent", "canonicalize"),
    "exppoly": (
        "from_vector",
        "find_zeros",
        "count_zeros",
        "zero_multiset_equal",
        "ratio_factor",
        "evaluate_log",
        "log_derivative",
        "relative_magnitude",
    ),
    "continuation": ("loop_monodromy", "continue_log", "pnorm_at"),
    "dependence": ("analyze", "make_grid", "build_matrix", "numeric_rank"),
}

# Calls counted separately when they happen under this span.
_INNER = "continuation.continue_log"
_INNER_COUNTED = ("exppoly.evaluate_log", "exppoly.log_derivative")


class _Stats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span totals and output counters for a set of wrapped functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[tuple] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._hooks = {
            "exppoly.find_zeros": self._count_zero_set,
            "dependence.build_matrix": self._count_matrix,
            "vectors.partition": self._count_partition,
        }

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = (defaultdict(_Stats), [], defaultdict(int))
            self._local.state = state
            with self._lock:
                self._per_thread.append(state)
        return state

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats, stack, inner = self._thread_state()
            if name in _INNER_COUNTED and any(frame[0] == _INNER for frame in stack):
                inner[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                s = stats[name]
                s.calls += 1
                s.total += elapsed
                s.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                with self._lock:
                    hook(args, kwargs, result)
            return result

        return wrapper

    # -- output counters ---------------------------------------------------

    def _count_zero_set(self, args, kwargs, zs) -> None:
        requested = args[1] if len(args) > 1 else kwargs["rect"]
        self.counters["exppoly.zeros_found"] += len(zs.zeros)
        self.counters["exppoly.clusters"] += sum(1 for z in zs.zeros if not z.refined)
        self.counters["exppoly.window_inflations"] += zs.window != requested

    def _count_matrix(self, args, kwargs, matrix) -> None:
        self.counters["dependence.matrix_cells"] += matrix.entries.size

    def _count_partition(self, args, kwargs, part) -> None:
        self.counters["vectors.classes"] += len(part.classes)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == PACKAGE]
        for short, names in SPANS.items():
            owner = sys.modules[f"{PACKAGE}.{short}"]
            for fname in names:
                span = f"{short}.{fname}"
                if fname == "to_json":
                    cls = owner.Certificate
                    self._restore.append((cls, fname, cls.__dict__[fname]))
                    setattr(cls, fname, self._wrap(span, cls.__dict__[fname]))
                    continue
                original = getattr(owner, fname)
                wrapper = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- read-out ----------------------------------------------------------

    def report(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` for every span,
        the output counters, and ``continuation.accept_ratio`` (log_derivative
        calls per evaluate_log call inside continue_log; 0 when it never ran).
        """
        totals: dict[str, _Stats] = defaultdict(_Stats)
        inner: dict[str, int] = defaultdict(int)
        with self._lock:
            for stats, _, counts in self._per_thread:
                for name, s in stats.items():
                    t = totals[name]
                    t.calls += s.calls
                    t.total += s.total
                    t.self_time += s.self_time
                for name, c in counts.items():
                    inner[name] += c
        out: dict[str, float] = {}
        for short, names in SPANS.items():
            for fname in names:
                span = f"{short}.{fname}"
                s = totals[span]
                out[f"{span}.calls"] = s.calls
                out[f"{span}.s"] = s.total
                out[f"{span}.self_s"] = s.self_time
        for name in (
            "exppoly.zeros_found",
            "exppoly.clusters",
            "exppoly.window_inflations",
            "dependence.matrix_cells",
            "vectors.classes",
        ):
            out[name] = self.counters[name]
        evals = inner["exppoly.evaluate_log"]
        out["continuation.accept_ratio"] = (
            inner["exppoly.log_derivative"] / evals if evals else 0.0
        )
        return out
