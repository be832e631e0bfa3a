"""Span tracing of the shoreline layers, applied from outside the package.

`Tracer.instrument` replaces each function in `TRACED` at every
``shoreline.*`` module attribute bound to it, so calls between modules
(``from .numerics import find_root`` bindings) and the graze fallback that
``simulate._march_first_contacts`` makes through the module global
``spiral_first_contact`` are all caught.  Private helpers are not wrapped:
the vectorized march and its bisection refine both count as self time of
``simulate.monte_carlo_mean_arclength`` until the program grows spans of its
own.

Spans (name, start, end, parent, op id) stay in memory and are written when
the run ends.  A span's self time is its duration minus the durations of its
direct children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Tuple

PACKAGE = "shoreline"

# Module -> public functions that get a span.
TRACED: Dict[str, Tuple[str, ...]] = {
    "numerics": ("find_root", "minimize_scalar", "solve_system2", "integrate",
                 "lambert_w0", "uniform_block"),
    "spiral_geometry": ("second_contact",),
    "spiral_objectives": ("minimize_minmax", "minimize_minmean",
                          "solve_minmax_system", "solve_minmean_system"),
    "coil": ("bracket_index", "travel_distance", "average_ratio"),
    "simulate": ("monte_carlo_mean_arclength", "spiral_first_contact",
                 "coil_marching_distance", "mixed_strategy_sample", "scan_worst_ratio"),
    "cli": ("main",),
}

# Solvers whose first argument is the callable they evaluate: its calls are
# counted as fevals by wrapping the callable passed in.
_CALLBACK_ARG = {"numerics.find_root": "f", "numerics.minimize_scalar": "f",
                 "numerics.integrate": "f", "numerics.solve_system2": "F"}
# Solvers that return a SolveReport, whose `iterations` are summed as iters.
_REPORTS_ITERS = {"numerics.find_root", "numerics.minimize_scalar"}

_MC = "simulate.monte_carlo_mean_arclength"
_FALLBACK = "simulate.spiral_first_contact"

# Per-layer metrics: (name, unit).  The end-to-end metric each should move,
# and on which workload:
#   mc-spiral  mc_1e6_s, samples_per_s: monte_carlo_mean_arclength.self_s
#              (march plus refine), graze_fallbacks, spiral_first_contact.self_s
#   coil-mc    samples_per_s, wall_s: uniform_block.*, mixed_strategy_sample,
#              scan_worst_ratio, coil_marching_distance.*, average_ratio.*
#   solve      op_p50_ms: find_root.*, minimize_scalar.*, second_contact.*,
#              bracket_index.*, travel_distance.*, cli.main.self_s
#   solve      op_p90_ms: solve_system2.*, integrate.*, lambert_w0.calls, and
#              the spiral_objectives minimizers and angle-system solvers
# A layer that a workload never calls reports 0 calls and 0.0 s there.
PER_LAYER: List[Tuple[str, str]] = [
    ("simulate.monte_carlo_mean_arclength.self_s", "s"),
    ("simulate.graze_fallbacks", "count"),
    ("simulate.spiral_first_contact.self_s", "s"),
    ("numerics.uniform_block.values", "count"),
    ("numerics.uniform_block.self_s", "s"),
    ("simulate.mixed_strategy_sample.self_s", "s"),
    ("simulate.scan_worst_ratio.self_s", "s"),
    ("simulate.coil_marching_distance.calls", "count"),
    ("simulate.coil_marching_distance.self_s", "s"),
    ("coil.average_ratio.calls", "count"),
    ("coil.average_ratio.self_s", "s"),
    ("numerics.find_root.calls", "count"),
    ("numerics.find_root.iters", "count"),
    ("numerics.find_root.fevals", "count"),
    ("numerics.find_root.self_s", "s"),
    ("numerics.minimize_scalar.calls", "count"),
    ("numerics.minimize_scalar.iters", "count"),
    ("numerics.minimize_scalar.fevals", "count"),
    ("numerics.minimize_scalar.self_s", "s"),
    ("spiral_geometry.second_contact.calls", "count"),
    ("spiral_geometry.second_contact.self_s", "s"),
    ("coil.bracket_index.calls", "count"),
    ("coil.bracket_index.self_s", "s"),
    ("coil.travel_distance.calls", "count"),
    ("coil.travel_distance.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("numerics.solve_system2.calls", "count"),
    ("numerics.solve_system2.fevals", "count"),
    ("numerics.solve_system2.self_s", "s"),
    ("numerics.integrate.calls", "count"),
    ("numerics.integrate.fevals", "count"),
    ("numerics.integrate.self_s", "s"),
    ("numerics.lambert_w0.calls", "count"),
    ("spiral_objectives.minimize_minmax.self_s", "s"),
    ("spiral_objectives.minimize_minmean.self_s", "s"),
    ("spiral_objectives.solve_minmax_system.self_s", "s"),
    ("spiral_objectives.solve_minmean_system.self_s", "s"),
    ("trace.overhead_s", "s"),
]

# Per-layer metrics that are exact counts; two traced runs at one seed must
# agree on every one of them.
COUNT_METRICS = [name for name, unit in PER_LAYER if unit == "count"]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        # (name, start, end, parent index, op id); end is None while open.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._op = -1
        self._patched: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str) -> Iterator[None]:
        """The root span of one benchmark op; spans opened inside carry its id."""
        self._op = op_id
        idx = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        callback = _CALLBACK_ARG.get(name)
        reports_iters = name in _REPORTS_ITERS
        counts = self.counts
        fevals_key = f"{name}.fevals"

        def counted(f: Callable) -> Callable:
            def g(*a):
                counts[fevals_key] += 1
                return f(*a)
            return g

        def wrapper(*args, **kwargs):
            if callback is not None:
                if args:
                    args = (counted(args[0]),) + args[1:]
                else:
                    kwargs[callback] = counted(kwargs[callback])
            counts[f"{name}.calls"] += 1
            if name == _FALLBACK and self._stack and self.spans[self._stack[-1]][0] == _MC:
                counts["simulate.graze_fallbacks"] += 1
            if name == "numerics.uniform_block":
                counts["numerics.uniform_block.values"] += int(
                    args[2] if len(args) > 2 else kwargs["count"])
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if reports_iters:
                counts[f"{name}.iters"] += result.iterations
            return result

        return wrapper

    # -- instrumentation ---------------------------------------------------

    def instrument(self) -> None:
        """Replace every binding of each TRACED function in the loaded
        ``shoreline`` modules by a span-recording wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, names in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    bound = [attr for attr, value in vars(module).items() if value is original]
                    for attr in bound:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Calls, iters, fevals, values and self time per layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
        metrics: Dict[str, float] = {}
        for name, unit in PER_LAYER:
            if name.endswith(".self_s"):
                metrics[name] = self_s.get(name[: -len(".self_s")], 0.0)
            elif unit == "count":
                metrics[name] = self.counts.get(name, 0)
        return metrics

    def write(self, path: str, origin: float) -> None:
        """Write the spans as gzipped tab-separated lines, times in seconds
        from ``origin``."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start - origin!r}\t{end - origin!r}\t{parent}\t{op}\n")

