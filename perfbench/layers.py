"""locallab's public functions as the benchmark calls them, optionally traced.

Workloads reach locallab only through a `Layers` object, so every call they
make into a layer crosses one boundary that the tracer can time.  Only calls
made by the benchmark are timed; calls that one locallab module makes into
another happen inside the caller's span and count as the caller's time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

# Every public function a workload calls, by layer.  Each one is reported as
# `<layer>.<function>.calls` and `<layer>.<function>.busy_s` by a traced run.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "graphs": (
        "cycle_graph",
        "extract_view",
        "label_graph",
        "make_graph",
        "path_graph",
        "view_isomorphisms",
    ),
    "lcl": ("check_constraints", "make_constraint_set"),
    "outcomes": ("deterministic_outcome", "run_local", "run_rand_local", "verify_non_signaling"),
    "lp": (
        "build_fractional_matching_lp",
        "check_feasible",
        "dequantize",
        "edge_var",
        "exact_opt",
        "maximal_matching_to_fractional",
        "objective_value",
        "outcome_of_points",
    ),
    "linearize": (
        "decode_to_matching",
        "greedy_matching",
        "incidence_graph_of",
        "is_maximal_matching",
        "multigraph_of_incidence",
        "verify_linearizable",
    ),
    "gadgets": (
        "contract_octopi",
        "default_port_height",
        "edge_labels_of_pullback",
        "family_constraint_set_for",
        "gen_proper_instance",
        "lift_run",
        "promise_labeling_of",
        "pullback_outcome",
        "recognize_proper_instance",
        "verify_pi_promise",
    ),
    "corpus": ("all_connected_graphs",),
}

LAYER_FUNCTION_NAMES = tuple(
    f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns
)


class Tracer:
    """Spans kept in memory: (span id, parent id, name, start, end).

    Span 0 is the implicit root.  A span's self time is its duration minus
    the durations of its direct children.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack = [0]
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def self_times(self, spans=None) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, total self time in seconds)."""
        spans = self.spans if spans is None else spans
        covered: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end in spans:
            covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, _parent, name, start, end in spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - covered.get(sid, 0.0)
        return {name: (calls, busy) for name, (calls, busy) in out.items()}


class Layer:
    """One locallab module: its listed functions (traced or not), plus its
    classes and constants.  Unlisted functions are refused, so no call into a
    layer escapes the per-layer report."""

    def __init__(self, name: str, module, tracer: Optional[Tracer]):
        self._module = module
        for fn_name in LAYER_FUNCTIONS[name]:
            fn = getattr(module, fn_name)
            setattr(self, fn_name, tracer.wrap(f"{name}.{fn_name}", fn) if tracer else fn)

    def __getattr__(self, attr: str):
        value = getattr(self._module, attr)
        if callable(value) and not isinstance(value, type):
            raise AttributeError(f"{attr} is not listed in LAYER_FUNCTIONS")
        return value


class Layers:
    """The seven layers a workload may call, all traced by one tracer or none."""

    def __init__(self, tracer: Optional[Tracer] = None):
        for name in LAYER_FUNCTIONS:
            module = importlib.import_module(f"locallab.{name}")
            setattr(self, name, Layer(name, module, tracer))
