"""Spans recorded from outside the program, by wrapping the functions that
one szwalk module calls in another.

A span is (name, start, end, parent, request): `parent` is the index of the
enclosing span (-1 at the root) and `request` is the index of the setup or
solve it belongs to. Spans stay in memory, in compact arrays, and are written
out once when the run ends. Nothing under `src/` is changed: every hook is a
module attribute that is replaced while a request runs and restored after it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

# (module, attributes looked up there, span name). A function is wrapped where
# its callers look it up, so that `sz` calling `apply_instrument` is caught
# and the benchmark's own checks, which run outside any request, are not.
HOOKS = (
    ("szwalk.walks", ("hadamard_walk", "unitary_power", "position_instrument",
                      "coin_vertex_instrument", "vertex_partition", "hadamard_eigenstate"),
     "walks.build"),
    ("szwalk.walks", ("coherent_instrument", "lvn_instrument"), "quantum.instrument_build"),
    ("szwalk.cli", ("general_instrument",), "quantum.instrument_build"),
    ("szwalk.sz", ("apply_instrument",), "quantum.apply_instrument"),
    ("szwalk.sz", ("sz_entropy_run",), "sz.run"),
    ("szwalk.sz", ("markov_reduction",), "sz.markov_reduction"),
    ("szwalk.sz", ("eta",), "entropy.eta"),
    ("szwalk.classical", ("eta",), "entropy.eta"),
    ("szwalk.sz", ("limit_estimate",), "entropy.limit_estimate"),
    ("szwalk.classical", ("limit_estimate",), "entropy.limit_estimate"),
    ("szwalk.classical", ("entropy_rate", "stationary_distribution", "markov_entropy"),
     "classical"),
    ("szwalk.cli", ("run_config",), "cli.run_config"),
    ("szwalk.cli", ("load_config",), "cli.load_config"),
    ("szwalk.cli", ("write_outputs",), "cli.write_outputs"),
)


class Tracer:
    """Records spans and the `SZRun` objects that traced engine runs return."""

    def __init__(self):
        self.names: list[str] = []
        self.requests: list[str] = []
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._request = array("i")
        self._stack = [-1]
        self._current = -1
        # Per request: the slice of span indices it covers, and the
        # (SZRun, partition block count) of every sz_entropy_run call in it.
        self.span_ranges: list[tuple[int, int]] = []
        self.sz_runs: list[list[tuple[object, int]]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)  # a dozen names: a list is enough

    def _wrap(self, fn, name: str, on_return=None):
        name_id = self._name_id(name)
        names, starts, ends = self._name, self._start, self._end
        parents, requests, stack = self._parent, self._request, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            requests.append(self._current)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _keep_sz_run(self, args, kwargs, run) -> None:
        partition = args[3] if len(args) > 3 else kwargs["partition"]
        self.sz_runs[self._current].append((run, len(partition.blocks)))

    @contextlib.contextmanager
    def request(self, label: str):
        """Trace one request, such as `setup3` or `solve7`, under a root span
        `bench.setup` or `bench.solve`: install every hook for its duration,
        and restore the original functions afterwards."""
        kind = label.rstrip("0123456789")
        self.requests.append(label)
        self.sz_runs.append([])
        self._current = len(self.requests) - 1
        saved = []
        idx = len(self._name)
        self._name.append(self._name_id("bench." + kind))
        self._parent.append(-1)
        self._request.append(self._current)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(idx)
        try:
            for module_name, attrs, span_name in HOOKS:
                module = importlib.import_module(module_name)
                for attr in attrs:
                    original = getattr(module, attr)
                    on_return = self._keep_sz_run if span_name == "sz.run" else None
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, span_name, on_return))
            self._start[idx] = time.perf_counter()
            yield
        finally:
            self._end[idx] = time.perf_counter()
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._stack.pop()
            self._current = -1
            self.span_ranges.append((idx, len(self._name)))

    def summary(self, request: int) -> dict[str, tuple[float, float, int]]:
        """(total, self, calls) per span name within one request.

        `total` sums the outermost spans of a name, `self` subtracts from each
        span the time its direct children cover (children of one span never
        overlap: the program is single-threaded), `calls` counts every span.
        """
        lo, hi = self.span_ranges[request]
        # Copies, so that no view pins the arrays' buffers while they grow.
        name = np.array(self._name[lo:hi], dtype=np.int32)
        dur = np.array(self._end[lo:hi]) - np.array(self._start[lo:hi])
        parent = np.array(self._parent[lo:hi], dtype=np.int64) - lo
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=hi - lo)
        nested = inside & (name[np.where(inside, parent, 0)] == name)
        out = {}
        for k in np.unique(name):
            mine = name == k
            out[self.names[k]] = (float(dur[mine & ~nested].sum()),
                                  float((dur - child)[mine].sum()), int(mine.sum()))
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.int32),
            "start": np.array(self._start),
            "end": np.array(self._end),
            "parent": np.array(self._parent, dtype=np.int64),
            "request": np.array(self._request, dtype=np.int32),
        }
