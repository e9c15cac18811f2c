"""Spans around the program's layers, recorded from outside the program.

Every public function defined in an ``mpxpi`` module is wrapped, and the
wrapper is put back at every module attribute that holds the original, so a
call is seen however the caller reaches the function: ``check_theorem`` is
replaced as ``mpxpi.stability.check_theorem``, ``mpxpi.sim.check_theorem``,
``mpxpi.design.check_theorem`` and ``mpxpi.check_theorem``. Module globals
are module attributes, so calls inside a module go through the wrapper too.

Spans stay in memory as (name, start, end, parent) and are written out when
the run ends. A span's self time is its duration minus the durations of its
children, which nest inside it on the one thread the program runs on.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

class Tracer:
    """Records spans while ``active`` is true; wrappers are installed once."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.phase: list[int] = []
        self.current_phase = 0
        self._stack: list[int] = []
        self.active = False
        # Work the kernel was asked for, per phase: steps, flops, computed bytes.
        self.kernel_steps: dict[int, float] = defaultdict(float)
        self.kernel_flops: dict[int, float] = defaultdict(float)
        self.kernel_bytes: dict[int, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name_id: int, fn, args=(), kwargs=None):
        """Run ``fn`` inside a span; callers check ``active`` first."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name_id, 0.0, 0.0, parent))
        self.phase.append(self.current_phase)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name_id, start, end, parent)

    def span(self, name: str, fn):
        """Run ``fn`` inside a span of its own, such as one operation."""
        return self.call(self._name_id(name), fn)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        is_kernel = name == "kernels.integrate_lti"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_kernel:
                tracer._count_kernel(*args, **kwargs)
            return tracer.call(name_id, fn, args, kwargs)

        return traced

    def _count_kernel(self, mat, forcing, y0, dt, n_steps, stride=1, *rest, **kwargs):
        # One RK4 step is four d x d matvecs (2 d^2 flops each). The computed
        # bytes count the operands each matvec reads (matrix, vector, forcing)
        # and the samples written; caches are ignored.
        dim = int(np.asarray(y0).size)
        steps = float(n_steps)
        phase = self.current_phase
        self.kernel_steps[phase] += steps
        self.kernel_flops[phase] += 8.0 * dim * dim * steps
        self.kernel_bytes[phase] += 8.0 * (4.0 * (dim * dim + 2 * dim) * steps + dim * (steps / stride + 1))

    def install(self, package, layers) -> None:
        """Wrap every public function of every layer module of ``package``."""
        wrappers = {}
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for module in [package, *layers.values()]:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def self_times(self) -> dict[tuple[int, str], tuple[float, int]]:
        """(phase, name) -> (total self seconds, calls)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[int, str], list] = defaultdict(lambda: [0.0, 0])
        for k, (name_id, start, end, _) in enumerate(self.spans):
            entry = out[(self.phase[k], self.names[name_id])]
            entry[0] += (end - start) - child_time[k]
            entry[1] += 1
        return {key: (v[0], v[1]) for key, v in out.items()}

    def save(self, path) -> None:
        """Write the spans as columns: name id, start, end, parent, phase."""
        spans = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=spans[:, 0].astype(np.int32),
            start=spans[:, 1],
            end=spans[:, 2],
            parent=spans[:, 3].astype(np.int64),
            phase=np.array(self.phase, dtype=np.int32),
        )
