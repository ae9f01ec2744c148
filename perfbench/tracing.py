"""Spans around the public functions of each ``smoa`` module.

The tracer wraps functions from outside the package: it replaces each
function named in ``LAYERS`` by a wrapper in every ``smoa`` module that
binds it, because modules import these names directly (``rank_analysis``
binds ``build_adapter`` and ``delta``, ``adapters`` binds ``decompose``).
A span records its name, start, end, parent span and the CLI invocation
it belongs to.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LAYERS = {
    "cli": ("main",),
    "matrix_io": ("validate_matrix", "read_sweep_config", "read_train_config",
                  "write_report", "write_matrix"),
    "spectral": ("decompose", "cumulative_energy", "partition", "modulation_tensor"),
    "adapters": ("build_adapter", "delta", "randomize_factors", "save_adapter"),
    "rank_analysis": ("rank_sweep", "numerical_rank", "theoretical_bound"),
    "training": ("random_weight", "make_task", "train", "forward", "backward", "mse",
                 "write_loss_trace"),
}

FUNCTIONS = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.invocation = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.invocation)

        return traced

    def install(self) -> None:
        """Wrap every function of LAYERS wherever a smoa module binds it."""
        homes = {layer: importlib.import_module(f"smoa.{layer}") for layer in LAYERS}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "smoa" or key.startswith("smoa.")]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for fn_name in names:
                original = getattr(home, fn_name)
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, traced)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds) for a finished list of spans.

    A span's self time is its duration minus the part of its interval
    that its direct children cover (overlapping children count once).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {name: (0, 0.0) for name in FUNCTIONS}
    for index, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out


def layer_metrics(times: dict[str, tuple[int, float]]) -> dict[str, float]:
    """Flat metrics: <fn>.calls, <fn>.self_s and the rollup <module>.self_s."""
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
    for name, (calls, seconds) in times.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = seconds
        metrics[f"{name.split('.')[0]}.self_s"] += seconds
    return metrics
