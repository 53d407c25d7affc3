"""In-memory span tracer for the benchmark's traced run.

The tracer wraps a fixed list of ewagg functions.  ewagg's modules import
names directly (``from .bounds import psi``), so one function can be looked
up through several module namespaces; the tracer replaces every binding of
the function object in every loaded ``ewagg`` module, which is where each
caller looks it up.  Spans stay in memory until the run ends; ``uninstall``
puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs whose calls become spans, named "<module>.<function>".
LAYER_FUNCTIONS = (
    ("sequence_model", "generate_observation"),
    ("sequence_model", "squared_loss"),
    ("estimators", "risk_profile"),
    ("estimators", "ure_weights"),
    ("estimators", "exponential_weights"),
    ("estimators", "aggregate"),
    ("risk", "oracle_risk"),
    ("bounds", "theorem_bounds"),
    ("bounds", "psi"),
    ("montecarlo", "verify_oracle_inequalities"),
    ("montecarlo", "lemma2_empirical"),
    ("cli", "main"),
)

LAYER_NAMES = tuple(f"{module}.{function}" for module, function in LAYER_FUNCTIONS)

# Per-layer statistics reported for every wrapped function.
LAYER_STATS = ("calls", "self_s", "us_per_call", "share")


class Tracer:
    """Records one span (name, parent index, start, end) per wrapped call."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list = []
        self._clock = clock
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)

        traced.perfbench_layer = name
        return traced

    def install(self, package: str = "ewagg") -> None:
        """Wrap every binding of each layer function in the loaded package modules."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        for module_name, function_name in LAYER_FUNCTIONS:
            owner = sys.modules[f"{package}.{module_name}"]
            original = getattr(owner, function_name)
            wrapper = self.wrap(f"{module_name}.{function_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every binding that install replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The tracer records calls on one stack, so children are nested in their
    parent and follow one another without overlap.
    """
    result = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def summarise(spans, wall_s: float) -> dict[str, float]:
    """Per-layer calls, self time, inclusive us per call and share of wall_s."""
    calls = dict.fromkeys(LAYER_NAMES, 0)
    inclusive = dict.fromkeys(LAYER_NAMES, 0.0)
    own = dict.fromkeys(LAYER_NAMES, 0.0)
    for (name, parent, start, end), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        inclusive[name] += end - start
        own[name] += self_s
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = own[name]
        out[f"{name}.us_per_call"] = 1e6 * inclusive[name] / calls[name] if calls[name] else 0.0
        out[f"{name}.share"] = own[name] / wall_s if wall_s > 0 else 0.0
    return out
