"""Outside-in tracing of the package's layers.

The tracer replaces public functions of each ``filtstab`` module with timing
wrappers, in every module namespace that binds them (``filtstab.upsilon``
imports ``check_stability``, for example) and on the owning class for
methods.  Nothing under ``src/`` changes.  Each wrapped function yields a call
count, its self time (the span's duration minus the time of its child
spans) and its total time (outermost activations only, so recursion is not
counted twice).  Spans of coarse functions (name, start, end, parent span, request id)
are kept in memory and written out when the run ends; the hot kernels of
``linalg``, ``filtration`` and ``parabolic_degree`` run millions of times per
run, so they are only counted and timed, which keeps memory bounded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Any, Callable

# (module, attribute path, spans kept).  The list is the set of layer
# boundaries the per-layer metrics are named after.
TARGETS = (
    ("cli", "main", True),
    ("serialize", "parse_config", True),
    ("serialize", "canonical_json", True),
    ("surface", "blow_up", True),
    ("chern", "derive_tables", True),
    ("chern", "c2_number", True),
    ("chern", "c2_trivial", True),
    ("chern", "norm_sq", True),
    ("upsilon", "outer_search", True),
    ("upsilon", "assemble_quadratics", True),
    ("upsilon", "inner_minimize", True),
    ("upsilon", "rationalize", True),
    ("stability", "check_stability", True),
    ("stability", "parabolic_degree", False),
    ("filtration", "joint_step_multiplicities", False),
    ("filtration", "Filtration.induced_degree_vector", False),
    ("linalg", "span", False),
    ("linalg", "Subspace.intersection_dim", False),
    ("linalg", "Subspace.intersect", False),
    ("linalg", "Subspace.__add__", False),
    ("linalg", "Subspace.contains", False),
)
LAYERS = ("linalg", "filtration", "stability", "chern", "upsilon", "surface", "serialize", "cli")
NAMES = tuple(f"{module}.{attr}" for module, attr, _ in TARGETS)


class Tracer:
    """Call counts, self times, raised exceptions and spans of wrapped calls."""

    def __init__(self) -> None:
        self.enabled = False
        self.request_id = -1
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.total_s = [0.0] * len(TARGETS)
        self._active = [0] * len(TARGETS)
        self.raised: dict[tuple[int, str], int] = {}
        # name -> callable(args, result), run after each traced call
        self.observers: dict[str, Callable[[tuple, Any], None]] = {}
        # one open frame per active wrapped call: [child seconds]
        self._stack: list[list[float]] = []
        self._span = -1
        self.spans: list[list] = []

    def install(self) -> None:
        """Patch every target in place; calls are traced while ``enabled``."""
        for index, (module_name, path, keep_span) in enumerate(TARGETS):
            module = importlib.import_module(f"filtstab.{module_name}")
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            wrapper = self._wrap(index, original, keep_span)
            setattr(owner, attr, wrapper)
            if owner_path:
                continue
            for name, loaded in list(sys.modules.items()):
                if name.startswith("filtstab") and loaded is not None:
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapper)

    def _wrap(self, index: int, function: Callable, keep_span: bool) -> Callable:
        name = NAMES[index]
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        total_s, active = self.total_s, self._active

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            frame = [0.0]
            parent = self._span
            if keep_span:
                self._span = len(spans)
                span = [name, 0.0, 0.0, parent, self.request_id]
                spans.append(span)
            stack.append(frame)
            active[index] += 1
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            except Exception as error:
                key = (index, type(error).__name__)
                self.raised[key] = self.raised.get(key, 0) + 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[index] += duration - frame[0]
                calls[index] += 1
                active[index] -= 1
                if not active[index]:
                    total_s[index] += duration
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    span[1], span[2] = start, end
                    self._span = parent
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, result)
            return result

        return traced

    def raised_count(self, name: str, error: str) -> int:
        return self.raised.get((NAMES.index(name), error), 0)

    def metrics(self) -> dict[str, float]:
        """``<name>.calls``, ``.self_s``, ``.total_s`` and each layer's self-time share."""
        out: dict[str, float] = {}
        for name, calls, self_s, total_s in zip(NAMES, self.calls, self.self_s, self.total_s):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        total = sum(self.self_s) or 1.0
        for layer in LAYERS:
            share = sum(s for n, s in zip(NAMES, self.self_s) if n.startswith(layer + "."))
            out[f"layer.{layer}.self_share"] = share / total
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": parent, "request": request}
                handle.write(json.dumps(record) + "\n")
