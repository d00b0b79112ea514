"""Spans around every public floorcomm function, installed from outside the package.

Each wrapper records a span on a stack; when it ends, its duration is added
to the function's busy time and to its parent's child time, and busy minus
child time is the function's self time.  Spans are folded into per-function
totals as they end, so memory stays flat however many calls a round makes.
A few hooks add counts that only make sense at one boundary: oracle
breakpoints, oracle calls made by ``classify`` or during ``cmd_sweep``, and
SVG bytes.  ``fractions.Fraction`` constructions are counted by wrapping
``Fraction.__new__``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from fractions import Fraction
from typing import Any, Callable

LAYERS = ("exact", "floorfn", "classify", "beatty", "geometry", "semigroup", "preorder", "plot", "cli")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, busy_ns, self_ns, non-None results]
        self.stack: list[list[Any]] = []  # [name, child_ns] per open span
        self.fraction_new = [0]
        self.breakpoints = 0
        self.oracle_fallbacks = 0
        self.sweep_oracle_calls = 0
        self.sweep_pairs = 0
        self.svg_bytes = 0
        self.largest_oracle: tuple[int, Any] = (0, None)
        self._restore: list[tuple[Any, str, Any]] = []
        self._hooks: dict[str, Callable[[tuple, Any], None]] = {
            "floorfn.oracle_verify": self._on_oracle,
            "classify.classify": self._on_classify,
            "plot.render_svg": self._on_svg,
        }

    # -- hooks, run after the span has ended ------------------------------

    def _in_sweep(self) -> bool:
        return any(frame[0] == "cli.cmd_sweep" for frame in self.stack)

    def _on_oracle(self, args: tuple, report: Any) -> None:
        self.breakpoints += report.breakpoints_checked
        if report.breakpoints_checked > self.largest_oracle[0]:
            self.largest_oracle = (report.breakpoints_checked, args[0])
        if self.stack and self.stack[-1][0] == "classify.classify":
            self.oracle_fallbacks += 1
        if self._in_sweep():
            self.sweep_oracle_calls += 1

    def _on_classify(self, _args: tuple, _verdict: Any) -> None:
        if self._in_sweep():
            self.sweep_pairs += 1

    def _on_svg(self, _args: tuple, svg: str) -> None:
        self.svg_bytes += len(svg.encode("utf-8"))

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name] = [0, 0, 0, 0]
        stack = self.stack
        hook = self._hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if result is not None:
                stat[3] += 1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every public function in every namespace of the package that names it."""
        modules = {layer: importlib.import_module(f"floorcomm.{layer}") for layer in LAYERS}
        namespaces = [sys.modules["floorcomm"], *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, key, wrapper)
                            self._restore.append((namespace, key, obj))
        original_new = Fraction.__dict__["__new__"]
        counter = self.fraction_new

        def counting_new(cls: type, *args: Any, **kwargs: Any) -> Fraction:
            counter[0] += 1
            return original_new.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        self._restore.append((Fraction, "__new__", original_new))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()
