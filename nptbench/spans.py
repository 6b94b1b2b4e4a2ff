"""Per-layer tracing from outside the package.

``Tracer`` wraps functions in spans and keeps, per layer group, the number of
calls and the self time: a span's duration minus the part of it covered by
child spans.  ``traced`` patches every module namespace of a package that
binds a wrapped function (``from .ppt import classify`` in ``harness`` binds
its own name) and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    """Calls and self time per group, plus free-form counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        # Time covered by the children of each open span, innermost last.
        self._child_time = []

    @contextlib.contextmanager
    def span(self, group: str):
        start = self.clock()
        self._child_time.append(0.0)
        try:
            yield
        finally:
            duration = self.clock() - start
            children = self._child_time.pop()
            self.calls[group] += 1
            self.self_s[group] += duration - children
            if self._child_time:
                self._child_time[-1] += duration

    def wrap(self, func, group: str, on_result=None):
        """``func`` inside a span; ``on_result(tracer, args, result)`` runs after."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(group):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper


def _package_modules(package: str):
    for name, module in list(sys.modules.items()):
        if module is not None and (name == package or name.startswith(package + ".")):
            yield module


@contextlib.contextmanager
def traced(tracer: Tracer, package: str, layers):
    """Wrap every binding of each layer function for the duration of the block.

    ``layers`` holds ``(module, function, group, on_result)`` entries.  A
    function or module the package no longer has is skipped; its group is
    then absent unless another function feeds it.  Yields the list of groups
    that got at least one wrapped function.
    """
    # Import every module before patching any, so that no module binds a
    # wrapper at import time.
    found = []
    for module_name, func_name, group, on_result in layers:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        original = getattr(module, func_name, None)
        if original is not None:
            found.append((original, group, on_result))
    try:
        for original, group, on_result in found:
            wrapper = tracer.wrap(original, group, on_result)
            for mod in _package_modules(package):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        yield list(dict.fromkeys(group for _, group, _ in found))
    finally:
        # Also unwraps bindings made by modules imported inside the block.
        for mod in _package_modules(package):
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__wrapped_by_tracer__", False):
                    setattr(mod, attr, value.__wrapped__)


def leftover_wrappers(package: str) -> list[str]:
    """``module.attr`` of every binding in the package that is still a wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _package_modules(package)
        for attr, value in vars(mod).items()
        if getattr(value, "__wrapped_by_tracer__", False)
    ]
