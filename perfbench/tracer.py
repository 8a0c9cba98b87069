"""Timing wrappers around the public functions of ``rclstm`` modules.

The wrappers live in the benchmark, not in the engine: ``Tracer.install``
replaces each public function (and each public method of a public class)
defined in the given modules with a wrapper, in every ``rclstm`` module
that holds a reference to it, and ``uninstall`` puts the originals back.

Each call is a span.  Spans nest on one thread, so the time a span's
children cover is the sum of their durations, and a span's self time is its
duration minus that sum.  Spans are folded into per-function totals as they
close, which keeps the traced run's memory flat.
"""

import functools
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._child_time = []  # one accumulator per open span
        self._originals = []  # (owner, attribute, original) to restore

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so each call is recorded under ``name``."""
        stats = self.stats.setdefault(name, FunctionStats())
        clock, child_time = self.clock, self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - children

        return traced

    def install(self, modules):
        """Wrap every public function defined in ``modules``."""
        wrappers = {}  # id(original) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self.wrap(f"{short}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj):
                    for name, member in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, name, self.wrap(f"{short}.{member.__qualname__}",
                                                             member))
        package = modules[0].__name__.split(".", 1)[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
