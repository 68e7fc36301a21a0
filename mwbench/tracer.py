"""Outside-in layer tracing for mwspec.

`Tracer.install()` wraps every public function of every mwspec module and
the numpy.linalg entry points mwspec calls.  Each wrapper replaces the
original in every mwspec namespace that holds it (verifier does
`from .linalg import inertia_of`, so patching linalg alone would miss those
calls).  `uninstall()` puts the originals back.

Spans (name, start, end, parent, instance) stay in memory and are written
out once, when the run ends.  A function's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict

import numpy.linalg

LAPACK_FUNCTIONS = ("eigh", "eigvalsh", "svd", "solve", "inv")


def _cubic_work(name: str, args) -> int:
    """dim^3 of a square call, m*n*min(m, n) for svd."""
    shape = getattr(args[0], "shape", ()) if args else ()
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return m * n * min(m, n) if name == "svd" else n ** 3


class Tracer:
    def __init__(self, package: str, root: str):
        self.package = importlib.import_module(package)
        self.root = root
        self.spans: list = []        # [name, start, end, parent, instance]
        self.cubic_work = 0
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list = []     # (namespace, attribute, original)
        self._clock = None

    # -- installation ------------------------------------------------------

    def _modules(self):
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(f"{self.package.__name__}.{info.name}"))
        return mods

    def install(self, clock):
        """Patch every namespace; spans are timed with `clock`."""
        self._clock = clock
        mods = self._modules()
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for attr in LAPACK_FUNCTIONS:
            fn = getattr(numpy.linalg, attr)
            self._patches.append((numpy.linalg, attr, fn))
            setattr(numpy.linalg, attr, self._wrap(f"lapack.{attr}", fn, attr))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, lapack: str | None = None):
        spans, stack = self.spans, self._stack
        is_root = name == self.root

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_root:
                self.instance += 1
            if lapack is not None:
                self.cubic_work += _cubic_work(lapack, args)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            spans.append(span)
            stack.append(idx)
            span[1] = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = self._clock()
                stack.pop()

        return traced

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Per name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["incl"] += end - start
            row["self"] += end - start - child[k]
        return dict(out)

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
