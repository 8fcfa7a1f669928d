"""Outside-in span tracer for the fakemu package.

The tracer wraps the public functions of each traced module, and the
public methods of ``ZetaKernel`` on the class, from outside the package.
A wrapped function is re-bound under every name that refers to it in any
loaded ``fakemu`` module, so a call made through ``from .x import f`` is
traced as well as one made through the defining module.

Each call made while recording is one span: name, start, end and the
index of the enclosing span (-1 at the top).  Spans are kept in compact
in-memory arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = (
    "eps_model",
    "sieve",
    "zeta_kernel",
    "euler_residual",
    "explicit_formula",
    "bias",
    "cli",
)
TRACED_CLASSES = (("zeta_kernel", "ZetaKernel"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.on = False

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def enter(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def mark(self) -> int:
        """Index of the next span; pairs of marks delimit a phase."""
        return len(self.start)

    def _wrap(self, fn, label: str):
        nid = self.name_id(label)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(i)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "fakemu") -> None:
        """Wrap every public function of TRACED_MODULES and every public
        method of TRACED_CLASSES, under every name that refers to it."""
        loaded = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == package or k.startswith(package + "."))
        ]
        wrapped: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None:
                    setattr(mod, attr, new)
        for short, cls_name in TRACED_CLASSES:
            cls = getattr(sys.modules[f"{package}.{short}"], cls_name)
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    setattr(cls, attr, self._wrap(obj, f"{short}.{cls_name}.{attr}"))

    # -- analysis ----------------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict[str, tuple[int, float, float]]:
        """{name: (calls, self seconds, total seconds)} over the spans with
        index in [lo, hi).

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.  Total
        time sums the durations, so it double-counts recursive calls.
        """
        if hi <= lo:
            return {}
        # slices of an array.array are copies, so no buffer stays exported
        # and recording can resume after this call
        names = np.frombuffer(self.name[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32) - lo
        dur = np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi])
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=hi - lo)
        own = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        total = np.bincount(names, weights=dur, minlength=len(self.names))
        return {
            self.names[k]: (int(calls[k]), float(self_s[k]), float(total[k]))
            for k in np.nonzero(calls)[0]
        }

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )
