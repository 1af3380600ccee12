"""Outside-in tracer for the clusterport package.

The benchmark may not change the program, so it wraps the public functions
of each module from outside.  Patching only the defining module misses most
calls: ``from .x import y`` binds ``y`` again in every importing module, and
``harness._RUNNERS`` holds runner functions directly.  ``install`` therefore
rebinds every clusterport namespace that refers to a target (module globals
and the dicts held in them), and ``uninstall`` puts every original back.
A class target is traced through its ``__init__``, i.e. validated
construction.

Spans (function, parent span, start, end) stay in memory until ``summary``
turns them into calls and self time per function.  Self time is a span's
duration minus the time its traced children cover.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

PACKAGE = "clusterport"

TARGETS = (
    ("statevec", "StateVector"),
    ("statevec", "tensor"),
    ("statevec", "relabel"),
    ("statevec", "fidelity"),
    ("statevec", "format_state"),
    ("gates", "apply_single"),
    ("gates", "apply_cz"),
    ("measurement", "project_bell"),
    ("measurement", "sample_bell"),
    ("protocol", "assemble_total"),
    ("protocol", "collapse_branch"),
    ("protocol", "target_state"),
    ("protocol", "apply_correction"),
    ("protocol", "pauli_pair_fidelities"),
    ("protocol", "random_input"),
    ("harness", "run"),
    ("harness", "emit_report"),
    ("cli", "main"),
)


def _state_bytes(args, result) -> int:
    # A gate reads and writes every amplitude once: computed, not measured.
    return 2 * args[0].amps.nbytes


def _report_bytes(args, result) -> int:
    return len(result)


# Extra per-function totals, computed from the call's arguments or result.
EXTRAS = {
    "gates.apply_single": _state_bytes,
    "gates.apply_cz": _state_bytes,
    "harness.emit_report": _report_bytes,
}


class Tracer:
    """Installs and removes span-recording wrappers around ``TARGETS``."""

    def __init__(self, targets=TARGETS):
        self.names = tuple(f"{mod}.{attr}" for mod, attr in targets)
        self._targets = tuple(targets)
        self._fn = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.extras = [0] * len(self.names)
        self.invocation_starts = array("I")
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper, built once
        self._sites: list[tuple[object, str, object]] = []  # (owner, key, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fid: int, fn):
        fns, parents, starts, ends, stack = self._fn, self._parent, self._start, self._end, self._stack
        extras = self.extras
        extra = EXTRAS.get(self.names[fid])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extra is not None:
                extras[fid] += extra(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    def _wrapper_for(self, fid: int, fn):
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self._wrap(fid, fn)
        return self._wrappers[id(fn)]

    @staticmethod
    def _namespaces() -> list[dict]:
        """Every dict through which clusterport code looks up a name."""
        spaces = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            ns = vars(mod)
            spaces.append(ns)
            spaces.extend(v for k, v in ns.items() if isinstance(v, dict) and not k.startswith("__"))
        return spaces

    def install(self) -> None:
        if self._sites:
            raise RuntimeError("tracer already installed")
        spaces = self._namespaces()
        for fid, (mod, attr) in enumerate(self._targets):
            module = sys.modules[f"{PACKAGE}.{mod}"]
            obj = getattr(module, attr)
            if isinstance(obj, type):
                original = obj.__dict__["__init__"]
                self._sites.append((obj, "__init__", original))
                setattr(obj, "__init__", self._wrapper_for(fid, original))
                continue
            wrapper = self._wrapper_for(fid, obj)
            for ns in spaces:
                for key in [k for k, v in ns.items() if v is obj]:
                    self._sites.append((ns, key, obj))
                    ns[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._sites):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._sites.clear()

    def installed_sites(self) -> list[tuple[object, str]]:
        """Every place one of this tracer's wrappers is bound right now."""
        wrappers = {id(w) for w in self._wrappers.values()}
        found = [(ns, k) for ns in self._namespaces() for k, v in ns.items() if id(v) in wrappers]
        for mod, attr in self._targets:
            obj = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr, None)
            if isinstance(obj, type) and id(obj.__dict__.get("__init__")) in wrappers:
                found.append((obj, "__init__"))
        return found

    # -- results ----------------------------------------------------------

    def begin_invocation(self) -> None:
        """Mark the first span of a traced invocation; spans up to the next
        mark share its identifier."""
        self.invocation_starts.append(len(self._fn))

    def spans_per_invocation(self) -> list[int]:
        bounds = [*self.invocation_starts, len(self._fn)]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, self time and extras per traced function."""
        k = len(self.names)
        fid = np.frombuffer(self._fn, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(fid, minlength=k)
        self_s = np.bincount(fid, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "extra": self.extras[i]}
            for i, name in enumerate(self.names)
        }
