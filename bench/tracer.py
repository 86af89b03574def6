"""Outside-in tracing of wittlab, installed at run time.

``Tracer.install`` wraps, from outside the package:

* every public function defined in a traced module, rebound under the same
  name in every ``wittlab`` module that imported it (``witt_mul`` lives in
  ``witt`` but is also bound in ``arrow``, ``tilt`` and ``perfect``), so calls
  made inside the library get spans too;
* every public method of every class defined in a traced module.  Methods a
  concrete class inherits (``Rationals`` inherits ``Ring.pow_``, ``ZModPM``
  overrides it) are wrapped on the concrete class, so each span names the
  class that ran it.

A span is (name, start, end, parent, raised), kept in flat arrays and written
out by ``write``.  ``uninstall`` restores every binding exactly; ``verify_clean``
proves it.  Nothing under ``src/`` is edited.

A span's layer is the module that defines the function or the concrete class.
Two size counters are computed from values, not measured: the bit length of
the ghost entries ``witt.ghost`` returns, and of the operands of every ``mul``
of a ``cyclotomic`` class.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("rings", "cyclotomic", "perfpoly", "univ", "witt", "arrow", "tilt", "perfect")
_MARK = "__bench_traced__"


def bit_size(value: Any) -> int:
    """Total bit length of the integers inside a ring element."""
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, (tuple, list)):
        return sum(bit_size(v) for v in value)
    for attr in ("value", "coeffs", "entries"):
        if hasattr(value, attr):
            return bit_size(getattr(value, attr))
    return 0


def _package_modules() -> List[Any]:
    return [m for name, m in sorted(sys.modules.items()) if name == "wittlab" or name.startswith("wittlab.")]


def _is_function(obj: Any) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.raised = array.array("b")
        self._stack = [-1]
        self.counters: Dict[str, int] = {"witt.ghost.out_bits": 0, "cyclotomic.mul.in_bits": 0}
        self._restore: List[Tuple[Any, str, bool, Any]] = []
        self.installed = False

    # -- span recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, raised, stack = self.parents, self.raised, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            raised.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        if name == "witt.ghost":
            inner = traced
            counters = self.counters

            def traced(*args, **kwargs):
                out = inner(*args, **kwargs)
                counters["witt.ghost.out_bits"] += bit_size(out.entries)
                return out

        elif name.startswith("cyclotomic.") and name.endswith(".mul"):
            inner = traced
            counters = self.counters

            def traced(self_, a, b):
                counters["cyclotomic.mul.in_bits"] += bit_size(a) + bit_size(b)
                return inner(self_, a, b)

        setattr(traced, _MARK, True)
        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall -------------------------------------------------------

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        wrapped: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"wittlab.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _is_function(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # rebind each wrapped function wherever the package bound it by name
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and _is_function(obj):
                    self._restore.append((mod, attr, True, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        self.installed = True

    def _wrap_class(self, cls: type, layer: str) -> None:
        if inspect.isabstract(cls):
            return  # concrete subclasses carry the inherited methods
        seen = set()
        for klass in cls.__mro__:
            if klass is object:
                continue
            for attr, raw in vars(klass).items():
                if attr.startswith("_") or attr in seen:
                    continue
                seen.add(attr)
                if not inspect.isfunction(raw):
                    continue  # properties, static and class methods stay unwrapped
                raw = getattr(raw, "__wrapped__", raw) if getattr(raw, _MARK, False) else raw
                own = attr in vars(cls)
                self._restore.append((cls, attr, own, vars(cls).get(attr)))
                setattr(cls, attr, self._wrap(raw, f"{layer}.{cls.__name__}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, present, original in reversed(self._restore):
            if present:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()
        self.installed = False

    # -- results -------------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.name_ids)

    def aggregate(self) -> Dict[str, float]:
        """calls, self_s and raised per layer, per layer.method (summed over
        the layer's classes) and per layer.Class.method."""
        n = len(self.name_ids)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            par = parents[i]
            if par >= 0:
                child[par] += ends[i] - starts[i]
        per_name_calls = [0] * len(self.names)
        per_name_self = [0.0] * len(self.names)
        per_name_raised = [0] * len(self.names)
        for i in range(n):
            nid = self.name_ids[i]
            per_name_calls[nid] += 1
            per_name_self[nid] += ends[i] - starts[i] - child[i]
            per_name_raised[nid] += self.raised[i]
        out: Dict[str, float] = {}

        def bump(key: str, value) -> None:
            out[key] = out.get(key, 0) + value

        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.raised"] = 0
        for nid, name in enumerate(self.names):
            parts = name.split(".")
            keys = [parts[0], name]
            if len(parts) == 3:
                keys.append(f"{parts[0]}.{parts[2]}")
            for key in keys:
                bump(f"{key}.calls", per_name_calls[nid])
                bump(f"{key}.self_s", per_name_self[nid])
                bump(f"{key}.raised", per_name_raised[nid])
        out.update(self.counters)
        return out

    def write(self, directory: str) -> None:
        """Spans as five flat arrays plus a JSON index of names."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "spans.bin"), "wb") as handle:
            for arr in (self.name_ids, self.starts, self.ends, self.parents, self.raised):
                arr.tofile(handle)
        meta = {
            "count": self.span_count(),
            "fields": [["name", "i"], ["start", "d"], ["end", "d"], ["parent", "i"], ["raised", "b"]],
            "names": self.names,
        }
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(meta, handle)


def snapshot() -> Dict[Tuple[int, str], Any]:
    """Every binding the tracer may touch: module attributes and the own
    attributes of every class defined in the package."""
    snap: Dict[Tuple[int, str], Any] = {}
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            snap[(id(mod), attr)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("wittlab"):
                for cattr, cobj in vars(obj).items():
                    snap[(id(obj), cattr)] = cobj
    return snap


def verify_clean(before: Dict[Tuple[int, str], Any]) -> List[str]:
    """Bindings that differ from the snapshot, or still carry a wrapper."""
    after = snapshot()
    bad = [f"{key[1]}" for key in before.keys() | after.keys() if before.get(key) is not after.get(key)]
    bad += [f"{key[1]} (traced)" for key, obj in after.items() if getattr(obj, _MARK, False)]
    return sorted(bad)
