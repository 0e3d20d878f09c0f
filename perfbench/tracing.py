"""Per-layer tracing of lynmag from outside the package.

``Tracer.install`` wraps the public functions and the public and
arithmetic operator methods of every lynmag module, rebinding each
wrapped name wherever the package imported it, and ``uninstall`` puts
every original object back.  Only a traced worker installs it.

Each wrapped call records a span (name, start, end, parent span,
request id) in flat in-memory arrays; ``save`` writes them when the
round ends, and ``layer_metrics`` derives calls, self time and the
counters named in ``PER_LAYER`` from them.  A layer is the lynmag module
a function or class is defined in, except that the argument validators
in ``VALIDATORS`` form a ``validate`` layer of their own: constructors of
every layer call them, so their time is not work of the module that
defines them.  ``__init__``, equality and hashing are left unwrapped:
they run millions of times and their cost, apart from the validators
they call, stays in the self time of the caller.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "__invert__")
SKIPPED_MODULES = ("errors",)
# Wrapped name -> span name.  UnipotentMatrix, TruncatedSeries and
# ModCoeff construction all run prime_power, so it is its own layer.
VALIDATORS = {
    "series.prime_power": "validate.prime_power",
    "series.is_prime": "validate.is_prime",
}

# Per-layer metric -> (unit, better).  Counters whose target function no
# longer exists are reported as None (absent) instead of failing.
PER_LAYER = {
    "words.calls": ("count", "lower"),
    "words.self_s": ("s", "lower"),
    "freegrp.calls": ("count", "lower"),
    "freegrp.self_s": ("s", "lower"),
    "freegrp.max_syllables": ("count", "lower"),
    "freegrp.syllables_built": ("count", "lower"),
    "series.magnus_calls": ("count", "lower"),
    "series.magnus_repeat_ratio": ("ratio", "lower"),
    "series.mul_calls": ("count", "lower"),
    "series.mul_s": ("s", "lower"),
    "series.invert_calls": ("count", "lower"),
    "series.self_s": ("s", "lower"),
    "matgrp.mul_calls": ("count", "lower"),
    "matgrp.mul_s": ("s", "lower"),
    "matgrp.rho_calls": ("count", "lower"),
    "matgrp.group_elements": ("count", "lower"),
    "matgrp.self_s": ("s", "lower"),
    "pairing.entries": ("count", "lower"),
    "pairing.self_s": ("s", "lower"),
    "shufalg.calls": ("count", "lower"),
    "shufalg.cfl_checks": ("count", "lower"),
    "shufalg.self_s": ("s", "lower"),
    "linalg.rref_calls": ("count", "lower"),
    "linalg.rref_cells": ("count", "lower"),
    "linalg.self_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "validate.calls": ("count", "lower"),
    "validate.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Counters that read the number of calls of one wrapped name.
CALL_COUNTS = {
    "series.magnus_calls": "series.magnus",
    "series.mul_calls": "series.TruncatedSeries.__mul__",
    "series.invert_calls": "series.series_invert",
    "matgrp.mul_calls": "matgrp.UnipotentMatrix.__mul__",
    "matgrp.rho_calls": "matgrp.rho",
    "pairing.entries": "pairing.pairing",
    "shufalg.cfl_checks": "shufalg.cfl_check",
    "linalg.rref_calls": "linalg.rref_mod_p",
}
# Counters that sum the inclusive time of one wrapped, non-recursive name.
INCLUSIVE_TIMES = {
    "series.mul_s": "series.TruncatedSeries.__mul__",
    "matgrp.mul_s": "matgrp.UnipotentMatrix.__mul__",
}

# Each workload must leave the other workloads' mechanisms idle.
BYPASS = {
    "filtration-bruteforce": ("series.mul_calls", "freegrp.calls"),
    "shuffle-coeffs": ("matgrp.mul_calls",),
    "pairing-cli": ("linalg.rref_calls",),
}


def bypass_failures(workload: str, values: dict) -> list[str]:
    """Messages for the BYPASS counters of workload that are not idle.

    An absent counter (None) is idle: its mechanism no longer exists.
    """
    return [
        f"{m} = {values[m]} on {workload}, expected 0"
        for m in BYPASS[workload]
        if values[m] not in (0, None)
    ]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.requests = array.array("i")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.request_id = -1
        self.counters = {
            "freegrp.max_syllables": 0,
            "freegrp.syllables_built": 0,
            "series.magnus_repeats": 0,
            "matgrp.group_elements": 0,
            "linalg.rref_cells": 0,
        }
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._magnus_seen: set = set()
        self._ids: dict[str, int] = {}
        self._group_word = getattr(getattr(package, "freegrp", None), "GroupWord", None)

    # ------------------------------------------------------------ wrapping

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        name_ids, parents, requests = self.name_ids, self.parents, self.requests
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns
        pre, post = self._hooks(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            if pre is not None:
                pre(args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if post is not None:
                post(result)
            return result

        return traced

    def _hooks(self, name: str):
        counters = self.counters
        layer = name.split(".", 1)[0]
        group_word = self._group_word
        if layer == "freegrp" and group_word is not None:

            def post(result):
                if isinstance(result, group_word):
                    k = len(result.syllables)
                    counters["freegrp.syllables_built"] += k
                    if k > counters["freegrp.max_syllables"]:
                        counters["freegrp.max_syllables"] = k

            return None, post
        if name == "series.magnus":
            seen = self._magnus_seen

            def pre(args, kwargs):
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    counters["series.magnus_repeats"] += 1
                else:
                    seen.add(key)

            return pre, None
        if name == "matgrp.generate_group":

            def post(result):
                counters["matgrp.group_elements"] += len(result)

            return None, post
        if name == "linalg.rref_mod_p":

            def pre(args, kwargs):
                shape = np.shape(args[0] if args else kwargs["matrix"])
                counters["linalg.rref_cells"] += int(np.prod(shape))

            return pre, None
        return None, None

    def _modules(self):
        pkg = self.package
        return [
            importlib.import_module(f"{pkg.__name__}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if info.name not in SKIPPED_MODULES
        ]

    def install(self) -> None:
        modules = self._modules()
        wrappers: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(value, f"{layer}.{attr}")
                elif callable(value):
                    name = f"{layer}.{attr}"
                    wrappers[id(value)] = self._wrap(value, VALIDATORS.get(name, name))
        # Rebind every name that refers to a wrapped function, in the
        # defining module and in every module that imported it.
        for module in [self.package] + modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def _wrap_class(self, cls, qualname: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, f"{qualname}.{attr}"))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{qualname}.{attr}")
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ spans

    def run_request(self, request_id: int, kind: str, call):
        """Run one benchmark operation as a root span named bench.<kind>."""
        self.request_id = request_id
        return self._wrap(call, f"bench.{kind}")()

    def _arrays(self):
        return (
            np.frombuffer(self.name_ids, dtype=np.int32),
            np.frombuffer(self.parents, dtype=np.int32),
            np.frombuffer(self.starts, dtype=np.int64),
            np.frombuffer(self.ends, dtype=np.int64),
        )

    def save(self, path, run_id: str) -> None:
        name, parent, start, end = self._arrays()
        np.savez(
            path,
            run_id=np.array(run_id),
            names=np.array(self.names),
            name=name,
            parent=parent,
            request=np.frombuffer(self.requests, dtype=np.int32),
            start_ns=start,
            end_ns=end,
        )

    def layer_metrics(self) -> dict[str, float | None]:
        """Every PER_LAYER metric except trace.overhead_s, None when absent."""
        name, parent, start, end = self._arrays()
        dur = (end - start).astype(np.float64) / 1e9
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_s = dur - child
        calls_by_name = np.bincount(name, minlength=len(self.names))
        self_by_name = np.bincount(name, weights=self_s, minlength=len(self.names))
        dur_by_name = np.bincount(name, weights=dur, minlength=len(self.names))
        index = self._ids
        layer_of = [n.split(".", 1)[0] for n in self.names]

        out: dict[str, float | None] = {}
        for layer in {m.split(".", 1)[0] for m in PER_LAYER} - {"trace"}:
            ids = [i for i, l in enumerate(layer_of) if l == layer]
            present = bool(ids)
            out[f"{layer}.calls"] = int(calls_by_name[ids].sum()) if present else None
            out[f"{layer}.self_s"] = float(self_by_name[ids].sum()) if present else None
        for metric, target in CALL_COUNTS.items():
            out[metric] = int(calls_by_name[index[target]]) if target in index else None
        for metric, target in INCLUSIVE_TIMES.items():
            out[metric] = float(dur_by_name[index[target]]) if target in index else None
        c = self.counters
        counted = out["freegrp.calls"] is not None and self._group_word is not None
        for m in ("freegrp.max_syllables", "freegrp.syllables_built"):
            out[m] = c[m] if counted else None
        calls = out["series.magnus_calls"]
        out["series.magnus_repeat_ratio"] = (
            None if calls is None else (c["series.magnus_repeats"] / calls if calls else 0.0)
        )
        out["matgrp.group_elements"] = c["matgrp.group_elements"] if "matgrp.generate_group" in index else None
        out["linalg.rref_cells"] = c["linalg.rref_cells"] if "linalg.rref_mod_p" in index else None
        return {m: out[m] for m in PER_LAYER if m in out}
