"""Span recorder installed on layeragg from outside the package.

Each target is a function or a method named as "module:attr" or
"module:Class.attr". A method is wrapped on its class. A function is
wrapped at every binding site inside the package: modules that did
`from .x import f` look `f` up in their own namespace, so a wrapper on
the defining module alone would miss their calls.

A span records its target, start, end, parent span and the benchmark's
operation id. Spans stay in memory until the run ends. Self time is a
span's duration minus the durations of its direct children; the program
runs in one thread, so children nest inside their parent and never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

import numpy as np


# Counters read only argument shapes, and skip shapes the call itself will reject.


def matmul_counts(counts: dict, field, a, b) -> None:
    """(n, k) x (k, d): n*k*d multiplies; reads both operands, writes (n, d)."""
    if np.ndim(a) == 2 and np.ndim(b) == 2:
        (n, k), d = np.shape(a), np.shape(b)[1]
        counts["mults"] += n * k * d
        counts["bytes"] += (n * k + k * d + n * d) * field.dtype.itemsize


def xor_sum_counts(counts: dict, field, rows) -> None:
    """(r, d) folded to (d,): (r - 1) * d XORs; reads r rows, writes one."""
    if np.ndim(rows) == 2:
        r, d = np.shape(rows)
        counts["ops"] += max(r - 1, 0) * d
        counts["bytes"] += (r + 1) * d * field.dtype.itemsize


COUNTERS = {"matmul": matmul_counts, "xor_sum": xor_sum_counts}


def _site_name(site, key: str) -> str:
    if isinstance(site, type):
        return f"{site.__module__}.{site.__qualname__}.{key}"
    return f"{site.__name__}.{key}"


class Tracer:
    """Span recorders for the targets, resolved once; install() and uninstall() bracket traced calls.

    The package must be imported before the tracer is built, since the
    binding sites are found by scanning its loaded modules.
    """

    def __init__(self, package: str, targets: list[dict]):
        self.names = [t["name"] for t in targets]
        self.counts = [{key: 0 for key in t.get("counts", ())} for t in targets]
        self.sites: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self.op = -1
        self._stack = [-1]
        self._target: list[int] = []
        self._parent: list[int] = []
        self._op: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for idx, target in enumerate(targets):
            module_name, _, path = target["target"].partition(":")
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target["name"])
                continue
            wrapper = self._wrap(idx, original, COUNTERS.get(target.get("counter")))
            if owner_path:
                sites = [(owner, attr)]
            else:
                sites = [
                    (m, key) for m in modules for key, v in vars(m).items() if v is original
                ]
            self._patches += [(site, key, original, wrapper) for site, key in sites]
            self.sites[target["name"]] = [_site_name(site, key) for site, key in sites]

    def install(self) -> None:
        for site, key, _, wrapper in self._patches:
            setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original, _ in self._patches:
            setattr(site, key, original)

    def _wrap(self, idx: int, fn, counter):
        stack, target, parent, op = self._stack, self._target, self._parent, self._op
        start, end = self._start, self._end
        counts = self.counts[idx]
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(counts, *args, **kwargs)
            sid = len(start)
            target.append(idx)
            parent.append(stack[-1])
            op.append(tracer.op)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict]:
        """Per target: calls, total self seconds, and any computed counts."""
        target = np.asarray(self._target, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end, dtype=np.int64) - np.asarray(self._start, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - child
        n = len(self.names)
        calls = np.bincount(target, minlength=n)
        self_s = np.bincount(target, weights=self_ns, minlength=n) / 1e9
        return {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "counts": dict(self.counts[i]),
                "measured": name not in self.missing,
            }
            for i, name in enumerate(self.names)
        }

    def dump(self, path: Path) -> None:
        """Write every span: target index, parent span, op id, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.asarray(self.names),
            target=np.asarray(self._target, dtype=np.int32),
            parent=np.asarray(self._parent, dtype=np.int64),
            op=np.asarray(self._op, dtype=np.int64),
            start_ns=np.asarray(self._start, dtype=np.int64),
            end_ns=np.asarray(self._end, dtype=np.int64),
        )
