"""Spans around tinyssi's public functions, installed from outside the package.

`Tracer.install()` replaces every public function and public method of the
measured modules with a wrapper that records one span per call: function,
handshake index, start, end, self time (duration minus the time of wrapped
callees) and parent span. Names bound with `from .x import y` are rebound in
every importing module's namespace too, or their calls would go uncounted.
`uninstall()` puts every original back.

Spans are kept in memory in flat integer arrays and written out at the end.
A few functions also feed counters through probes that read their arguments
and results; everything else is derived from the spans.
"""

from __future__ import annotations

import enum
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

PACKAGE = "tinyssi"
LAYERS = (
    "crypto", "encoding", "identity", "credentials", "resolver",
    "handshake", "transport", "wallet", "harness",
)

Probe = Callable[[tuple, Any], None]


def _package_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def _targets(module) -> list[tuple[str, Any, str, Any]]:
    """(span name, owner object, attribute, __dict__ entry) for each public callable."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((f"{layer}.{name}", module, name, obj))
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
            for attr, entry in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(entry, (classmethod, staticmethod)) or inspect.isfunction(entry):
                    found.append((f"{layer}.{name}.{attr}", obj, attr, entry))
    return found


class Tracer:
    def __init__(self) -> None:
        # Read when install() wraps a function; a probe runs after each call.
        self.probes: dict[str, Probe] = {}
        self.names: list[str] = []
        self.fn = array("q")
        self.hs = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.raised: Counter[str] = Counter()
        self.current_hs = -1
        self._stack: list[list[int]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installing -----------------------------------------------------------

    def _wrap(self, span: str, fn: Callable) -> Callable:
        if span not in self.names:
            self.names.append(span)
        fid = self.names.index(span)
        probe = self.probes.get(span)
        tracer = self
        fns, hss, parents = self.fn, self.hs, self.parent
        starts, ends, selfs = self.start, self.end, self.self_ns
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(fns)
            fns.append(fid)
            hss.append(tracer.current_hs)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0)
            ends.append(0)
            selfs.append(0)
            frame = [index, 0]
            stack.append(frame)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[span] += 1
                raise
            finally:
                finished = clock()
                stack.pop()
                duration = finished - began
                starts[index] = began
                ends[index] = finished
                selfs[index] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if probe is not None:
                probe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.bench_span = span
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        replaced: dict[int, Callable] = {}
        for module in modules:
            for span, owner, attr, entry in _targets(module):
                if isinstance(entry, (classmethod, staticmethod)):
                    wrapped = type(entry)(self._wrap(span, entry.__func__))
                else:
                    wrapped = self._wrap(span, entry)
                    if owner is module:
                        replaced[id(entry)] = wrapped
                self._saved.append((owner, attr, entry))
                setattr(owner, attr, wrapped)
        # Rebind names that other modules imported with `from .x import y`.
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for owner, attr in self._wrapped_attributes():
            raise RuntimeError(f"wrapper left in place: {owner.__name__}.{attr}")

    def _wrapped_attributes(self):
        for module in _package_modules():
            for attr, value in vars(module).items():
                if hasattr(value, "bench_span"):
                    yield module, attr
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    for method, entry in vars(value).items():
                        if hasattr(getattr(entry, "__func__", entry), "bench_span"):
                            yield value, method

    # -- reading ---------------------------------------------------------------

    def spans_by_name(self, phase: Callable[[int], bool]) -> dict[str, dict[str, array]]:
        """Per span name: inclusive durations and self times of matching spans."""
        out: dict[str, dict[str, array]] = {}
        names = self.names
        for fid, hs, began, finished, own in zip(
            self.fn, self.hs, self.start, self.end, self.self_ns
        ):
            if phase(hs):
                name = names[fid]
                entry = out.get(name)
                if entry is None:
                    entry = out[name] = {"dur": array("q"), "self": array("q")}
                entry["dur"].append(finished - began)
                entry["self"].append(own)
        return out

    def span_count(self) -> int:
        return len(self.fn)

    def write(self, path: Path) -> None:
        """Every span as gzipped CSV, times in ns from the first span's start.

        The first line maps name ids to span names.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.start) if self.start else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# names: " + " ".join(f"{i}={n}" for i, n in enumerate(self.names)) + "\n")
            out.write("span,parent,name_id,hs,start_ns,duration_ns,self_ns\n")
            for i, (fid, hs, parent, began, finished, own) in enumerate(zip(
                self.fn, self.hs, self.parent, self.start, self.end, self.self_ns
            )):
                out.write(f"{i},{parent},{fid},{hs},{began - origin},{finished - began},{own}\n")
