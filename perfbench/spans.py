"""Outside-in tracing of normholo's layers.

The tracer wraps public functions of the package from outside: every
public function a normholo module defines, plus the listed methods.  A
wrapper is bound at every module attribute that refers to the original,
so ``report.analyze`` (which is ``holonomy.analyze``) and
``linalg.jacobi_eigh`` (which comes from ``kernels``) are traced too.
Spans are kept in memory as (name, parent, start, end, counts,
warnings) and summarised once a pass is over.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

METHODS = ("srep.SymmetricPairRep.isotropy_algebra",
           "report.Report.document_text")


def _extend_span_counts(arguments, result):
    return {"offered": len(arguments["vectors"]),
            "kept": result.dim - arguments["space"].dim}


def _transport_segment_counts(arguments, result):
    return {"steps": int(arguments["nsteps"])}


def _loop_probe_counts(arguments, result):
    return {"kept": len(result.logs)}


# Per-call counters: span name -> fn(bound arguments, result) -> counts.
COUNTERS = {
    "linalg.extend_span": _extend_span_counts,
    "kernels.transport_segment": _transport_segment_counts,
    "holonomy.loop_holonomy_probe": _loop_probe_counts,
}

# A span's "offered" count taken from descendant spans of another name:
# loop-probe kept ratio is logs kept per frame return computed.
OFFERED_BY_DESCENDANTS = {
    "holonomy.loop_holonomy_probe": "transport.transport_frame_return",
}


def _modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    """Installs span-recording wrappers and collects spans in memory."""

    def __init__(self, package):
        self.package = package
        self.modules = _modules(package)
        self.targets = self._find_targets()
        self.spans = []
        self.stack = []
        self._saved = []

    def _short(self, module_name: str) -> str:
        return module_name[len(self.package.__name__) + 1:]

    def _find_targets(self) -> dict:
        """id(original function) -> (span name, original)."""
        targets = {}
        for mod in self.modules[1:]:
            short = self._short(mod.__name__)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (f"{short}.{name}", obj)
        for qual in METHODS:
            modname, clsname, meth = qual.split(".")
            cls = getattr(importlib.import_module(
                f"{self.package.__name__}.{modname}"), clsname, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                targets[id(fn)] = (qual, fn)
        return targets

    @property
    def span_names(self) -> set:
        return {name for name, _ in self.targets.values()}

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(signature.bind(*args, **kwargs).arguments,
                                 result)
            return result

        return wrapper

    def install(self) -> None:
        """Bind a wrapper at every module and class attribute of a target."""
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in self.targets.items()}
        owners = list(self.modules)
        for mod in self.modules:
            owners += [obj for obj in vars(mod).values()
                       if inspect.isclass(obj)
                       and obj.__module__ == mod.__name__]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._saved.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()

    def note_warning(self) -> None:
        """Attribute a warning to the innermost open span."""
        if self.stack:
            self.spans[self.stack[-1]][5] += 1

    def summary(self) -> dict:
        """Per-span-name calls, total and self seconds, warnings, counts."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child_time[rec[1]] += rec[3] - rec[2]
        stats = defaultdict(lambda: defaultdict(float))
        for i, (name, _, t0, t1, counts, warns) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child_time[i]
            s["warnings"] += warns
            for key, val in (counts or {}).items():
                s[key] += val
        for name, child in OFFERED_BY_DESCENDANTS.items():
            if name in stats:
                stats[name]["offered"] += self._descendant_count(name, child)
        return {name: dict(s) for name, s in stats.items()}

    def _descendant_count(self, ancestor: str, child: str) -> int:
        count = 0
        for rec in self.spans:
            if rec[0] != child:
                continue
            p = rec[1]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][1]
            count += p >= 0
        return count

    def dump(self) -> list:
        """Spans as plain lists: name, parent index, start, end, warnings."""
        return [[name, parent, t0, t1, warns]
                for name, parent, t0, t1, _, warns in self.spans]
