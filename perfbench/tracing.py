"""Spans around the package's public functions, installed from outside.

`Tracer.install(package, modules)` replaces every public function of every
module with a recording wrapper, in each module namespace that holds it,
so a caller gets the wrapper wherever it looks the name up: its own module
globals after a `from .x import f`, the defining module, or the package
root.  Public methods of `EllipticKernel` are wrapped on the class, because
callers reach the kernel through `kern.sncndn`.  Nothing under `src/` is
edited; `uninstall` puts every original back.

A span is (name, start, end, parent, bits).  Spans live in flat arrays in
memory and are written out once, when the run ends.  `bits` is the working
precision of the spans in PREC_SPANS and 0 elsewhere.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter

#: spans that carry the precision they ran at; they count route evaluations
ROUTE_SPANS = ("partition.block_transfer_logZ", "partition.hankel_logZ",
               "partition.pfaffian_logZ")
#: spans whose precision is recorded but that are not routes
PREC_SPANS = ROUTE_SPANS + ("spectrum.joint_spectrum",)

#: classes whose public methods are wrapped as well as the module functions
WRAPPED_CLASSES = {"elliptic": ("EllipticKernel",)}


def _bits(prec) -> int:
    return 53 if prec is None else int(getattr(prec, "bits", 53))


class Tracer:
    """Records nested spans of one thread, timed by `clock`."""

    def __init__(self, clock=perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.bits = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, name: str, fn, prec_index: int | None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_id, start, end, parent, bits, clock = (
            self._stack, self.name_id, self.start, self.end, self.parent,
            self.bits, self._clock)

        def record(b):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            bits.append(b)
            end.append(0.0)
            stack.append(idx)
            return idx

        if prec_index is None:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                idx = record(0)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
        else:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                idx = record(_bits(
                    kwargs["prec"] if "prec" in kwargs
                    else args[prec_index] if len(args) > prec_index
                    else None))
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()

        return span

    # -- installation ------------------------------------------------------
    def install(self, package, modules: dict):
        """Wrap the public functions of `modules` ({short name: module})."""
        namespaces = [package] + list(modules.values())
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped = self._wrap(name, obj, _prec_index(name, obj))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._patch(ns, key, wrapped)
            for cls_name in WRAPPED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    self._patch(cls, attr, self._wrap(
                        f"{short}.{cls_name}.{attr}", obj, None))

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- output ------------------------------------------------------------
    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tbits\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                         f"{self.parent[i]}\t{self.bits[i]}\n")

    def summary(self, layers, lo: int = 0) -> dict:
        """Per-span statistics over spans lo.. (one pass).

        `self_s` and `calls` are keyed by span name; a span's self time is
        its duration minus that of its child spans.  `layer_s` gives each
        span name in `layers` the self time of its own spans plus that of
        every descendant not nested in another `layers` span, so the layer
        times add up without double counting.  Also counts route
        evaluations above 53 bits and escalated assemble_logZ calls.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(lo, n)]
        child = [0.0] * (n - lo)
        for i in range(lo, n):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        layer_ids = {self._ids[x] for x in layers if x in self._ids}
        owner = [-1] * (n - lo)
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_s: dict[str, float] = {}
        for i in range(lo, n):
            name = self.names[self.name_id[i]]
            own = dur[i - lo] - child[i - lo]
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            p = self.parent[i]
            # parents precede children, so the parent's owner is known
            o = (i if self.name_id[i] in layer_ids
                 else owner[p - lo] if p >= lo else -1)
            owner[i - lo] = o
            if o >= 0:
                lname = self.names[self.name_id[o]]
                layer_s[lname] = layer_s.get(lname, 0.0) + own
        route_ids = {self._ids[r] for r in ROUTE_SPANS if r in self._ids}
        assemble = self._ids.get("partition.assemble_logZ")
        extended = 0
        bits_seen: dict[int, set] = {}
        for i in range(lo, n):
            if self.name_id[i] not in route_ids:
                continue
            if self.bits[i] > 53:
                extended += 1
            p = self.parent[i]
            while p >= lo and self.name_id[p] != assemble:
                p = self.parent[p]
            if p >= lo:
                bits_seen.setdefault(p, set()).add(self.bits[i])
        # an escalated call ran some route at two precisions
        escalations = sum(1 for s in bits_seen.values() if len(s) > 1)
        return {"self_s": self_s, "calls": calls, "layer_s": layer_s,
                "spans": n - lo,
                "extended_routes": extended, "escalations": escalations}


def _prec_index(name: str, fn) -> int | None:
    """Position of the `prec` parameter for spans that record precision."""
    if name not in PREC_SPANS:
        return None
    return list(inspect.signature(fn).parameters).index("prec")
