"""Span tracer for the per-layer run.

Wraps the public functions of the package modules, from outside the
package: every reference a module holds to a wrapped function (its own
attribute, or a name another module imported) is replaced by the wrapper,
so calls between modules are recorded as well. Each span keeps its name,
start, end, the index of the span that caused it, the operation it belongs
to and a work count read from its arguments or result. Spans stay in
memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("roots", "special", "coeffs", "dynamics", "oracle", "cli")

# work counts recorded on a span, read from the call's arguments or result
_COUNTS = {
    "special._i1_i2": lambda args, kw, out: int(np.size(args[1])),
    "coeffs.EvaluationContext.drift": lambda args, kw, out: int(np.size(args[1])),
    "coeffs.EvaluationContext.diffusion": lambda args, kw, out: int(np.size(args[1])),
    "dynamics.coefficient_table": lambda args, kw, out: int(np.size(args[0])),
    "dynamics.propagate": lambda args, kw, out: len(out.t) - 1,
    "oracle.volterra_solve": lambda args, kw, out: len(out.s) - 1,
    "oracle._fine_panels": lambda args, kw, out: int(out),
}

# private functions that carry a layer's work count
_PRIVATE = {"special": ("_i1_i2",), "oracle": ("_fine_panels",)}

# public methods of the evaluation context, plus its constructor
_METHODS = {"coeffs": {"EvaluationContext": ("__init__", "drift", "diffusion",
                                             "single_parts", "triple_parts")}}


def _preset(args, kw):
    argv = args[0] if args else kw.get("argv") or []
    return argv[argv.index("--preset") + 1] if "--preset" in argv else ""


def _mode(args, kw):
    return args[3] if len(args) > 3 else kw.get("mode", "exact")


# labels recorded on a span: the CLI preset, the coefficient mode
_LABELS = {"cli.main": _preset, "dynamics.coefficient_table": _mode}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent, op, count, label)
        self._stack: list[int] = []
        self.op = -1
        self._originals: list[tuple] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        count = _COUNTS.get(name)
        label = _LABELS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kw)
            except BaseException:
                spans[idx] = (fid, start, clock(), parent, self.op, 0, "")
                stack.pop()
                raise
            end = clock()
            stack.pop()
            n = count(args, kw, out) if count else 0
            spans[idx] = (fid, start, end, parent, self.op, n,
                          label(args, kw) if label else "")
            return out

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self, package):
        """Wrap the public functions of every layer module of `package`."""
        mods = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        every = [m for key, m in sys.modules.items()
                 if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for layer, mod in mods.items():
            names = [n for n, obj in vars(mod).items()
                     if not n.startswith("_") and callable(obj) and not inspect.isclass(obj)
                     and getattr(obj, "__module__", None) == mod.__name__]
            names += [n for n in _PRIVATE.get(layer, ()) if hasattr(mod, n)]
            for n in names:
                orig = getattr(mod, n)
                wrapped = self._wrap(f"{layer}.{n}", orig)
                for m in every:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._originals.append((m, attr, orig))
                            setattr(m, attr, wrapped)
            for cls_name, meths in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    orig = cls.__dict__[meth]
                    self._originals.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    # -- analysis -----------------------------------------------------------

    def summary(self):
        """Per function: calls, inclusive seconds, self seconds, count; plus
        per layer self seconds, and the counts of spans below given ancestors."""
        n = len(self.spans)
        child = np.zeros(n)
        for fid, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, (fid, start, end, parent, op, cnt, label) in enumerate(self.spans):
            name = self.names[fid]
            d = per.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "count": 0})
            d["calls"] += 1
            d["incl"] += end - start
            d["self"] += end - start - child[i]
            d["count"] += cnt
            layer_self[name.split(".")[0]] += end - start - child[i]
        return per, layer_self

    def count_under(self, name: str, ancestor: str, label=None) -> int:
        """Sum of the work counts of `name` spans that have an `ancestor`
        span, with the given label if one is given."""
        want = self.names.index(name) if name in self.names else -1
        anc = self.names.index(ancestor) if ancestor in self.names else -1
        total = 0
        for fid, _, _, parent, _, cnt, _ in self.spans:
            if fid != want:
                continue
            while parent >= 0:
                span = self.spans[parent]
                if span[0] == anc and label in (None, span[6]):
                    total += cnt
                    break
                parent = span[3]
        return total

    def by_label(self, name: str):
        """Inclusive seconds and work counts of `name` spans per label."""
        out = {}
        fid = self.names.index(name) if name in self.names else -1
        for f, start, end, _, _, cnt, label in self.spans:
            if f == fid:
                secs, n = out.get(label, (0.0, 0))
                out[label] = (secs + end - start, n + cnt)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,duration_s,parent,op,count,label\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for fid, start, end, parent, op, cnt, label in self.spans:
                fh.write(f"{self.names[fid]},{start - t0:.9f},{end - start:.9f},"
                         f"{parent},{op},{cnt},{label}\n")
