"""Spans around calls into each weylgraded module, recorded from outside it.

`Tracer.install()` wraps the public callables of the package: every function
named in ``weylgraded.__all__``, plus the public and arithmetic methods of the
five value classes below.  Each wrapped call records one span (name, start,
end, parent span, op id) in flat arrays that stay in memory until
`Tracer.write` dumps them.  A span's layer is the module that defines the
callable, so time spent in ``fractions`` under a ``skew`` method is ``skew``
self time.
"""
from __future__ import annotations

import array
import functools
import gzip
import inspect
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("zfin", "skew", "lattices", "picard", "classify", "gwa", "ktheory", "cli")
CLASSES = ("FinSet", "RationalPoly", "SkewElement", "GradedLattice", "PicElement")
ARITHMETIC = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__xor__", "__and__",
    "__or__", "__invert__",
)
# Top-level (called from an op, not from another span) gwa entry points whose
# inclusive time is reported per use of the skew layer.
GWA_GROUPS = {
    "oracle_s": ("twisted_endo_piece_oracle",),
    "closed_form_s": ("graded_piece_closed_form",),
    "closure_s": ("verify_ring_closure", "verify_gwa_embedding", "simplicity_root_test"),
}
OP_LAYER = "op"


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.op_id = -1
        self.rpoly_reduced = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # recording ---------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start[i] = perf_counter()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def span(self, name: str, layer: str):
        """Context manager recording one span, used for the benchmark's op spans."""
        return _Span(self, self._name_id(name, layer))

    def wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_rpoly_init(self, init):
        """RationalPoly.__init__ that also counts builds whose gcd cancelled."""
        nid = self._name_id("RationalPoly.__init__", "skew")

        @functools.wraps(init)
        def traced(obj, num=(), den=(1,)):
            num, den = tuple(num), tuple(den)
            i = self._open(nid)
            try:
                init(obj, num, den)
            finally:
                self._close(i)
            d = list(den)
            while d and Fraction(d[-1]) == 0:
                d.pop()
            if obj.num and len(obj.den) < len(d):
                self.rpoly_reduced += 1

        return traced

    # installing --------------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public callables and rebind every module's names."""
        import weylgraded

        replaced: dict[int, object] = {}
        for public in weylgraded.__all__:
            fn = getattr(weylgraded, public)
            if inspect.isfunction(fn):
                replaced[id(fn)] = self.wrap(fn, public, fn.__module__.rpartition(".")[2])
        for cls_name in CLASSES:
            cls = getattr(weylgraded, cls_name)
            layer = cls.__module__.rpartition(".")[2]
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr not in ARITHMETIC:
                    continue
                name = f"{cls_name}.{attr}"
                if cls_name == "RationalPoly" and attr == "__init__":
                    new = self._wrap_rpoly_init(raw)
                elif isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self.wrap(raw.__func__, name, layer))
                elif inspect.isfunction(raw):
                    new = self.wrap(raw, name, layer)
                else:
                    continue
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "weylgraded" or mod_name.startswith("weylgraded.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replaced[id(value)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # reading -----------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names, "layers": self.layers}, fh)
            fh.write("\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write("%d %.9f %.9f %d %d\n" % row)

    def summary(self) -> dict[str, float]:
        """Per-layer calls and self time, plus the counters named per layer."""
        n = len(self.name)
        dur = array.array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array.array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        by_name: Counter = Counter()
        top_s: Counter = Counter()
        incl_s: Counter = Counter()
        for i in range(n):
            nid = self.name[i]
            layer = self.layers[nid]
            name = self.names[nid]
            by_name[name] += 1
            incl_s[name] += dur[i]
            if layer == OP_LAYER:
                self_s[OP_LAYER] += dur[i]
                continue
            calls[layer] += 1
            self_s[layer] += dur[i] - child[i]
            p = self.parent[i]
            if p < 0 or self.layers[self.name[p]] == OP_LAYER:
                top_s[name] += dur[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        built = by_name["RationalPoly.__init__"]
        out["skew.rpoly_built"] = built
        out["skew.rpoly_reduced_ratio"] = self.rpoly_reduced / built if built else 0.0
        out["skew.skew_mul_calls"] = by_name["SkewElement.__mul__"] + by_name["SkewElement.__rmul__"]
        out["skew.shift_calls"] = by_name["RationalPoly.shift"]
        out["lattices.lattices_built"] = by_name["GradedLattice.__init__"]
        out["lattices.involute_calls"] = by_name["GradedLattice.involute"]
        out["lattices.generator_at_calls"] = by_name["GradedLattice.generator_at"]
        for metric, names in GWA_GROUPS.items():
            out[f"gwa.{metric}"] = sum(top_s[x] for x in names)
        out["picard.compose_calls"] = by_name["compose"]
        out["zfin.finsets_built"] = by_name["FinSet.__init__"]
        out["zfin.necklace_enumerate_s"] = incl_s["necklace_enumerate"]
        out["classify.canonical_calls"] = by_name["canonical_admissible"]
        out["ktheory.normalize_calls"] = by_name["normalize_sum"]
        out["trace.op_s"] = self_s[OP_LAYER]
        return out


class _Span:
    __slots__ = ("_tracer", "_nid", "_i")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer, self._nid = tracer, nid

    def __enter__(self) -> None:
        self._i = self._tracer._open(self._nid)

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._i)
