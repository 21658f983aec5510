"""Per-layer spans taken from outside the library.

`Tracer.install` rebinds each function in `TARGETS` in every loaded `vqcat`
module that holds it (the modules import these functions by name, so one
rebinding per holder is needed), and patches the `PresheafCategory.cat`
property so that materializing a hom matrix is timed.  `uninstall` puts the
original objects back.  `Quantale.le`, `mul` and `res` are not wrapped.

A traced call records a span: id, name, start, end, parent span, error flag
and the decision it belongs to.  Calls of hot leaf functions (`leaf=True`)
are aggregated per parent span instead: count, total time, self time and
errors.  Self time is a call's duration minus the time of the traced calls
made inside it; everything runs in one thread, so those never overlap.

Each layer (a metric prefix such as `presheaf.enumerate`) also keeps running
totals: entries (calls not made from inside the same layer), calls that
returned `True`, a size taken from results, searches capped by
`SizeExceeded`, and self time.  `metrics` turns them into the per-layer
metrics listed in `BENCHMARK.json`.
"""

from __future__ import annotations

import contextlib
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


def _library_modules():
    return [m for n, m in list(sys.modules.items()) if n == "vqcat" or n.startswith("vqcat.")]


@dataclass(frozen=True)
class Target:
    module: str
    name: str
    layer: str
    leaf: bool = False
    size: Callable | None = None  # (result, args) -> count added to the layer


def _n_results(result, args):
    return len(result)


def _n_rows(result, args):
    return len(result.dx)


def _n_cells(result, args):
    return len(args[0]) ** 2


TARGETS = (
    Target("vqcat.quantale", "validate_quantale", "quantale.validate"),
    Target("vqcat.textio", "parse_text", "textio.parse"),
    Target("vqcat.textio", "parse_files", "textio.parse"),
    Target("vqcat.vcat", "tensor_vcat", "vcat.tensor"),
    Target("vqcat.presheaf", "enumerate_presheaves", "presheaf.enumerate", size=_n_results),
    Target("vqcat.presheaf", "presheaf_hom", "presheaf.hom", leaf=True),
    Target("vqcat.presheaf", "cauchy_completion", "presheaf.cauchy"),
    Target("vqcat.cocomplete", "check_cocomplete", "cocomplete.sup_table", size=_n_rows),
    *(
        Target("vqcat.cocomplete", name, "cocomplete.representer", leaf=True)
        for name in ("representer", "sup_target", "sup_of", "tensor_obj", "join_obj")
    ),
    Target("vqcat.cocomplete", "is_cocontinuous", "cocomplete.cocontinuity", leaf=True),
    Target("vqcat.dist", "functor_hom", "dist.functor_hom", leaf=True),
    Target("vqcat.dist", "is_adjoint_functors", "dist.adjoint"),
    Target("vqcat.dist", "is_adjoint_pair", "dist.adjoint"),
    Target("vqcat.tensorprod", "build_tensor_product", "tensorprod.build"),
    Target("vqcat.tensorprod", "is_g_ideal", "tensorprod.ideal_filter", leaf=True),
    Target("vqcat.tensorprod", "reflect_vector", "tensorprod.reflect", leaf=True),
    Target("vqcat.tensorprod", "reflector_q", "tensorprod.reflect", leaf=True),
    Target("vqcat.tensorprod", "enumerate_vfunctors", "tensorprod.functor_enum", size=_n_results),
    Target("vqcat.tensorprod", "enumerate_cocontinuous", "tensorprod.functor_enum"),
    Target("vqcat.tensorprod", "vsup_category", "tensorprod.functor_enum"),
    Target("vqcat.tensorprod", "is_bimorphism", "tensorprod.bimorphism", leaf=True),
    Target("vqcat.tensorprod", "extend_bimorphism", "tensorprod.extend", leaf=True),
    Target("vqcat.tensorprod", "check_universal_property", "tensorprod.universal"),
    Target("vqcat.tensorprod", "galois_iso", "tensorprod.galois"),
    Target("vqcat.ccd", "totally_below", "ccd.totally_below"),
    Target("vqcat.ccd", "is_nuclear", "ccd.nuclear"),
    Target("vqcat.corpus", "run_corpus", "corpus.run"),
    Target("vqcat.cli", "main", "cli.command"),
)
CAT = Target("vqcat.presheaf", "PresheafCategory.cat", "presheaf.cat", size=_n_cells)

# metric name -> (layer, field); fields are the attributes of `_Layer`.
METRICS = {
    "quantale.validate_calls": ("quantale.validate", "calls"),
    "quantale.validate_s": ("quantale.validate", "self_s"),
    "textio.parse_calls": ("textio.parse", "calls"),
    "textio.parse_s": ("textio.parse", "self_s"),
    "vcat.tensor_calls": ("vcat.tensor", "calls"),
    "vcat.tensor_s": ("vcat.tensor", "self_s"),
    "presheaf.enumerate_calls": ("presheaf.enumerate", "calls"),
    "presheaf.enumerate_s": ("presheaf.enumerate", "self_s"),
    "presheaf.vectors": ("presheaf.enumerate", "size"),
    "presheaf.enumerate_capped": ("presheaf.enumerate", "capped"),
    "presheaf.capped_s": ("presheaf.enumerate", "capped_s"),
    "presheaf.enumerate_useful": ("presheaf.enumerate", "useful"),
    "presheaf.hom_calls": ("presheaf.hom", "calls"),
    "presheaf.hom_s": ("presheaf.hom", "self_s"),
    "presheaf.cauchy_s": ("presheaf.cauchy", "self_s"),
    "presheaf.cat_calls": ("presheaf.cat", "calls"),
    "presheaf.cat_cells": ("presheaf.cat", "size"),
    "presheaf.cat_s": ("presheaf.cat", "self_s"),
    "cocomplete.sup_table_calls": ("cocomplete.sup_table", "calls"),
    "cocomplete.sup_table_rows": ("cocomplete.sup_table", "size"),
    "cocomplete.sup_table_s": ("cocomplete.sup_table", "self_s"),
    "cocomplete.representer_calls": ("cocomplete.representer", "calls"),
    "cocomplete.representer_s": ("cocomplete.representer", "self_s"),
    "cocomplete.cocontinuity_calls": ("cocomplete.cocontinuity", "calls"),
    "cocomplete.cocontinuity_pass": ("cocomplete.cocontinuity", "true"),
    "cocomplete.cocontinuity_s": ("cocomplete.cocontinuity", "self_s"),
    "dist.functor_hom_calls": ("dist.functor_hom", "calls"),
    "dist.functor_hom_s": ("dist.functor_hom", "self_s"),
    "dist.adjoint_s": ("dist.adjoint", "self_s"),
    "tensorprod.build_calls": ("tensorprod.build", "calls"),
    "tensorprod.build_s": ("tensorprod.build", "self_s"),
    "tensorprod.ideal_candidates": ("tensorprod.ideal_filter", "calls"),
    "tensorprod.ideals": ("tensorprod.ideal_filter", "true"),
    "tensorprod.ideal_filter_s": ("tensorprod.ideal_filter", "self_s"),
    "tensorprod.reflect_calls": ("tensorprod.reflect", "calls"),
    "tensorprod.reflect_s": ("tensorprod.reflect", "self_s"),
    "tensorprod.functors": ("tensorprod.functor_enum", "size"),
    "tensorprod.functor_enum_s": ("tensorprod.functor_enum", "self_s"),
    "tensorprod.bimorphism_calls": ("tensorprod.bimorphism", "calls"),
    "tensorprod.bimorphism_s": ("tensorprod.bimorphism", "self_s"),
    "tensorprod.extend_calls": ("tensorprod.extend", "calls"),
    "tensorprod.extend_s": ("tensorprod.extend", "self_s"),
    "tensorprod.universal_s": ("tensorprod.universal", "self_s"),
    "tensorprod.galois_s": ("tensorprod.galois", "self_s"),
    "ccd.totally_below_s": ("ccd.totally_below", "self_s"),
    "ccd.nuclear_s": ("ccd.nuclear", "self_s"),
    "corpus.run_s": ("corpus.run", "self_s"),
    "cli.command_s": ("cli.command", "self_s"),
}


def unit(metric: str) -> str:
    if metric == "trace.overhead_s":
        return "s"
    fld = METRICS[metric][1]
    return {"self_s": "s", "capped_s": "s", "useful": "ratio"}.get(fld, "count")


@dataclass
class _Layer:
    calls: int = 0
    true: int = 0
    size: int = 0
    capped: int = 0
    capped_s: float = 0.0
    self_s: float = 0.0

    @property
    def useful(self) -> float:
        """Share of entries that were not cut off by a size cap."""
        return (self.calls - self.capped) / self.calls if self.calls else 0.0


@dataclass
class _Frame:
    layer: _Layer | None
    span: int  # id of this span, or of the nearest enclosing one for a leaf
    child_s: float = 0.0


@dataclass
class Tracer:
    """Spans and per-layer totals for calls into `vqcat`, one thread only."""

    spans: list = field(default_factory=list)
    leaves: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    _stack: list = field(default_factory=lambda: [_Frame(None, 0)])
    _decision: str = ""
    _last_span: int = 0
    _patched: list = field(default_factory=list)  # (module, attribute, original)
    _cat_property: property | None = None

    def _traced(self, fn, target: Target):
        layer = self.layers.setdefault(target.layer, _Layer())
        stack, spans, leaves = self._stack, self.spans, self.leaves
        size, leaf, name = target.size, target.leaf, target.name
        size_exceeded = sys.modules["vqcat.errors"].SizeExceeded

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(layer, parent.span if leaf else self._next_span_id())
            stack.append(frame)
            error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s = dur - frame.child_s
                parent.child_s += dur
                if parent.layer is not layer:
                    layer.calls += 1
                layer.self_s += self_s
                if error is None:
                    if result is True:
                        layer.true += 1
                    if size is not None:
                        layer.size += size(result, args)
                elif isinstance(error, size_exceeded):
                    layer.capped += 1
                    layer.capped_s += dur
                if leaf:
                    agg = leaves.get((parent.span, name))
                    if agg is None:
                        agg = leaves[(parent.span, name)] = [0, 0.0, 0.0, 0]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += self_s
                    agg[3] += error is not None
                else:
                    spans.append(
                        (frame.span, name, t0, t1, parent.span, error is not None, self._decision)
                    )

        return traced

    def _next_span_id(self) -> int:
        self._last_span += 1
        return self._last_span

    @contextlib.contextmanager
    def decision(self, name: str):
        """A root span for one decision; spans inside it carry its name."""
        self._decision = name
        root = self._stack[0]
        frame = _Frame(None, self._next_span_id())
        self._stack.append(frame)
        t0 = perf_counter()
        error = True
        try:
            yield
            error = False
        finally:
            t1 = perf_counter()
            self._stack.pop()
            root.child_s += t1 - t0
            self.spans.append((frame.span, "decision", t0, t1, root.span, error, name))
            self._decision = ""

    def install(self):
        """Rebind every target in every `vqcat` module that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _library_modules()
        for target in TARGETS:
            original = getattr(sys.modules[target.module], target.name)
            traced = self._traced(original, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))
        cls = sys.modules[CAT.module].PresheafCategory
        prop = cls.__dict__["cat"]
        traced_get = self._traced(prop.fget, CAT)

        def get(pc):
            # only a first access materializes the matrix; later ones are reads
            return traced_get(pc) if pc._cat is None else prop.fget(pc)

        self._cat_property = prop
        cls.cat = property(get, doc=prop.__doc__)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        if self._cat_property is not None:
            sys.modules[CAT.module].PresheafCategory.cat = self._cat_property
            self._cat_property = None

    def metrics(self) -> dict:
        return {m: getattr(self.layers.get(lay, _Layer()), f) for m, (lay, f) in METRICS.items()}

    def write(self, path):
        """Write every span and leaf aggregate as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "span_fields": ["id", "name", "start", "end", "parent", "error", "decision"],
                    "spans": self.spans,
                    "leaf_fields": ["parent", "name", "calls", "total_s", "self_s", "errors"],
                    "leaves": [[p, n, *agg] for (p, n), agg in self.leaves.items()],
                },
                fh,
            )


def snapshot() -> dict:
    """Every name in a loaded `vqcat` module that holds a target, with its
    object, plus the `PresheafCategory.cat` property; take it before `install`."""
    originals = {id(getattr(sys.modules[t.module], t.name)) for t in TARGETS}
    snap = {}
    for mod in _library_modules():
        for attr, value in vars(mod).items():
            if id(value) in originals:
                snap[(mod, attr)] = value
    cls = sys.modules[CAT.module].PresheafCategory
    snap[(cls, "cat")] = cls.__dict__["cat"]
    return snap


def not_restored(snap) -> list[str]:
    """Names in a `snapshot` that no longer hold their original object."""
    return [
        f"{mod.__name__}.{attr}"
        for (mod, attr), original in snap.items()
        if mod.__dict__.get(attr) is not original
    ]
