"""Outside-in tracing of gradus: wrap its public functions from here.

`Tracer` replaces each target function in every `gradus.*` namespace that
holds it (`gradus.betti.rank` is the same object as `gradus.field.rank`),
records one span (name, start, end, parent) per call in flat arrays, and
puts the originals back on exit. Per-layer metrics are derived from the
spans afterwards: a function's `.s` is the time of its outermost spans,
a layer's `.self_s` is its spans' time minus the time of their children.
"""
from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("field", "ring", "groebner", "points", "hilbert", "betti", "hom", "experiments", "cli")


def _cells(counts, name, args, kwargs):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    counts[f"{name}.cells"] += len(rows) * len(rows[0]) if len(rows) else 0


def _rows_out(counts, name, args, kwargs, result):
    counts[f"{name}.cells"] += len(result) * len(result[0]) if len(result) else 0


def _size_in(counts, name, args, kwargs):
    counts[f"{name}.in_size"] += len(args[0])


def _size_out(counts, name, args, kwargs, result):
    counts[f"{name}.out_size"] += len(result)


def _gb_miss(counts, name, args, kwargs):
    ideal = args[0]
    order = (args[1] if len(args) > 1 else kwargs.get("order")) or ideal.ring.order
    held = getattr(ideal, "_gb", None)
    counts[f"{name}.misses"] += held is None or order.name() not in held


def _miss_in(cache: str):
    """Before-hook: the call misses when its key args[1] is not yet in the
    cache args[0].<cache>. Without such a cache every call is a miss."""
    def hook(counts, name, args, kwargs):
        held = getattr(args[0], cache, None)
        counts[f"{name}.misses"] += held is None or args[1] not in held
    return hook


def _scan_rows(counts, name, args, kwargs, result):
    counts["experiments.scan.rows"] += len(result)
    counts["experiments.scan.attempts"] += sum(r.retries + 1 for r in result)


# (span name, module, attribute, hook before the call, hook after it).
# An attribute "Class.method" patches the class, which every namespace shares.
TARGETS = (
    ("field.rank", "gradus.field", "rank", _cells, None),
    ("field.rref", "gradus.field", "rref", _cells, None),
    ("field.kernel_basis", "gradus.field", "kernel_basis", None, None),
    ("field.row_space_basis", "gradus.field", "row_space_basis", None, None),
    ("ring.Poly.monic", "gradus.ring", "Poly.monic", None, None),
    ("ring.parse_poly", "gradus.ring", "parse_poly", None, None),
    ("ring.poly_to_str", "gradus.ring", "poly_to_str", None, None),
    ("ring.monomials_of_degree", "gradus.ring", "monomials_of_degree", None, None),
    ("groebner.normal_form", "gradus.groebner", "normal_form", None, None),
    ("groebner.buchberger", "gradus.groebner", "buchberger", None, _size_out),
    ("groebner.reduce_basis", "gradus.groebner", "reduce_basis", _size_in, _size_out),
    ("groebner.Ideal.groebner", "gradus.groebner", "Ideal.groebner", _gb_miss, None),
    ("groebner.ideal_sum", "gradus.groebner", "ideal_sum", None, None),
    ("groebner.ideal_intersection", "gradus.groebner", "ideal_intersection", None, None),
    ("groebner.ideal_quotient", "gradus.groebner", "ideal_quotient", None, None),
    ("groebner.equal_ideals", "gradus.groebner", "equal_ideals", None, None),
    ("points.random_general_points", "gradus.points", "random_general_points", None, None),
    ("points.PointSet.evaluation_rows", "gradus.points", "PointSet.evaluation_rows",
     None, _rows_out),
    ("points.PointSet.rank_at", "gradus.points", "PointSet.rank_at",
     _miss_in("_ranks"), None),
    ("points.vanishing_ideal", "gradus.points", "vanishing_ideal", None, None),
    ("points.vanishing_ideal_oracle", "gradus.points", "vanishing_ideal_oracle", None, None),
    ("hilbert.standard_monomials", "gradus.hilbert", "standard_monomials",
     _miss_in("std_cache"), None),
    ("hilbert.hilbert_function", "gradus.hilbert", "hilbert_function", None, None),
    ("hilbert.hilbert_report", "gradus.hilbert", "hilbert_report", None, None),
    ("hilbert.socle_degree", "gradus.hilbert", "socle_degree", None, None),
    ("hilbert.is_artinian", "gradus.hilbert", "is_artinian", None, None),
    ("betti.graded_betti", "gradus.betti", "graded_betti", None, None),
    ("hom.hom_graded_dims", "gradus.hom", "hom_graded_dims", None, None),
    ("hom.theta_kernel_dims", "gradus.hom", "theta_kernel_dims", None, None),
    ("experiments.socle_group_scan", "gradus.experiments", "socle_group_scan",
     None, _scan_rows),
    ("experiments.build_scan_J", "gradus.experiments", "build_scan_J", None, None),
)
# `rank` as called from gradus.betti is the Koszul differential's rank; it
# gets a span of its own around the field.rank span.
KOSZUL = ("betti.koszul_rank", "gradus.betti", "rank", _cells, None)
# Each CLI command is one span, named after the command: cli.points, ...
CLI = ("gradus.cli", "dispatch")


class Tracer:
    """Context manager: patch on enter, restore on exit, spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, before=None, after=None, name_of=None):
        nid = None if name_of else self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counts, name, args, kwargs)
            i = len(starts)
            names.append(nid if name_of is None else self._id(name_of(args)))
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(counts, name, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if modname != "gradus" and not modname.startswith("gradus."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, new)

    def _install(self, name, modname, attr, before, after, everywhere=True):
        """Wrap one target. A target the code no longer has is left alone,
        so its metrics read 0."""
        owner = sys.modules[modname]
        cls_name, _, attr = attr.rpartition(".")
        if cls_name:
            owner, everywhere = getattr(owner, cls_name, None), False
        orig = vars(owner).get(attr) if owner is not None else None
        if orig is None:
            return
        new = self._wrap(name, orig, before, after)
        if everywhere:
            self._patch_everywhere(orig, new)
        else:
            self._patch(owner, attr, new)

    def __enter__(self):
        try:
            for target in TARGETS:
                self._install(*target)
            self._install(*KOSZUL, everywhere=False)
            cli = sys.modules[CLI[0]]
            orig = getattr(cli, CLI[1])
            self._patch_everywhere(orig, self._wrap(
                "cli", orig, name_of=lambda args: f"cli.{args[0][0]}"))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    # -- derived metrics --------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as arrays, for saving with numpy."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def metrics(self) -> dict[str, float]:
        """Per-function and per-layer calls, inclusive and self seconds,
        and the hook counts, all derived from the spans."""
        return span_metrics(self.names, self.name, self.parent, self.start,
                            self.end, self.counts)


def span_metrics(names, name, parent, start, end, counts) -> dict[str, float]:
    name = np.array(name, dtype=np.int64)
    parent = np.array(parent, dtype=np.int64)
    dur = np.array(end, dtype=np.float64) - np.array(start, dtype=np.float64)
    n = len(dur)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time[:n]
    layer_of_name = [LAYERS.index(nm.split(".")[0]) for nm in names]
    layer = np.array(layer_of_name, dtype=np.int64)[name] if n else np.zeros(0, np.int64)

    # A span is outermost for its name (layer) when no ancestor has the same
    # name (layer). Spans are stored in call order, so replaying them with a
    # stack recovers each span's ancestors.
    outer_name = np.zeros(n, dtype=bool)
    outer_layer = np.zeros(n, dtype=bool)
    name_depth = [0] * len(names)
    layer_depth = [0] * len(LAYERS)
    stack: list[int] = []
    name_l, parent_l, layer_l = name.tolist(), parent.tolist(), layer.tolist()
    for i in range(n):
        p = parent_l[i]
        while stack and stack[-1] != p:
            j = stack.pop()
            name_depth[name_l[j]] -= 1
            layer_depth[layer_l[j]] -= 1
        outer_name[i] = name_depth[name_l[i]] == 0
        outer_layer[i] = layer_depth[layer_l[i]] == 0
        stack.append(i)
        name_depth[name_l[i]] += 1
        layer_depth[layer_l[i]] += 1

    out: dict[str, float] = {}
    for k, nm in enumerate(names):
        mine = name == k
        out[f"{nm}.calls"] = int(mine.sum())
        out[f"{nm}.s"] = float(dur[mine & outer_name].sum())
        out[f"{nm}.self_s"] = float(self_time[mine].sum())
    for k, lay in enumerate(LAYERS):
        mine = layer == k
        out[f"{lay}.calls"] = int(mine.sum())
        out[f"{lay}.s"] = float(dur[mine & outer_layer].sum())
        out[f"{lay}.self_s"] = float(self_time[mine].sum())
    out.update(counts)
    return out
