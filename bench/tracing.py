"""Outside-in tracing of torsorkit's public functions.

``Tracer.install`` replaces every public function of each layer module
wherever a ``torsorkit`` module namespace binds it (the modules import
each other by name, so patching the defining module alone would miss
most calls) and ``uninstall`` puts the originals back. Each call records
a span (name, start, end, parent) in memory; a few calls also feed work
counts computed from their arguments and results. Nothing under ``src/``
is touched, and untraced runs never install a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

LAYERS = ("groups", "actions", "constructions", "cocycles", "spaces", "sheaves", "jsonio", "cli")

QUERY_GROUPS = {
    "actions.queries": ("transporter", "trivialization", "transported_group", "orbit", "stabilizer"),
    "cocycles.queries": ("find_trivialization", "are_equivalent", "holonomy"),
}


# ---- work counts, computed from each call's arguments and result ----

def _count_build_group(c, args, out):
    c["groups.table_cells"] += args[0] ** 2


def _count_build_action(c, args, out):
    c["actions.action_cells"] += args[0].order * args[1]


def _count_vectors(kind):
    def count(c, args, out):
        if kind == "solution_torsor":
            c["constructions.vectors_enumerated"] += args[0].p ** args[0].cols
        else:  # affine p^n points; GL_n and ordered bases both scan p^(n*n) tuples
            p, n = args[0], args[1]
            c["constructions.vectors_enumerated"] += p**n if kind == "affine_torsor" else p ** (n * n)
    return count


def _count_enumerate_cocycles(c, args, out):
    if isinstance(out, list):
        c["cocycles.candidates"] += args[1].order ** len(args[0].edges)
        c["cocycles.valid"] += len(out)


def _count_classes(c, args, out):
    if isinstance(out, list):
        c["cocycles.class_members"] += sum(cls.size for cls in out)


def _count_cover_subsets(c, args, out):
    if isinstance(out, Exception) or any(
        w["axiom"] in ("restriction-table", "restriction-range") for w in out.witnesses
    ):
        return  # the structural pre-check failed before any cover was enumerated
    opens = [frozenset(o) for o in args[0].space.opens]
    for u in opens:
        if u:
            k = sum(1 for v in opens if v and v <= u)
            c["sheaves.cover_subsets"] += 2**k - 1


def _count_families(c, args, out):
    datum = args[0]
    space, sizes, cover = datum.groups.space, datum.groups.sets.sizes, datum.cover
    for u in range(len(space.opens)):
        total = 1
        for ci in cover:
            total *= sizes[space.intersection_index(u, ci)]
        c["sheaves.family_candidates"] += total
    if not isinstance(out, Exception):
        c["sheaves.families_kept"] += sum(out.sets.sizes)


HOOKS = {
    "groups.build_group": _count_build_group,
    "actions.build_action": _count_build_action,
    "constructions.affine_torsor": _count_vectors("affine_torsor"),
    "constructions.solution_torsor": _count_vectors("solution_torsor"),
    "constructions.general_linear_group": _count_vectors("general_linear_group"),
    "constructions.basis_torsor": _count_vectors("basis_torsor"),
    "cocycles.enumerate_cocycles": _count_enumerate_cocycles,
    "cocycles.equivalence_classes": _count_classes,
    "sheaves.is_sheaf": _count_cover_subsets,
    "sheaves.glue_from_cocycle": _count_families,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.import_s: list[float] = []   # cli children: spawn to torsorkit imported
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                out = err
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid][1], spans[sid][2] = t0, t1
                if hook is not None:
                    hook(counts, args, out)

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"torsorkit.{layer}")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"torsorkit.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [m for n, m in list(sys.modules.items()) if n == "torsorkit" or n.startswith("torsorkit.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])
                    self._patches.append((ns, attr, obj))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge_child(self, child: dict, spawned: float) -> None:
        """Add a cli child's spans and counts; its parent indices are shifted."""
        offset = len(self.spans)
        for name, t0, t1, parent in child["spans"]:
            self.spans.append([name, t0, t1, parent + offset if parent >= 0 else -1])
        self.counts.update(child["counts"])
        self.import_s.append(child["imported_at"] - spawned)

    def self_times(self) -> tuple[Counter, Counter]:
        """calls and self time (span time minus its children's) per function and per layer."""
        children_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                children_time[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            own = (t1 - t0) - children_time[i]
            for key in (name, name.split(".")[0]):
                calls[key] += 1
                self_s[key] += own
        return calls, self_s

    def metrics(self) -> dict:
        """The per-layer metrics: calls and self_s per layer, named functions, work counts and ratios."""
        calls, self_s = self.self_times()
        for group, fns in QUERY_GROUPS.items():
            layer = group.split(".")[0]
            self_s[group] = sum(self_s[f"{layer}.{f}"] for f in fns)

        names = [s[0] for s in self.spans]

        def under(i, ancestor):
            p = self.spans[i][3]
            while p >= 0:
                if names[p] == ancestor:
                    return True
                p = self.spans[p][3]
            return False

        applied = sum(
            1 for i, n in enumerate(names)
            if n == "cocycles.apply_coboundary" and under(i, "cocycles.equivalence_classes")
        )
        validations = sum(
            1 for i, n in enumerate(names) if n == "sheaves.is_sheaf" and under(i, "sheaves.as_sheaf_torsor")
        )
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out.update({
            "groups.build_group.calls": calls["groups.build_group"],
            "groups.build_group.self_s": self_s["groups.build_group"],
            "groups.table_cells": c["groups.table_cells"],
            "actions.build_action.self_s": self_s["actions.build_action"],
            "actions.action_cells": c["actions.action_cells"],
            "actions.as_torsor.self_s": self_s["actions.as_torsor"],
            "actions.queries.self_s": self_s["actions.queries"],
            "constructions.vectors_enumerated": c["constructions.vectors_enumerated"],
            "cocycles.equivalence_classes.self_s": self_s["cocycles.equivalence_classes"],
            "cocycles.apply_coboundary.calls": calls["cocycles.apply_coboundary"],
            "cocycles.check_cocycle.calls": calls["cocycles.check_cocycle"],
            "cocycles.candidates": c["cocycles.candidates"],
            "cocycles.valid_ratio": ratio(c["cocycles.valid"], c["cocycles.candidates"]),
            "cocycles.orbit_yield": ratio(c["cocycles.class_members"], applied),
            "cocycles.queries.self_s": self_s["cocycles.queries"],
            "spaces.connected_components.calls": calls["spaces.connected_components"],
            "sheaves.is_sheaf.self_s": self_s["sheaves.is_sheaf"],
            "sheaves.cover_subsets": c["sheaves.cover_subsets"],
            "sheaves.validations_per_torsor": ratio(validations, calls["sheaves.as_sheaf_torsor"]),
            "sheaves.glue_from_cocycle.self_s": self_s["sheaves.glue_from_cocycle"],
            "sheaves.family_candidates": c["sheaves.family_candidates"],
            "sheaves.family_yield": ratio(c["sheaves.families_kept"], c["sheaves.family_candidates"]),
            "sheaves.is_sheaf_of_groups.self_s": self_s["sheaves.is_sheaf_of_groups"],
            "sheaves.is_sheaf_torsor.self_s": self_s["sheaves.is_sheaf_torsor"],
            "sheaves.constant_group_sheaf.self_s": self_s["sheaves.constant_group_sheaf"],
            "cli.import_s": statistics.median(self.import_s) if self.import_s else 0.0,
            "cli.main.self_s": self_s["cli.main"],
        })
        return out


# per-layer metrics computed from counts alone, so they repeat exactly for a seed; the others are times
COUNT_METRICS = tuple(
    [f"{layer}.calls" for layer in LAYERS]
    + [
        "groups.build_group.calls", "groups.table_cells", "actions.action_cells",
        "constructions.vectors_enumerated", "cocycles.apply_coboundary.calls",
        "cocycles.check_cocycle.calls", "cocycles.candidates", "cocycles.valid_ratio",
        "cocycles.orbit_yield", "spaces.connected_components.calls", "sheaves.cover_subsets",
        "sheaves.validations_per_torsor", "sheaves.family_candidates", "sheaves.family_yield",
    ]
)
