"""Spans around calls into the program's public functions.

A traced function is wrapped at every module attribute (or class
attribute, for methods) through which the program looks it up, so a call
is recorded whichever module makes it.  Spans are kept in memory; self
time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

#: metric prefix -> (defining module, attribute path)
TRACED = {
    "pointsearch.search": ("cubicdescent.pointsearch", "search"),
    "descent.run_strategy": ("cubicdescent.descent", "run_strategy"),
    "geometry.dp4_to_cubic": ("cubicdescent.geometry", "dp4_to_cubic"),
    "geometry.greedy_reduce": ("cubicdescent.geometry", "greedy_reduce"),
    "geometry.tritangent_analysis": ("cubicdescent.geometry",
                                     "tritangent_analysis"),
    "ideals.smooth_cubic": ("cubicdescent.ideals", "smooth_cubic"),
    "ideals.smooth_dp4": ("cubicdescent.ideals", "smooth_dp4"),
    "ideals.buchberger": ("cubicdescent.ideals", "buchberger"),
    "lines27.minimal_cover_subgroup": ("cubicdescent.lines27",
                                       "minimal_cover_subgroup"),
    "lines27.subgroup_closure": ("cubicdescent.lines27", "subgroup_closure"),
    "lines27.full_group": ("cubicdescent.lines27", "full_group"),
    "lines27.anchored_class_members": ("cubicdescent.lines27",
                                       "anchored_class_members"),
    "frobenius.sample_frobenius": ("cubicdescent.frobenius",
                                   "sample_frobenius"),
    "frobenius.frobenius_class": ("cubicdescent.frobenius", "frobenius_class"),
    "frobenius.frobenius_class_anchored": ("cubicdescent.frobenius",
                                           "frobenius_class_anchored"),
    "frobenius.good_prime": ("cubicdescent.frobenius", "good_prime"),
    "frobenius.count_points_cubic": ("cubicdescent.frobenius",
                                     "count_points_cubic"),
    "frobenius.count_points_dp4": ("cubicdescent.frobenius",
                                   "count_points_dp4"),
    "frobenius.census_lines": ("cubicdescent.frobenius", "census_lines"),
    "polyfactor.factor_unipoly": ("cubicdescent.polyfactor",
                                  "factor_unipoly"),
    "unipoly.discriminant": ("cubicdescent.unipoly", "UniPoly.discriminant"),
    "gfpoly.gp_factor_squarefree": ("cubicdescent.gfpoly",
                                    "gp_factor_squarefree"),
}


def resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def lookup_sites(target):
    """(owner, attribute) pairs under `cubicdescent` holding the function
    `target` wraps, or any wrapper of it (one marked with __wrapped__)."""
    while hasattr(target, "__wrapped__"):
        target = target.__wrapped__
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cubicdescent"
                               or name.startswith("cubicdescent.")):
            continue
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type)
                          and v.__module__.startswith("cubicdescent")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                inner = value
                while inner is not None and inner is not target:
                    inner = getattr(inner, "__wrapped__", None)
                if inner is target:
                    sites.append((owner, attr))
    return sorted(set(sites), key=lambda s: (repr(s[0]), s[1]))


class Patches:
    """Replace functions at their lookup sites and put them back."""

    def __init__(self):
        self._saved = []

    def wrap(self, target, make_wrapper):
        for owner, attr in lookup_sites(target):
            current = vars(owner)[attr]
            self._saved.append((owner, attr, current))
            setattr(owner, attr, make_wrapper(current))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory spans: (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans = []
        self._stack = []          # [span index, child time]
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.returned_none = defaultdict(int)
        self.args = defaultdict(list)
        self.op_id = None
        self._patches = Patches()

    def install(self, keep_args=()):
        for metric, (module, path) in TRACED.items():
            self._patches.wrap(resolve(module, path),
                               lambda fn, m=metric: self._wrapper(
                                   m, fn, m in keep_args))

    def uninstall(self):
        self._patches.restore()

    def run_op(self, op_id, fn):
        """Run one operation under a root span named "op"."""
        self.op_id = op_id
        return self._wrapper("op", fn, False)()

    def _wrapper(self, name, fn, keep_args):
        tracer = self

        def traced(*args, **kwargs):
            if keep_args:
                tracer.args[name].append(args)
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append([name, 0.0, 0.0, parent, tracer.op_id])
            tracer._stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if result is None:
                    tracer.returned_none[name] += 1
                return result
            finally:
                end = time.perf_counter()
                _, child = tracer._stack.pop()
                span = tracer.spans[index]
                span[1], span[2] = start, end
                duration = end - start
                tracer.self_time[name] += duration - child
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced
