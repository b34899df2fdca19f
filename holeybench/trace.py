"""Spans around the library's layer boundaries, recorded from outside.

install() rebinds public functions in every holeymagic module that holds
them, including names one module imported from another (construct.verify,
ingredients.parse, cli.serialize, ...), plus the IngredientCache methods.
No file of the library changes; uninstall() puts every original back.
"""

from __future__ import annotations

import importlib
from time import perf_counter


def _enum_note(args, kwargs, result):
    """(node budget, exhausted, count) of an oracle enumeration."""
    budget = kwargs.get("node_budget", args[5] if len(args) > 5 else None)
    return (budget, result.exhausted, result.count) if result is not None else None


# (module, attribute, span name, note).  Span names are "<layer>.<function>";
# a note keeps the one number the layer metrics need from a call, so spans
# hold no grids alive.
_FUNCTIONS = [
    ("existence", "decide", "existence.decide", None),
    ("construct", "realize", "construct.realize", None),
    ("construct", "two_per_column", "construct.two_per_column", None),
    ("construct", "stacked", "construct.stacked", None),
    ("construct", "nmss", "construct.nmss", None),
    ("construct", "product", "construct.product", None),
    ("construct", "five_case", "construct.five_case", None),
    ("construct", "block_set", "construct.block_set", None),
    ("ingredients", "magic_square_holes", "ingredients.ms", lambda a, k, r: k.get("budget")),
    ("ingredients", "classical_rectangle", "ingredients.mr", lambda a, k, r: k.get("budget")),
    ("ingredients", "magic_rectangle_set", "ingredients.mrs", lambda a, k, r: k.get("budget")),
    ("grid", "parse", "grid.parse", lambda a, k, r: len(a[0])),
    ("grid", "serialize", "grid.serialize", lambda a, k, r: len(r) if r is not None else 0),
    ("grid", "verify", "grid.verify", lambda a, k, r: a[0].rows * a[0].cols),
    ("kotzig", "kotzig", "kotzig.kotzig", None),
    ("oracle", "enumerate", "oracle.enumerate", _enum_note),
    ("cli", "dispatch", "cli.dispatch", None),
]
_METHODS = [
    ("load", "ingredients.cache.load", lambda a, k, r: r is not None),
    ("store", "ingredients.cache.store",
     lambda a, k, r: (a[1], tuple(a[2]), a[4] if len(a) > 4 else k.get("profile"))),
]
_MODULES = ["existence", "construct", "ingredients", "grid", "kotzig", "oracle", "cli"]

BUILDERS = ["two_per_column", "stacked", "nmss", "product", "five_case", "block_set"]
INGREDIENT_SPANS = ("ingredients.ms", "ingredients.mr", "ingredients.mrs")


class Span:
    __slots__ = ("name", "parent", "dur", "child_time", "children", "info", "error")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.dur = 0.0
        self.child_time = 0.0
        self.children = []
        self.info = None
        self.error = None

    @property
    def self_time(self) -> float:
        return self.dur - self.child_time


class Tracer:
    """Collects spans in memory while installed.  Self time of a span is
    its duration minus the durations of its direct children."""

    def __init__(self, hm):
        self.hm = hm
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, note):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.dur = perf_counter() - start
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.dur
                    span.parent.children.append(span)
                spans.append(span)
                if note is not None:
                    span.info = note(args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        hm = self.hm
        # by import path: the package's own `kotzig` name is the function
        modules = {name: importlib.import_module(f"{hm.__name__}.{name}") for name in _MODULES}
        for mod_name, attr, span_name, note in _FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            traced = self._wrap(span_name, original, note)
            for mod in [hm, *modules.values()]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, traced)
        cls = hm.IngredientCache
        for attr, span_name, note in _METHODS:
            self._rebind(cls, attr, self._wrap(span_name, getattr(cls, attr), note))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()


def _source(span) -> str:
    """Where an ingredient call was served from, read off its children: a
    cache load that returned grids means cache; a store, or running out of
    budget, means search; otherwise the built-in catalog.  Every traced
    call passes a cache, so a successful search always stores."""
    if any(c.name == "ingredients.cache.load" and c.info for c in span.children):
        return "cache"
    if span.error == "SearchBudgetExceeded" or any(
            c.name == "ingredients.cache.store" for c in span.children):
        return "search"
    return "catalog"


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced pass.  A search or enumeration that
    ran out of node budget spent exactly budget+1 nodes, which gives the
    node rates without counting inside the program."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(s.self_time for s in by_name.get(name, ()))

    def per_s(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out = {}
    out["existence.decide.calls"] = calls("existence.decide")
    out["existence.decide.us_per_call"] = per_s(self_s("existence.decide") * 1e6,
                                                calls("existence.decide"))
    out["construct.realize.calls"] = calls("construct.realize")
    out["construct.realize.self_ms"] = self_s("construct.realize") * 1e3
    for b in BUILDERS:
        out[f"construct.{b}.self_ms"] = self_s(f"construct.{b}") * 1e3

    sources = {"catalog": 0, "cache": 0, "search": 0}
    searches = []
    for name in INGREDIENT_SPANS:
        for s in by_name.get(name, ()):
            if s.error is not None and s.error != "SearchBudgetExceeded":
                continue  # refused by a gate before any lookup
            src = _source(s)
            sources[src] += 1
            if src == "search":
                searches.append(s)
    for src, n in sources.items():
        out[f"ingredients.source.{src}"] = n
    # a call left at the default budget (10^8 nodes) never runs dry here
    exhausted = [s for s in searches if s.error == "SearchBudgetExceeded" and s.info]
    out["ingredients.search.calls"] = len(searches)
    out["ingredients.search.self_ms"] = sum(s.self_time for s in searches) * 1e3
    out["ingredients.search.exhausted"] = len(exhausted)
    out["ingredients.search.nodes_per_s"] = per_s(
        sum(s.info + 1 for s in exhausted), sum(s.self_time for s in exhausted))

    loads = by_name.get("ingredients.cache.load", [])
    stores = by_name.get("ingredients.cache.store", [])
    out["ingredients.cache.load.calls"] = len(loads)
    out["ingredients.cache.load.ms_per_call"] = per_s(sum(s.dur for s in loads) * 1e3, len(loads))
    out["ingredients.cache.load.hit_frac"] = per_s(sum(1 for s in loads if s.info), len(loads))
    out["ingredients.cache.store.calls"] = len(stores)
    out["ingredients.cache.store.ms_per_call"] = per_s(sum(s.dur for s in stores) * 1e3, len(stores))

    for name, unit in (("verify", "cells"), ("parse", "bytes"), ("serialize", "bytes")):
        amount = sum(s.info for s in by_name.get(f"grid.{name}", ()) if s.info)
        out[f"grid.{name}.calls"] = calls(f"grid.{name}")
        out[f"grid.{name}.self_ms"] = self_s(f"grid.{name}") * 1e3
        out[f"grid.{name}.{unit}_per_s"] = per_s(amount, self_s(f"grid.{name}"))

    out["kotzig.kotzig.calls"] = calls("kotzig.kotzig")
    out["kotzig.kotzig.self_ms"] = self_s("kotzig.kotzig") * 1e3

    enums = by_name.get("oracle.enumerate", [])
    truncated = [s for s in enums if s.info is not None and not s.info[1]]
    out["oracle.enumerate.calls"] = len(enums)
    out["oracle.enumerate.self_ms"] = self_s("oracle.enumerate") * 1e3
    out["oracle.nodes_per_s"] = per_s(sum(s.info[0] + 1 for s in truncated),
                                      sum(s.self_time for s in truncated))
    out["oracle.inconclusive"] = sum(1 for s in truncated if s.info[2] == 0)

    out["cli.dispatch.calls"] = calls("cli.dispatch")
    out["cli.dispatch.self_ms_per_call"] = per_s(self_s("cli.dispatch") * 1e3,
                                                 calls("cli.dispatch"))
    return out
