"""Spans around gdcover's public functions, recorded from outside the package.

Each wrapped function is replaced under every module attribute that holds it,
so a caller that looks the name up at call time (``covering.generate`` inside
``profile_at``, ``lattice.simple_cycles`` inside ``classify_graph``) reaches
the wrapper.  Spans are kept in memory as ``[name, start, end, parent, attrs]``
and turned into per-layer metrics at the end of the run.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, attribute, span name); the span name is the metric prefix
WRAPPED = (
    ("gdcover.covering", "generate", "covering.generate"),
    ("gdcover.covering", "cell_union", "covering.cell_union"),
    ("gdcover.asymptotics", "analyze", "asymptotics.analyze"),
    ("gdcover.asymptotics", "profile_at", "asymptotics.profile_at"),
    ("gdcover.asymptotics", "cross_check", "asymptotics.cross_check"),
    ("gdcover.asymptotics", "estimate_limit", "asymptotics.estimate_limit"),
    ("gdcover.asymptotics", "classify_regime", "asymptotics.classify_regime"),
    ("gdcover.graph", "validate", "graph.validate"),
    ("gdcover.graph", "simple_cycles", "graph.simple_cycles"),
    ("gdcover.lattice", "classify_graph", "lattice.classify_graph"),
    ("gdcover.spectral", "solve_s0", "spectral.solve_s0"),
    ("gdcover.spectral", "spectral_radius", "spectral.spectral_radius"),
    ("gdcover.renewal", "renewal_solve", "renewal.renewal_solve"),
    ("gdcover.renewal", "vector_convolve", "renewal.vector_convolve"),
    ("gdcover.renewal", "limit_value", "renewal.limit_value"),
    ("gdcover.schema", "parse_system", "schema.parse"),
    ("gdcover.cli", "cmd_report", "cli.report"),
)

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, dict(attrs or {})])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def current(self) -> list | None:
        return self.spans[self._stack[-1]] if self._stack else None

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer.spans[idx][ATTRS], result, args, kwargs)
                return result
            finally:
                tracer.close(idx)

        return wrapper

    def _walk_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.current()
            nodes = 0
            try:
                for item in fn(*args, **kwargs):
                    nodes += 1
                    yield item
            finally:
                if span is not None:
                    span[ATTRS]["nodes"] = span[ATTRS].get("nodes", 0) + nodes

        return wrapper

    def _patch_everywhere(self, original, replacement) -> None:
        """Replace ``original`` under every gdcover module attribute bound to it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gdcover" or mod_name.startswith("gdcover.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import gdcover.covering as covering
        import gdcover.graph as graph

        generate_sig = inspect.signature(covering.generate)

        def on_generate(attrs, gset, args, kwargs):
            bound = generate_sig.bind(*args, **kwargs)
            attrs["vertex"] = bound.arguments["vertex"]
            attrs["r"] = float(bound.arguments["r"])
            attrs.setdefault("nodes", 0)

        def on_cell_union(attrs, cells, args, kwargs):
            attrs["cells"] = len(cells)
            attrs["elements"] = args[0].n_elements

        def on_cycles(attrs, cycles, args, kwargs):
            attrs["cycles"] = len(cycles)

        def on_renewal(attrs, fs, args, kwargs):
            attrs["breakpoints"] = sum(int(f.breakpoints.size) for f in fs)

        hooks = {
            "covering.generate": on_generate,
            "covering.cell_union": on_cell_union,
            "graph.simple_cycles": on_cycles,
            "renewal.renewal_solve": on_renewal,
        }
        for mod_name, attr, span_name in WRAPPED:
            original = getattr(sys.modules[mod_name], attr)
            self._patch_everywhere(
                original, self._span_wrapper(original, span_name, hooks.get(span_name))
            )
        walk = graph.walk_prefix_tree
        self._patch_everywhere(walk, self._walk_wrapper(walk))
        count_at = covering.ForcingContext.count_at
        self._patches.append((covering.ForcingContext, "count_at", count_at))
        covering.ForcingContext.count_at = self._span_wrapper(count_at, "covering.count_at")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _children(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for idx, s in enumerate(spans):
        kids.setdefault(s[PARENT], []).append(idx)
    return kids


def _descendants(kids: dict[int, list[int]], idx: int):
    todo = list(kids.get(idx, ()))
    while todo:
        k = todo.pop()
        yield k
        todo.extend(kids.get(k, ()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], op_spans: list[int], bytes_written: int) -> dict[str, float]:
    """Per-layer totals for one traced pass.

    ``op_spans`` are the indices of the pass's operation spans; the walk
    redundancy is computed per operation and summed before dividing.
    """
    kids = _children(spans)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for idx, s in enumerate(spans):
        dur = s[END] - s[START]
        child = sum(spans[k][END] - spans[k][START] for k in kids.get(idx, ()))
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        incl[s[NAME]] = incl.get(s[NAME], 0.0) + dur
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + dur - child

    def total(name: str, key: str) -> int:
        return sum(s[ATTRS].get(key, 0) for s in spans if s[NAME] == name)

    nodes = total("covering.generate", "nodes")
    finest_nodes = 0
    for op in op_spans:
        finest: dict[str, tuple[float, int]] = {}
        for k in _descendants(kids, op):
            s = spans[k]
            if s[NAME] != "covering.generate":
                continue
            v, r = s[ATTRS]["vertex"], s[ATTRS]["r"]
            if v not in finest or r < finest[v][0]:
                finest[v] = (r, s[ATTRS]["nodes"])
        finest_nodes += sum(n for _r, n in finest.values())
    cells = total("covering.cell_union", "cells")
    elements = total("covering.cell_union", "elements")
    count_at_calls = calls.get("covering.count_at", 0)
    hits = sum(
        1
        for idx, s in enumerate(spans)
        if s[NAME] == "covering.count_at"
        and not any(spans[k][NAME] == "covering.generate" for k in _descendants(kids, idx))
    )
    gen_s = incl.get("covering.generate", 0.0)
    cu_s = incl.get("covering.cell_union", 0.0)
    return {
        "covering.generate.calls": calls.get("covering.generate", 0),
        "covering.generate.s": gen_s,
        "covering.walk.nodes": nodes,
        "covering.walk.finest_nodes": finest_nodes,
        "covering.walk.us_per_node": _ratio(gen_s * 1e6, nodes),
        "covering.walk.redundancy": _ratio(nodes, finest_nodes),
        "covering.cell_union.calls": calls.get("covering.cell_union", 0),
        "covering.cell_union.s": cu_s,
        "covering.cell_union.cells": cells,
        "covering.cell_union.elements": elements,
        "covering.cell_union.us_per_cell": _ratio(cu_s * 1e6, cells),
        "covering.cell_union.cells_per_element": _ratio(cells, elements),
        "covering.count_at.calls": count_at_calls,
        "covering.count_at.s": incl.get("covering.count_at", 0.0),
        "covering.count_at.hits": hits,
        "covering.count_at.hit_ratio": _ratio(hits, count_at_calls),
        "asymptotics.analyze.s": incl.get("asymptotics.analyze", 0.0),
        "asymptotics.profile_at.s": incl.get("asymptotics.profile_at", 0.0),
        "asymptotics.cross_check.s": incl.get("asymptotics.cross_check", 0.0),
        "asymptotics.cross_check.self_s": self_s.get("asymptotics.cross_check", 0.0),
        "asymptotics.estimate_limit.s": incl.get("asymptotics.estimate_limit", 0.0),
        "asymptotics.classify_regime.s": incl.get("asymptotics.classify_regime", 0.0),
        "graph.validate.s": incl.get("graph.validate", 0.0),
        "graph.simple_cycles.s": incl.get("graph.simple_cycles", 0.0),
        "graph.simple_cycles.cycles": total("graph.simple_cycles", "cycles"),
        "lattice.classify_graph.s": incl.get("lattice.classify_graph", 0.0),
        "lattice.classify_graph.self_s": self_s.get("lattice.classify_graph", 0.0),
        "spectral.solve_s0.s": incl.get("spectral.solve_s0", 0.0),
        "spectral.spectral_radius.calls": calls.get("spectral.spectral_radius", 0),
        "renewal.renewal_solve.s": incl.get("renewal.renewal_solve", 0.0),
        "renewal.vector_convolve.calls": calls.get("renewal.vector_convolve", 0),
        "renewal.breakpoints": total("renewal.renewal_solve", "breakpoints"),
        "renewal.limit_value.s": incl.get("renewal.limit_value", 0.0),
        "schema.parse.s": incl.get("schema.parse", 0.0),
        "cli.report.s": incl.get("cli.report", 0.0),
        "cli.report.self_s": self_s.get("cli.report", 0.0),
        "cli.bytes_written": bytes_written,
    }


def op_counts(spans: list[list], op_idx: int) -> dict[str, int]:
    """Exact work counts under one operation span (the anchors)."""
    kids = _children(spans)
    out = {"generate_calls": 0, "nodes": 0, "count_at_calls": 0, "cells": 0}
    for k in _descendants(kids, op_idx):
        s = spans[k]
        if s[NAME] == "covering.generate":
            out["generate_calls"] += 1
            out["nodes"] += s[ATTRS].get("nodes", 0)
        elif s[NAME] == "covering.count_at":
            out["count_at_calls"] += 1
        elif s[NAME] == "covering.cell_union":
            out["cells"] += s[ATTRS]["cells"]
    return out
