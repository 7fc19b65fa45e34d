"""Simple-cycle reference classifier for the cycle log-ratio group.

This is the straightforward path the package's spanning-tree generators
replace: enumerate every simple cycle, take its log-ratio as a generator,
and decide commensurability over prime exponent vectors found by trial
division.  It shares no generator or factoring logic with
``gdcover.lattice`` and is kept only as a differential oracle; its cost
grows with the number of simple cycles, which is exponential in the graph.
"""
from __future__ import annotations

import math
from fractions import Fraction

from gdcover.graph import MWGraph, Path, simple_cycles
from gdcover.lattice import classify


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _exponent_vector(q: Fraction) -> dict[int, int]:
    """Prime exponents of a positive rational (negatives for the denominator)."""
    vec = _factor(q.numerator)
    for p, e in _factor(q.denominator).items():
        vec[p] = vec.get(p, 0) - e
    return {p: e for p, e in vec.items() if e != 0}


def classify_exact(inverse_ratios: list[Fraction]) -> tuple[str, float | None]:
    """``(kind, tau)`` for generators ``log(q)`` with rational ``q > 1``."""
    vecs = [_exponent_vector(q) for q in inverse_ratios]
    primes = sorted({p for v in vecs for p in v})
    rows = [tuple(v.get(p, 0) for p in primes) for v in vecs]
    g0 = math.gcd(*rows[0])
    prim = tuple(x // g0 for x in rows[0])
    multiples = []
    for row in rows:
        k = next(x // y for x, y in zip(row, prim) if y != 0)
        if any(x != k * y for x, y in zip(row, prim)):
            return "dense", None
        multiples.append(k)
    base = Fraction(1)
    for p, e in zip(primes, prim):
        base *= Fraction(p) ** e
    if base < 1:
        base = 1 / base
        multiples = [-k for k in multiples]
    return "lattice", math.gcd(*multiples) * math.log(base)


def path_ratio(graph: MWGraph, path: Path) -> float:
    """Contraction ratio of a walk: its edge ratios multiplied in order."""
    return math.prod((graph.edges[e].ratio for e in path.edges), start=1.0)


def path_ratio_rational(graph: MWGraph, path: Path) -> Fraction:
    """Exact contraction ratio of a walk whose edges all carry one."""
    return math.prod((graph.edges[e].ratio_rational for e in path.edges), start=Fraction(1))


def classify_graph(graph: MWGraph, mode: str = "auto") -> tuple[str, str, float | None]:
    """``(kind, mode, tau)`` from every simple cycle of ``graph``."""
    cycles = simple_cycles(graph)
    if not cycles:
        raise ValueError("graph has no cycle; classification is undefined")
    rational = all(e.ratio_rational is not None for e in graph.edges.values())
    if rational and mode != "floating":
        kind, tau = classify_exact([1 / path_ratio_rational(graph, c) for c in cycles])
        return kind, "exact", tau
    res = classify([-math.log(path_ratio(graph, c)) for c in cycles])
    return res.kind, res.mode, res.tau
