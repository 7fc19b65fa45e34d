"""Arithmetic classification of cycle contraction logs.

The closed additive group generated by ``{-log ratio(c) : c cycle}`` is
either ``tau * Z`` for a maximal ``tau > 0`` (the lattice case) or dense in
the reals.

Generators come from one BFS spanning tree per strongly connected component,
not from the simple cycles, whose number grows exponentially with the graph.
Along tree edges the potential obeys ``phi(dst) = phi(src) - log r_e``; each
non-tree edge ``e`` inside a component then gives the generator
``|w_e + phi(src) - phi(dst)|`` with ``w_e = -log r_e``.  These E - V + 1
values per component span the same group as all its cycles: each is a signed
sum of cycle log-ratios, because the directed cycles of a strongly connected
graph span its cycle space, and each cycle's log-ratio is an integer
combination of them.  Edges between components close no cycle and
contribute nothing.  The work is linear in the number of edges.

In the lattice case every edge log-ratio lies on
``phi(dst) - phi(src) + tau * Z``: an edge off the lattice is only a
coboundary, a phase at each vertex (Lalley 1989, *Renewal theorems in
symbolic dynamics*; here on the graph-directed constructions of Mauldin and
Williams 1988).  :attr:`LatticeResult.phases` reports ``phi_j mod tau`` for
each vertex, measured from the first vertex of its component.

Two classifiers decide the group:

* Exact: every edge carries its ratio as a fraction, so the potentials are
  fraction products and each generator is ``log`` of a rational above one.
  Two such logs are commensurable exactly when the exponent vectors of the
  rationals are parallel.  The exponents are taken over a coprime base built
  by gcd splitting (Bernstein 2005, *Factoring into coprimes in essentially
  linear time*), each element replaced by its maximal integer root, so no
  integer is factored into primes.  The answer is a certificate, not an
  approximation.
* Floating: iterated real gcd with a cutoff at ``DEFAULT_EPS *
  max(generator)``.  A gcd at or below ``sqrt(DEFAULT_EPS) *
  max(generator)`` is reported as dense, because a step that small fits
  incommensurable generators to within the cutoff; floating point cannot
  certify density, so the result is labelled "numerically dense".
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .graph import MWGraph, strong_components
from .renewal import LATTICE_ALIGN_TOL

__all__ = ["LatticeResult", "cycle_log_ratios", "classify", "classify_graph"]

DEFAULT_EPS = 1e-9


@dataclass(frozen=True)
class LatticeResult:
    """Outcome of the group classification.

    In the lattice case ``tau`` is the positive generator.  ``phases``
    holds ``phi_j mod tau`` per vertex in the graph's ``vertex_order`` when
    :func:`classify_graph` found a lattice, and is ``None`` otherwise.
    """

    kind: str  # "lattice" | "dense"
    mode: str  # "exact" | "floating"
    tau: float | None
    generators: tuple[float, ...]
    note: str = ""
    phases: tuple[float, ...] | None = None

    @property
    def is_lattice(self) -> bool:
        return self.kind == "lattice"


# -- spanning-tree generators -------------------------------------------------


def _spanning_generators(
    graph: MWGraph, exact: bool
) -> tuple[list[tuple[str, float, Fraction | None]], dict[str, float]]:
    """Cycle-group generators of the non-tree edges, and vertex potentials.

    Returns ``(generators, phi)``.  Each generator is ``(edge id, value,
    ratio)`` where ``value = |w_e + phi(src) - phi(dst)|`` in floating
    arithmetic and, when ``exact``, ``ratio`` is the same quantity as a
    fraction in (0, 1) with ``value`` ~ ``-log ratio``; otherwise ``ratio``
    is ``None``.  Zero generators are dropped: ``ratio == 1`` in exact mode,
    ``value <= DEFAULT_EPS * max(value)`` in floating mode.  Generators are
    sorted by ``(depth(src) - depth(dst) + 1, edge id)``, the length of the
    cycle the edge closes when ``dst`` is a tree ancestor of ``src``.
    """
    comp = strong_components(graph)
    phi: dict[str, float] = {}
    prod: dict[str, Fraction] = {}  # exact tree-path ratio, exp(-phi)
    depth: dict[str, int] = {}
    tree: set[str] = set()
    for root in graph.vertex_order:
        if root in phi:
            continue
        phi[root], prod[root], depth[root] = 0.0, Fraction(1), 0
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for e in graph.out_edges(v):
                    if e.dst in phi or comp[e.dst] != comp[root]:
                        continue
                    phi[e.dst] = phi[v] + e.log_ratio
                    if exact:
                        prod[e.dst] = prod[v] * e.ratio_rational
                    depth[e.dst] = depth[v] + 1
                    tree.add(e.id)
                    nxt.append(e.dst)
            frontier = nxt
    found = []
    for e in graph.edges.values():
        if e.id in tree or comp[e.src] != comp[e.dst]:
            continue
        value = abs(e.log_ratio + phi[e.src] - phi[e.dst])
        ratio = None
        if exact:
            ratio = prod[e.src] * e.ratio_rational / prod[e.dst]
            if ratio == 1:
                continue
            if ratio > 1:
                ratio = 1 / ratio
        found.append(((depth[e.src] - depth[e.dst] + 1, e.id), (e.id, value, ratio)))
    if not exact and found:
        cutoff = DEFAULT_EPS * max(gen[1] for _key, gen in found)
        found = [item for item in found if item[1][1] > cutoff]
    found.sort(key=lambda item: item[0])
    return [gen for _key, gen in found], phi


def cycle_log_ratios(graph: MWGraph) -> list[tuple[str, float]]:
    """``(edge id, generator)`` for every non-tree edge that closes a cycle.

    The values generate the group of cycle log-ratios (floating arithmetic,
    numerical zeros below ``DEFAULT_EPS * max`` dropped); see the module
    docstring.
    """
    gens, _phi = _spanning_generators(graph, exact=False)
    return [(eid, value) for eid, value, _r in gens]


# -- exact classifier ---------------------------------------------------------


def _coprime_base(values: Sequence[int]) -> list[int]:
    """Pairwise coprime integers above one over which every value factors.

    Gcd splitting: a value sharing a factor ``g`` with a base element ``b``
    replaces both by ``g``, ``b / g`` and ``value / g``, which are split
    again until no two share a factor.
    """
    base: list[int] = []
    todo = [x for x in values if x > 1]
    while todo:
        x = todo.pop()
        for k, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[k]
                todo.extend(y for y in (g, b // g, x // g) if y > 1)
                break
        else:
            base.append(x)
    return base


def _integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of ``n >= 1`` (Newton's method from above)."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _maximal_root(n: int) -> int:
    """The ``c`` with ``c ** k == n`` for the largest possible ``k``."""
    for k in range(n.bit_length(), 1, -1):
        c = _integer_root(n, k)
        if c > 1 and c**k == n:
            return c
    return n


def _exponents(n: int, base: Sequence[int]) -> list[int]:
    out = []
    for b in base:
        e = 0
        while n % b == 0:
            n //= b
            e += 1
        out.append(e)
    return out


def _classify_exact(inverse_ratios: Sequence[Fraction]) -> "LatticeResult":
    """Classify generators ``log(q_k)`` with rational ``q_k > 1`` exactly."""
    # maximal roots keep the base free of perfect powers, so the primitive
    # vector below equals the one over primes and tau is the same number
    base = sorted(
        {
            _maximal_root(b)
            for b in _coprime_base(
                [x for q in inverse_ratios for x in (q.numerator, q.denominator)]
            )
        }
    )
    rows = [
        tuple(
            a - b
            for a, b in zip(_exponents(q.numerator, base), _exponents(q.denominator, base))
        )
        for q in inverse_ratios
    ]
    generators = tuple(math.log(q) for q in inverse_ratios)

    first = rows[0]
    g0 = math.gcd(*(abs(x) for x in first))
    prim = tuple(x // g0 for x in first)
    lead = next(k for k, y in enumerate(prim) if y != 0)
    multiples = []
    for row in rows:
        # row must be an integer multiple of prim for commensurability
        n = row[lead] // prim[lead]
        if n == 0 or row != tuple(n * y for y in prim):
            return LatticeResult(
                kind="dense",
                mode="exact",
                tau=None,
                generators=generators,
                note="generators are multiplicatively independent",
            )
        multiples.append(n)

    base_fraction = Fraction(1)
    for b, e in zip(base, prim):
        base_fraction *= Fraction(b) ** e
    if base_fraction < 1:
        base_fraction = 1 / base_fraction
        multiples = [-n for n in multiples]
    if any(n <= 0 for n in multiples):
        # cannot happen for generators of contractions, guard anyway
        return LatticeResult(
            kind="dense",
            mode="exact",
            tau=None,
            generators=generators,
            note="inconsistent generator signs",
        )
    g = math.gcd(*multiples)
    tau = g * math.log(base_fraction)
    return LatticeResult(
        kind="lattice",
        mode="exact",
        tau=tau,
        generators=generators,
    )


# -- floating classifier ------------------------------------------------------


def _real_gcd(a: float, b: float, cutoff: float) -> float:
    """Euclid on the reals, stopping once the remainder drops to ``cutoff``."""
    a, b = max(a, b), min(a, b)
    while b > cutoff:
        a, b = b, math.fmod(a, b)
    return a


def _classify_floating(values: Sequence[float]) -> "LatticeResult":
    generators = tuple(float(x) for x in values)
    vmax = max(generators)
    cutoff = DEFAULT_EPS * vmax
    # a step at or below this floor certifies nothing: every real sits within
    # g/2 of the candidate grid, and Euclid's last remainder above the cutoff
    # is typically a few cutoffs, so the multiple-consistency check below
    # would pass for most incommensurable sets; the honest verdict is dense
    floor = math.sqrt(DEFAULT_EPS) * vmax
    g = generators[0]
    for x in generators[1:]:
        g = _real_gcd(g, x, cutoff)
        if g <= floor:
            break
    counts = [round(x / g) for x in generators]
    if g <= floor or any(n < 1 for n in counts) or any(
        abs(x - n * g) > cutoff for x, n in zip(generators, counts)
    ):
        return LatticeResult(
            kind="dense",
            mode="floating",
            tau=None,
            generators=generators,
            note="numerically dense at the working precision",
        )
    # least-squares snap through the origin sharpens tau past Euclid noise
    tau = sum(x * n for x, n in zip(generators, counts)) / sum(n * n for n in counts)
    return LatticeResult(
        kind="lattice", mode="floating", tau=tau, generators=generators
    )


# -- entry points -------------------------------------------------------------


def classify(
    values: Sequence[float],
    exact_ratios: Sequence[Fraction] | None = None,
) -> LatticeResult:
    """Classify the group generated by positive reals ``values``.

    ``exact_ratios`` optionally supplies the cycle contraction ratios as
    fractions in (0, 1), one per value; when present for all generators the
    exact classifier runs instead of the floating one.
    """
    if not values:
        raise ValueError("at least one generator is required")
    if any(x <= 0 for x in values):
        raise ValueError("generators must be positive")
    if exact_ratios is not None:
        ratios = list(exact_ratios)
        if len(ratios) != len(values) or any(r is None for r in ratios):
            raise ValueError("exact_ratios must supply one fraction per generator")
        if any(not (0 < r < 1) for r in ratios):
            raise ValueError("exact ratios must lie in (0, 1)")
        return _classify_exact([1 / r for r in ratios])
    return _classify_floating(values)


def classify_graph(graph: MWGraph) -> LatticeResult:
    """Classify a system from its spanning-tree generators.

    The exact classifier runs when every edge of the graph carries a
    rational ratio, the floating one otherwise; a rational system's floating
    verdict is ``classify`` of the ``cycle_log_ratios`` values.  In the
    lattice case the result carries the vertex phases.
    """
    exact = all(e.ratio_rational is not None for e in graph.edges.values())
    gens, phi = _spanning_generators(graph, exact)
    if not gens:
        raise ValueError("graph has no cycle; classification is undefined")
    if exact:
        result = _classify_exact([1 / r for _e, _v, r in gens])
    else:
        result = _classify_floating([v for _e, v, _r in gens])
    if not result.is_lattice:
        return result
    phases = []
    for v in graph.vertex_order:
        p = math.fmod(phi[v], result.tau)
        phases.append(0.0 if min(p, result.tau - p) <= LATTICE_ALIGN_TOL else p)
    return replace(result, phases=tuple(phases))
