"""Differential tests: the renewal series and the ``s0`` Newton iteration
against ``renewal_oracle``.

The oracle merges breakpoints and atoms one value at a time and convolves
all n^2 matrix entries; the package must reproduce its breakpoints and
values exactly, not merely to a tolerance.  The oracle's ``s0`` and Perron
vectors come from power runs checked after every step, and the package's
from dense eigensolves, so those agree to within rounding.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import renewal_oracle as oracle
from conftest import BUNDLED_NAMES
from helpers import family_system, line_map, phase_graph

from gdcover import renewal, schema, spectral
from gdcover.geometry import Box
from gdcover.graph import Edge, MWGraph
from gdcover.renewal import AtomicMeasure, MatrixMeasure, StepFunction

# the ratio sets of the benchmark's graph_family members, with the two
# self-loops at vertex 0 that fix each verdict
DENSE_RATIOS = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(2, 7))
LATTICE_RATIOS = (Fraction(1, 4), Fraction(1, 8))
DENSE_LOOPS = (Fraction(1, 3), Fraction(1, 4))
LATTICE_LOOPS = (Fraction(1, 4), Fraction(1, 8))

# the spacing of the breakpoint chains below: two steps exceed the merge
# tolerance, one does not, so chains need the sequential anchor walk
CHAIN_STEP = 0.6e-12


def assert_same_steps(got, want):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.breakpoints.tobytes() == w.breakpoints.tobytes(), k
        assert g.values.tobytes() == w.values.tobytes(), k


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def assert_same_outcome(fn, ref, *args):
    # breakpoints closer than an ulp of a shift collide, and both paths
    # raise the same error then
    got, got_err = outcome(fn, *args)
    want, want_err = outcome(ref, *args)
    assert got_err == want_err
    if want_err is None:
        assert_same_steps(got, want)


def assert_same_solve(m, forcing, horizon):
    assert_same_outcome(renewal.renewal_solve, oracle.renewal_solve, m, forcing, horizon)


def check_s0(graph):
    """``solve_s0(graph)``, checked against the oracle: ``s0`` to within
    1e-13 of its power-run Newton iteration and of its bisection, the Perron
    vectors to within 1e-12 of its power runs at that ``s0``, and the moment
    and limit matrices bit for bit against their formulas."""
    sd = spectral.solve_s0(graph)
    tol = 1e-13 * max(1.0, sd.s0)
    assert abs(sd.s0 - oracle.solve_s0(graph).s0) <= tol
    assert abs(sd.s0 - oracle.bisect_s0(graph)) <= tol
    a = spectral.build_matrix(graph, sd.s0)
    rho, right, left = oracle.spectral_radius(a, want_vectors=True)
    u = right / float(left @ right)
    assert np.max(np.abs(sd.u - u)) <= 1e-12
    assert np.max(np.abs(sd.v - left)) <= 1e-12
    assert np.max(np.abs(a @ sd.u - rho * sd.u)) <= 1e-12
    assert np.max(np.abs(sd.v @ a - rho * sd.v)) <= 1e-12
    moments = spectral.build_moment_matrix(graph, sd.s0)
    assert sd.moment_matrix.tobytes() == moments.tobytes()
    limit = np.outer(sd.v, sd.u) / float(sd.v @ moments @ sd.u)
    assert sd.limit_matrix.tobytes() == limit.tobytes()
    assert sd.vertex_order == graph.vertex_order
    return sd


def check_graph(graph, horizon):
    sd = check_s0(graph)
    m = renewal.transfer_measure(graph, sd.s0)
    forcing = [StepFunction.indicator(0.0, 1.0) for _ in range(m.n)]
    assert_same_solve(m, forcing, horizon)


# -- strategies -------------------------------------------------------------------


@st.composite
def step_functions(draw, points, min_size=0):
    """A step function on breakpoints drawn from ``points``; sometimes zero."""
    bps = sorted(set(draw(st.lists(points, min_size=min_size, max_size=5))))
    if not bps:
        return StepFunction.zero()
    value = st.one_of(st.floats(0.1, 2.0), st.just(0.0), st.floats(-2.0, 2.0))
    vals = draw(st.lists(value, min_size=len(bps), max_size=len(bps)))
    return StepFunction(bps, vals)


def clustered_points():
    """Breakpoints on a few bases plus chains spaced CHAIN_STEP apart."""
    return st.builds(
        lambda base, k: base + k * CHAIN_STEP,
        st.sampled_from((0.0, 0.5, 1.0, math.log(2.0), 3.0)),
        st.integers(0, 6),
    )


@st.composite
def atomic_systems(draw):
    """An irreducible matrix of atomic measures with mass radius 1, a forcing
    vector and a horizon.  Lattice draws put every atom on k * tau, so sums
    along different paths meet within a few ulps and merge."""
    n = draw(st.integers(1, 3))
    lattice = draw(st.booleans())
    tau = draw(st.floats(0.4, 1.1))
    support = {(i, (i + 1) % n) for i in range(n)}
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    support |= set(draw(st.lists(cells, max_size=n)))
    if lattice:
        location = st.integers(1, 3).map(lambda k: k * tau)
    else:
        location = st.floats(0.7, 2.0)
    atoms = {
        cell: draw(
            st.lists(st.tuples(location, st.floats(0.1, 1.0)), min_size=1, max_size=2)
        )
        for cell in sorted(support)
    }
    mass = np.zeros((n, n))
    for (i, j), pairs in atoms.items():
        mass[i, j] = sum(w for _, w in pairs)
    rho = max(abs(np.linalg.eigvals(mass)))
    entries = [
        [AtomicMeasure.from_atoms([(x, w / rho) for x, w in atoms.get((i, j), [])])
         for j in range(n)]
        for i in range(n)
    ]
    points = st.one_of(
        st.floats(0.0, 3.0), st.integers(0, 4).map(lambda k: k * tau), clustered_points()
    )
    forcing = [draw(step_functions(points, min_size=1)) for _ in range(n)]
    horizon = draw(st.floats(3.0, 9.0))
    return MatrixMeasure(entries), forcing, horizon


@st.composite
def connected_graphs(draw, ratio_sets=None):
    """A strongly connected 1-d graph: a Hamiltonian cycle plus extra edges.

    With ``ratio_sets`` the graph copies the benchmark's graph_family
    members: out-degree 3 and two self-loops at vertex 0 with rational
    ratios; otherwise ratios are arbitrary floats."""
    if ratio_sets is None:
        n = draw(st.integers(1, 4))
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = [(k, (k + 1) % n) for k in range(n)] + draw(st.lists(cells, max_size=4))
        ratio = st.floats(0.15, 0.55)
        ratios = [(draw(ratio), None) for _ in pairs]
    else:
        ratio_set, loops = ratio_sets
        n = draw(st.integers(2, 7))
        pairs = [(0, 0), (0, 0), (0, 1)]
        for k in range(1, n):
            others = [v for v in range(n) if v != (k + 1) % n]
            pairs += [(k, (k + 1) % n)] + [(k, draw(st.sampled_from(others))) for _ in range(2)]
        qs = list(loops) + [draw(st.sampled_from(ratio_set)) for _ in pairs[2:]]
        ratios = [(float(q), q) for q in qs]
    edges = [
        Edge(f"e{k}", f"v{a}", f"v{b}", line_map(r, 2.0 * a), q)
        for k, ((a, b), (r, q)) in enumerate(zip(pairs, ratios))
    ]
    vertices = {f"v{k}": Box((2.0 * k,), (2.0 * k + 1.0,)) for k in range(n)}
    return MWGraph(dimension=1, vertices=vertices, edges=edges)


# -- merges -----------------------------------------------------------------------


class TestMergeAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(fns=st.lists(step_functions(clustered_points()), min_size=0, max_size=5))
    def test_add_steps(self, fns):
        assert_same_steps([renewal.add_steps(fns)], [oracle.add_steps(fns)])

    @settings(max_examples=200, deadline=None)
    @given(
        atoms=st.lists(
            st.tuples(clustered_points(), st.floats(1e-3, 1.0)), min_size=1, max_size=12
        )
    )
    def test_merge_atoms(self, atoms):
        loc = np.array([a for a, _ in atoms])
        w = np.array([b for _, b in atoms])
        got = renewal._merge_atoms(loc, w)
        want = oracle.merge_atoms(loc, w)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


# -- entries of a matrix of measures ----------------------------------------------


@st.composite
def sparse_measures(draw):
    """A matrix of atomic measures, most entries zero, one entry with 9 to 12
    atoms: past 8 terms numpy sums pairwise, not one term after another."""
    n = draw(st.integers(1, 6))
    cells = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=n * n))
    many = draw(st.sampled_from(sorted(cells)))
    entries = [[AtomicMeasure.zero() for _ in range(n)] for _ in range(n)]
    for cell in cells:
        size = (9, 12) if cell == many else (1, 4)
        # distinct grid points, so no two atoms merge
        steps = draw(st.lists(st.integers(1, 400), min_size=size[0], max_size=size[1],
                              unique=True))
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(steps),
                                max_size=len(steps)))
        entries[cell[0]][cell[1]] = AtomicMeasure([0.0125 * k for k in steps], weights)
    return MatrixMeasure(entries)


class TestMatrixMeasureAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(m=sparse_measures())
    def test_nonzero_entries_give_the_n2_loops(self, m):
        assert max(mu.n_atoms for row in m.entries for mu in row) >= 9
        assert m.mass_matrix().tobytes() == oracle.mass_matrix(m).tobytes()
        assert m.moment_matrix().tobytes() == oracle.moment_matrix(m).tobytes()
        assert m.min_location() == oracle.min_location(m)

    def test_zero_matrix(self):
        m = MatrixMeasure([[AtomicMeasure.zero()] * 2] * 2)
        assert m.mass_matrix().tobytes() == oracle.mass_matrix(m).tobytes()
        assert m.min_location() is None and oracle.min_location(m) is None

    def test_one_right_perron_run_per_matrix(self, bundled, monkeypatch):
        # renewal_solve's precondition check and limit_value's limit matrix
        # share the mass matrix's right Perron run, and with it its
        # irreducibility test
        m = renewal.transfer_measure(bundled["two_vertex"], spectral.solve_s0(bundled["two_vertex"]).s0)
        runs, tests = [], []
        real = spectral._perron
        monkeypatch.setattr(spectral, "_perron", lambda a: runs.append(a.shape) or real(a))
        real_test = spectral.is_irreducible
        monkeypatch.setattr(spectral, "is_irreducible", lambda a: tests.append(a.shape) or real_test(a))
        forcing = [StepFunction.indicator(0.0, 1.0)] * m.n
        renewal.renewal_solve(m, forcing, 5.0)
        renewal.limit_value(m, forcing)
        renewal.renewal_solve(m, forcing, 5.0)
        assert len(runs) == 2  # the right run once, the left run once
        assert len(tests) == 1


# -- the renewal series -----------------------------------------------------------


class TestRenewalAgainstOracle:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(system=atomic_systems())
    def test_random_atomic_matrices(self, system):
        m, forcing, horizon = system
        assert_same_solve(m, forcing, horizon)
        assert_same_outcome(renewal.vector_convolve, oracle.vector_convolve, forcing, m)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph=connected_graphs())
    def test_random_connected_graphs(self, graph):
        check_graph(graph, horizon=4.0)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph=st.sampled_from(
            ((DENSE_RATIOS, DENSE_LOOPS), (LATTICE_RATIOS, LATTICE_LOOPS))
        ).flatmap(connected_graphs)
    )
    def test_graph_family_ratio_sets(self, graph):
        check_graph(graph, horizon=15.0)

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_bundled_systems(self, bundled, name):
        check_graph(bundled[name], horizon=8.0)

    def test_phase_system(self):
        check_graph(phase_graph(), horizon=15.0)


class TestNewtonAgainstOracle:
    @pytest.mark.parametrize("n", [18, 22])
    @pytest.mark.parametrize("lattice", [False, True], ids=["dense", "lattice"])
    def test_family_members(self, n, lattice):
        for seed in (1, 2):
            check_s0(schema.parse_system(family_system(n, lattice, seed)))
