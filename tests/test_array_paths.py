"""Differential tests for the array paths of ``spectral`` and ``renewal``
against ``renewal_oracle``, bit for bit: the periodic limit summed over the
whole ``y`` grid, power iteration checked a block of steps at a time, and
the warm-started ``s0`` bisection.

The oracle sums the periodic limit one point at a time, checks the power
bracket after every step and runs every bisection step from the uniform
vector to full convergence.
"""
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import renewal_oracle as oracle
from conftest import BUNDLED_NAMES
from helpers import LN2, family_system, line_map, perron_triple, phase_graph
from test_fast_paths import (
    DENSE_LOOPS,
    DENSE_RATIOS,
    LATTICE_LOOPS,
    LATTICE_RATIOS,
    assert_same_spectral,
    connected_graphs,
)

from gdcover import lattice, renewal, schema, spectral
from gdcover.geometry import Box
from gdcover.graph import Edge, MWGraph
from gdcover.renewal import StepFunction


# -- the periodic limit -----------------------------------------------------------


def assert_same_limit(m, forcing, lat):
    got = renewal.limit_value(m, forcing, lattice=lat)
    want = oracle.periodic_limit(m, forcing, lat.phases, lat.tau)
    assert got.kind == "periodic"
    assert got.values.tobytes() == want.tobytes()


def lattice_forcings(n, rng):
    """The benchmark's indicator forcing, and steps spanning several periods."""
    yield [StepFunction.indicator(0.0, 1.0) for _ in range(n)]
    steps = []
    for _ in range(n):
        bps = sorted(rng.sample(range(1, 40), 4))
        steps.append(StepFunction([0.0] + [b / 8 for b in bps],
                                  [rng.uniform(-1, 2) for _ in bps] + [0.0]))
    yield steps


class TestPeriodicLimitAgainstOracle:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph=connected_graphs((LATTICE_RATIOS, LATTICE_LOOPS)), seed=st.integers(0, 99))
    def test_lattice_ratio_set(self, graph, seed):
        sd = spectral.solve_s0(graph)
        lat = lattice.classify_graph(graph)
        m = renewal.transfer_measure(graph, sd.s0)
        for forcing in lattice_forcings(m.n, random.Random(seed)):
            assert_same_limit(m, forcing, lat)

    def test_phase_system(self):
        graph = phase_graph()
        lat = lattice.classify_graph(graph)
        assert any(lat.phases)
        m = renewal.transfer_measure(graph, spectral.solve_s0(graph).s0)
        for forcing in lattice_forcings(m.n, random.Random(3)):
            assert_same_limit(m, forcing, lat)

    def test_bundled_lattice_systems(self, bundled):
        checked = 0
        for name in BUNDLED_NAMES:
            graph = bundled[name]
            lat = lattice.classify_graph(graph)
            if not lat.is_lattice:
                continue
            m = renewal.transfer_measure(graph, spectral.solve_s0(graph).s0)
            for forcing in lattice_forcings(m.n, random.Random(checked)):
                assert_same_limit(m, forcing, lat)
            checked += 1
        assert checked >= 4


def test_far_support_sums_match_the_oracle():
    # zero pieces hundreds of periods long are skipped; a constant piece
    # spanning many periods adds 0.1 once per step, in order; a block of
    # one step, of seven and the default cut the steps differently
    m = renewal.MatrixMeasure([[renewal.AtomicMeasure([LN2, 2 * LN2], [0.5, 0.5])]])
    lat = SimpleNamespace(is_lattice=True, tau=LN2, phases=None)
    forcings = [
        StepFunction([0.0, 0.5, 1.5, 1999.5, 2000.0], [0.3, -1.2, 0.0, 0.7, 0.0]),
        StepFunction([0.0, 900.0], [0.1, 0.0]),
        StepFunction([3.0, 8.0 * LN2, 500.0, 1500.0], [0.0, 2.5, 0.0, 0.0]),
    ]
    for block in (1, 7 * 8, renewal._LATTICE_BLOCK):
        with mock.patch.object(renewal, "_LATTICE_BLOCK", block):
            for f in forcings:
                got = renewal.limit_value(m, [f], lattice=lat, samples_per_period=8)
                want = oracle.periodic_limit(m, [f], None, LN2, samples_per_period=8)
                assert got.values.tobytes() == want.tobytes()


# -- blocked power iteration and the warm-started bisection -----------------------


def block_span(k):
    """First and last step of the block that holds step k (blocks of 2, 4, ...)."""
    start, size = 0, 2
    while k >= start + size:
        start += size
        size = min(2 * size, spectral._BLOCK)
    return start, start + size - 1


def iterate(b, x, steps):
    for _ in range(steps):
        y = b @ x
        x = y / y.sum()
    return x


def scaled_matrices(seed, count):
    """Irreducible nonnegative matrices with radius 1 + delta, delta spread over
    many decades and both signs, so the side decision and convergence stop at
    a wide range of steps."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        a[np.arange(n), (np.arange(n) + 1) % n] += rng.uniform(0.1, 1.0, n)
        radius = max(abs(np.linalg.eigvals(a)))
        delta = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-13, -1)
        yield a * ((1.0 + delta) / radius)


class TestPowerStepsAgainstOracle:
    @pytest.mark.parametrize("side", [True, False])
    def test_stops_at_the_oracle_step(self, side):
        positions = set()
        for a in scaled_matrices(11, 250):
            b = a + np.eye(a.shape[0])
            x0 = np.full(a.shape[0], 1.0 / a.shape[0])
            want = oracle.power_steps(b, x0, spectral.POWER_MAX_ITER, side)
            got = spectral._power_steps(b, x0, spectral.POWER_MAX_ITER, side)
            assert want is not None and got is not None
            k, lo, hi, x = want
            assert (got[0], got[1]) == (lo, hi)
            assert got[2].tobytes() == x.tobytes()
            start, end = block_span(k)
            if end - start + 1 == spectral._BLOCK:
                positions.add(k - start)
            # the latest iterate, the next warm start, closes k's block
            assert got[3].tobytes() == iterate(b, x0, end + 1).tobytes()
        # stops land on every position of a full block
        assert positions >= set(range(spectral._BLOCK))

    def test_iteration_cap_is_exact(self):
        for a in scaled_matrices(5, 40):
            b = a + np.eye(a.shape[0])
            x0 = np.full(a.shape[0], 1.0 / a.shape[0])
            k = oracle.power_steps(b, x0, spectral.POWER_MAX_ITER, True)[0]
            assert spectral._power_steps(b, x0, k, True) is None
            assert spectral._power_steps(b, x0, k + 1, True)[2].tobytes() == (
                oracle.power_steps(b, x0, k + 1, True)[3].tobytes()
            )

    def test_perron_data_with_and_without_dense_fallback(self, monkeypatch):
        cap = spectral.POWER_MAX_ITER
        for a in scaled_matrices(7, 30):
            b = a + np.eye(a.shape[0])
            x0 = np.full(a.shape[0], 1.0 / a.shape[0])
            k = oracle.power_steps(b, x0, cap, False)[0]
            # k steps end one short of convergence: the dense solver answers
            for max_iter in (k, k + 1, cap):
                monkeypatch.setattr(spectral, "POWER_MAX_ITER", max_iter)
                got = perron_triple(a)
                want = oracle.spectral_radius(a, want_vectors=True, max_iter=max_iter)
                assert got[0] == want[0]
                assert got[1].tobytes() == want[1].tobytes()
                assert got[2].tobytes() == want[2].tobytes()

    def test_warm_start_answers_like_the_full_iteration(self):
        for a in scaled_matrices(13, 60):
            want = oracle.spectral_radius(a) >= 1.0
            cold, latest = spectral._radius_at_least_one(a)
            assert cold == want
            for start in (latest, np.random.default_rng(1).random(a.shape[0]) + 0.1):
                assert spectral._radius_at_least_one(a, start)[0] == want

    def test_stalled_warm_and_cold_runs_reach_the_dense_fallback(self, monkeypatch):
        dense = []
        real = spectral._dense_perron

        def counting(b):
            dense.append(b.shape[0])
            return real(b)

        monkeypatch.setattr(spectral, "POWER_MAX_ITER", 3)
        monkeypatch.setattr(spectral, "_dense_perron", counting)
        unit = np.array([[0.5, 0.25, 0.0], [0.5, 0.5, 0.3], [0.0, 0.25, 0.7]])
        for scale in (1 - 1e-13, 1.0, 1 + 1e-13):
            a = unit * scale
            start = np.array([0.2, 0.5, 0.3])
            assert spectral._radius_at_least_one(a, start) == (
                oracle.spectral_radius(a, max_iter=3) >= 1.0,
                None,
            )
        assert dense == [3, 3, 3]


def family_member(n, ratio_set, loops, seed):
    """A 1-d system shaped like the benchmark's graph_family members: a
    Hamiltonian cycle, out-degree 3 and two self-loops at vertex 0."""
    rng = random.Random(seed)
    pairs = [(0, 0), (0, 0), (0, 1)]
    for k in range(1, n):
        others = [v for v in range(n) if v != (k + 1) % n]
        pairs += [(k, (k + 1) % n)] + [(k, v) for v in rng.sample(others, 2)]
    qs = list(loops) + [rng.choice(ratio_set) for _ in pairs[2:]]
    edges = [
        Edge(f"e{k}", f"v{a}", f"v{b}", line_map(float(q), 2.0 * a), q)
        for k, ((a, b), q) in enumerate(zip(pairs, qs))
    ]
    vertices = {f"v{k}": Box((2.0 * k,), (2.0 * k + 1.0,)) for k in range(n)}
    return MWGraph(dimension=1, vertices=vertices, edges=edges)


def bisection_runs(monkeypatch, graph):
    """``solve_s0(graph)`` and, per side decision, whether it had a warm start
    and how many side-testing power runs it made."""
    runs = []
    real_side = spectral._radius_at_least_one
    real_steps = spectral._power_steps

    def decide(a, start=None):
        runs.append([start is not None, 0])
        return real_side(a, start)

    def steps(b, x, max_iter, side):
        if side:
            runs[-1][1] += 1
        return real_steps(b, x, max_iter, side)

    monkeypatch.setattr(spectral, "_radius_at_least_one", decide)
    monkeypatch.setattr(spectral, "_power_steps", steps)
    sd = spectral.solve_s0(graph)
    monkeypatch.undo()
    return sd, runs


class TestWarmBisection:
    @pytest.mark.parametrize(
        "ratios", [(DENSE_RATIOS, DENSE_LOOPS), (LATTICE_RATIOS, LATTICE_LOOPS)]
    )
    def test_cold_reruns_happen_and_s0_matches(self, monkeypatch, ratios):
        graph = family_member(14, *ratios, seed=4)
        sd, runs = bisection_runs(monkeypatch, graph)
        reruns = sum(1 for warm, calls in runs if warm and calls == 2)
        # the bisection's last steps fall inside the side margin: the warm
        # run converges there and the step reruns from the uniform vector
        assert reruns >= 5
        assert sum(1 for warm, calls in runs if warm and calls == 1) >= 20
        assert_same_spectral(sd, oracle.solve_s0(graph))

    # uniform-start runs of solve_s0 on these members with the fixed side
    # margin 1e-12 that side_margin(n) replaced
    FIXED_MARGIN_COLD_RUNS = {False: 16, True: 15}

    @pytest.mark.parametrize("lattice", [False, True], ids=["dense", "lattice"])
    def test_fewer_uniform_start_runs_at_22_vertices(self, monkeypatch, lattice):
        graph = schema.parse_system(family_system(22, lattice, 4))
        sd, runs = bisection_runs(monkeypatch, graph)
        # a side decision without a warm start, or whose warm run reran
        cold = sum(1 for warm, calls in runs if not warm or calls == 2)
        assert cold < self.FIXED_MARGIN_COLD_RUNS[lattice]
        assert_same_spectral(sd, oracle.solve_s0(graph))

    @pytest.mark.parametrize("n", [18, 22])
    @pytest.mark.parametrize("lattice", [False, True], ids=["dense", "lattice"])
    def test_family_members_match_the_cold_bisection(self, n, lattice):
        for seed in (1, 2):
            graph = schema.parse_system(family_system(n, lattice, seed))
            assert_same_spectral(spectral.solve_s0(graph), oracle.solve_s0(graph))


@st.composite
def near_unit_radius(draw):
    """An irreducible nonnegative matrix whose columns sum to 1 + c * M(n),
    so that the radius of ``a + I`` lies within a few side margins M(n) of
    2, exactly 2 included; and a random positive start vector."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random((n, n)) * (rng.random((n, n)) < draw(st.sampled_from((0.1, 0.3, 1.0))))
    a[(np.arange(n) + 1) % n, np.arange(n)] += rng.uniform(0.1, 1.0, n)
    a /= a.sum(axis=0)
    c = draw(st.sampled_from((0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0)))
    return a * (1.0 + c * spectral.side_margin(n)), rng.random(n) + 1e-3


class TestSideMargin:
    def test_values(self):
        assert spectral.side_margin(22) == pytest.approx(6.04e-14, rel=1e-3)
        assert spectral.side_margin(100) == pytest.approx(1.297e-13, rel=1e-3)
        assert spectral.side_margin(1000) == pytest.approx(9.29e-13, rel=1e-3)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=near_unit_radius())
    def test_a_side_stop_gives_the_cold_converged_side(self, case):
        a, start = case
        n = a.shape[0]
        b = a + np.eye(n)
        hit = spectral._power_steps(b, start, spectral.POWER_MAX_ITER, side=True)
        margin = spectral.side_margin(n)
        if hit is not None and (hit[0] > 2.0 + margin or hit[1] < 2.0 - margin):
            assert (hit[0] > 2.0 + margin) == (oracle.spectral_radius(a) >= 1.0)
