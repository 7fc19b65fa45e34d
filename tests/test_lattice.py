import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_oracle
from lattice_oracle import path_ratio
from helpers import (
    LN2,
    LN3,
    cantor_graph,
    enumerate_paths,
    path_terminal,
    phase_graph,
    random_graphs,
    two_ratio_graph,
    two_vertex_graph,
    without_rational,
)

from gdcover.lattice import classify, classify_graph, cycle_log_ratios

PRIMES = (2, 3, 5, 7)


@st.composite
def rational_generators(draw):
    """Rationals above one over PRIMES: multiples of one exponent vector
    (a lattice, often with perfect-power bases) or independent vectors."""
    exps = st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4)
    if draw(st.booleans()):
        v = draw(exps.filter(any))
        ks = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5))
        rows = [[k * e for e in v] for k in ks]
    else:
        rows = draw(st.lists(exps.filter(any), min_size=1, max_size=5))
    out = []
    for row in rows:
        q = Fraction(1)
        for p, e in zip(PRIMES, row):
            q *= Fraction(p) ** e
        out.append(q if q > 1 else 1 / q)
    return out


class TestCycleLogRatios:
    def test_cantor(self):
        vals = sorted(v for _c, v in cycle_log_ratios(cantor_graph()))
        assert vals == pytest.approx([LN3, LN3], rel=1e-15)

    def test_two_distinct_loops(self):
        g = two_ratio_graph(0.5, 1.0 / 3.0)
        vals = sorted(v for _c, v in cycle_log_ratios(g))
        assert vals == pytest.approx([LN2, LN3], rel=1e-15)

    def test_two_vertex_loop_and_excursion(self):
        vals = sorted(v for _c, v in cycle_log_ratios(two_vertex_graph()))
        assert vals == pytest.approx([LN2, math.log(8.0)], rel=1e-15)


class TestClassifyExact:
    def test_equal_generators(self):
        res = classify([LN3, LN3], exact_ratios=[Fraction(1, 3), Fraction(1, 3)])
        assert res.is_lattice and res.mode == "exact"
        assert res.tau == pytest.approx(LN3, rel=1e-12)

    def test_multiplicative_independence(self):
        res = classify([LN2, LN3], exact_ratios=[Fraction(1, 2), Fraction(1, 3)])
        assert res.kind == "dense" and res.mode == "exact"

    def test_power_relation(self):
        res = classify(
            [LN2, math.log(8.0)], exact_ratios=[Fraction(1, 2), Fraction(1, 8)]
        )
        assert res.is_lattice
        assert res.tau == pytest.approx(LN2, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(qs=rational_generators())
    def test_coprime_base_matches_prime_factoring(self, qs):
        res = classify([math.log(q) for q in qs], exact_ratios=[1 / q for q in qs])
        assert (res.kind, res.tau) == lattice_oracle.classify_exact(qs)

    def test_non_trivial_commensurability(self):
        # 4/9 and 8/27 are both powers of 2/3
        base = -math.log(2.0 / 3.0)
        res = classify(
            [2 * base, 3 * base],
            exact_ratios=[Fraction(4, 9), Fraction(8, 27)],
        )
        assert res.is_lattice
        assert res.tau == pytest.approx(base, rel=1e-12)


class TestClassifyFloating:
    def test_matches_exact_on_the_three_references(self):
        lattice_equal = classify([LN3, LN3])
        dense_pair = classify([LN2, LN3])
        lattice_power = classify([LN2, math.log(8.0)])
        assert lattice_equal.is_lattice
        assert lattice_equal.tau == pytest.approx(LN3, abs=1e-9)
        assert dense_pair.kind == "dense"
        assert lattice_power.is_lattice
        assert lattice_power.tau == pytest.approx(LN2, abs=1e-9)
        assert all(
            r.mode == "floating" for r in (lattice_equal, dense_pair, lattice_power)
        )

    def test_floating_dense_is_labeled_numeric(self):
        res = classify([LN2, LN3])
        assert "numeric" in res.note.lower()

    def test_empty_input_rejected(self):
        with pytest.raises(Exception):
            classify([])

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.integers(min_value=1, max_value=40),
        b=st.integers(min_value=1, max_value=40),
        g=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
    )
    def test_integer_multiples_recover_the_gcd(self, a, b, g):
        res = classify([a * g, b * g])
        assert res.is_lattice
        assert res.tau == pytest.approx(math.gcd(a, b) * g, rel=1e-6)


class TestLatticeInvariants:
    def test_generators_sit_on_the_lattice(self, bundled):
        for name, g in bundled.items():
            res = classify_graph(g)
            if not res.is_lattice:
                continue
            for gen in res.generators:
                k = round(gen / res.tau)
                assert abs(gen - k * res.tau) <= 1e-9 * max(res.generators), name

    def test_tau_is_maximal(self, bundled):
        # doubling tau must knock some generator off the grid
        for name, g in bundled.items():
            res = classify_graph(g)
            if not res.is_lattice:
                continue
            doubled = 2 * res.tau
            off = [
                abs(gen / doubled - round(gen / doubled)) for gen in res.generators
            ]
            assert max(off) > 1e-6, name


class TestAgainstSimpleCycles:
    @settings(max_examples=150, deadline=None)
    @given(g=random_graphs())
    def test_spanning_tree_matches_simple_cycles(self, g):
        kinds = set()
        # the input picks the classifier: exact on the rational graph,
        # floating on a copy whose edges carry no exact ratio
        for graph, mode in ((g, "auto"), (without_rational(g), "floating")):
            try:
                want = lattice_oracle.classify_graph(g, mode=mode)
            except ValueError:
                with pytest.raises(ValueError):
                    classify_graph(graph)
                continue
            got = classify_graph(graph)
            assert (got.kind, got.mode) == want[:2]
            if want[2] is None:
                assert got.tau is None and got.phases is None
            elif got.mode == "exact":
                assert got.tau == want[2]
            else:
                assert got.tau == pytest.approx(want[2], abs=1e-12)
            kinds.add(got.kind)
        # the floating verdict agrees with the exact certificate
        assert len(kinds) <= 1

    def test_bundled_corpus_matches_simple_cycles(self, bundled):
        for name, g in bundled.items():
            res = classify_graph(g)
            assert (res.kind, res.mode, res.tau) == lattice_oracle.classify_graph(g), name


class TestPhases:
    def test_off_lattice_edge_gives_a_vertex_phase(self):
        res = classify_graph(phase_graph())
        assert res.is_lattice and res.mode == "exact"
        assert res.tau == pytest.approx(LN2, rel=1e-15)
        assert res.phases[0] == 0.0
        assert res.phases[1] == pytest.approx(math.log(1.5), abs=1e-12)

    def test_aligned_system_has_zero_phases(self, two_vertex):
        # hop has log-ratio ln4, a multiple of tau = ln2: snapped to 0
        assert classify_graph(two_vertex).phases == (0.0, 0.0)

    def test_dense_system_has_no_phases(self, two_ratio):
        assert classify_graph(two_ratio).phases is None


class TestClassifyGraph:
    def test_bundled_kinds(self, bundled):
        expected = {
            "cantor": ("lattice", LN3),
            "cantor_point": ("lattice", LN3),
            "cantor_segment": ("lattice", LN3),
            "dust2d_edge": ("lattice", LN3),
            "sierpinski": ("lattice", LN2),
            "rotated2d": ("lattice", -math.log(0.4)),
            "two_vertex": ("lattice", LN2),
            "two_ratio": ("dense", None),
        }
        for name, (kind, tau) in expected.items():
            res = classify_graph(bundled[name])
            assert res.kind == kind, name
            if tau is not None:
                assert res.tau == pytest.approx(tau, rel=1e-9), name

    def test_rational_corpus_uses_exact_mode(self, bundled):
        for name in ("cantor", "two_ratio", "two_vertex"):
            assert classify_graph(bundled[name]).mode == "exact", name

    def test_unmarked_ratios_fall_back_to_floating(self):
        g = cantor_graph()  # built without ratio_rational annotations
        assert classify_graph(g).mode == "floating"

    def test_simple_cycles_agree_with_all_closed_walks(self, bundled):
        # the generating set built from every closed walk of length up to
        # twice the vertex count classifies identically
        for name, g in bundled.items():
            res = classify_graph(g)
            walk_gens = []
            for start in g.vertex_order:
                for length in range(1, 2 * g.n_vertices + 1):
                    for p in enumerate_paths(g, start, length=length):
                        if path_terminal(g, p) == start:
                            walk_gens.append(-math.log(path_ratio(g, p)))
            walk_res = classify(walk_gens)
            assert walk_res.kind == res.kind, name
            if res.is_lattice:
                assert walk_res.tau == pytest.approx(res.tau, abs=1e-9), name
