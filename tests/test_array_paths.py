"""Differential tests for the array paths of ``renewal`` against
``renewal_oracle``, bit for bit: the periodic limit summed over the whole
``y`` grid.

The oracle sums the periodic limit one point at a time.
"""
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import renewal_oracle as oracle
from conftest import BUNDLED_NAMES
from helpers import LN2, phase_graph
from test_fast_paths import LATTICE_LOOPS, LATTICE_RATIOS, connected_graphs

from gdcover import lattice, renewal, spectral
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
