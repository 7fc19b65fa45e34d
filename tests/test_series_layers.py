"""The renewal series run one term layer at a time, against ``renewal_oracle``.

``renewal_solve`` merges every function of a term layer at once and splits
the settled prefix off the running total before each merge.  These tests pin
its output, bit for bit, to the oracle's one-function-at-a-time series: at
the benchmark's sizes, and on the inputs where splitting off a prefix could
go wrong.  They also pin its memory and its one ``_vector_convolve`` call per
term.
"""
import tracemalloc

import pytest

import renewal_oracle as oracle
from helpers import dirac, family_system

from gdcover import renewal, schema, spectral
from gdcover.renewal import AtomicMeasure, MatrixMeasure, StepFunction

# the spacing of a breakpoint chain: two steps exceed the merge tolerance,
# one does not, so a chain needs the sequential anchor walk
CHAIN_STEP = 0.6e-12


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def assert_same_solve(m, forcing, horizon):
    got, got_err = outcome(renewal.renewal_solve, m, forcing, horizon)
    want, want_err = outcome(oracle.renewal_solve, m, forcing, horizon)
    assert got_err == want_err
    if want_err is None:
        assert len(got) == len(want)
        for k, (g, w) in enumerate(zip(got, want)):
            assert g.breakpoints.tobytes() == w.breakpoints.tobytes(), k
            assert g.values.tobytes() == w.values.tobytes(), k


@pytest.fixture
def settled(monkeypatch):
    """Collect how many breakpoints each split of the running total moves off."""
    moved = []
    real = renewal._settle

    def spy(total, bound, done):
        before = len(done)
        out = real(total, bound, done)
        moved.extend(int(part[2].sum()) for part in done[before:])
        return out

    monkeypatch.setattr(renewal, "_settle", spy)
    return moved


def family_measure(n, lattice, seed):
    graph = schema.parse_system(family_system(n, lattice, seed))
    return renewal.transfer_measure(graph, spectral.solve_s0(graph).s0)


def unit_forcing(n):
    return [StepFunction.indicator(0.0, 1.0) for _ in range(n)]


class TestBenchmarkSizes:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("n", [14, 22])
    def test_family_members_equal_the_oracle(self, n, lattice, seed):
        m = family_measure(n, lattice, seed)
        assert_same_solve(m, unit_forcing(m.n), 15.0)


# one atom at 1 with weight 1: the k-th term is the forcing shifted by k
UNIT_SHIFT = MatrixMeasure([[dirac(1.0, 1.0)]])
# two vertices each feeding the other: on alternate steps each term is empty
TWO_CYCLE = MatrixMeasure([[AtomicMeasure.zero(), dirac(1.0, 1.0)],
                           [dirac(1.0, 1.0), AtomicMeasure.zero()]])
# two vertices feeding both, at unequal shifts
MIXED = MatrixMeasure([[dirac(1.0, 0.5), dirac(1.5, 0.5)],
                       [dirac(0.7, 0.5), dirac(1.2, 0.5)]])


class TestSettledPrefix:
    @pytest.mark.parametrize("values", [
        # equal neighbours: the first merge collapses 0.25 into 0
        [1.0, 1.0, 2.0, 0.0],
        # -0.0: the first merge adds it to +0.0
        [1.0, -0.0, 2.0, 0.0],
    ])
    def test_an_unmerged_forcing_settles_only_what_a_merge_keeps(self, settled, values):
        forcing = [StepFunction([0.0, 0.25, 0.5, 0.75], values)]
        assert_same_solve(UNIT_SHIFT, forcing, 4.5)
        assert sum(settled) > 0

    def test_chains_around_the_first_term_start(self, settled):
        # chains of breakpoints CHAIN_STEP apart at 0.5, well below the
        # first term, and across 1.0, where it starts
        chain = [k * CHAIN_STEP for k in range(4)]
        bps = [0.0] + [0.5 + c for c in chain] + [1.0 - CHAIN_STEP + c for c in chain] + [2.0]
        vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 0.0]
        forcing = [StepFunction(bps, vals)]
        assert_same_solve(UNIT_SHIFT, forcing, 5.5)
        assert sum(settled) > 0

    def test_a_neighbour_inside_the_rounded_merge_window(self, settled):
        # in [1, 2), 1.5 + ATOM_MERGE_TOL rounds up: its sum lies more than
        # the tolerance above 1.5, an anchor of its own, yet 1.5 reads it
        near = 1.5 + renewal.ATOM_MERGE_TOL
        assert near - 1.5 > renewal.ATOM_MERGE_TOL
        forcing = [StepFunction([1.2, 1.5, near, 2.0], [1.0, 2.0, 3.0, 0.0])]
        assert_same_solve(UNIT_SHIFT, forcing, 6.5)
        assert sum(settled) > 0

    def test_two_cycle_terms_empty_on_alternate_steps(self, settled):
        forcing = [StepFunction([0.0, 0.5, 1.0], [1.0, 2.0, 0.0]),
                   StepFunction([0.2, 0.9], [3.0, 0.0])]
        assert_same_solve(TWO_CYCLE, forcing, 7.5)
        assert sum(settled) > 0

    def test_an_empty_forcing_component(self, settled):
        forcing = [StepFunction([0.0, 0.3, 1.0], [1.0, 0.5, 0.0]), StepFunction.zero()]
        assert_same_solve(MIXED, forcing, 6.0)
        assert sum(settled) > 0

    def test_a_shift_collision_raises_as_the_oracle(self, settled):
        # 1e-17 is below an ulp of 1.0, so shifting by 1.0 makes 0 and 1e-17 collide
        forcing = [StepFunction([0.0, 1e-17, 0.5], [1.0, 2.0, 0.0])]
        assert_same_solve(UNIT_SHIFT, forcing, 3.0)
        assert outcome(renewal.renewal_solve, UNIT_SHIFT, forcing, 3.0)[1] is not None


class TestTermLayers:
    def test_an_entry_with_several_atoms_beside_a_zero_row(self):
        # row 1's function is zero, so entry (1, 0) drops out while entry
        # (0, 0) still sums its two copies before column 0 does
        m = MatrixMeasure([[AtomicMeasure([1.0, 1.5], [0.5, 0.25]), dirac(2.0, 1.0)],
                           [dirac(0.7, 1.0), AtomicMeasure.zero()]])
        fs = [StepFunction([0.0, 1.0, 2.0], [1.0, 3.0, 0.0]),
              StepFunction([0.0, 1.0], [0.0, 0.0])]
        got = renewal.vector_convolve(fs, m)
        want = oracle.vector_convolve(fs, m)
        assert isinstance(got, list)
        for g, w in zip(got, want):
            assert g.breakpoints.tobytes() == w.breakpoints.tobytes()
            assert g.values.tobytes() == w.values.tobytes()

    @pytest.mark.parametrize("n", [1, 8, 16, 17])
    def test_a_tie_of_signed_zeros_keeps_the_sorted_sign(self, n):
        # -0.0 and +0.0 tie; the merge of the whole union anchors on the
        # zero that np.sort puts first, which depends on the union's size
        f = StepFunction([-0.0] + [0.1 * k for k in range(1, n)], [1.0] * n)
        g = StepFunction([0.0] + [0.1 * k + 0.05 for k in range(1, n)], [2.0] * n)
        got, want = renewal.add_steps([f, g]), oracle.add_steps([f, g])
        assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
        assert got.values.tobytes() == want.values.tobytes()

    def test_one_vector_convolve_call_per_term(self, monkeypatch):
        calls = dict.fromkeys(("_vector_convolve", "vector_convolve", "_flatten", "_functions"), 0)

        def counted(name):
            real = getattr(renewal, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        for name in calls:
            monkeypatch.setattr(renewal, name, counted(name))
        # terms k = 1..5 start at k <= 5.5, and none vanishes
        renewal.renewal_solve(UNIT_SHIFT, [StepFunction.indicator(0.0, 0.5)], 5.5)
        # one convolution per term, each from layer to layer: the forcing is
        # laid out once and the solution split into functions once
        assert calls == {"_vector_convolve": 5, "vector_convolve": 0,
                         "_flatten": 1, "_functions": 1}

    def test_heap_peak_at_most_three_times_the_solution(self):
        m = family_measure(22, False, 4)
        forcing = unit_forcing(m.n)
        tracemalloc.start()
        try:
            out = renewal.renewal_solve(m, forcing, 15.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * sum(f.breakpoints.nbytes + f.values.nbytes for f in out)
