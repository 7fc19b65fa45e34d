"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises the public API the way the README advertises it,
asserts the stated tolerance, and prints a single summary line with the
measured figure (visible under ``pytest -s``; pytest's own PASSED/FAILED
column is the per-criterion verdict otherwise).
"""

import math
import time

import numpy as np
import pytest

from helpers import LN2, LN3, bisect_root

from gdcover import covering, lattice, renewal, schema, spectral
from gdcover.asymptotics import analyze


@pytest.fixture(scope="module")
def gap_point_analysis():
    # shared by the periodic-limit and cross-check criteria below
    return analyze(schema.load_bundled("cantor_point"), n_min=4, n_max=10, y_samples=8)


@pytest.fixture(scope="module")
def dense_analysis():
    # README defaults; shared by the dense-trend and cross-check criteria below
    return analyze(schema.load_bundled("two_ratio"), t_min=2.0, t_max=14.0)


def test_criterion_01_dimension_oracles():
    cases = [
        ("cantor", LN2 / LN3),
        ("sierpinski", LN3 / LN2),
        ("two_vertex", bisect_root(lambda s: 1 - 2**-s - 8**-s, 0.1, 1.0)),
    ]
    worst_err = 0.0
    worst_time = 0.0
    for name, want in cases:
        graph = schema.load_bundled(name)
        t0 = time.perf_counter()
        sd = spectral.solve_s0(graph)
        elapsed = time.perf_counter() - t0
        assert abs(sd.s0 - want) <= 1e-9, name
        assert elapsed < 1.0, name
        worst_err = max(worst_err, abs(sd.s0 - want))
        worst_time = max(worst_time, elapsed)
    print(
        f"criterion 1: PASS  dimension oracles, worst |error| = {worst_err:.2e}, "
        f"worst solve time = {worst_time * 1e3:.1f} ms"
    )


def test_criterion_02_perron_residuals():
    worst_eig = 0.0
    worst_norm = 0.0
    for name in schema.bundled_systems():
        graph = schema.load_bundled(name)
        sd = spectral.solve_s0(graph)
        a = spectral.build_matrix(graph, sd.s0)
        u, v = np.asarray(sd.u), np.asarray(sd.v)
        res_u = float(np.max(np.abs(a @ u - u)))
        res_v = float(np.max(np.abs(v @ a - v)))
        assert res_u <= 1e-10, name
        assert res_v <= 1e-10, name
        assert abs(v.sum() - 1.0) <= 1e-12, name
        assert abs(v @ u - 1.0) <= 1e-12, name
        worst_eig = max(worst_eig, res_u, res_v)
        worst_norm = max(worst_norm, abs(v.sum() - 1.0), abs(v @ u - 1.0))
    print(
        f"criterion 2: PASS  Perron residuals over {len(schema.bundled_systems())} "
        f"systems, worst eigen residual = {worst_eig:.2e}, "
        f"worst normalization defect = {worst_norm:.2e}"
    )


def test_criterion_03_lattice_classification():
    # thirds-only ratios: lattice with step ln3, decided in exact mode
    res = lattice.classify_graph(schema.load_bundled("cantor"))
    assert res.is_lattice and res.mode == "exact"
    assert res.tau == pytest.approx(LN3, rel=1e-12)

    # ratios 1/2 and 1/3: no common power, so the ratio group is dense
    res = lattice.classify_graph(schema.load_bundled("two_ratio"))
    assert not res.is_lattice and res.mode == "exact"
    assert "independent" in res.note

    # cycle ratios 1/2 and 1/8 = (1/2)^3: lattice with step ln2
    res = lattice.classify_graph(schema.load_bundled("two_vertex"))
    assert res.is_lattice and res.mode == "exact"
    assert res.tau == pytest.approx(LN2, rel=1e-12)

    # floating-point mode reaches the same three verdicts at DEFAULT_EPS = 1e-9
    for name, want_tau in (("cantor", LN3), ("two_ratio", None), ("two_vertex", LN2)):
        values = [v for _c, v in lattice.cycle_log_ratios(schema.load_bundled(name))]
        res = lattice.classify(values)
        assert res.mode == "floating"
        if want_tau is None:
            assert not res.is_lattice
        else:
            assert res.is_lattice
            assert res.tau == pytest.approx(want_tau, rel=1e-9)
    print("criterion 3: PASS  exact and floating classification agree on all three")


def test_criterion_04_renewal_solver():
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 30.0, 3001, endpoint=False)

    # non-lattice scalar kernel: atoms at ln2 and ln3, weight 1/2 each
    m = renewal.MatrixMeasure(
        [[renewal.AtomicMeasure.from_atoms(((LN2, 0.5), (LN3, 0.5)))]]
    )
    forcing = [renewal.StepFunction([0.0, LN2], [1.0, 0.0])]
    f = renewal.renewal_solve(m, forcing, 30.0)[0]
    conv = f.convolve_measure(m.entry(0, 0))
    residual = max(abs(f(t) - conv(t) - forcing[0](t)) for t in ts)
    assert residual < 1e-9

    lim = renewal.limit_value(m, forcing)
    assert lim.kind == "constant"
    # mean kernel location (ln2+ln3)/2, forcing mass ln2
    assert abs(float(lim.values[0]) - 0.7737056) <= 1e-3

    # lattice scalar kernel: unit atom at ln3 with unit forcing on one period
    m2 = renewal.MatrixMeasure([[renewal.AtomicMeasure.from_atoms(((LN3, 1.0),))]])
    f2 = renewal.renewal_solve(m2, [renewal.StepFunction([0.0, LN3], [1.0, 0.0])], 30.0)[0]
    flat = max(abs(f2(t) - 1.0) for t in ts)
    assert flat < 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 4: PASS  fixed-point residual = {residual:.2e}, "
        f"limit error = {abs(float(lim.values[0]) - 0.7737056):.2e}, "
        f"lattice flatness = {flat:.2e}, runtime = {elapsed:.2f} s"
    )


def test_criterion_05_exact_thirds_counting():
    t0 = time.perf_counter()
    prof = covering.profile(schema.load_bundled("cantor"), LN3, 10 * LN3, 1, period=LN3)
    elapsed = time.perf_counter() - t0
    assert [s.n for s in prof.samples] == list(range(1, 11))
    for s in prof.samples:
        assert s.total == 2**s.n
        assert abs(s.ratio_total - 1.0) <= 1e-9
    assert elapsed < 5.0
    print(
        f"criterion 5: PASS  exact counts 2^n for n = 1..10, "
        f"worst |ratio - 1| = {max(abs(s.ratio_total - 1.0) for s in prof.samples):.2e}, "
        f"runtime = {elapsed:.2f} s"
    )


def test_criterion_06_periodic_limit_convergence(gap_point_analysis):
    rep = gap_point_analysis.report
    assert rep.kind == "periodic"
    assert rep.y_grid.size == 8
    assert rep.n_values == tuple(range(4, 11))
    worst_drift = float(np.max(rep.drift))
    floor = float(np.min(rep.total_estimate))
    assert worst_drift < 0.01
    assert floor > 0.0
    print(
        f"criterion 6: PASS  worst per-offset drift over last 3 periods = "
        f"{worst_drift:.3%}, min periodic estimate = {floor:.4f}"
    )


def test_criterion_07_dense_convergence_trend(dense_analysis):
    rep = dense_analysis.report
    assert rep.kind == "constant"
    thirds = rep.thirds_drift
    assert len(thirds) == 3
    assert thirds[2] < 0.10
    assert thirds[0] > thirds[1] > thirds[2]
    print(
        f"criterion 7: PASS  drift by thirds = "
        f"({thirds[0]:.3%}, {thirds[1]:.3%}, {thirds[2]:.3%}), decreasing"
    )


def test_criterion_08_divergent_growth_rate():
    res = analyze(schema.load_bundled("cantor_segment"))
    rep = res.report
    assert rep.kind == "divergent"
    totals = res.profile.total_ratios()
    assert totals.size == 8
    assert np.all(np.diff(totals) > 0)
    per_step = rep.growth_rate * LN3
    target = (1.0 - res.spectral.s0) * LN3
    assert abs(per_step - target) <= 0.15 * target
    print(
        f"criterion 8: PASS  normalized counts strictly increasing, per-step "
        f"growth = {per_step:.6f} vs {target:.6f} "
        f"(factor {math.exp(per_step):.3f} per period)"
    )


def test_criterion_09_cross_check_closure(gap_point_analysis, dense_analysis):
    cross = gap_point_analysis.cross
    assert cross is not None and cross.kind == "periodic"
    per_y = np.asarray(cross.rel_discrepancy)
    assert per_y.size == 8
    assert float(np.max(per_y)) <= 0.05
    dense = dense_analysis.cross
    assert dense is not None and dense.kind == "constant"
    assert dense.max_rel_discrepancy <= 0.05
    print(
        f"criterion 9: PASS  renewal prediction vs measurement, worst "
        f"per-offset discrepancy = {float(np.max(per_y)):.3%}, "
        f"dense discrepancy = {dense.max_rel_discrepancy:.3%}"
    )


def test_criterion_10_two_grid_robustness():
    worst = 0.0
    scales = {1: (1.5, 3.0, 4.5), 2: (0.9, 1.8, 2.7)}
    for name in schema.bundled_systems():
        graph = schema.load_bundled(name)
        bound = 3.0**graph.dimension
        for t in scales[graph.dimension]:
            r = math.exp(-t)
            for vertex in graph.vertex_order:
                gset = covering.generate(graph, vertex, r)
                n0 = covering.count(gset, r).total
                n1 = covering.count(gset, r, grid_origin=0.316).total
                assert n1 <= bound * n0, (name, vertex, t)
                assert n0 <= bound * n1, (name, vertex, t)
                worst = max(worst, n1 / n0, n0 / n1)
    print(
        f"criterion 10: PASS  origin-shift count factor <= 3^d on every system, "
        f"worst observed factor = {worst:.3f}"
    )
