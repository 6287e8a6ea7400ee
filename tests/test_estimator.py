import math
import tracemalloc

import numpy as np
import pytest

from udortho.estimator import (
    BLOCK,
    ComparisonReport,
    ExperimentSpec,
    compare,
    reference_value,
    run,
)
from udortho.geometry import (
    builtin,
    crofton_constant,
    hull_measure,
    intrinsic_volume,
    random_spherical_polytope,
    simplex_mean_projection_area,
)
from udortho.orthogonal import OrthoSequence, random_ortho_batch


def test_spec_validation():
    cube = builtin("3-cube")
    with pytest.raises(ValueError):
        ExperimentSpec(cube, 3, 3, 100)
    with pytest.raises(ValueError):
        ExperimentSpec(cube, 3, 1, 100, mode="quasi")
    with pytest.raises(ValueError):
        ExperimentSpec(cube, 3, 1, 0)
    with pytest.raises(ValueError):
        ExperimentSpec(builtin("4-cube"), 3, 1, 100)
    with pytest.raises(ValueError):
        ExperimentSpec(cube, 3, 1, 100, trace_points=(50, 200))


@pytest.mark.parametrize(
    "n, k, N, trace",
    [(3.0, 1, 10, ()), (3, True, 10, ()), (3, 1, 10.0, ()), (3, 1, np.float64(10), ()),
     (3, 1, 10, (5.5, 10)), (3, 1, 10, (True, 10)), (3, 1, 10, (5, 10.0))],
)
def test_spec_refuses_non_integers(n, k, N, trace):
    # a fractional trace point is an error, not a dropped row; k = True is not k = 1
    with pytest.raises(ValueError, match="must be an integer"):
        ExperimentSpec(builtin("3-cube"), n, k, N, "qmc", trace_points=trace)


@pytest.mark.parametrize("key", ["seed"])
@pytest.mark.parametrize(
    "value, message", [(True, "must be an integer"), (1.5, "must be an integer"), (-1, "must be >= 0")]
)
def test_spec_refuses_bad_seeds(key, value, message):
    # a boolean seed is not seed 1, and a bad seed fails here, not inside run()
    with pytest.raises(ValueError, match=f"^{key} {message}"):
        ExperimentSpec(builtin("3-cube"), 3, 1, 10, "qmc", **{key: value})


def test_spec_takes_numpy_integers():
    cube = builtin("3-cube")
    plain = run(ExperimentSpec(cube, 3, 1, 10, "qmc", trace_points=(5, 10)))
    wide = run(ExperimentSpec(cube, np.int64(3), np.int32(1), np.int64(10), "qmc",
                              trace_points=(np.int64(5), 10)))
    assert wide.points == plain.points


@pytest.mark.parametrize("mode", ["random", "qmc", "qmc-noveech"])
def test_traces_are_deterministic(mode):
    cube = builtin("3-cube")
    spec = lambda: ExperimentSpec(cube, 3, 1, 300, mode, seed=5, trace_points=(100, 300))
    a, b = run(spec()), run(spec())
    assert a.points == b.points
    assert a.final == b.final


def test_partial_means_consistent():
    cube = builtin("3-cube")
    spec = ExperimentSpec(cube, 3, 1, 400, "qmc", trace_points=(50, 200, 400))
    trace = run(spec)
    seq = OrthoSequence(spec.ortho_spec())
    values = [hull_measure(cube.vertices @ seq.element(m)[:, 1:]) for m in range(1, 401)]
    for m, val in trace.points:
        assert val == pytest.approx(math.fsum(values[:m]) / m, abs=1e-13)
        assert trace.value_at(m) == val
    with pytest.raises(KeyError, match="m=51"):
        trace.value_at(51)


@pytest.mark.parametrize("mode", ["random", "qmc"])
def test_trace_across_block_boundary(mode):
    # frames are measured BLOCK at a time; the running means on both sides
    # of the first block boundary match per-sample hull measures summed exactly
    cube = builtin("3-cube")
    N = BLOCK + 1
    for k in (1, 2):
        spec = ExperimentSpec(cube, 3, k, N, mode, seed=9,
                              trace_points=(1, BLOCK - 1, BLOCK, N))
        trace = run(spec)
        if mode == "random":
            frames = random_ortho_batch(3, N, np.random.default_rng(9))
        else:
            frames = OrthoSequence(spec.ortho_spec()).take(N)
        values = [hull_measure(cube.vertices @ g[:, k:]) for g in frames]
        for m, val in trace.points:
            assert val == pytest.approx(math.fsum(values[:m]) / m, rel=0, abs=1e-13)
        assert trace.final == trace.value_at(N)


def test_estimates_are_bounded():
    poly = builtin("k-icosahedron")
    spec = ExperimentSpec(poly, 3, 2, 500, "random", seed=2)
    trace = run(spec)
    rng = np.random.default_rng(2)
    frames = random_ortho_batch(3, 500, rng)
    values = [hull_measure(poly.vertices @ frames[i][:, 2:]) for i in range(500)]
    assert 0.0 <= trace.final <= max(values)


def test_cube_converges_at_n1000():
    cube = builtin("3-cube")
    for k in (1, 2):
        trace = run(ExperimentSpec(cube, 3, k, 1000, "qmc"))
        assert abs(trace.final - 1.5) <= 0.02


def test_simplex_matches_shadow_area_oracle():
    simplex = builtin("3-simplex")
    trace = run(ExperimentSpec(simplex, 3, 1, 1000, "qmc"))
    assert abs(trace.final - simplex_mean_projection_area()) < 0.01


def test_intrinsic_volume_scaling():
    cube = builtin("3-cube")
    trace = run(ExperimentSpec(cube, 3, 1, 1000, "qmc"))
    # quarter of the surface area times c_{1,3} gives the surface area / 2
    assert trace.intrinsic == pytest.approx(3.0, abs=0.05)
    assert trace.intrinsic == crofton_constant(3, 1) * trace.final


def test_scaling_equivariance_exact():
    cube = builtin("3-cube")
    doubled = cube.scaled(2.0)
    for k, power in ((1, 2), (2, 1)):
        base = run(ExperimentSpec(cube, 3, k, 250, "qmc")).final
        big = run(ExperimentSpec(doubled, 3, k, 250, "qmc")).final
        assert abs(big / base - 2.0**power) < 1e-12


@pytest.mark.parametrize(
    "label", ["3-simplex", "3-cube", "k-icosahedron"]
)
def test_mode_agreement(label):
    poly = builtin(label)
    for k in (1, 2):
        quasi = run(ExperimentSpec(poly, 3, k, 10000, "qmc")).final
        rand = run(ExperimentSpec(poly, 3, k, 10000, "random", seed=11)).final
        assert abs(quasi - rand) / ((quasi + rand) / 2.0) < 0.03


def test_mode_agreement_random_polytopes():
    for count, seed in ((50, 501), (150, 502)):
        poly = random_spherical_polytope(3, count, seed)
        for k in (1, 2):
            quasi = run(ExperimentSpec(poly, 3, k, 10000, "qmc")).final
            rand = run(ExperimentSpec(poly, 3, k, 10000, "random", seed=11)).final
            assert abs(quasi - rand) / ((quasi + rand) / 2.0) < 0.03


def test_compare_report():
    cube = builtin("3-cube")
    specs = [
        ExperimentSpec(cube, 3, 1, 1000, "random", seed=3, trace_points=(10, 100, 1000)),
        ExperimentSpec(cube, 3, 1, 1000, "qmc", trace_points=(10, 100, 1000)),
    ]
    report = compare(specs, reference=1.5)
    assert isinstance(report, ComparisonReport)
    assert report.trace_points == (10, 100, 1000)
    assert set(report.values) == {"random", "qmc"}
    for mode in ("random", "qmc"):
        assert report.errors[mode][1000] < 0.03
        for m in report.trace_points:
            assert report.errors[mode][m] == abs(report.values[mode][m] - 1.5)


def test_compare_validation():
    cube = builtin("3-cube")
    simplex = builtin("3-simplex")
    with pytest.raises(ValueError):
        compare([], reference=1.0)
    with pytest.raises(ValueError):
        compare(
            [
                ExperimentSpec(cube, 3, 1, 100, "qmc"),
                ExperimentSpec(simplex, 3, 1, 100, "random"),
            ],
            reference=1.0,
        )
    with pytest.raises(ValueError):
        compare(
            [
                ExperimentSpec(cube, 3, 1, 100, "qmc", trace_points=(50,)),
                ExperimentSpec(cube, 3, 1, 100, "random", trace_points=(100,)),
            ],
            reference=1.0,
        )


def test_compare_rejects_repeated_mode():
    # results are keyed by mode: a repeated mode would silently drop a run
    cube = builtin("3-cube")
    specs = [ExperimentSpec(cube, 3, 1, 100, "random", seed=1),
             ExperimentSpec(cube, 3, 1, 100, "random", seed=2)]
    with pytest.raises(ValueError, match="random"):
        compare(specs, reference=1.5)


def test_reference_values():
    # exact: V_{n-k} of the body over the Crofton constant, which rounds
    assert reference_value("3-cube", 3, 1) == pytest.approx(1.5, rel=1e-14)
    assert reference_value("3-cube", 3, 2) == pytest.approx(1.5, rel=1e-14)
    assert reference_value("4-cube", 4, 3) == pytest.approx(16.0 / (3.0 * math.pi))
    assert reference_value("3-simplex", 3, 1) == pytest.approx(0.59150635, abs=1e-7)
    assert 1.0 < reference_value("3-simplex", 3, 2) < 1.2
    assert 450.0 < reference_value("k-icosahedron", 3, 1) < 460.0
    assert 24.5 < reference_value("k-icosahedron", 3, 2) < 25.5
    simplex4 = builtin("4-simplex").vertices
    assert reference_value("4-simplex", 4, 3) == (
        intrinsic_volume(simplex4, 1) / crofton_constant(4, 3)
    )
    with pytest.raises(ValueError):
        reference_value("5-cube", 4, 3)


def test_repair_count_reported():
    trace = run(ExperimentSpec(builtin("3-cube"), 3, 1, 200, "qmc"))
    assert trace.repair_count == 0  # no drift at this scale


def test_random_mode_memory_is_bounded():
    # 2e5 frames of O(4) are 25.6 MB; random mode draws them a block at a time
    spec = ExperimentSpec(builtin("4-cube"), 4, 3, 200_000, "random")
    tracemalloc.start()
    try:
        run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
