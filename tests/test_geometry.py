import json
import math
from itertools import combinations, product

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from udortho.geometry import (
    Polytope,
    ball_volume,
    builtin,
    crofton_constant,
    cube_mean_projection_length_4d,
    hull_measure,
    intrinsic_volume,
    load_polytope,
    projection_measure,
    random_spherical_polytope,
    simplex_mean_projection_area,
)
from udortho.estimator import ExperimentSpec, run
from udortho.orthogonal import OrthoSequence, coset_rep, default_ortho_spec, random_ortho_batch


def polytope_to_dict(p):
    """A polytope as the JSON document `load_polytope` reads."""
    return {"n": p.n, "label": p.label, "vertices": p.vertices.tolist()}


KIRKMAN_EXPECTED = {
    tuple(v)
    for v in (
        [(9 * sx, 6 * sy, 6 * sz) for sx, sy, sz in product((1, -1), repeat=3)]
        + [(12 * sx, 4 * sy, 0) for sx, sy in product((1, -1), repeat=2)]
        + [(0, 12 * sy, 8 * sz) for sy, sz in product((1, -1), repeat=2)]
        + [(6 * sx, 0, 12 * sz) for sx, sz in product((1, -1), repeat=2)]
    )
}


# ---------------------------------------------------------------- catalog


def test_builtin_vertex_counts():
    assert builtin("3-cube").vertices.shape == (8, 3)
    assert builtin("3-simplex").vertices.shape == (4, 3)
    assert builtin("k-icosahedron").vertices.shape == (20, 3)
    assert builtin("4-cube").vertices.shape == (16, 4)
    assert builtin("4-simplex").vertices.shape == (5, 4)


def test_kirkman_vertices_exact():
    got = {tuple(int(c) for c in v) for v in builtin("k-icosahedron").vertices}
    assert got == KIRKMAN_EXPECTED


def test_builtin_unknown_label():
    with pytest.raises(ValueError):
        builtin("5-cube")


def test_random_spherical_polytope():
    poly = random_spherical_polytope(3, 50, seed=7)
    assert poly.vertices.shape == (50, 3)
    np.testing.assert_allclose(np.linalg.norm(poly.vertices, axis=1), 1.0, atol=1e-12)
    assert "seed7" in poly.label
    again = random_spherical_polytope(3, 50, seed=7)
    assert np.array_equal(poly.vertices, again.vertices)
    big = random_spherical_polytope(3, 150, seed=8)
    assert big.vertices.shape == (150, 3)
    with pytest.raises(ValueError):
        random_spherical_polytope(5, 50, seed=1)
    with pytest.raises(ValueError):
        random_spherical_polytope(3, 3, seed=1)


def test_polytope_validation():
    with pytest.raises(ValueError):
        Polytope(3, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        Polytope(2, np.array([[np.nan, 0.0]]))


def test_polytope_json_roundtrip(tmp_path):
    poly = builtin("3-simplex")
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(polytope_to_dict(poly)))
    loaded = load_polytope(path)
    assert loaded.label == poly.label
    assert np.array_equal(loaded.vertices, poly.vertices)
    with pytest.raises(ValueError):
        load_polytope({"label": "no-vertices"})
    assert load_polytope({**polytope_to_dict(poly), "n": 3.0}).n == 3


@pytest.mark.parametrize("n", [3.7, True, "3", None, float("inf")])
def test_load_polytope_refuses_a_non_integral_n(n):
    # "n": 3.7 is not a 3-polytope, and "n": true is not a 1-polytope
    with pytest.raises(ValueError, match="^n must be an integer"):
        load_polytope({**polytope_to_dict(builtin("3-simplex")), "n": n})


# ---------------------------------------------------------------- projection


def test_project_coordinate_planes():
    cube = builtin("3-cube")
    onto_xy = cube.vertices @ np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert hull_measure(onto_xy) == pytest.approx(1.0)
    onto_x = cube.vertices @ np.array([[1.0], [0.0], [0.0]])
    assert hull_measure(onto_x) == pytest.approx(1.0)


def test_project_diagonal_hexagon():
    # shadow of the unit cube along its main diagonal is a hexagon of area sqrt(3)
    cube = builtin("3-cube")
    diag = np.ones(3) / math.sqrt(3.0)
    basis = coset_rep(diag)[:, 1:]
    assert hull_measure(cube.vertices @ basis) == pytest.approx(math.sqrt(3.0), abs=1e-12)


# ---------------------------------------------------------------- hull measures


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def brute_area(pts: np.ndarray) -> float:
    """Independent 2-D hull area: drop every point lying in a triangle (or on
    a segment) of the others, then fan out the survivors by angle.

    Exact for grid-valued inputs, where every orientation predicate is an
    exact double-precision product."""
    pts = np.unique(np.asarray(pts, dtype=float), axis=0)
    if len(pts) < 3:
        return 0.0

    def in_triangle(p, a, b, c):
        if _cross2(b - a, c - a) == 0.0:
            return False  # degenerate; collinear containment is on_segment's job
        d1 = _cross2(b - a, p - a)
        d2 = _cross2(c - b, p - b)
        d3 = _cross2(a - c, p - c)
        has_neg = min(d1, d2, d3) < 0.0
        has_pos = max(d1, d2, d3) > 0.0
        return not (has_neg and has_pos)

    def on_segment(p, a, b):
        if _cross2(b - a, p - a) != 0.0:
            return False
        return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and (
            min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        )

    keep = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        dominated = any(
            in_triangle(p, a, b, c) for a, b, c in combinations(others, 3)
        ) or any(on_segment(p, a, b) for a, b in combinations(others, 2))
        if not dominated:
            keep.append(p)
    if len(keep) < 3:
        return 0.0
    keep = np.array(keep)
    center = keep.mean(axis=0)
    order = np.argsort(np.arctan2(keep[:, 1] - center[1], keep[:, 0] - center[0]))
    ring = keep[order]
    acc = 0.0
    for p, q in zip(ring, np.roll(ring, -1, axis=0)):
        acc += p[0] * q[1] - q[0] * p[1]
    return abs(acc) / 2.0


def brute_volume(pts: np.ndarray) -> float:
    """Independent 3-D hull volume: find every supporting plane by brute
    force, take the facet polygon area in-plane, and cone over an interior
    point (each plane counted once)."""
    pts = np.unique(np.asarray(pts, dtype=float), axis=0)
    if len(pts) < 4:
        return 0.0
    origin = pts.mean(axis=0)
    seen = set()
    vol = 0.0
    for a, b, c in combinations(range(len(pts)), 3):
        normal = np.cross(pts[b] - pts[a], pts[c] - pts[a])
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        side = (pts - pts[a]) @ normal
        if side.min() >= -1e-9:
            normal, side = -normal, -side
        if side.max() > 1e-9:
            continue  # not a supporting plane
        key = tuple(np.round(normal, 9)) + (round(float(pts[a] @ normal), 9),)
        if key in seen:
            continue
        seen.add(key)
        on_plane = pts[np.abs(side) <= 1e-9]
        helper = np.eye(3)[np.argmin(np.abs(normal))]
        t1 = np.cross(normal, helper)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(normal, t1)
        local = np.column_stack([(on_plane - pts[a]) @ t1, (on_plane - pts[a]) @ t2])
        height = float((pts[a] - origin) @ normal)
        vol += brute_area(local) * height / 3.0
    return vol


def test_hull_measure_examples():
    assert hull_measure(np.array([[0.0], [1.0], [0.5]])) == 1.0
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert hull_measure(square) == pytest.approx(1.0)
    assert hull_measure(builtin("3-cube").vertices) == pytest.approx(1.0)


def test_hull_measure_degenerate_inputs():
    assert hull_measure(np.array([[0.3]])) == 0.0
    collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert hull_measure(collinear) == 0.0
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    assert hull_measure(flat) == 0.0


def test_hull_measure_qhull_error_on_full_rank_propagates(monkeypatch):
    def failing_hull(pts):
        raise scipy.spatial.QhullError("forced failure")

    # geometry imports ConvexHull from scipy.spatial on each hull, so the
    # patch on the module is the one it sees
    monkeypatch.setattr(scipy.spatial, "ConvexHull", failing_hull)
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(scipy.spatial.QhullError):
        hull_measure(triangle)
    with pytest.raises(scipy.spatial.QhullError):
        hull_measure(builtin("3-cube").vertices)
    # a flat cloud still measures zero whatever qhull says
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    assert hull_measure(flat) == 0.0


grid_coord = st.integers(-80, 80).map(lambda v: v / 8.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(grid_coord, grid_coord), min_size=3, max_size=8))
def test_area_against_brute_force(coords):
    # grid coordinates keep every orientation predicate exact, so duplicate
    # and collinear configurations are decided identically by both routes
    pts = np.array(coords)
    assert hull_measure(pts) == pytest.approx(brute_area(pts), abs=1e-12)


def test_volume_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pts = rng.uniform(-1.0, 1.0, size=(rng.integers(4, 9), 3))
        assert hull_measure(pts) == pytest.approx(brute_volume(pts), abs=1e-9)
    assert brute_volume(builtin("3-cube").vertices) == pytest.approx(1.0)


def test_hull_measure_permutation_invariant():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-5.0, 5.0, size=(12, 2))
    base = hull_measure(pts)
    for _ in range(10):
        assert hull_measure(rng.permutation(pts)) == base


def test_hull_measure_rigid_motion_invariant():
    rng = np.random.default_rng(13)
    pts2 = rng.uniform(-2.0, 2.0, size=(10, 2))
    base2 = hull_measure(pts2)
    pts3 = rng.uniform(-2.0, 2.0, size=(10, 3))
    base3 = hull_measure(pts3)
    for seed in range(5):
        g2 = random_ortho_batch(2, 1, np.random.default_rng(seed))[0]
        shift2 = rng.uniform(-3.0, 3.0, size=2)
        assert hull_measure(pts2 @ g2.T + shift2) == pytest.approx(base2, abs=1e-9)
        g3 = random_ortho_batch(3, 1, np.random.default_rng(seed))[0]
        shift3 = rng.uniform(-3.0, 3.0, size=3)
        assert hull_measure(pts3 @ g3.T + shift3) == pytest.approx(base3, abs=1e-9)


def test_hull_measure_interior_point_monotone():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        pts = rng.uniform(-1.0, 1.0, size=(8, d))
        base = hull_measure(pts)
        centroid = pts.mean(axis=0, keepdims=True)
        assert abs(hull_measure(np.vstack([pts, centroid])) - base) <= 1e-12 * max(1.0, base)


def test_cauchy_cross_check():
    # average shadow area of the unit cube over uniform planes = surface / 4
    rng = np.random.default_rng(123)
    frames = random_ortho_batch(3, 100000, rng)
    verts = builtin("3-cube").vertices
    total = 0.0
    for i in range(frames.shape[0]):
        total += hull_measure(verts @ frames[i][:, 1:])
    mean = total / frames.shape[0]
    assert abs(mean - 1.5) / 1.5 < 0.01


# ---------------------------------------------------------------- batched kernel


def _kernel_bodies(n: int):
    cube = builtin(f"{n}-cube").vertices
    rng = np.random.default_rng(31 + n)
    crowded = np.vstack([cube, cube[:5], np.full((1, n), 0.5),
                         rng.uniform(0.2, 0.8, size=(10, n))])
    bodies = {
        "cube": cube,
        "simplex": builtin(f"{n}-simplex").vertices,
        "random-150": random_spherical_polytope(n, 150, seed=40 + n).vertices,
        "duplicate-and-interior": crowded,
    }
    if n == 3:
        # flat: no Cauchy facet sum, so k = 1 takes the per-sample path
        bodies["flat-square"] = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        )
    return bodies


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
@pytest.mark.parametrize("frames_from", ["random", "qmc"])
def test_projection_measure_matches_hull_measure(n, k, frames_from):
    count = 300
    if frames_from == "random":
        frames = random_ortho_batch(n, count, np.random.default_rng(7))
    else:
        frames = OrthoSequence(default_ortho_spec(n)).take(count)
    for label, verts in _kernel_bodies(n).items():
        got = projection_measure(verts, k)(frames)
        want = np.array([hull_measure(verts @ g[:, k:]) for g in frames])
        assert got.shape == (count,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=label)


def test_projection_measure_validation():
    with pytest.raises(ValueError):
        projection_measure(builtin("4-cube").vertices, 0)  # d = 4
    with pytest.raises(ValueError):
        projection_measure(builtin("3-cube").vertices, 3)


# ---------------------------------------------------------------- intrinsic volumes


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("n", [3, 4])
def test_intrinsic_volume_unit_cube(n):
    cube = builtin(f"{n}-cube").vertices
    for j in range(1, n):
        assert _rel(intrinsic_volume(cube, j), math.comb(n, j)) <= 1e-12


def test_intrinsic_volume_closed_forms():
    # the two cross-checks kept in geometry, and the unit 3-cube's 1.5
    assert _rel(intrinsic_volume(builtin("4-cube").vertices, 1) / crofton_constant(4, 3),
                cube_mean_projection_length_4d()) <= 1e-12
    assert _rel(intrinsic_volume(builtin("3-simplex").vertices, 2) / crofton_constant(3, 1),
                simplex_mean_projection_area()) <= 1e-12
    cube = builtin("3-cube").vertices
    for k in (1, 2):
        assert _rel(intrinsic_volume(cube, 3 - k) / crofton_constant(3, k), 1.5) <= 1e-12
    # standard simplices, face by face: edges at 0 have right angles between
    # their facet normals (gamma = 1/4 in R^3, an octant 1/8 in R^4); the
    # other edges and 2-faces meet the slanted facet
    s3 = builtin("3-simplex").vertices
    assert _rel(intrinsic_volume(s3, 1),
                3 / 4 + 3 * math.sqrt(2) * math.acos(-1 / math.sqrt(3)) / (2 * math.pi)) <= 1e-12
    s4 = builtin("4-simplex").vertices
    for j, want in ((1, 0.5 + 1.5 * math.sqrt(2)), (2, 0.75 + 2 / math.sqrt(3)), (3, 0.5)):
        assert _rel(intrinsic_volume(s4, j), want) <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_intrinsic_volume_is_homogeneous(n):
    verts = random_spherical_polytope(n, 30, seed=60 + n).vertices
    for j in range(1, n):
        base = intrinsic_volume(verts, j)
        for t in (0.5, 3.0):
            assert _rel(intrinsic_volume(t * verts, j), t**j * base) <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_intrinsic_volume_invariant_under_order_and_rigid_motion(n):
    rng = np.random.default_rng(70 + n)
    bodies = [builtin(f"{n}-cube").vertices, builtin(f"{n}-simplex").vertices,
              random_spherical_polytope(n, 30, seed=70 + n).vertices]
    for verts in bodies:
        g = random_ortho_batch(n, 1, rng)[0]
        moved = rng.permutation(verts) @ g.T + rng.uniform(-5.0, 5.0, size=n)
        for j in range(1, n):
            assert _rel(intrinsic_volume(moved, j), intrinsic_volume(verts, j)) <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_intrinsic_volume_coplanar_duplicate_and_interior_points(n):
    # points on the facets split them into more coplanar simplices; repeated
    # vertices, midpoints of vertex pairs and interior points change nothing
    rng = np.random.default_rng(80 + n)
    cube = builtin(f"{n}-cube").vertices
    on_facets = np.vstack([np.where(np.arange(n) == i, side, 0.5)
                           for i in range(n) for side in (0.0, 1.0)])
    midpoints = (cube[:, None] + cube[None]).reshape(-1, n) / 2.0
    crowded = np.vstack([cube, cube[:5], on_facets, midpoints,
                         rng.uniform(0.1, 0.9, size=(10, n))])
    # rotated, the pieces of a facet get normals whose dot product can round
    # below 1, so only the merge makes their angle 0
    for verts in (crowded, *(crowded @ g.T for g in random_ortho_batch(n, 4, rng))):
        for j in range(1, n):
            assert _rel(intrinsic_volume(verts, j), math.comb(n, j)) <= 1e-12


def test_intrinsic_volume_rejects_flat_bodies_and_bad_dimensions():
    square = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    cube_in_r4 = np.hstack([builtin("3-cube").vertices, np.zeros((8, 1))])
    for verts, j in ((square, 1), (square, 2), (cube_in_r4, 1), (cube_in_r4, 3),
                     (builtin("3-cube").vertices[:3], 1)):
        with pytest.raises(ValueError):
            intrinsic_volume(verts, j)
    with pytest.raises(ValueError):
        intrinsic_volume(builtin("3-cube").vertices, 3)
    with pytest.raises(ValueError):
        intrinsic_volume(builtin("4-cube").vertices, 0)
    with pytest.raises(ValueError):
        intrinsic_volume(np.vstack([np.zeros(5), np.eye(5)]), 2)


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_intrinsic_volume_matches_random_run(n, k):
    # the Crofton mean of random-mode run() converges to V_{n-k}; its
    # standard error comes from the same frames
    N, seed = 5000, 90 + n + k
    body = random_spherical_polytope(n, 30, seed=seed)
    trace = run(ExperimentSpec(body, n, k, N, "random", seed=seed))
    samples = projection_measure(body.vertices, k)(
        random_ortho_batch(n, N, np.random.default_rng(seed)))
    assert trace.final == pytest.approx(samples.mean(), rel=1e-12)
    c = crofton_constant(n, k)
    stderr = c * samples.std() / math.sqrt(N)
    assert abs(trace.intrinsic - intrinsic_volume(body.vertices, n - k)) <= 6.0 * stderr


# ---------------------------------------------------------------- constants


def test_ball_volumes():
    assert ball_volume(0) == pytest.approx(1.0)
    assert ball_volume(1) == pytest.approx(2.0)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    with pytest.raises(ValueError):
        ball_volume(-1)


def test_crofton_constants():
    assert crofton_constant(3, 1) == pytest.approx(2.0)
    assert crofton_constant(3, 2) == pytest.approx(2.0)
    assert crofton_constant(4, 3) == pytest.approx(3.0 * math.pi / 4.0)
    assert crofton_constant(4, 3) * (16.0 / (3.0 * math.pi)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        crofton_constant(3, 3)
    with pytest.raises(ValueError):
        crofton_constant(3, -1)
