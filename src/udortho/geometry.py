"""Polytopes, orthogonal projections, hull measures, and Crofton constants.

The estimation pipeline only ever needs the d-dimensional volume of a
projected vertex cloud for d <= 3.  `hull_measure` gives it for one cloud:
interval length for d = 1, qhull's hull volume for d = 2 and 3.  Flat
inputs are legal and measure zero; any other qhull failure raises.
`projection_measure` gives it for a block of frames at once, in closed form
where one exists (widths for d = 1, Cauchy's facet sum for d = n - 1) and
through `hull_measure` otherwise.  It is the one projection path: the
shadow on span(B) of an orthonormal basis B is the hull of `vertices @ B`,
so bases are plain arrays and geometry imports no other udortho module.

`intrinsic_volume` gives the exact V_j of a full-dimensional polytope in
n <= 4 from one hull, by the external-angle formula; these are the values
the Crofton estimates converge to.  `simplex_mean_projection_area` and
`cube_mean_projection_length_4d` are independent closed forms for two of
them, kept as cross-checks.

qhull (`scipy.spatial`) is imported inside the three functions that build a
hull, so it loads at the first hull and not with the package: it takes
most of udortho's import time.  Sequence output (`gen sphere`, `gen ortho`,
`gen grassmann`, `gen udsg`) and d = 1 (width) estimates never load it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, factorial, gamma, pi, sqrt
from numbers import Real
from pathlib import Path
from typing import Callable

import numpy as np

# Relative tolerance of the rank test in `_is_flat`.
_FLAT_REL_TOL = 1e-12

# Largest coordinate difference of two unit normals of one facet in
# `intrinsic_volume`.
_FACET_TOL = 1e-9

BUILTIN_LABELS = ("3-cube", "3-simplex", "k-icosahedron", "4-cube", "4-simplex")


@dataclass
class Polytope:
    """Finite vertex list in R^n; the convex hull is implied."""

    n: int
    vertices: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.n:
            raise ValueError(f"vertices must be (count, {self.n}), got shape {v.shape}")
        if v.shape[0] < 1:
            raise ValueError("need at least one vertex")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        self.vertices = v

    def scaled(self, factor: float) -> "Polytope":
        return Polytope(self.n, self.vertices * factor, f"{self.label}*{factor:g}")


def _cube(n: int) -> np.ndarray:
    return np.array(list(product((0.0, 1.0), repeat=n)))


def _simplex(n: int) -> np.ndarray:
    return np.vstack([np.zeros(n), np.eye(n)])


def _kirkman_icosahedron() -> np.ndarray:
    rows = []
    for sx, sy, sz in product((1, -1), repeat=3):
        rows.append((9 * sx, 6 * sy, 6 * sz))
    for sx, sy in product((1, -1), repeat=2):
        rows.append((12 * sx, 4 * sy, 0))
    for sy, sz in product((1, -1), repeat=2):
        rows.append((0, 12 * sy, 8 * sz))
    for sx, sz in product((1, -1), repeat=2):
        rows.append((6 * sx, 0, 12 * sz))
    return np.array(rows, dtype=float)


def builtin(label: str) -> Polytope:
    """Catalog polytope by label: unit cubes, standard simplices, and the
    20-vertex Kirkman icosahedron."""
    if label == "3-cube":
        return Polytope(3, _cube(3), label)
    if label == "4-cube":
        return Polytope(4, _cube(4), label)
    if label == "3-simplex":
        return Polytope(3, _simplex(3), label)
    if label == "4-simplex":
        return Polytope(4, _simplex(4), label)
    if label == "k-icosahedron":
        return Polytope(3, _kirkman_icosahedron(), label)
    raise ValueError(f"unknown polytope label {label!r}")


def random_spherical_polytope(n: int, count: int, seed: int) -> Polytope:
    """`count` uniform points on S^(n-1); the seed is part of the label."""
    if n not in (3, 4):
        raise ValueError(f"random spherical polytopes are built for n in (3, 4), got {n}")
    if count < n + 1:
        raise ValueError(f"need at least {n + 1} vertices, got {count}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return Polytope(n, v, f"r-polytope-{n}d-{count}v-seed{seed}")


def load_polytope(source: str | Path | dict) -> Polytope:
    """Polytope from a JSON document {"n": ..., "label": ..., "vertices": [[...]]}.

    n must be an integral number (3 or 3.0, not 3.7, true or "3")."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError("polytope document must be a JSON object")
    missing = {"n", "vertices"} - doc.keys()
    if missing:
        raise ValueError(f"polytope document lacks keys: {sorted(missing)}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, Real) or not float(n).is_integer():
        raise ValueError(f"n must be an integer, got {n!r}")
    return Polytope(int(n), np.asarray(doc["vertices"], dtype=float), str(doc.get("label", "")))


def _is_flat(pts: np.ndarray) -> bool:
    """Whether the cloud spans fewer than pts.shape[1] dimensions: its d-th
    centred singular value is at most _FLAT_REL_TOL times its largest."""
    d = pts.shape[1]
    s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return s.size < d or s[d - 1] <= _FLAT_REL_TOL * s[0]


def hull_measure(pts: np.ndarray) -> float:
    """d-volume of the convex hull of a point cloud, d = pts.shape[1] in 1..3.

    d = 1 is the length max - min; d = 2 and 3 take qhull's hull volume,
    importing `scipy.spatial` at the first such call.  A flat cloud (rank
    below d, see `_is_flat`) measures 0.0; a `QhullError` on a cloud of full
    rank is a real failure and propagates.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be a (count, d) array, got shape {pts.shape}")
    d = pts.shape[1]
    if d == 1:
        return float(pts.max() - pts.min())
    if d not in (2, 3):
        raise ValueError(f"hull measures are implemented for d in 1..3, got {d}")
    # rows in lexicographic order: the result does not depend on the input order
    pts = pts[np.lexsort(pts.T[::-1])]
    if pts.shape[0] <= d:
        return 0.0
    from scipy.spatial import ConvexHull, QhullError

    try:
        return float(ConvexHull(pts).volume)
    except QhullError:
        if _is_flat(pts):
            return 0.0
        raise


def projection_measure(vertices: np.ndarray, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """Batched shadow measure of K = conv(vertices) in R^n.

    Returns a function mapping a block of frames g, shape (B, n, n), to the
    B values vol_d(K | span g[:, k:]), d = n - k, each equal to
    `hull_measure(vertices @ g[:, k:])`.  The evaluation is chosen here, once:

    - d = 1: the width max - min of the vertices along g[:, k];
    - d = n - 1 with K full-dimensional: Cauchy's projection formula
      vol(K | u_perp) = 1/2 sum_F vol(F) |<n_F, u>|, u = g[:, 0], over the
      simplicial facets F of one qhull hull of K, so a block costs one
      (facets x n) x (n x B) product;
    - otherwise, (4, 2) and flat bodies among them: `hull_measure` per frame.
    """
    verts = np.asarray(vertices, dtype=float)
    n = verts.shape[1]
    d = n - k
    if not 0 <= k < n or d > 3:
        raise ValueError(f"need 0 <= k < n and n - k <= 3, got n={n}, k={k}")

    if d == 1:
        def width(frames: np.ndarray) -> np.ndarray:
            proj = verts @ frames[:, :, k].T
            return proj.max(axis=0) - proj.min(axis=0)

        return width

    if k == 1 and not _is_flat(verts):
        from scipy.spatial import ConvexHull

        facets = verts[ConvexHull(verts).simplices]
        edges = facets[:, 1:] - facets[:, :1]
        # vol(F) n_F is the generalized cross product of the edges / (n-1)!
        area = np.stack(
            [(-1) ** i * np.linalg.det(np.delete(edges, i, axis=2)) for i in range(n)],
            axis=1,
        ) / factorial(n - 1)

        def cauchy(frames: np.ndarray) -> np.ndarray:
            dots = np.abs(area @ frames[:, :, 0].T)
            return 0.5 * dots.sum(axis=0)

        return cauchy

    def per_frame(frames: np.ndarray) -> np.ndarray:
        return np.array([hull_measure(verts @ g[:, k:]) for g in frames])

    return per_frame


def _solid_angle(normals: np.ndarray, edge: np.ndarray) -> float:
    """Solid angle of the cone over the outer unit normals of the simplices
    around an edge of a triangulated 4-polytope boundary; all are orthogonal
    to `edge`.

    In the 3-d complement of the edge the normals are sorted by angle about
    their mean direction c, which lies inside the cone, and the cone is the
    fan of triangles (c, a, b) over consecutive normals a, b, each measured
    by Van Oosterom and Strackee's formula.  Repeated normals (simplices of
    one facet) give empty triangles, so an edge inside a 2-face or a facet,
    whose cone is flat, adds nothing.
    """
    u = normals @ np.linalg.svd(edge[None])[2][1:].T
    c = u.sum(axis=0)
    c /= np.linalg.norm(c)
    t = np.linalg.svd(c[None])[2][1:]
    a = u[np.argsort(np.arctan2(u @ t[1], u @ t[0]))]
    b = np.roll(a, -1, axis=0)
    det = np.abs(np.cross(a, b) @ c)
    return float(2.0 * np.arctan2(det, 1.0 + a @ c + b @ c + (a * b).sum(axis=1)).sum())


def intrinsic_volume(vertices: np.ndarray, j: int) -> float:
    """Intrinsic volume V_j of the full-dimensional polytope P = conv(vertices)
    in R^n, for n <= 4 and 1 <= j <= n - 1.

    V_j(P) is the sum over the j-faces F of vol_j(F) gamma(F, P), where the
    external angle gamma(F, P) is the share of the unit sphere in the
    orthogonal complement of F taken by F's normal cone (Schneider and Weil,
    Stochastic and Integral Geometry, 2008).  Everything comes from one qhull
    hull of P, whose triangulated simplices tile the facets:

    - j = n - 1: half the surface area;
    - j = n - 2: the (n-2)-simplices shared by neighbouring simplices of two
      different facets, each times the angle between their outer normals
      over 2 pi;
    - j = 1 in R^4: each edge times the solid angle of the cone over the
      outer normals of the simplices around it over 4 pi (`_solid_angle`).

    Two simplices lie in one facet when their unit normals agree within
    _FACET_TOL in every coordinate; the ridges inside a facet are skipped,
    so its pieces add 0 exactly.  A flat body raises ValueError.
    """
    verts = np.asarray(vertices, dtype=float)
    n = verts.shape[1]
    if not 2 <= n <= 4 or not 1 <= j <= n - 1:
        raise ValueError(f"need 2 <= n <= 4 and 1 <= j <= n - 1, got n={n}, j={j}")
    if _is_flat(verts):
        raise ValueError(f"the body does not span R^{n}")
    from scipy.spatial import ConvexHull

    hull = ConvexHull(verts)
    if j == n - 1:
        return hull.area / 2.0
    simplices, normals = hull.simplices, hull.equations[:, :-1]

    if j == n - 2:
        nbrs = hull.neighbors
        apart = np.abs(normals[:, None] - normals[nbrs]).max(axis=2) > _FACET_TOL
        # neighbour p of simplex i is across the ridge without its p-th vertex
        i, p = np.nonzero(apart & (nbrs > np.arange(len(nbrs))[:, None]))
        ridges = verts[simplices[i][np.arange(n) != p[:, None]].reshape(-1, n - 1)]
        legs = ridges[:, 1:] - ridges[:, :1]
        vol = np.sqrt(np.linalg.det(legs @ legs.mT)) / factorial(n - 2)
        cos = np.einsum("ij,ij->i", normals[i], normals[nbrs[i, p]])
        return float(vol @ np.arccos(np.clip(cos, -1.0, 1.0))) / (2.0 * pi)
    pairs = np.sort(simplices[:, list(combinations(range(n), 2))], axis=2).reshape(-1, 2)
    edges, edge_of = np.unique(pairs, axis=0, return_inverse=True)
    order = np.argsort(edge_of.ravel(), kind="stable")
    owners = np.split(order // comb(n, 2), np.cumsum(np.bincount(edge_of.ravel()))[:-1])
    total = 0.0
    for (a, b), owner in zip(edges, owners):
        e = verts[b] - verts[a]
        total += float(np.linalg.norm(e)) * _solid_angle(normals[owner], e)
    return total / (4.0 * pi)


def ball_volume(j: int) -> float:
    """Volume of the j-dimensional unit ball."""
    if j < 0:
        raise ValueError(f"dimension must be >= 0, got {j}")
    return pi ** (j / 2.0) / gamma(j / 2.0 + 1.0)


def crofton_constant(n: int, k: int) -> float:
    """Normalization c = binom(n, k) b_n / (b_k b_{n-k}) turning subspace
    averages of projection volumes into intrinsic volumes."""
    if n < 1 or not 0 <= k <= n - 1:
        raise ValueError(f"need n >= 1 and 0 <= k <= n-1, got n={n}, k={k}")
    return comb(n, k) * ball_volume(n) / (ball_volume(k) * ball_volume(n - k))


def simplex_mean_projection_area() -> float:
    """Mean shadow area of the standard 3-simplex: surface area / 4."""
    return (1.5 + sqrt(3.0) / 2.0) / 4.0


def cube_mean_projection_length_4d() -> float:
    """Mean 1-D shadow of the unit 4-cube: E sum |u_i| = 16 / (3 pi) on S^3."""
    return 16.0 / (3.0 * pi)
