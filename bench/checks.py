"""Reference values computed apart from udortho, for the benchmark's checks.

Nothing here calls the parts of udortho a check is about.  Haar frames come
from the QR decomposition of Gaussian matrices, projection measures from
closed forms (Cauchy's formula, zonotope volumes, widths), intrinsic volumes
of 3-polytopes from scipy's convex hull, and the no-Veech O(n) elements from
the reflection I - 2 v v^T / (v^T v) built here.  Only the cube points of
`udortho.lowdisc.points` are taken from the program, as the input that the
sphere and coset stages consume.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull

# A Monte Carlo estimate is accepted within Z standard errors of its
# reference: a false alarm has a chance of about 2e-9 per check.
Z = 6.0
# The Veech products are a walk on O(n) driven by a few dozen distinct
# factors, so their error at N is not that of N independent Haar draws.
# Over 184 scramblings at N = 20 000, the G(4, 2) mean projector deviated by
# a median of 2.3 and at most 16 Haar standard errors (0.032); frames that
# skip the products deviate by 36 (0.074).
Z_PROJECTOR = 25.0
ORTHO_TOL = 1e-10
ELEMENT_TOL = 1e-12
MC_CHUNK = 10_000


def ball_volume(j: int) -> float:
    return math.pi ** (j / 2.0) / math.gamma(j / 2.0 + 1.0)


def crofton(n: int, k: int) -> float:
    """binom(n, k) b_n / (b_k b_(n-k)): subspace mean of vol(K | L_perp) to V_(n-k)."""
    return math.comb(n, k) * ball_volume(n) / (ball_volume(k) * ball_volume(n - k))


def haar_frames(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Haar-distributed (count, n, n) orthogonal matrices: QR of a Gaussian
    matrix with the signs of diag(R) moved into Q (Mezzadri 2007)."""
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


# --- projection measures of one body, vectorized over a batch of bases -----

def width_measure(verts: np.ndarray):
    def f(bases: np.ndarray) -> np.ndarray:
        proj = np.einsum("vi,mi->mv", verts, bases[:, :, 0])
        return proj.max(axis=1) - proj.min(axis=1)
    return f


def cauchy_area_measure(verts: np.ndarray):
    """Area of the shadow of a 3-polytope on a plane with unit normal u:
    (1/2) sum over facets F of area(F) |<n_F, u>|."""
    hull = ConvexHull(verts)
    normals = hull.equations[:, :3]
    tri = verts[hull.simplices]
    areas = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)

    def f(bases: np.ndarray) -> np.ndarray:
        u = np.cross(bases[:, :, 0], bases[:, :, 1])
        return 0.5 * np.abs(u @ normals.T) @ areas
    return f


def cube_zonotope_measure(n: int, d: int):
    """d-volume of the shadow of the unit n-cube, a zonotope: the sum of
    |det| over the d-row minors of the n x d basis."""
    minors = [list(c) for c in combinations(range(n), d)]

    def f(bases: np.ndarray) -> np.ndarray:
        return sum(np.abs(np.linalg.det(bases[:, rows, :])) for rows in minors)
    return f


def measure_for(verts: np.ndarray, n: int, k: int, cube: bool):
    d = n - k
    if d == 1:
        return width_measure(verts)
    if cube:
        return cube_zonotope_measure(n, d)
    if n == 3 and d == 2:
        return cauchy_area_measure(verts)
    raise ValueError(f"no independent measure for a non-cube body at (n, d)=({n}, {d})")


def polytope_v2_v1(verts: np.ndarray) -> tuple[float, float]:
    """Exact V_2 and V_1 of a 3-polytope: half its surface area, and
    (1/2 pi) sum over edges of length times the angle between the outward
    normals of the two facets meeting there (pi minus the dihedral angle).
    Triangulated coplanar facets meet at angle 0 and add nothing."""
    hull = ConvexHull(verts)
    normals = hull.equations[:, :3]
    v1 = 0.0
    for i, nbrs in enumerate(hull.neighbors):
        for j in nbrs:
            if j <= i:
                continue
            a, b = set(hull.simplices[i]) & set(hull.simplices[j])
            angle = math.acos(min(1.0, max(-1.0, float(normals[i] @ normals[j]))))
            v1 += float(np.linalg.norm(verts[a] - verts[b])) * angle
    return hull.area / 2.0, v1 / (2.0 * math.pi)


class Reference:
    """Intrinsic volume V_(n-k) of one body with the per-sample spread of the
    Crofton estimator, from `samples` Haar frames of the given generator.

    `exact` is a closed-form V_(n-k); without one the Monte Carlo mean is the
    reference and its own standard error joins the tolerance."""

    def __init__(self, verts, n, k, rng, *, cube=False, exact=None, samples=100_000):
        measure = measure_for(np.asarray(verts, dtype=float), n, k, cube)
        c = crofton(n, k)
        total = total_sq = 0.0
        done = 0
        while done < samples:
            m = min(MC_CHUNK, samples - done)
            vals = c * measure(haar_frames(rng, m, n)[:, :, k:])
            total += float(vals.sum())
            total_sq += float(vals @ vals)
            done += m
        mean = total / samples
        self.sigma = math.sqrt(max(total_sq / samples - mean * mean, 0.0))
        if exact is None:
            self.value, self.error = mean, self.sigma / math.sqrt(samples)
        else:
            self.value, self.error = float(exact), 0.0

    def tolerance(self, N: int) -> float:
        return Z * math.sqrt(self.sigma**2 / N + self.error**2)

    def problem(self, what: str, estimate: float, N: int) -> str | None:
        """None when `estimate` (an intrinsic volume from N samples) is
        within tolerance, else a description of the miss."""
        tol = self.tolerance(N)
        if abs(estimate - self.value) <= tol:
            return None
        return (f"{what}: estimate {estimate:.9g} misses reference {self.value:.9g} "
                f"by {abs(estimate - self.value):.3g} > {tol:.3g} (N={N})")


def body_reference(verts, n: int, k: int, rng, *, cube: bool) -> Reference:
    """Reference V_(n-k): C(n, n-k) for the unit n-cube, `polytope_v2_v1`
    for a 3-polytope, the Monte Carlo mean otherwise."""
    if cube:
        exact = float(math.comb(n, n - k))
    elif n == 3:
        exact = polytope_v2_v1(np.asarray(verts, dtype=float))[0 if n - k == 2 else 1]
    else:
        exact = None
    return Reference(verts, n, k, rng, cube=cube, exact=exact)


# --- O(n) frames ----------------------------------------------------------

def frame_problems(what: str, frames: np.ndarray) -> list[str]:
    """Orthogonality defect max|G^T G - I| and |det G| - 1 of every frame."""
    n = frames.shape[-1]
    defect = float(np.abs(np.einsum("mij,mik->mjk", frames, frames) - np.eye(n)).max())
    det = float(np.abs(np.abs(np.linalg.det(frames)) - 1.0).max())
    out = []
    if not defect <= ORTHO_TOL:
        out.append(f"{what}: orthogonality defect {defect:.3g} > {ORTHO_TOL}")
    if not det <= ORTHO_TOL:
        out.append(f"{what}: |det| differs from 1 by {det:.3g}")
    return out


def projector_problem(what: str, bases: np.ndarray) -> str | None:
    """The mean projector B B^T of N subspaces of a uniformly distributed
    sequence on G(n, k) tends to (k/n) I; accept a deviation of Z_PROJECTOR
    Haar standard errors of the worst entry.  For a Haar-random rank-k
    projector in R^n, Var P_ii = 2k(n-k) / (n^2 (n+2)) and, for i != j,
    Var P_ij = k(n-k) / (n (n-1) (n+2))."""
    count, n, k = bases.shape
    mean = np.einsum("mik,mjk->ij", bases, bases) / count
    dev = float(np.abs(mean - (k / n) * np.eye(n)).max())
    var = max(2 * k * (n - k) / (n * n * (n + 2)), k * (n - k) / (n * (n - 1) * (n + 2)))
    tol = Z_PROJECTOR * math.sqrt(var / count)
    if dev <= tol:
        return None
    return f"{what}: mean projector deviates from (k/n) I by {dev:.3g} > {tol:.3g}"


def interleave(m: int) -> tuple[int, int]:
    """Square interleaving of the pairs (a, b): with (K-1)^2 < m <= K^2 and
    d = m - (K-1)^2, odd d gives (K, (d+1)/2) and even d gives (d/2, K)."""
    K = math.isqrt(m - 1) + 1
    d = m - (K - 1) ** 2
    return (K, (d + 1) // 2) if d % 2 else (d // 2, K)


class NoVeechReference:
    """Elements of the O(n) sequence without the cumulative-product step,
    rebuilt level by level: element m of level i is R(x_a) diag(1, h_b),
    with (a, b) = interleave(m), x_a the a-th Box-Muller sphere point of
    level i, h_b element b of level i - 1 and R(x) the reflection
    I - 2 v v^T / (v^T v), v = e_1 - x, which sends e_1 to x."""

    def __init__(self, spec, points):
        self.spec = spec
        self.points = points  # udortho.lowdisc.points: the cube-point input

    def element(self, lvl: int, m: int) -> np.ndarray:
        if lvl == 2:
            u = self.points(self.spec.base_spec, 1, m)[0]
            phi, sign = 2.0 * math.pi * u[0], (1.0 if u[1] < 0.5 else -1.0)
            c, s = math.cos(phi), math.sin(phi)
            return np.array([[c, s], [-sign * s, sign * c]])
        a, b = interleave(m)
        x = self._sphere(lvl, a)
        v = -x
        v[0] += 1.0
        vv = float(v @ v)
        refl = np.eye(lvl) if vv == 0.0 else np.eye(lvl) - 2.0 * np.outer(v, v) / vv
        emb = np.eye(lvl)
        emb[1:, 1:] = self.element(lvl - 1, b)
        return refl @ emb

    def _sphere(self, lvl: int, a: int) -> np.ndarray:
        u = self.points(self.spec.sphere_specs[lvl - 3], 1, a)[0]
        p = np.clip(u[0::2], 2.0**-53, 1.0 - 2.0**-53)
        r, angle = np.sqrt(-np.log(p)), 2.0 * math.pi * u[1::2]
        g = np.column_stack([r * np.cos(angle), r * np.sin(angle)]).ravel()
        if lvl % 2:
            g = g[1:]
        return g / np.linalg.norm(g)


def noveech_problems(what: str, frames: np.ndarray, ref: NoVeechReference, indices) -> list[str]:
    n = frames.shape[-1]
    worst = max(float(np.abs(frames[m - 1] - ref.element(n, m)).max()) for m in indices)
    if worst <= ELEMENT_TOL:
        return []
    return [f"{what}: element differs from R(x_a) diag(1, h_b) by {worst:.3g} > {ELEMENT_TOL}"]
