"""Uniformly distributed and Haar-random sequences in the orthogonal group.

The quasi-random construction follows the subgroup chain
O(n) > O(n-1) > ... > O(2).  At each level a sphere sequence supplies coset
representatives (reflections sending e_1 to x), the previous level supplies
subgroup elements, and a square-block convolution interleaves the two so
every index pair is eventually visited.  Optionally the Champernowne-digit
generator turns the interleaved sequence into cumulative products.  The
limit distribution is Haar either way: the coset map is continuous off the
null set {e_1}, so the interleaved sequence is uniformly distributed on its
own (the almost-continuity shortcut).  What the shortcut gives up is the
rate, since each level sees only the square root of the indices above it.

Level layout of the default spec: the O(2) base consumes the 2-D sequence
with bases (2, 3); the sphere feeding level i (i = 3..n) consumes the next
unused primes, so no 1-D coordinate stream is shared between levels.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterator

import numpy as np

from . import udsg
from .lowdisc import SequenceSpec, first_primes, point_at
from .sphere import input_dims, sphere_sequence

# Re-orthonormalize an accumulated product only past this defect.
_REPAIR_TOL = 1e-10
_UNIT_TOL = 1e-8
_E1_TOL = 1e-12


def o2_matrix(phi: float, sign: int) -> np.ndarray:
    """2x2 orthogonal matrix with rotation angle `phi` and determinant `sign`."""
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-sign * s, sign * c]])


def o2_element(spec: SequenceSpec, m: int) -> np.ndarray:
    """The m-th element of the O(2) base sequence.

    The first coordinate of the m-th cube point gives the angle (times 2 pi),
    the second the determinant sign via the threshold 1/2.
    """
    if spec.dims != 2:
        raise ValueError(f"the O(2) base needs a 2-D spec, got dims={spec.dims}")
    u = point_at(spec, m)
    sign = 1 if u[1] < 0.5 else -1
    return o2_matrix(2.0 * np.pi * u[0], sign)


def coset_rep(x: np.ndarray) -> np.ndarray:
    """Orthogonal matrix sending e_1 to the unit vector x.

    The identity when x = e_1; otherwise the reflection I - 2 v v^T / (v^T v)
    with v = e_1 - x.  The result is symmetric, involutive, and has
    determinant -1 away from e_1.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"need a vector in R^n, n >= 2, got shape {x.shape}")
    if abs(np.linalg.norm(x) - 1.0) > _UNIT_TOL:
        raise ValueError("input is not a unit vector")
    n = x.size
    v = -x.copy()
    v[0] += 1.0
    c = v @ v
    if np.sqrt(c) < _E1_TOL:
        return np.eye(n)
    return np.eye(n) - np.outer(v, 2.0 * v / c)


def convolution_index(m: int) -> tuple[int, int]:
    """Resolve flat index m >= 1 to the pair (i, j) of the square interleaving.

    With k the unique integer satisfying (k-1)^2 < m <= k^2, odd offsets give
    (k, i) and even offsets give (i, k); the first k^2 indices enumerate
    {1..k} x {1..k} exactly once.
    """
    if m < 1:
        raise ValueError(f"index must be >= 1, got {m}")
    k = isqrt(m - 1) + 1
    d = m - (k - 1) ** 2
    if d % 2 == 1:
        return k, (d + 1) // 2
    return d // 2, k


def _embed(h: np.ndarray) -> np.ndarray:
    out = np.eye(h.shape[0] + 1)
    out[1:, 1:] = h
    return out


def t_inverse(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Compose a coset representative for x with a subgroup element h.

    h (an (n-1)x(n-1) orthogonal matrix) is embedded as the block that fixes
    e_1; the result maps e_1 to x.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"subgroup element must be square, got shape {h.shape}")
    if x.size != h.shape[0] + 1:
        raise ValueError(
            f"dimension mismatch: x in R^{x.size} vs subgroup of size {h.shape[0]}"
        )
    return coset_rep(x) @ _embed(h)


@dataclass(frozen=True)
class OrthoSequenceSpec:
    """Layout of the O(n) sequence: one cube spec per recursion level.

    `sphere_specs[i-3]` feeds the sphere S^(i-1) used at level i;
    `base_spec` feeds the O(2) base.  `veech` switches the cumulative-product
    step on (True) or off (the almost-continuity shortcut).  Both are
    uniformly distributed, but the shortcut converges slowly: its first
    N = K^2 elements use only about N^(1/2^(n-i+1)) distinct sphere points
    at level i, and as many elements of level i-1.
    """

    n: int
    base_spec: SequenceSpec
    sphere_specs: tuple[SequenceSpec, ...] = ()
    veech: bool = True
    generator: udsg.GeneratorSpec = field(default_factory=udsg.GeneratorSpec)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.base_spec.dims != 2:
            raise ValueError("the O(2) base needs a 2-dimensional spec")
        if len(self.sphere_specs) != self.n - 2:
            raise ValueError(
                f"need {self.n - 2} sphere specs for levels 3..{self.n}, "
                f"got {len(self.sphere_specs)}"
            )
        for i, spec in enumerate(self.sphere_specs, start=3):
            if spec.dims != input_dims(i):
                raise ValueError(
                    f"level {i} sphere needs dims={input_dims(i)}, got {spec.dims}"
                )


def default_ortho_spec(
    n: int,
    *,
    kind: str = "scrambled-halton",
    permutation_seed: int = 0,
    skip: int = 0,
    veech: bool = True,
    generator: udsg.GeneratorSpec | None = None,
) -> OrthoSequenceSpec:
    """Standard level layout with disjoint prime bases across levels."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    need = 2 + sum(input_dims(i) for i in range(3, n + 1))
    primes = first_primes(need)
    base = SequenceSpec(kind, 2, tuple(primes[:2]), skip, permutation_seed)
    specs = []
    offset = 2
    for i in range(3, n + 1):
        d = input_dims(i)
        specs.append(SequenceSpec(kind, d, tuple(primes[offset : offset + d]), skip, permutation_seed))
        offset += d
    return OrthoSequenceSpec(
        n=n,
        base_spec=base,
        sphere_specs=tuple(specs),
        veech=veech,
        generator=generator if generator is not None else udsg.GeneratorSpec(),
    )


def _reorthonormalize(m: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on the columns."""
    q = m.copy()
    for j in range(q.shape[1]):
        for i in range(j):
            q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        q[:, j] /= np.linalg.norm(q[:, j])
    return q


def orthogonality_defect(m: np.ndarray) -> float:
    """max |M^T M - I|."""
    n = m.shape[0]
    return float(np.abs(m.T @ m - np.eye(n)).max())


class OrthoSequence:
    """Streaming view of the O(n) sequence defined by a spec.

    `element(m)` is 1-based.  Streamed consumption is cheap: the per-level
    interleaved elements and (with the generator step on) the cumulative
    products are cached, so advancing by one element costs a constant number
    of small matrix products.  Accumulated products whose orthogonality
    defect ever exceeds 1e-10 are re-orthonormalized; `repair_count` says
    how often that happened.
    """

    def __init__(self, spec: OrthoSequenceSpec):
        self.spec = spec
        self.repair_count = 0
        self._z: dict[int, dict[int, np.ndarray]] = {i: {} for i in range(3, spec.n + 1)}
        self._x: dict[int, dict[int, np.ndarray]] = {i: {} for i in range(3, spec.n + 1)}
        self._w: dict[int, list[np.ndarray]] = {i: [] for i in range(3, spec.n + 1)}
        # The generators reach the sequence through a weak reference: holding
        # it strongly would put every sequence in a reference cycle, and its
        # caches would outlive the last reference until a cyclic collection.
        this = weakref.ref(self)
        self._wgen: dict[int, Iterator[np.ndarray]] = {
            i: udsg.generated(
                (lambda lvl: lambda j: this()._z_at(lvl, j))(i),
                mul=lambda a, b: this()._checked_mul(a, b),
                identity=np.eye(i),
                spec=spec.generator,
            )
            for i in range(3, spec.n + 1)
        }

    def element(self, m: int) -> np.ndarray:
        """The m-th matrix of the sequence (a fresh array)."""
        if m < 1:
            raise ValueError(f"index must be >= 1, got {m}")
        return self._level(self.spec.n, m).copy()

    def take(self, count: int) -> np.ndarray:
        """Elements 1..count stacked into a (count, n, n) array."""
        return np.stack([self._level(self.spec.n, m) for m in range(1, count + 1)])

    def __iter__(self) -> Iterator[np.ndarray]:
        m = 1
        while True:
            yield self.element(m)
            m += 1

    def _level(self, lvl: int, m: int) -> np.ndarray:
        if lvl == 2:
            return o2_element(self.spec.base_spec, m)
        if self.spec.veech:
            ws = self._w[lvl]
            gen = self._wgen[lvl]
            while len(ws) < m:
                ws.append(next(gen))
            return ws[m - 1]
        return self._z_at(lvl, m)

    def _z_at(self, lvl: int, j: int) -> np.ndarray:
        cache = self._z[lvl]
        z = cache.get(j)
        if z is None:
            a, b = convolution_index(j)
            x = self._sphere_at(lvl, a)
            h = self._level(lvl - 1, b)
            z = self._checked(t_inverse(x, h))
            cache[j] = z
        return z

    def _sphere_at(self, lvl: int, a: int) -> np.ndarray:
        cache = self._x[lvl]
        x = cache.get(a)
        if x is None:
            x = sphere_sequence(lvl, self.spec.sphere_specs[lvl - 3], a)
            cache[a] = x
        return x

    def _checked_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._checked(a @ b)

    def _checked(self, m: np.ndarray) -> np.ndarray:
        if orthogonality_defect(m) > _REPAIR_TOL:
            self.repair_count += 1
            return _reorthonormalize(m)
        return m


def ortho_element(spec: OrthoSequenceSpec, m: int) -> np.ndarray:
    """The m-th matrix of the sequence, recomputed from scratch (pure)."""
    return OrthoSequence(spec).element(m)


def random_ortho(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random element of O(n) by the subgroup recursion.

    Uniform angle and fair sign for the O(2) base, then one normalized
    Gaussian direction per level composed through `t_inverse`.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    g = o2_matrix(rng.uniform(0.0, 2.0 * np.pi), 1 if rng.random() < 0.5 else -1)
    for lvl in range(3, n + 1):
        x = rng.standard_normal(lvl)
        norm = np.linalg.norm(x)
        while norm < 1e-12:
            x = rng.standard_normal(lvl)
            norm = np.linalg.norm(x)
        g = t_inverse(x / norm, g)
    return g


def random_ortho_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` independent Haar draws stacked into (count, n, n).

    Same recursion as `random_ortho`, vectorized over the batch (the stream
    of rng draws differs from repeated single draws).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    sign = np.where(rng.random(count) < 0.5, 1.0, -1.0)
    c, s = np.cos(phi), np.sin(phi)
    g = np.zeros((count, 2, 2))
    g[:, 0, 0] = c
    g[:, 0, 1] = s
    g[:, 1, 0] = -sign * s
    g[:, 1, 1] = sign * c
    for lvl in range(3, n + 1):
        x = rng.standard_normal((count, lvl))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        v = -x
        v[:, 0] += 1.0
        cc = np.einsum("mi,mi->m", v, v)
        refl = np.broadcast_to(np.eye(lvl), (count, lvl, lvl)).copy()
        ok = np.sqrt(cc) >= _E1_TOL
        refl[ok] -= 2.0 * v[ok, :, None] * v[ok, None, :] / cc[ok, None, None]
        emb = np.zeros((count, lvl, lvl))
        emb[:, 0, 0] = 1.0
        emb[:, 1:, 1:] = g
        g = refl @ emb
    return g
