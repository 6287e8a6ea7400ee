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
Which cube sequence feeds which level is fixed by `OrthoSequenceSpec`.

Every step is computed a block of indices at a time.  Indices fall on a
fixed grid of blocks of BLOCK (1..BLOCK, BLOCK+1..2 BLOCK, ...).  Without
the generator step a frame depends on its index alone, and the top level
is read _SPAN_BLOCKS grid blocks at a time.  With it, the products of a
block come from a two-level scan over the block's factors laid out as
rows: prefix products within each row by a left fold along its columns,
one scan of the row totals started from the last product of the block
before, and one batched product putting each row behind everything before
it (Blelloch 1990), so a frame is a pure function of (spec, index) however
the sequence is read.
A sequence keeps, per level, prefix tables of its sphere points and of its
interleaved elements, each computed once; they grow by doubling to cover
the largest index met, and an index past twice a table's length plus BLOCK
is computed directly and not stored.  With the generator step the element
table holds the factors z_r for the gaps r met, and the level its last
block of products, so memory does not grow with the number of frames read.
Without it the element table of each level below n serves the level above.
Reading N frames, the tables that level n reads (its sphere points and the
elements of level n-1) then hold at most about 2 sqrt(N) rows each, and
those that level n-1 reads about 2 N^(1/4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import isqrt
from typing import Iterator

import numpy as np

from . import udsg
from .lowdisc import SequenceSpec, check_integer, check_range, first_primes, points
from .sphere import input_dims, sphere_points

# Indices per block of the sequence, and frames per block of `estimator.run`.
BLOCK = 512

# The Veech scan takes a block as rows of this many factors.
_SCAN_COLS = 8

# Without the generator step, `frames` reads the top level this many grid
# blocks at a time.
_SPAN_BLOCKS = 4

# Re-orthonormalize a frame only past this defect.
_REPAIR_TOL = 1e-10
_UNIT_TOL = 1e-8
_E1_TOL = 1e-12


def _o2_batch(phi: np.ndarray, sign: np.ndarray) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    g = np.empty((c.size, 2, 2))
    g[:, 0, 0] = c
    g[:, 0, 1] = s
    g[:, 1, 0] = -sign * s
    g[:, 1, 1] = sign * c
    return g


def _rows_at(read, idx: np.ndarray) -> np.ndarray:
    """Rows of a sequence at the 1-based indices idx, where read(count, start)
    gives rows start..start+count-1: one read per run of consecutive indices
    among them, so indices far apart do not read the rows between them."""
    runs, inverse = np.unique(idx, return_inverse=True)
    cuts = np.flatnonzero(np.diff(runs) != 1) + 1
    return np.concatenate([read(len(run), int(run[0])) for run in np.split(runs, cuts)])[inverse]


def _o2_elements(spec: SequenceSpec, idx: np.ndarray) -> np.ndarray:
    """The O(2) base at the 1-based indices idx: the first coordinate of each
    cube point gives the angle (times 2 pi), the second the determinant sign
    via the threshold 1/2."""
    u = _rows_at(lambda count, start: points(spec, count, start), idx)
    return _o2_batch(2.0 * np.pi * u[:, 0], np.where(u[:, 1] < 0.5, 1.0, -1.0))


def _cosets(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """R(x) diag(1, h) for each row x of (count, n) and each h of (count, n-1, n-1).

    R(x) = I - 2 v v^T / (v^T v) with v = e_1 - x is the reflection sending
    e_1 to x, or I where |v| < _E1_TOL.  The product is computed as the
    rank-1 update E - (2 / v^T v) v (v^T E) of E = diag(1, h), so no
    reflection matrix is formed.
    """
    count, n = x.shape
    v = -x
    v[:, 0] += 1.0
    cc = np.einsum("mi,mi->m", v, v)
    scale = np.divide(2.0, cc, out=np.zeros(count), where=np.sqrt(cc) >= _E1_TOL)
    vte = np.empty((count, n))
    vte[:, 0] = v[:, 0]
    vte[:, 1:] = np.einsum("mi,mij->mj", v[:, 1:], h)
    e = np.zeros((count, n, n))
    e[:, 0, 0] = 1.0
    e[:, 1:, 1:] = h
    e -= np.einsum("mi,mj->mij", scale[:, None] * v, vte)
    return e


def _unit_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"need a vector in R^n, n >= 2, got shape {x.shape}")
    if abs(np.linalg.norm(x) - 1.0) > _UNIT_TOL:
        raise ValueError("input is not a unit vector")
    return x


def coset_rep(x: np.ndarray) -> np.ndarray:
    """Orthogonal matrix sending e_1 to the unit vector x.

    The identity when x = e_1; otherwise the reflection I - 2 v v^T / (v^T v)
    with v = e_1 - x.  The result is symmetric, involutive, and has
    determinant -1 away from e_1.
    """
    x = _unit_vector(x)
    return _cosets(x[None], np.eye(x.size - 1)[None])[0]


def convolution_index(m: int) -> tuple[int, int]:
    """Resolve flat index m >= 1 to the pair (i, j) of the square interleaving.

    With k the unique integer satisfying (k-1)^2 < m <= k^2, odd offsets give
    (k, i) and even offsets give (i, k); the first k^2 indices enumerate
    {1..k} x {1..k} exactly once.
    """
    m = check_integer("index", m, 1)
    k = isqrt(m - 1) + 1
    d = m - (k - 1) ** 2
    if d % 2 == 1:
        return k, (d + 1) // 2
    return d // 2, k


def convolution_indices(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`convolution_index` over an array of flat indices, 1 <= m <= 9.2e18.

    k - 1 = isqrt(m - 1) comes from a float square root, which can be one
    off once m - 1 no longer fits a double exactly; one step each way
    corrects it.  The bound keeps the squares of the corrected root within
    int64.
    """
    m = np.asarray(m, dtype=np.int64)
    if m.size and not (m.min() >= 1 and m.max() <= 92 * 10**17):
        raise ValueError(f"indices must lie in 1..9.2e18, got {m.min()}..{m.max()}")
    s = np.floor(np.sqrt((m - 1).astype(float))).astype(np.int64)
    s -= s * s > m - 1
    s += (s + 1) * (s + 1) <= m - 1
    d = m - s * s
    k = s + 1
    odd = d % 2 == 1
    return np.where(odd, k, d // 2), np.where(odd, (d + 1) // 2, k)


def t_inverse(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Compose a coset representative for x with a subgroup element h.

    h (an (n-1)x(n-1) orthogonal matrix) is embedded as the block that fixes
    e_1; the result maps e_1 to x.
    """
    x = _unit_vector(x)
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"subgroup element must be square, got shape {h.shape}")
    if x.size != h.shape[0] + 1:
        raise ValueError(
            f"dimension mismatch: x in R^{x.size} vs subgroup of size {h.shape[0]}"
        )
    return _cosets(x[None], h[None])[0]


@dataclass(frozen=True)
class OrthoSequenceSpec:
    """Recipe for the O(n) sequence: n, the cube sequences of its levels and
    whether the cumulative-product step is on.

    Only n, `permutation_seed` and `veech` are set; the level layout is
    derived.  `base_spec`, feeding the O(2) base, has bases (2, 3), and
    `sphere_specs[i-3]`, feeding the sphere S^(i-1) used at level i, has
    the next `input_dims(i)` unused primes, so no prime feeds two levels;
    every level takes `permutation_seed`.  `veech` switches the
    cumulative-product step on (True) or off (the almost-continuity
    shortcut).  Both are uniformly distributed, but the shortcut converges
    slowly: its first N = K^2 elements use only about N^(1/2^(n-i+1))
    distinct sphere points at level i, and as many elements of level i-1.
    """

    n: int
    permutation_seed: int = 0
    veech: bool = True
    base_spec: SequenceSpec = field(init=False, repr=False, compare=False)
    sphere_specs: tuple[SequenceSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_integer("n", self.n, 2))
        if not isinstance(self.veech, bool):
            raise ValueError(f"veech must be a bool, got {self.veech!r}")
        dims = [2] + [input_dims(i) for i in range(3, self.n + 1)]
        primes = iter(first_primes(sum(dims)))
        base, *spheres = (SequenceSpec(d, tuple(islice(primes, d)), self.permutation_seed)
                           for d in dims)
        object.__setattr__(self, "base_spec", base)
        object.__setattr__(self, "sphere_specs", tuple(spheres))


# `bench/workloads.py` builds its specs under this name, kept until the
# benchmark calls `OrthoSequenceSpec`.
default_ortho_spec = OrthoSequenceSpec


def _gram_defects(w: np.ndarray) -> np.ndarray:
    """|W^T W - I| entrywise, for each matrix of a (count, n, n) stack."""
    n = w.shape[-1]
    g = np.ascontiguousarray(w.transpose(0, 2, 1)) @ w
    g.reshape(-1, n * n)[:, :: n + 1] -= 1.0
    return np.abs(g, out=g)


def _repair(w: np.ndarray) -> int:
    """Re-orthonormalize, in place, the frames of `w` with defect above
    _REPAIR_TOL, and return how many there were.

    One maximum over the whole stack screens it; only a stack whose maximum
    is above the tolerance, or NaN, is looked at frame by frame.  A repaired
    frame is the Q of its QR decomposition with the columns signed so that
    diag(R) > 0 (Mezzadri 2007), which is what Gram-Schmidt on its columns
    gives; the sign of the determinant is kept.
    """
    defects = _gram_defects(w)
    if defects.max(initial=0.0) <= _REPAIR_TOL:
        return 0
    bad = np.flatnonzero(defects.max(axis=(1, 2)) > _REPAIR_TOL)
    if bad.size:
        q, r = np.linalg.qr(w[bad])
        w[bad] = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return int(bad.size)


def _near(table: np.ndarray, top: int) -> bool:
    """Whether row `top` is near enough to a prefix table to be stored in it:
    a far request computes its rows directly, so it cannot grow the table to
    its index."""
    return top <= 2 * len(table) + BLOCK


def _grown(tables: dict[int, np.ndarray], lvl: int, top: int, rows) -> np.ndarray:
    """The prefix table tables[lvl] (row i holds item i, row 0 is unused),
    grown to max(top + 1, 2 length) rows by rows(lo, hi), the items
    lo..hi-1, when it does not reach row `top`."""
    table = tables[lvl]
    if len(table) <= top:
        table = tables[lvl] = np.concatenate([table, rows(len(table), max(top + 1, 2 * len(table)))])
    return table


def _scan(p: np.ndarray) -> None:
    """Prefix products p_0 p_1 ... p_i of a (count, n, n) stack, in place, by
    a Hillis-Steele scan (log2 count batched steps); the Veech step scans
    its row totals with it."""
    step = 1
    while step < len(p):
        p[step:] = p[:-step] @ p[step:]
        step *= 2


class OrthoSequence:
    """Streaming view of the O(n) sequence defined by a spec.

    `frames(start, count)` reads any range (1-based) and `take` and
    `element` are built on it.  Work is done a grid block of BLOCK
    indices at a time; `frames` reads the top level one block at a time with
    the generator step on and _SPAN_BLOCKS blocks at a time with it off.
    Each level from 3 up keeps prefix tables of its sphere points and its
    interleaved elements (see the module docstring).
    With the generator step on, each level also keeps its last block of
    products (read-only; a range inside it is read as a slice), whose last
    product carries into the next block's scan, and its stream of gap
    blocks; reading a block before its last one restarts the level from
    block 0.  Without it a level below n is read from its element table.
    Frames whose orthogonality defect exceeds 1e-10 are re-orthonormalized;
    `repair_count` says how often that happened: a table row counts once,
    when it is computed, and any other frame (a block of products, a
    top-level frame without the generator step, a far row) each time it is
    computed.
    """

    def __init__(self, spec: OrthoSequenceSpec):
        self.spec = spec
        self.repair_count = 0
        # level -> (grid block j, its products, the gap blocks after j)
        self._blocks: dict[int, tuple[int, np.ndarray, Iterator[np.ndarray]]] = {}
        # level -> prefix tables of the interleaved elements z_m and the sphere points x_a
        levels = range(3, spec.n + 1)
        self._z = {lvl: np.full((1, lvl, lvl), np.nan) for lvl in levels}
        self._x = {lvl: np.full((1, lvl), np.nan) for lvl in levels}

    def frames(self, start: int, count: int) -> np.ndarray:
        """Elements start..start+count-1 stacked into a fresh (count, n, n)
        array; start >= 1 and count >= 0 must be integers (not booleans).
        The range is read a grid block at a time with the generator step on
        and _SPAN_BLOCKS blocks at a time with it off."""
        check_range(start, count)
        n = self.spec.n
        span = BLOCK if self.spec.veech else _SPAN_BLOCKS * BLOCK
        out = np.empty((count, n, n))
        lo, stop = start, start + count
        while lo < stop:
            hi = min(stop, ((lo - 1) // span + 1) * span + 1)
            out[lo - start : hi - start] = self._at(n, np.arange(lo, hi, dtype=np.int64))
            lo = hi
        return out

    def element(self, m: int) -> np.ndarray:
        """The m-th matrix of the sequence (a fresh array)."""
        return self.frames(m, 1)[0]

    def take(self, count: int) -> np.ndarray:
        """Elements 1..count stacked into a (count, n, n) array."""
        return self.frames(1, count)

    def _level(self, lvl: int, m: int) -> np.ndarray:
        # element m of level lvl; the benchmark's tracer binds this name
        return self._at(lvl, np.array([m], dtype=np.int64))[0].copy()

    def _at(self, lvl: int, idx: np.ndarray) -> np.ndarray:
        """Level `lvl` frames at the increasing 1-based indices `idx`.

        A run of consecutive indices inside one grid block comes back as a
        read-only view of the level's cached products, not a copy.
        """
        if lvl == 2:
            return _o2_elements(self.spec.base_spec, idx)
        if not self.spec.veech:
            top = int(idx[-1])
            if lvl < self.spec.n and _near(self._z[lvl], top):
                return self._z_table(lvl, top)[idx]
            return self._checked(self._interleaved(lvl, idx))
        grid = (idx - 1) // BLOCK
        if grid[0] == grid[-1] and idx[-1] - idx[0] == idx.size - 1:
            lo = int(idx[0] - 1) % BLOCK
            return self._veech_block(lvl, int(grid[0]))[lo : lo + idx.size]
        out = np.empty((idx.size, lvl, lvl))
        for j in np.unique(grid):
            sel = grid == j
            out[sel] = self._veech_block(lvl, int(j))[(idx[sel] - 1) % BLOCK]
        return out

    def _interleaved(self, lvl: int, idx: np.ndarray) -> np.ndarray:
        """The interleaved elements R(x_a) diag(1, h_b), (a, b) the pairs of idx.

        This is the only place elements of a level above 2 are built; the
        element tables are a cache in front of it.  x_a comes from the
        level's sphere table, or, when a reaches past it, is read directly
        at the distinct a alone.  Without the generator step h_b is read from
        the element table of level lvl - 1 when it is near; otherwise level
        lvl - 1 is read at the distinct b alone.
        """
        a, b = convolution_indices(idx)
        spec = self.spec.sphere_specs[lvl - 3]
        top = int(a.max())
        if _near(self._x[lvl], top):
            x = _grown(self._x, lvl, top, lambda lo, hi: sphere_points(lvl, spec, hi - lo, lo))[a]
        else:
            x = _rows_at(lambda count, start: sphere_points(lvl, spec, count, start), a)
        top = int(b.max())
        if not self.spec.veech and lvl > 3 and _near(self._z[lvl - 1], top):
            return _cosets(x, self._z_table(lvl - 1, top)[b])
        sub, inverse = np.unique(b, return_inverse=True)
        return _cosets(x, self._at(lvl - 1, sub)[inverse])

    def _veech_block(self, lvl: int, j: int) -> np.ndarray:
        """Products w_m of level `lvl` for m in grid block j."""
        done, w, gaps = self._blocks.get(lvl, (-1, None, None))
        if gaps is None or j < done:
            done, w, gaps = -1, None, udsg.gap_blocks(BLOCK)
        while done < j:
            done += 1
            r = next(gaps)
            # rows of _SCAN_COLS factors: fold each row from the left, one
            # batched product per column; scan the last product of the block
            # before followed by the row totals, so entry i is everything
            # before row i; put each row behind it
            p = self._z_table(lvl, int(r.max()))[r].reshape(-1, _SCAN_COLS, lvl, lvl)
            for c in range(1, _SCAN_COLS):
                p[:, c] = p[:, c - 1] @ p[:, c]
            head = np.concatenate([np.eye(lvl)[None] if w is None else w[-1:], p[:, -1]])
            _scan(head)
            w = self._checked((head[:-1, None] @ p).reshape(BLOCK, lvl, lvl))
            w.flags.writeable = False
        self._blocks[lvl] = (done, w, gaps)
        return w

    def _z_table(self, lvl: int, top: int) -> np.ndarray:
        """The interleaved elements z_m = R(x_a) diag(1, h_b) at row m, for m
        up to at least `top`: the factors of the generator step with it on,
        the level's elements with it off."""
        return _grown(self._z, lvl, top,
                      lambda lo, hi: self._checked(self._interleaved(lvl, np.arange(lo, hi))))

    def _checked(self, w: np.ndarray) -> np.ndarray:
        self.repair_count += _repair(w)
        return w


def random_ortho_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` independent Haar draws stacked into (count, n, n).

    One draw z of shape (count, n(n+1)/2) from `rng.standard_normal` gives
    each frame its own row: the O(2) base takes the angle of (z_0, z_1) and
    the sign of z_2, and level l = 3..n the direction of the next l entries,
    composed as R(x) diag(1, g) (Mezzadri 2007).  The generator reads its
    bit stream in order, so `count` = a then b from one generator gives the
    frames of one draw of a + b.
    """
    n = check_integer("n", n, 2)
    count = check_integer("count", count, 0)
    z = rng.standard_normal((count, n * (n + 1) // 2))
    g = _o2_batch(np.arctan2(z[:, 1], z[:, 0]), np.where(z[:, 2] < 0.0, 1.0, -1.0))
    for lvl in range(3, n + 1):
        x = z[:, lvl * (lvl - 1) // 2 : lvl * (lvl + 1) // 2]
        g = _cosets(x / np.linalg.norm(x, axis=1, keepdims=True), g)
    return g
