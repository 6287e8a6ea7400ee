import gc
import tracemalloc
import weakref
from functools import reduce
from itertools import accumulate, islice
from math import isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from udortho import orthogonal
from udortho.lowdisc import SequenceSpec, digit_permutation, first_primes, points
from udortho.orthogonal import (
    BLOCK,
    OrthoSequence,
    OrthoSequenceSpec,
    convolution_index,
    convolution_indices,
    coset_rep,
    default_ortho_spec,
    random_ortho_batch,
    t_inverse,
)
from udortho.sphere import input_dims
from udortho.udsg import gap_blocks, generated, r_sequence

# first nine pairs of the square interleaving, as printed
CONVOLUTION_PREFIX = [
    (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3),
]


def o2_reference(phi, sign):
    """The O(2) elements [[cos, sin], [-sign sin, sign cos]] of angles phi."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([np.stack([c, s], -1), np.stack([-sign * s, sign * c], -1)], -2)


def o2_from_points(u):
    """The O(2) base from rows of cube points: angle 2 pi u_0, sign +1 iff u_1 < 1/2."""
    return o2_reference(2.0 * np.pi * u[:, 0], np.where(u[:, 1] < 0.5, 1.0, -1.0))


def box_muller(u, n):
    """Rows of cube points mapped to S^(n-1): Box-Muller on the pairs
    (p, q), the first cosine dropped for odd n, then normalized."""
    p = np.clip(u[:, 0::2], 2.0**-53, 1.0 - 2.0**-53)
    r = np.sqrt(-np.log(p))
    angle = 2.0 * np.pi * u[:, 1::2]
    v = np.stack([r * np.cos(angle), r * np.sin(angle)], -1).reshape(len(u), -1)
    if n % 2:
        v = v[:, 1:]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def cube_rows(spec, idx):
    """Cube points at the 1-based indices idx: one `points` call per run of
    consecutive indices among the distinct ones, so indices far apart do
    not read the points between them."""
    distinct, inverse = np.unique(idx, return_inverse=True)
    runs = np.split(distinct, np.flatnonzero(np.diff(distinct) > 1) + 1)
    return np.concatenate([points(spec, len(run), int(run[0])) for run in runs])[inverse]


def orthogonality_defect(m):
    """max |M^T M - I|."""
    return float(np.abs(m.T @ m - np.eye(len(m))).max())


def test_o2_matrix_examples():
    assert np.array_equal(o2_reference(0.0, 1.0), np.eye(2))
    assert np.array_equal(o2_reference(0.0, -1.0), np.diag([1.0, -1.0]))
    np.testing.assert_allclose(o2_reference(np.pi / 2.0, 1.0), [[0, 1], [-1, 0]], atol=1e-15)


def test_o2_element_angle_and_sign():
    # the first seed whose base-3 permutation is the identity (base 2 has no
    # other permutation fixing 0), so point 1 is the plain Halton (1/2, 1/3)
    seed = next(s for s in range(100) if digit_permutation(3, s) == (0, 1, 2))
    seq = OrthoSequence(OrthoSequenceSpec(2, permutation_seed=seed))
    m = seq.element(1)  # point (1/2, 1/3): angle pi, positive sign
    np.testing.assert_allclose(m, [[-1, 0], [0, -1]], atol=1e-15)
    assert np.linalg.det(m) == pytest.approx(1.0)
    dets = np.linalg.det(seq.take(199))
    assert {round(d) for d in dets} == {-1, 1}


def test_coset_rep_fixed_points():
    assert np.array_equal(coset_rep([1.0, 0.0, 0.0]), np.eye(3))
    np.testing.assert_allclose(
        coset_rep([-1.0, 0.0, 0.0]), np.diag([-1.0, 1.0, 1.0]), atol=1e-15
    )
    np.testing.assert_allclose(coset_rep([0.0, 1.0]), [[0, 1], [1, 0]], atol=1e-15)


def test_coset_rep_rejects_non_unit():
    with pytest.raises(ValueError):
        coset_rep([1.0, 1.0])
    with pytest.raises(ValueError):
        coset_rep([0.5])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_coset_rep_sends_e1_to_x(n):
    rng = np.random.default_rng(n)
    for _ in range(200):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        phi = coset_rep(x)
        np.testing.assert_allclose(phi[:, 0], x, atol=1e-12)
        # reflections are involutive and symmetric
        assert np.abs(phi @ phi - np.eye(n)).max() < 1e-10
        assert np.abs(phi - phi.T).max() < 1e-12


def test_convolution_prefix_and_bijection():
    assert [convolution_index(m) for m in range(1, 10)] == CONVOLUTION_PREFIX
    for k in (5, 20):
        seen = [convolution_index(m) for m in range(1, k * k + 1)]
        assert len(set(seen)) == k * k
        assert set(seen) == {(i, j) for i in range(1, k + 1) for j in range(1, k + 1)}
    with pytest.raises(ValueError):
        convolution_index(0)


@given(m=st.integers(1, 10**9))
def test_convolution_index_block_structure(m):
    i, j = convolution_index(m)
    k = max(i, j)
    assert (k - 1) ** 2 < m <= k * k
    d = m - (k - 1) ** 2
    if d % 2 == 1:
        assert (i, j) == (k, (d + 1) // 2)
    else:
        assert (i, j) == (d // 2, k)


def test_t_inverse_examples():
    assert np.array_equal(t_inverse([1.0, 0.0, 0.0], np.eye(2)), np.eye(3))
    x = np.array([0.6, 0.8, 0.0])
    assert np.array_equal(t_inverse(x, np.eye(2)), coset_rep(x))
    with pytest.raises(ValueError):
        t_inverse([1.0, 0.0, 0.0], np.eye(3))


def test_t_inverse_first_column_property():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        h = random_ortho_batch(3, 1, rng)[0]
        g = t_inverse(x, h)
        np.testing.assert_allclose(g[:, 0], x, atol=1e-12)


def test_default_spec_layout_disjoint_primes():
    spec = default_ortho_spec(5)
    used = list(spec.base_spec.bases)
    for s in spec.sphere_specs:
        used.extend(s.bases)
    assert len(used) == len(set(used))
    assert spec.base_spec.bases == (2, 3)
    assert [s.dims for s in spec.sphere_specs] == [4, 4, 6]


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("pseed", [0, 2])
def test_spec_layout_is_the_disjoint_prime_rule(n, pseed):
    # the O(2) base takes bases (2, 3) and level i the next input_dims(i)
    # unused primes; permutation_seed reaches every level
    spec = OrthoSequenceSpec(n, permutation_seed=pseed)
    primes = first_primes(2 + sum(input_dims(i) for i in range(3, n + 1)))
    assert spec.base_spec == SequenceSpec(2, (2, 3), pseed)
    spheres, offset = [], 2
    for i in range(3, n + 1):
        d = input_dims(i)
        spheres.append(SequenceSpec(d, tuple(primes[offset : offset + d]), pseed))
        offset += d
    assert spec.sphere_specs == tuple(spheres)
    used = [b for s in (spec.base_spec, *spec.sphere_specs) for b in s.bases]
    assert sorted(used) == primes


def test_spec_layout_is_derived_not_set():
    spec = OrthoSequenceSpec(3)
    for name in ("base_spec", "sphere_specs"):
        with pytest.raises(TypeError):
            OrthoSequenceSpec(3, **{name: getattr(spec, name)})
        with pytest.raises(AttributeError):
            setattr(spec, name, getattr(spec, name))
        assert name not in repr(spec)
    assert spec == OrthoSequenceSpec(3) and hash(spec) == hash(OrthoSequenceSpec(3))
    assert spec != OrthoSequenceSpec(3, veech=False)


def test_spec_validation():
    for n in (1, 0, -3, 2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            OrthoSequenceSpec(n)
    for veech in ("no", 1, 0, None, np.bool_(True)):
        with pytest.raises(ValueError, match="veech must be a bool"):
            OrthoSequenceSpec(4, veech=veech)
    for value in (True, 1.5):
        with pytest.raises(ValueError, match="permutation_seed must be an integer"):
            OrthoSequenceSpec(3, permutation_seed=value)
    assert OrthoSequenceSpec(np.int64(3)).sphere_specs == OrthoSequenceSpec(3).sphere_specs


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("veech", [True, False])
def test_sequence_orthogonality(n, veech):
    seq = OrthoSequence(default_ortho_spec(n, veech=veech))
    frames = seq.take(1000)
    eye = np.eye(n)
    defect = np.abs(np.einsum("mji,mjk->mik", frames, frames) - eye).max()
    assert defect < 1e-10
    dets = np.linalg.det(frames)
    assert np.abs(np.abs(dets) - 1.0).max() < 1e-8
    # both determinant components appear
    assert (dets > 0).any() and (dets < 0).any()


def test_base_case_n2_matches_o2():
    spec = default_ortho_spec(2)
    seq = OrthoSequence(spec)
    ref = o2_from_points(points(spec.base_spec, 2000))
    assert np.array_equal(seq.take(2000), ref)
    for m in (1, 2, 9):
        assert np.array_equal(seq.element(m), ref[m - 1])


def test_streamed_equals_random_access():
    for veech in (True, False):
        spec = default_ortho_spec(3, veech=veech)
        seq = OrthoSequence(spec)
        streamed = seq.take(500)
        for m in list(range(1, 51)) + [100, 250, 500]:
            assert np.array_equal(OrthoSequence(spec).element(m), streamed[m - 1])


def test_sequence_freed_without_cyclic_collector():
    # nothing refers back to the sequence, so dropping the last reference
    # frees it and its caches at once, with the cyclic collector off
    for veech in (True, False):
        seq = OrthoSequence(default_ortho_spec(4, veech=veech))
        seq.take(2000)
        alive = weakref.ref(seq)
        gc.disable()
        try:
            del seq
            assert alive() is None
        finally:
            gc.enable()


def test_first_column_hemisphere_balance():
    for n in (3, 4):
        seq = OrthoSequence(default_ortho_spec(n))
        cols = seq.take(10000)[:, :, 0]
        fractions = (cols > 0).mean(axis=0)
        assert np.abs(fractions - 0.5).max() < 0.02


def test_element_validation_and_purity():
    spec = default_ortho_spec(3)
    seq = OrthoSequence(spec)
    with pytest.raises(ValueError):
        seq.element(0)
    a = seq.element(7)
    a[0, 0] = 99.0  # emitted copies never alias the cache
    assert seq.element(7)[0, 0] != 99.0


def test_random_ortho_invariants():
    rng = np.random.default_rng(0)
    for _ in range(500):
        g = random_ortho_batch(4, 1, rng)[0]
        assert orthogonality_defect(g) < 1e-10
        assert abs(abs(np.linalg.det(g)) - 1.0) < 1e-8
    frames = random_ortho_batch(4, 10000, rng)
    defect = np.abs(np.einsum("mji,mjk->mik", frames, frames) - np.eye(4)).max()
    assert defect < 1e-10


def test_random_ortho_moments():
    rng = np.random.default_rng(1)
    frames = random_ortho_batch(3, 100000, rng)
    assert abs(frames[:, 0, 0].mean()) < 0.01
    assert abs((frames[:, 0, 0] ** 2).mean() - 1.0 / 3.0) < 5e-3


@given(st.integers(2, 5), st.integers(0, 2 * BLOCK), st.integers(0, 2 * BLOCK),
       st.integers(0, 2**32))
def test_random_batches_split_at_any_count(n, a, b, seed):
    # a then b frames from one generator are the a + b frames of one draw
    rng = np.random.default_rng(seed)
    parts = [random_ortho_batch(n, a, rng), random_ortho_batch(n, b, rng)]
    whole = random_ortho_batch(n, a + b, np.random.default_rng(seed))
    assert np.array_equal(np.concatenate(parts), whole)


def test_convolution_indices_match_scalar():
    m = np.arange(1, 10**6 + 1)
    a, b = convolution_indices(m)
    pairs = [convolution_index(int(j)) for j in m]
    assert np.array_equal(a, [p[0] for p in pairs])
    assert np.array_equal(b, [p[1] for p in pairs])
    # around the squares, up to k = 3e9, where m - 1 no longer fits a double
    # exactly and a float square root lands on the wrong side of k^2
    ks = np.unique(np.concatenate([
        np.arange(1, 2000),
        np.geomspace(2000, 3 * 10**9, 5000).astype(np.int64),
        [2**26, 2**26 + 1, 94_906_265, 94_906_266, 3 * 10**9],
    ]))
    m = (ks[:, None] ** 2 + np.array([-1, 0, 1, 2])).ravel()
    m = m[m >= 1]
    a, b = convolution_indices(m)
    pairs = [convolution_index(int(j)) for j in m]
    assert np.array_equal(a, [p[0] for p in pairs])
    assert np.array_equal(b, [p[1] for p in pairs])
    for bad in ([3, 0], [3, 92 * 10**17 + 1]):
        with pytest.raises(ValueError):
            convolution_indices(np.array(bad))


def noveech_reference(spec, lvl, m):
    """Elements m (an int array) of level lvl without the generator step:
    the cube points of each level from `cube_rows`, mapped by the
    Box-Muller and O(2) maps above, and composed one at a time."""
    if lvl == 2:
        return o2_from_points(cube_rows(spec.base_spec, m))
    a, b = np.array([convolution_index(int(j)) for j in m]).T
    x = box_muller(cube_rows(spec.sphere_specs[lvl - 3], a), lvl)
    lower = noveech_reference(spec, lvl - 1, b)
    return np.stack([t_inverse(xa, hb) for xa, hb in zip(x, lower)])


def veech_prefix(spec, lvl, count):
    """The first `count` products of level lvl, multiplied one at a time
    along the gap stream by `udsg.generated`."""
    if lvl == 2:
        return o2_from_points(points(spec.base_spec, count))
    pairs = {j: convolution_index(j) for j in set(r_sequence(count))}
    lower = veech_prefix(spec, lvl - 1, max(b for _, b in pairs.values()))
    x = box_muller(points(spec.sphere_specs[lvl - 3], max(a for a, _ in pairs.values())), lvl)
    z = {j: t_inverse(x[a - 1], lower[b - 1]) for j, (a, b) in pairs.items()}
    stream = generated(z.__getitem__, mul=np.matmul, identity=np.eye(lvl))
    return list(islice(stream, count))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_noveech_frames_match_elementwise_rebuild(n):
    spec = default_ortho_spec(n, veech=False)
    seq = OrthoSequence(spec)
    frames = seq.take(3000)
    ref = noveech_reference(spec, n, np.arange(1, 3001))
    assert np.abs(frames - ref).max() < 1e-14
    for m in (BLOCK * 1000 + 1, 10**6, 10**6 + 1, 987_654_321):
        assert np.abs(seq.element(m) - noveech_reference(spec, n, np.array([m]))[0]).max() < 1e-14


@pytest.mark.parametrize("n, count", [(3, 10**5), (4, 10**5), (5, 10**4)])
def test_veech_frames_match_sequential_products(n, count):
    # the block scan reassociates the products; the two orders differ by
    # 2.1e-13, 5.8e-13 and 1.3e-13 at n = 3, 4 (1e5 frames) and 5 (1e4)
    spec = default_ortho_spec(n)
    frames = OrthoSequence(spec).take(count)
    ref = np.stack(veech_prefix(spec, n, count))
    assert np.abs(frames - ref).max() < 1e-10


@pytest.mark.parametrize("veech", [True, False])
def test_frames_do_not_depend_on_access_pattern(veech):
    spec = default_ortho_spec(4, veech=veech)
    whole = OrthoSequence(spec).take(2000)
    seq = OrthoSequence(spec)
    cuts = [1, BLOCK - 3, BLOCK + 5, 2 * BLOCK + 1, 3 * BLOCK - 1, 2001]
    parts = [seq.frames(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(parts), whole)
    # backwards, on the same sequence and on fresh ones
    for m in (BLOCK + 1, BLOCK, BLOCK - 1, 1, 2000, BLOCK + 1):
        assert np.array_equal(seq.element(m), whole[m - 1])
        assert np.array_equal(OrthoSequence(spec).element(m), whole[m - 1])
    assert np.array_equal(seq.frames(BLOCK - 10, 30), whole[BLOCK - 11 : BLOCK + 19])
    assert np.array_equal(np.stack(list(islice(iter(seq), 1100))), whole[:1100])
    assert seq.frames(7, 0).shape == (0, 4, 4)
    with pytest.raises(ValueError):
        seq.frames(0, 3)


@pytest.mark.parametrize("veech", [True, False])
def test_streaming_memory_is_bounded(veech):
    # 2e5 frames are 25.6 MB; streamed a block at a time, the sequence holds
    # one block and a small factor table per level with the generator step,
    # and without it tables of about 2 sqrt(2e5) rows below the top level
    seq = OrthoSequence(default_ortho_spec(4, veech=veech))
    tracemalloc.start()
    try:
        for lo in range(1, 200_001, BLOCK):
            seq.frames(lo, BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    if not veech:
        assert len(seq._z[3]) <= 2 * (isqrt(200_000) + 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_noveech_far_element_bypasses_the_tables(n):
    # element 10^12 reads lower-level rows near 10^6; computed directly,
    # they take no table to that length (which would be 100s of MB).  The
    # block at offsets 1025..1536 past (k - 1)^2 pairs k with 512..768 both
    # ways; read as the range between them, its points would be k rows
    spec = default_ortho_spec(n, veech=False)
    seq = OrthoSequence(spec)
    start = (10**6 - 1) ** 2 + 1025
    tracemalloc.start()
    try:
        far = seq.element(10**12)
        block = seq.frames(start, BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.abs(far - noveech_reference(spec, n, np.array([10**12]))[0]).max() < 1e-14
    ref = noveech_reference(spec, n, np.arange(start, start + BLOCK))
    assert np.abs(block - ref).max() < 1e-14


def test_noveech_far_rows_stay_out_of_the_tables():
    spec = default_ortho_spec(4, veech=False)
    seq = OrthoSequence(spec)
    seq.element(10**9)  # reads x_24558 at level 4 and h_31623 of level 3
    assert len(seq._x[4]) == len(seq._z[3]) == 1
    assert np.array_equal(seq.frames(1, 2000), OrthoSequence(spec).take(2000))


def test_repair_fixes_perturbed_frames_only():
    rng = np.random.default_rng(3)
    frames = random_ortho_batch(4, 300, rng)
    bad = np.zeros(300, dtype=bool)
    bad[rng.choice(300, 37, replace=False)] = True
    w = frames.copy()
    w[bad] += 1e-8 * rng.standard_normal((37, 4, 4))
    perturbed = w.copy()
    assert orthogonal._repair(w) == 37
    assert np.array_equal(w[~bad], frames[~bad])
    defect = np.abs(np.einsum("mji,mjk->mik", w, w) - np.eye(4)).max()
    assert defect < 1e-14
    assert np.array_equal(np.sign(np.linalg.det(w)), np.sign(np.linalg.det(perturbed)))
    assert np.abs(w[bad] - perturbed[bad]).max() < 1e-7


def test_repair_count_counts_each_repaired_frame(monkeypatch):
    # with every frame over the tolerance, a two-block prefix at n = 3
    # repairs the 2 BLOCK products and the factors z_1 .. z_r of the gaps
    spec = default_ortho_spec(3)
    plain = OrthoSequence(spec).take(BLOCK + 1)
    monkeypatch.setattr(orthogonal, "_REPAIR_TOL", -1.0)
    seq = OrthoSequence(spec)
    frames = seq.take(BLOCK + 1)
    assert seq.repair_count == 2 * BLOCK + max(r_sequence(2 * BLOCK))
    assert np.abs(frames - plain).max() < 1e-13


def test_repair_count_counts_a_table_row_once(monkeypatch):
    # without the generator step at n = 4, with every frame over the
    # tolerance: block 0 (b <= 23) grows the level-3 table to rows 1..23,
    # block 1 (b <= 32) doubles it to rows 1..47, and each top-level frame
    # counts each time it is computed, as does a far row, read directly
    spec = default_ortho_spec(4, veech=False)
    plain = OrthoSequence(spec).take(2 * BLOCK)
    monkeypatch.setattr(orthogonal, "_REPAIR_TOL", -1.0)
    seq = OrthoSequence(spec)
    frames = seq.take(2 * BLOCK)
    assert seq.repair_count == 2 * BLOCK + 47
    assert np.abs(frames - plain).max() < 1e-13
    seq.take(2 * BLOCK)
    assert seq.repair_count == 4 * BLOCK + 47
    seq.element(10**9)  # the frame and its level-3 row b = 31 623, which is far
    assert seq.repair_count == 4 * BLOCK + 47 + 2


def reflection_times_block(x, h):
    """(I - 2 v v^T / v^T v) @ diag(1, h) with v = e_1 - x, formed explicitly."""
    n = x.size
    v = -x
    v[0] += 1.0
    e = np.eye(n)
    e[1:, 1:] = h
    return (np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)) @ e


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cosets_match_explicit_reflection(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((500, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    h = np.linalg.qr(rng.standard_normal((500, n - 1, n - 1)))[0]
    got = orthogonal._cosets(x.copy(), h)
    ref = np.stack([reflection_times_block(xi.copy(), hi) for xi, hi in zip(x, h)])
    assert np.abs(got - ref).max() < 1e-15
    # at e_1 and within _E1_TOL of it the reflection is the identity
    e = np.eye(n)
    e[1:, 1:] = h[0]
    assert np.array_equal(orthogonal._cosets(np.eye(n)[:1], h[:1])[0], e)
    for t, near in ((0.99, True), (1.01, False)):
        theta = t * orthogonal._E1_TOL
        x = np.zeros(n)
        x[:2] = np.cos(theta), np.sin(theta)
        assert (np.linalg.norm(np.eye(n)[0] - x) < orthogonal._E1_TOL) == near
        got = orthogonal._cosets(x[None].copy(), h[:1])[0]
        if near:
            assert np.array_equal(got, e)
        else:
            assert np.abs(got - reflection_times_block(x.copy(), h[0])).max() < 1e-15


def test_repair_screen_is_entrywise_and_leaves_good_blocks_alone():
    # one frame of a block with Gram matrix I + a (every entry): a just below
    # the tolerance passes the block's screen untouched, just above repairs
    # that frame alone, also next to a NaN frame, which is never repaired
    rng = np.random.default_rng(5)
    block = random_ortho_batch(4, BLOCK, rng)
    others = np.arange(BLOCK) != 100
    for a, count in ((0.9e-10, 0), (1.1e-10, 1)):
        for nan in (False, True):
            w = block.copy()
            w[100] = block[100] @ np.linalg.cholesky(np.eye(4) + a).T
            if nan:
                w[7] = np.nan
            before = w.copy()
            assert orthogonal._repair(w) == count
            assert w[others].tobytes() == before[others].tobytes()
            if count:
                assert orthogonality_defect(w[100]) < 1e-14
            else:
                assert w[100].tobytes() == before[100].tobytes()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_veech_block_is_the_left_fold_of_its_factors(n):
    # block 0 starts from the identity; in block 2 the last product of block
    # 1 is folded into the row prefixes of the scan.  The running left fold
    # gives reduce(np.matmul, z[:m]) for every m, bit for bit.
    seq = OrthoSequence(default_ortho_spec(n))
    r = np.concatenate(list(islice(gap_blocks(BLOCK), 3)))
    blocks = {j: seq.frames(1 + j * BLOCK, BLOCK) for j in (0, 2)}
    z = seq._z_table(n, int(r.max()))[r]
    fold = np.stack(list(accumulate(z, np.matmul)))
    assert np.array_equal(fold[BLOCK + 7], reduce(np.matmul, z[: BLOCK + 8]))
    for j, frames in blocks.items():
        assert np.abs(frames - fold[j * BLOCK : (j + 1) * BLOCK]).max() < 1e-13


# Weyl sums of the default sequence (seed 0) at N = 10^4, against their
# Haar values of 0: degree 1 max|E g|, degree 2 max|E g_ij g_kl - d_ik d_jl / n|
# and the determinant character |E det g|.  Recorded at seed 0, degree 1 /
# degree 2 / det: n = 3 6.7e-3 / 2.7e-2 / 4.2e-3, n = 4 3.1e-2 / 1.5e-2 /
# 0.36, n = 5 2.9e-2 / 9.7e-3 / 5e-16.  Over seeds 0-3 the largest readings
# are 5.9e-2 / 2.7e-2 / 1.2e-2 (det at n = 3); Haar draws read about 1e-2.
# Each bound is that largest reading with a margin of 1.35x, 1.5x and 2.5x.
WEYL_N = 10_000
WEYL_BOUNDS = {"degree 1": 0.08, "degree 2": 0.04, "det": 0.03}


def weyl_sums(n):
    g = OrthoSequence(OrthoSequenceSpec(n)).take(WEYL_N)
    flat = g.reshape(WEYL_N, n * n)
    return {
        "degree 1": np.abs(flat.mean(axis=0)).max(),
        "degree 2": np.abs(flat.T @ flat / WEYL_N - np.eye(n * n) / n).max(),
        "det": abs(np.linalg.det(g).mean()),
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_weyl_sums_of_degree_1_and_2(n):
    sums = weyl_sums(n)
    for degree in ("degree 1", "degree 2"):
        assert sums[degree] < WEYL_BOUNDS[degree], (degree, sums[degree])


@pytest.mark.parametrize("n", [
    3,
    pytest.param(4, marks=pytest.mark.xfail(strict=True, reason=(
        "a known deviation: at n = 4 only about 8% of the first 1e6 Veech gaps r "
        "have det z_r = -1 (the common gaps 1-7 all give +1), so the sign of the "
        "products flips rarely and E det g reads +0.36 at N = 1e4, -0.14 at 1e5 "
        "and +0.31 at 1e6; the Crofton estimates, which read only span g[:, k:], "
        "do not see it"))),
    5,
])
def test_weyl_sum_of_the_determinant(n):
    # at n = 5 every z_r has det -1, so the sign alternates exactly
    assert weyl_sums(n)["det"] < WEYL_BOUNDS["det"]
