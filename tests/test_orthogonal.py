import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from udortho.lowdisc import SequenceSpec
from udortho.orthogonal import (
    OrthoSequence,
    OrthoSequenceSpec,
    convolution_index,
    coset_rep,
    default_ortho_spec,
    o2_element,
    o2_matrix,
    ortho_element,
    orthogonality_defect,
    random_ortho,
    random_ortho_batch,
    t_inverse,
)

# first nine pairs of the square interleaving, as printed
CONVOLUTION_PREFIX = [
    (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3),
]


def test_o2_matrix_examples():
    assert np.array_equal(o2_matrix(0.0, 1), np.eye(2))
    assert np.array_equal(o2_matrix(0.0, -1), np.diag([1.0, -1.0]))
    np.testing.assert_allclose(o2_matrix(np.pi / 2.0, 1), [[0, 1], [-1, 0]], atol=1e-15)
    with pytest.raises(ValueError):
        o2_matrix(0.0, 2)


def test_o2_element_angle_and_sign():
    spec = SequenceSpec("halton", 2)
    m = o2_element(spec, 1)  # point (1/2, 1/3): angle pi, positive sign
    np.testing.assert_allclose(m, [[-1, 0], [0, -1]], atol=1e-15)
    assert np.linalg.det(o2_element(spec, 1)) == pytest.approx(1.0)
    dets = [np.linalg.det(o2_element(spec, i)) for i in range(1, 200)]
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
        h = random_ortho(3, rng)
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


def test_spec_validation():
    base = SequenceSpec("halton", 2)
    with pytest.raises(ValueError):
        OrthoSequenceSpec(n=3, base_spec=base, sphere_specs=())
    with pytest.raises(ValueError):
        OrthoSequenceSpec(n=3, base_spec=base, sphere_specs=(SequenceSpec("halton", 2),))
    with pytest.raises(ValueError):
        OrthoSequenceSpec(n=2, base_spec=SequenceSpec("halton", 3))


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
    for m in (1, 2, 9):
        assert np.array_equal(seq.element(m), o2_element(spec.base_spec, m))


def test_streamed_equals_random_access():
    for veech in (True, False):
        spec = default_ortho_spec(3, veech=veech)
        seq = OrthoSequence(spec)
        streamed = seq.take(500)
        for m in list(range(1, 51)) + [100, 250, 500]:
            assert np.array_equal(ortho_element(spec, m), streamed[m - 1])


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
        g = random_ortho(4, rng)
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
