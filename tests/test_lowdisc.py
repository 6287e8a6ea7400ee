from itertools import count

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from udortho.lowdisc import (
    SequenceSpec,
    digit_permutation,
    first_primes,
    point_at,
    points,
)


def exact_point(spec, index):
    """Point `index` by exact integer digit reversal: Python ints, digits
    mapped through the spec's permutations, one rounding at the end."""
    i = index + spec.skip
    coords = []
    for b, perm in zip(spec.bases, spec.permutations()):
        num, den, j = 0, 1, i
        while j:
            num = num * b + perm[j % b]
            den *= b
            j //= b
        coords.append(num / den)  # int / int is correctly rounded
    return coords


def van_der_corput(base):
    """The one-dimensional Halton sequence: van der Corput's in `base`."""
    return SequenceSpec("halton", 1, bases=(base,))


# (kind, dims), with the one-dimensional case named for van der Corput
KIND_CASES = [
    pytest.param("halton", 1, id="van-der-corput"),
    pytest.param("halton", 5, id="halton"),
    pytest.param("scrambled-halton", 5, id="scrambled-halton"),
]


@pytest.mark.parametrize("skip", [0, 1000])
@pytest.mark.parametrize("kind,dims", KIND_CASES)
def test_points_match_exact_digit_reversal(kind, dims, skip):
    spec = SequenceSpec(kind, dims, skip=skip, permutation_seed=7)
    ref = np.array([exact_point(spec, i) for i in range(1, 2001)])
    assert np.abs(points(spec, 2000) - ref).max() < 1e-15
    for index in (2**40 + 3, 10**15 + 1):
        got = points(spec, 3, index - 1)[1]
        assert np.abs(got - exact_point(spec, index)).max() < 1e-15


def test_radical_inverse_examples():
    assert point_at(van_der_corput(2), 1)[0] == 0.5
    assert point_at(van_der_corput(2), 3)[0] == 0.75  # 3 = 11_2 -> 0.11_2
    assert points(van_der_corput(3), 1)[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-16)


@pytest.mark.parametrize("index,base", [(0, 2), (-3, 2), (1, 1), (1, 0)])
def test_radical_inverse_domain_errors(index, base):
    with pytest.raises(ValueError):
        points(van_der_corput(base), 1, index)


@given(index=st.integers(1, 10**12), base=st.integers(2, 64))
def test_radical_inverse_range_and_determinism(index, base):
    x = point_at(van_der_corput(base), index)[0]
    assert 0.0 < x < 1.0
    assert x == point_at(van_der_corput(base), index)[0]


@given(base=st.integers(2, 50), seed=st.integers(0, 2**32))
def test_digit_permutation_fixes_zero(base, seed):
    perm = digit_permutation(base, seed)
    assert perm[0] == 0
    assert sorted(perm) == list(range(base))


def test_scrambled_identity_matches_plain():
    # a scrambling whose permutations are all the identity changes nothing
    for base in (2, 3, 5):
        seed = next(s for s in count() if digit_permutation(base, s) == tuple(range(base)))
        scrambled = SequenceSpec("scrambled-halton", 1, bases=(base,), permutation_seed=seed)
        assert np.array_equal(points(scrambled, 10000), points(van_der_corput(base), 10000))


def test_halton_first_point():
    spec = SequenceSpec("halton", 2)
    assert spec.bases == (2, 3)
    p = point_at(spec, 1)
    assert p[0] == 0.5
    assert p[1] == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_point_at_deterministic():
    spec = SequenceSpec("scrambled-halton", 3, permutation_seed=7)
    for index in (1, 17, 999):
        assert np.array_equal(point_at(spec, index), point_at(spec, index))


def test_point_at_rejects_bad_index():
    spec = SequenceSpec("halton", 2)
    with pytest.raises(ValueError):
        point_at(spec, 0)


@pytest.mark.parametrize("kind", ["halton", "scrambled-halton"])
def test_streaming_matches_random_access(kind):
    spec = SequenceSpec(kind, 3, permutation_seed=3)
    batch = points(spec, 10000)
    for index in range(1, 10001, 373):
        assert np.array_equal(batch[index - 1], point_at(spec, index))
    # spot-check full equality on a contiguous prefix
    head = points(spec, 200)
    assert np.array_equal(head, batch[:200])
    assert np.array_equal(
        np.stack([point_at(spec, i) for i in range(1, 201)]), head
    )


def test_equidistribution_box():
    # 3 * 2^10 points of the (2,3)-Halton sequence balance the box
    # [0, 1/2) x [0, 1/3) essentially exactly
    spec = SequenceSpec("halton", 2)
    p = points(spec, 3 * 2**10)
    frac = np.mean((p[:, 0] < 0.5) & (p[:, 1] < 1.0 / 3.0))
    assert abs(frac - 1.0 / 6.0) < 0.01


@pytest.mark.parametrize("kind,dims", KIND_CASES)
def test_coordinates_strictly_inside(kind, dims):
    spec = SequenceSpec(kind, dims, permutation_seed=11)
    p = points(spec, 5000)
    assert np.all(p > 0.0)
    assert np.all(p < 1.0)


def test_skip_shifts_indices():
    plain = SequenceSpec("halton", 2)
    skipped = SequenceSpec("halton", 2, skip=10)
    assert np.array_equal(point_at(skipped, 1), point_at(plain, 11))


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec("halton", 2, bases=(2, 4))  # not coprime
    with pytest.raises(ValueError):
        SequenceSpec("halton", 2, bases=(2,))  # wrong length
    with pytest.raises(ValueError):
        SequenceSpec("sobol", 2)  # unknown kind
    with pytest.raises(ValueError):
        SequenceSpec("van-der-corput", 1)  # it is the one-dimensional "halton"
    with pytest.raises(ValueError):
        SequenceSpec("halton", 2, skip=-1)


def test_points_reject_indices_past_int64():
    # the indices are int64: past 2^63 - 1 they would wrap to negative values
    top = 2**63 - 1
    spec = SequenceSpec("halton", 2, skip=top - 5)
    ref = np.array([exact_point(spec, i) for i in range(1, 6)])
    assert np.abs(points(spec, 5) - ref).max() < 1e-15
    with pytest.raises(ValueError):
        points(spec, 1, 10)
    with pytest.raises(ValueError):
        points(spec, 6)
    with pytest.raises(ValueError):
        point_at(spec, 6)
    with pytest.raises(ValueError):
        points(SequenceSpec("halton", 2), 1, top + 1)


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]
