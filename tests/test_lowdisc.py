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
from udortho.orthogonal import OrthoSequence, OrthoSequenceSpec
from udortho.sphere import sphere_points


def exact_point(spec, index):
    """Point `index` by exact integer digit reversal: Python ints, digits
    mapped through the spec's permutations, one rounding at the end."""
    coords = []
    for b, perm in zip(spec.bases, spec.permutations()):
        num, den, j = 0, 1, index
        while j:
            num = num * b + perm[j % b]
            den *= b
            j //= b
        coords.append(num / den)  # int / int is correctly rounded
    return coords


def identity_seed(bases):
    """The first seed whose digit permutations of `bases` are all the identity."""
    return next(s for s in count()
                if all(digit_permutation(b, s) == tuple(range(b)) for b in bases))


def plain_halton(dims, bases=()):
    """Halton's sequence unscrambled: the sequence at `identity_seed`."""
    bases = bases or tuple(first_primes(dims))
    return SequenceSpec(dims, bases, identity_seed(bases))


def van_der_corput(base):
    """The one-dimensional plain Halton sequence: van der Corput's in `base`."""
    return plain_halton(1, (base,))


def case_spec(dims, plain, seed):
    return plain_halton(dims) if plain else SequenceSpec(dims, permutation_seed=seed)


# (dims, plain): plain Halton, named for van der Corput in one dimension,
# or scrambled Halton at the test's seed
SEQUENCE_CASES = [
    pytest.param(1, True, id="van-der-corput"),
    pytest.param(3, True, id="halton"),
    pytest.param(5, False, id="scrambled-halton"),
]


@pytest.mark.parametrize("offset", [0, 1000])
@pytest.mark.parametrize("dims,plain", SEQUENCE_CASES)
def test_points_match_exact_digit_reversal(dims, plain, offset):
    spec = case_spec(dims, plain, 7)
    ref = np.array([exact_point(spec, i) for i in range(offset + 1, offset + 2001)])
    assert np.abs(points(spec, 2000, offset + 1) - ref).max() < 1e-15
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
        points(SequenceSpec(1, (base,)), 1, index)


@given(index=st.integers(1, 10**12), base=st.integers(2, 64))
def test_radical_inverse_range_and_determinism(index, base):
    spec = SequenceSpec(1, (base,))
    x = point_at(spec, index)[0]
    assert 0.0 < x < 1.0
    assert x == point_at(spec, index)[0]


@given(base=st.integers(2, 50), seed=st.integers(0, 2**32))
def test_digit_permutation_fixes_zero(base, seed):
    perm = digit_permutation(base, seed)
    assert perm[0] == 0
    assert sorted(perm) == list(range(base))


def radical_inverse(index, base):
    """sum a_l b^(-l-1) over the base-b digits a_l of index, by exact
    integer digit reversal and one rounding."""
    num, den = 0, 1
    while index:
        index, a = divmod(index, base)
        num, den = num * base + a, den * base
    return num / den


def test_scrambled_identity_matches_plain():
    # a scrambling whose permutations are all the identity changes nothing:
    # the points are the plain radical inverses
    for base in (2, 3, 5):
        plain = [radical_inverse(i, base) for i in range(1, 10001)]
        assert np.abs(points(van_der_corput(base), 10000)[:, 0] - plain).max() < 1e-15


def test_halton_first_point():
    spec = plain_halton(2)
    assert spec.bases == (2, 3)
    p = point_at(spec, 1)
    assert p[0] == 0.5
    assert p[1] == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_point_at_deterministic():
    spec = SequenceSpec(3, permutation_seed=7)
    for index in (1, 17, 999):
        assert np.array_equal(point_at(spec, index), point_at(spec, index))


def test_point_at_rejects_bad_index():
    spec = SequenceSpec(2)
    with pytest.raises(ValueError):
        point_at(spec, 0)


@pytest.mark.parametrize("plain", [True, False], ids=["halton", "scrambled-halton"])
def test_streaming_matches_random_access(plain):
    spec = case_spec(3, plain, 3)
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
    spec = SequenceSpec(2)
    p = points(spec, 3 * 2**10)
    frac = np.mean((p[:, 0] < 0.5) & (p[:, 1] < 1.0 / 3.0))
    assert abs(frac - 1.0 / 6.0) < 0.01


@pytest.mark.parametrize("dims,plain", SEQUENCE_CASES)
def test_coordinates_strictly_inside(dims, plain):
    spec = case_spec(dims, plain, 11)
    p = points(spec, 5000)
    assert np.all(p > 0.0)
    assert np.all(p < 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec(2, bases=(2, 4))  # not coprime
    with pytest.raises(ValueError):
        SequenceSpec(2, bases=(2,))  # wrong length
    with pytest.raises(ValueError):
        SequenceSpec(0)
    with pytest.raises(ValueError):
        SequenceSpec(2, permutation_seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [("dims", True), ("dims", 2.0), ("dims", "2"), ("dims", None), ("permutation_seed", "1"),
     ("permutation_seed", True), ("permutation_seed", 1.5), ("permutation_seed", None),
     ("bases", (2, 3.0)), ("bases", (True, 3))],
)
def test_spec_refuses_non_integers(field, value):
    # a boolean is not 1 and a fraction is not truncated, and both fail
    # here, not at the first points() call
    with pytest.raises(ValueError, match="must be an integer"):
        SequenceSpec(**{"dims": 2, field: value})


def test_spec_takes_numpy_integers():
    # they are stored as ints: an int64 seed would overflow in the hash of
    # digit_permutation (a seed no other test caches there as an int)
    wide = SequenceSpec(np.int64(2), (np.int64(2), np.int32(3)), np.int64(987_654_321))
    assert all(type(v) is int for v in (wide.dims, *wide.bases, wide.permutation_seed))
    got = points(wide, 20)
    plain = SequenceSpec(2, (2, 3), 987_654_321)
    assert wide == plain
    assert np.array_equal(got, points(plain, 20))


def test_points_reject_indices_past_int64():
    # the indices are int64: past 2^63 - 1 they would wrap to negative values
    top = 2**63 - 1
    spec = SequenceSpec(2)
    ref = np.array([exact_point(spec, i) for i in range(top - 4, top + 1)])
    assert np.abs(points(spec, 5, top - 4) - ref).max() < 1e-15
    with pytest.raises(ValueError):
        points(spec, 6, top - 4)
    with pytest.raises(ValueError):
        points(spec, 2, top)
    with pytest.raises(ValueError):
        points(spec, np.int64(2), np.int64(top))
    with pytest.raises(ValueError):
        point_at(spec, top + 1)


READERS = {
    "points": lambda start, count: points(SequenceSpec(2), count, start),
    "sphere_points": lambda start, count: sphere_points(3, SequenceSpec(4), count, start),
    "frames": lambda start, count: OrthoSequence(OrthoSequenceSpec(3)).frames(start, count),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize(
    "name, start, count",
    [("start", 1.5, 2), ("start", 2.9, 2), ("start", True, 2), ("start", "1", 2),
     ("count", 1, 2.0), ("count", 1, True), ("count", 1, None)],
    ids=["start-1.5", "start-2.9", "start-True", "start-str", "count-2.0", "count-True",
         "count-None"],
)
def test_ranges_refuse_non_integers(reader, name, start, count):
    # a fraction is not truncated and a boolean is not 0 or 1; numpy
    # integers are integers
    read = READERS[reader]
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        read(start, count)
    assert np.array_equal(read(np.int64(2), np.int32(3)), read(2, 3))


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]
