import operator
from itertools import islice

import numpy as np
import pytest

from udortho.lowdisc import SequenceSpec, points
from udortho.udsg import (
    champernowne_digit,
    gap_blocks,
    generated,
    occurrence_positions,
    r_sequence,
)


def test_champernowne_leading_digits():
    assert [champernowne_digit(i) for i in range(1, 10)] == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert champernowne_digit(10) == 1  # start of "10"
    assert champernowne_digit(11) == 0
    assert champernowne_digit(21) == 5  # the '5' of "15"


def test_champernowne_rejects_bad_position():
    with pytest.raises(ValueError):
        champernowne_digit(0)
    for i in (2.5, 3.0, True):  # a float is not truncated, and True is not position 1
        with pytest.raises(ValueError, match="must be an integer"):
            champernowne_digit(i)


def test_champernowne_against_concatenation():
    ref = "".join(str(n) for n in range(1, 20000))
    for i in range(1, len(ref) + 1, 7):
        assert champernowne_digit(i) == int(ref[i - 1])


def test_occurrences_of_five():
    assert occurrence_positions(3) == [5, 21, 41]
    assert r_sequence(3) == [4, 16, 20]


def test_generate_first_element_is_z4():
    calls = []

    def z(j):
        calls.append(j)
        return j

    assert next(generated(z, mul=operator.add, identity=0)) == 4
    assert calls == [4]


def test_generate_sums():
    # over (R, +) with z_j = j the products become sums of the gaps
    w = list(islice(generated(lambda j: j, mul=operator.add, identity=0), 3))
    assert w[1:] == [20, 40]


def test_generate_identity_absorption():
    eye = np.eye(3)
    stream = generated(lambda j: eye, mul=np.matmul, identity=eye)
    assert all(np.array_equal(w, eye) for w in islice(stream, 25))


def test_generated_stream_matches_generate():
    stream = generated(lambda j: j, mul=operator.add, identity=0)
    firsts = list(islice(stream, 10))
    gaps = r_sequence(10)
    assert firsts == [sum(gaps[:m]) for m in range(1, 11)]


def test_generated_rotation_walk_equidistributes():
    # Cumulative products of O(2) rotations by 2 pi * (the j-th base-2 van der
    # Corput point) along the gap sequence spread over the circle.  The walk
    # lives on a slowly refining dyadic angle grid, so the sup-CDF distance at
    # N = 1e4 is still ~0.04; assert the verified level, not an asymptotic one.
    top = max(r_sequence(10000))
    angle = points(SequenceSpec(1), top)[:, 0]

    def z(j):
        return angle[j - 1]

    def add_mod1(a, b):
        return (a + b) % 1.0

    stream = generated(z, mul=add_mod1, identity=0.0)
    fractions = np.sort(np.fromiter(islice(stream, 10000), dtype=float))
    n = fractions.size
    up = np.max(np.arange(1, n + 1) / n - fractions)
    down = np.max(fractions - np.arange(0, n) / n)
    assert max(up, down) < 0.06


@pytest.mark.parametrize("window", range(10))
def test_gap_blocks_match_r_sequence(window, champernowne_positions):
    # gaps 1e4 w + 1 .. 1e4 (w + 1) of the digit 5, read in blocks of each
    # size; the ten windows cover the first 1e5 gaps, which cross chunks of
    # Champernowne integers and digit lengths
    q = champernowne_positions[5]
    ref = np.diff(q, prepend=1)[: 10**5]
    assert ref.size == 10**5
    lo, hi = window * 10**4, (window + 1) * 10**4
    for size in (1, 7, 512, 10**5):
        blocks = gap_blocks(size)
        got = np.concatenate([next(blocks) for _ in range(-(-hi // size))])
        assert np.array_equal(got[lo:hi], ref[lo:hi])
    assert r_sequence(hi)[lo:] == ref[lo:hi].tolist()
    assert occurrence_positions(hi)[lo:] == q[lo:hi].tolist()


def test_gap_blocks_validation():
    with pytest.raises(ValueError):
        next(gap_blocks(0))
    with pytest.raises(ValueError, match="must be an integer"):
        next(gap_blocks(True))
    with pytest.raises(ValueError, match="must be an integer"):
        r_sequence(2.0)
