import operator
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from udortho.lowdisc import SequenceSpec, points
from udortho.udsg import (
    GeneratorSpec,
    champernowne_digit,
    champernowne_digits,
    gap_blocks,
    generated,
    occurrence_positions,
    r_sequence,
    r_stream,
)


def test_champernowne_leading_digits():
    assert [champernowne_digit(i) for i in range(1, 10)] == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert champernowne_digit(10) == 1  # start of "10"
    assert champernowne_digit(11) == 0
    assert champernowne_digit(21) == 5  # the '5' of "15"


def test_champernowne_rejects_bad_position():
    with pytest.raises(ValueError):
        champernowne_digit(0)


def test_champernowne_against_concatenation():
    ref = "".join(str(n) for n in range(1, 20000))
    for i in range(1, len(ref) + 1, 7):
        assert champernowne_digit(i) == int(ref[i - 1])
    stream = champernowne_digits()
    assert [next(stream) for _ in range(1000)] == [int(c) for c in ref[:1000]]


def test_occurrences_of_five():
    spec = GeneratorSpec()
    assert occurrence_positions(spec, 3) == [5, 21, 41]
    assert r_sequence(spec, 3) == [4, 16, 20]


@given(target=st.integers(0, 9))
def test_gaps_positive_and_positions_increasing(target):
    spec = GeneratorSpec(target_digit=target)
    q = occurrence_positions(spec, 50)
    assert all(b > a for a, b in zip(q, q[1:]))
    assert all(r >= 1 for r in r_sequence(spec, 50))


def test_target_one_first_occurrence_is_dropped_from_gaps():
    spec = GeneratorSpec(target_digit=1)
    assert occurrence_positions(spec, 3) == [1, 10, 12]
    # q = 1 would give gap 0; the gap stream starts at the next occurrence
    assert r_sequence(spec, 2) == [9, 2]


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(target_digit=10)
    with pytest.raises(ValueError):
        GeneratorSpec(target_digit=-1)
    with pytest.raises(ValueError):
        list(islice(r_stream(GeneratorSpec(target_digit=1, base=2)), 1))


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
    gaps = r_sequence(GeneratorSpec(), 10)
    assert firsts == [sum(gaps[:m]) for m in range(1, 11)]


def test_generated_rotation_walk_equidistributes():
    # Cumulative products of O(2) rotations by 2 pi * (the j-th base-2 van der
    # Corput point) along the gap sequence spread over the circle.  The walk
    # lives on a slowly refining dyadic angle grid, so the sup-CDF distance at
    # N = 1e4 is still ~0.04; assert the verified level, not an asymptotic one.
    top = max(r_sequence(GeneratorSpec(), 10000))
    angle = points(SequenceSpec("van-der-corput", 1), top)[:, 0]

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


@pytest.mark.parametrize("target", range(10))
def test_gap_blocks_match_r_sequence(target):
    # the blocks cross chunks of Champernowne integers and digit lengths;
    # target 1 drops its occurrence at position 1
    spec = GeneratorSpec(target_digit=target)
    ref = np.array(r_sequence(spec, 10**5))
    for size in (7, 512, 10**5):
        blocks = gap_blocks(spec, size)
        got = np.concatenate([next(blocks) for _ in range(-(-(10**5) // size))])
        assert np.array_equal(got[: 10**5], ref)
    blocks = gap_blocks(spec, 1)
    assert np.array_equal([next(blocks)[0] for _ in range(2000)], ref[:2000])


def test_gap_blocks_validation():
    with pytest.raises(ValueError):
        next(gap_blocks(GeneratorSpec(base=2, target_digit=1), 4))
    with pytest.raises(ValueError):
        next(gap_blocks(GeneratorSpec(), 0))
