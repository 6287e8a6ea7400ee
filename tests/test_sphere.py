import math

import numpy as np
import pytest

from udortho.lowdisc import SequenceSpec, point_at
from udortho.sphere import _box_muller, input_dims, sphere_points, sphere_sequence

E = math.exp(-1.0)


def box_muller_reference(u, n):
    """The normalized Box-Muller map of one cube point, written out in floats."""
    vec = []
    for p, q in zip(u[0::2], u[1::2]):
        r = math.sqrt(-math.log(p))
        vec += [r * math.cos(2.0 * math.pi * q), r * math.sin(2.0 * math.pi * q)]
    if n % 2:
        vec = vec[1:]
    norm = math.sqrt(sum(v * v for v in vec))
    return np.array(vec) / norm


def test_even_examples():
    np.testing.assert_allclose(_box_muller(np.array([[E, 0.0]]), 2)[0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(_box_muller(np.array([[E, 0.25]]), 2)[0], [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(
        _box_muller(np.array([[E, 0.0, E, 0.0]]), 4)[0],
        [1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0), 0.0],
        atol=1e-15,
    )


def test_odd_examples():
    np.testing.assert_allclose(
        _box_muller(np.array([[E, 0.0, E, 0.0]]), 3)[0], [0.0, 1.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        _box_muller(np.array([[E, 0.25, E, 0.0]]), 3)[0],
        [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0],
        atol=1e-15,
    )


def test_shape_validation():
    with pytest.raises(ValueError):
        sphere_points(2, SequenceSpec(3), 1)  # S^1 needs a 2-D spec
    with pytest.raises(ValueError):
        sphere_points(3, SequenceSpec(2), 1)  # S^2 needs a 4-D spec
    with pytest.raises(ValueError):
        input_dims(1)


def test_input_dims():
    assert input_dims(2) == 2
    assert input_dims(3) == 4
    assert input_dims(4) == 4
    assert input_dims(5) == 6


def test_unit_norm_for_halton_inputs():
    spec = SequenceSpec(4)
    pts = sphere_points(3, spec, 1000)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    pts4 = sphere_points(4, spec, 1000)
    np.testing.assert_allclose(np.linalg.norm(pts4, axis=1), 1.0, atol=1e-12)


def test_extreme_coordinates_stay_finite():
    for u in ([0.0, 0.0], [1.0 - 2.0**-53, 0.9999999], [2.0**-60, 0.5]):
        v = _box_muller(np.array([u]), 2)[0]
        assert np.all(np.isfinite(v))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_dispatch_even_and_odd():
    spec2 = SequenceSpec(2)
    ref = box_muller_reference(point_at(spec2, 7), 2)
    np.testing.assert_allclose(sphere_sequence(2, spec2, 7), ref, rtol=0, atol=1e-15)
    spec4 = SequenceSpec(4)
    for n in (3, 4):
        ref = box_muller_reference(point_at(spec4, 7), n)
        np.testing.assert_allclose(sphere_sequence(n, spec4, 7), ref, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        sphere_sequence(3, spec2, 1)  # S^2 needs a 4-D spec


def test_batch_matches_scalar():
    spec = SequenceSpec(4, permutation_seed=5)
    batch = sphere_points(3, spec, 500)
    for index in (1, 2, 99, 500):
        assert np.array_equal(batch[index - 1], sphere_sequence(3, spec, index))


@pytest.mark.parametrize("n", [3, 4])
def test_uniformity_moments(n):
    spec = SequenceSpec(input_dims(n))
    pts = sphere_points(n, spec, 100000)
    # second moment of any coordinate of a uniform direction is 1/n
    assert abs(np.mean(pts[:, 0] ** 2) - 1.0 / n) < 5e-3
    assert abs(np.mean(pts[:, 0] > 0) - 0.5) < 0.01


def test_empirical_mean_vanishes_on_s2():
    spec = SequenceSpec(4)
    pts = sphere_points(3, spec, 100000)
    assert np.abs(pts.mean(axis=0)).max() < 0.01
