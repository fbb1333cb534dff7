import numpy as np
import pytest
from hypothesis import given, strategies as st

from tunnelsplit.errors import AsymmetricPotential, NonPositiveWidth
from tunnelsplit.potential import (
    PotentialSpec,
    evaluate,
    make_piecewise,
    make_rectangular,
)


def test_rectangular_zero_height():
    spec = make_rectangular(0.0, 2.0, 0.0)
    assert spec.x_c == 1.0
    assert spec.b == 2.0
    assert evaluate(spec, 1.0) == 0.0


def test_rectangular_midpoint():
    spec = make_rectangular(2.0, 1.0, -0.5)
    assert spec.x_c == 0.0
    assert spec.segments == ((1.0, 2.0),)


def test_rectangular_rejects_nonpositive_length():
    with pytest.raises(NonPositiveWidth):
        make_rectangular(1.0, -1.0, 0.0)
    with pytest.raises(NonPositiveWidth):
        make_rectangular(1.0, 0.0, 0.0)


@pytest.mark.parametrize("segments", [((np.nan, 1.0),), ((np.inf, 1.0),),
                                      ((1.0, 0.5), (np.nan, 1.0), (1.0, 0.5))],
                         ids=["nan", "inf", "nan-middle"])
def test_rejects_non_finite_width(segments):
    with pytest.raises(NonPositiveWidth):
        PotentialSpec(a=-1.0, segments=segments)


@pytest.mark.parametrize("a, segments", [(-1.0, ((2.0, np.nan),)), (-1.0, ((2.0, np.inf),)),
                                         (np.nan, ((2.0, 1.0),))],
                         ids=["height-nan", "height-inf", "a-nan"])
def test_rejects_non_finite_height_or_start(a, segments):
    with pytest.raises(ValueError):
        PotentialSpec(a=a, segments=segments)


def test_piecewise_symmetric_accepted():
    spec = make_piecewise(0.0, [(1, 0.5), (1, 2.0), (1, 0.5)])
    assert spec.symmetric
    assert spec.x_c == 1.5


def test_piecewise_asymmetric_rejected():
    with pytest.raises(AsymmetricPotential):
        make_piecewise(0.0, [(1, 0.5), (1, 2.0)])


def test_piecewise_single_segment_equals_rectangular():
    assert make_piecewise(0.3, [(2, 1.0)]) == make_rectangular(1.0, 2, 0.3)


def test_asymmetric_constructible_directly():
    spec = PotentialSpec(a=0.0, segments=((1.0, 0.5), (1.0, 2.0)))
    assert not spec.symmetric
    with pytest.raises(AsymmetricPotential):
        spec.require_symmetric()


def test_evaluate_conventions():
    spec = make_rectangular(2.0, 1.0, 0.0)
    assert evaluate(spec, 0.5) == 2.0
    assert evaluate(spec, -3.0) == 0.0
    assert evaluate(spec, 1.0) == 0.0  # right-open at b
    assert evaluate(spec, 0.0) == 2.0  # closed at a


def test_evaluate_interior_boundary_right_open():
    spec = make_piecewise(0.0, [(1, 0.5), (1, 2.0), (1, 0.5)])
    assert evaluate(spec, 1.0) == 2.0
    assert evaluate(spec, 2.0) == 0.5


def test_evaluate_vectorized():
    spec = make_rectangular(3.0, 2.0, -1.0)
    x = np.array([-2.0, -1.0, 0.0, 0.999, 1.0, 5.0])
    np.testing.assert_array_equal(evaluate(spec, x), [0, 3, 3, 3, 0, 0])


def test_width_sum_invariant():
    spec = make_piecewise(-1.5, [(0.5, 1.0), (2.0, 3.0), (0.5, 1.0)])
    assert abs(spec.b - spec.a - 3.0) < 1e-12


def test_reconstruction_identity():
    spec = make_piecewise(-2.0, [(1, 0.2), (2, 1.7), (1, 0.2)])
    rebuilt = PotentialSpec(a=spec.a, segments=spec.segments)
    assert rebuilt == spec


@given(
    st.floats(min_value=-5, max_value=5),
    st.lists(
        st.tuples(
            st.floats(min_value=0.05, max_value=3),
            st.floats(min_value=-2, max_value=4),
        ),
        min_size=1,
        max_size=5,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_symmetric_evaluate_mirrors(a, half, frac):
    """V(x_c - d) == V(x_c + d) strictly inside segments of a mirrored spec."""
    segments = half + half[::-1]
    spec = PotentialSpec(a=a, segments=tuple(segments))
    assert spec.symmetric
    d = frac * (spec.b - spec.a) / 2.0
    lo, hi = spec.x_c - d, spec.x_c + d
    edges = spec.edges()
    # skip offsets landing on an edge, where the right-open convention
    # makes the two sides legitimately differ
    if any(abs(p - e) < 1e-9 for p in (lo, hi) for e in edges):
        return
    assert evaluate(spec, lo) == pytest.approx(evaluate(spec, hi), abs=1e-12)
