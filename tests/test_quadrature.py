"""The in-package Simpson rule against scipy's, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson as scipy_simpson

from tractrix.quadrature import simpson

MAGNITUDES = st.floats(1e-5, 1e5)
VALUES = st.one_of(st.sampled_from([0.0, -0.0]), MAGNITUDES,
                   MAGNITUDES.map(lambda m: -m))


@st.composite
def samples(draw):
    """(x, y): 1 to 60 samples on an even or uneven grid whose spacings
    may be zero, values zero or from 1e-5 to 1e5 in size."""
    n = draw(st.integers(1, 60))
    start = draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        x = np.linspace(start, draw(st.floats(-10.0, 10.0)), n)
    else:
        steps = draw(st.lists(st.one_of(st.just(0.0), MAGNITUDES),
                              min_size=n - 1, max_size=n - 1))
        x = start + np.cumsum([0.0] + steps)
    y = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    return x, y


def _assert_same_bits(got, want):
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


@settings(max_examples=400)
@given(samples())
def test_simpson_matches_scipy_bit_for_bit(xy):
    x, y = xy
    _assert_same_bits(simpson(y, x), scipy_simpson(y, x=x))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simpson_matches_scipy_at_few_samples(n):
    # the last spacing, 2.18938 - 1.9, is one whose cube a numpy scalar
    # rounds differently from a 0-d array
    x = np.array([0.3, 0.7, 1.9, 2.18938])[:n]
    y = np.array([1.5, -2.25, 0.125, 3.0])[:n]
    _assert_same_bits(simpson(y, x), scipy_simpson(y, x=x))




@st.composite
def pole_profile_rows(draw):
    """(length, steps, y): a pole grid of steps + 1 samples and 1 to 5
    profiles on it as the rows of y."""
    length = draw(st.floats(1e-3, 10.0))
    steps = draw(st.integers(1, 80))
    rows = draw(st.integers(1, 5))
    y = np.array(draw(st.lists(
        st.lists(VALUES, min_size=steps + 1, max_size=steps + 1),
        min_size=rows, max_size=rows)))
    return length, steps, y


@settings(max_examples=300)
@given(pole_profile_rows())
def test_pole_rule_on_rows_matches_each_row_bit_for_bit(profiles):
    # one Simpson pass over the rows of every record's profile on the
    # pole grid, against simpson on each row alone
    length, steps, y = profiles
    x = np.linspace(0.0, length, steps + 1)
    got = simpson(y, x)
    assert got.shape == (len(y),)
    for total, row in zip(got.tolist(), y):
        _assert_same_bits(total, simpson(row, x))


def test_rule_refuses_rows_of_another_length():
    with pytest.raises(ValueError, match="same number"):
        simpson(np.zeros((3, 8)), np.linspace(0.0, 1.0, 9))
