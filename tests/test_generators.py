"""Tests for the convex divergence generators."""

import math
import warnings

import numpy as np
import pytest

from qfdiv.errors import DomainError, InvariantViolation, UnknownGenerator
from qfdiv.generators import BUILTIN_NAMES, FGenerator, builtin_generator


def test_builtin_names_are_exactly_the_three_generators():
    assert BUILTIN_NAMES == ("kl", "chi2", "tv")
    for name in BUILTIN_NAMES:
        assert builtin_generator(name).name == name
        # built once, at import, and shared: it is frozen
        assert builtin_generator(name) is builtin_generator(name)


def test_kl_generator_values():
    kl = builtin_generator("kl")
    at = kl.values([1.0, 0.0, math.e, 2.0])
    assert at[:2].tolist() == [0.0, 0.0]
    assert at[2:] == pytest.approx([math.e, 2.0 * math.log(2.0)])
    assert kl.second_derivative(0.5) == pytest.approx(2.0)
    assert kl.operator_convex


def test_chi2_generator_values():
    chi2 = builtin_generator("chi2")
    assert chi2.values([1.0, 0.0, 3.0]).tolist() == [0.0, -1.0, 8.0]
    assert chi2.second_derivative(17.0) == 2.0
    assert chi2.operator_convex


def test_tv_generator_values():
    tv = builtin_generator("tv")
    assert tv.values([1.0, 0.0, 2.5, 0.25]).tolist() == [0.0, 1.0, 1.5, 0.75]
    assert tv.second_derivative is None
    assert not tv.operator_convex


def test_unknown_builtin_is_rejected():
    with pytest.raises(UnknownGenerator):
        builtin_generator("hellinger")


def test_custom_generator_registration():
    # f(x) = (x - 1)^2 is convex with f(1) = 0 and f'' = 2
    quad = FGenerator(
        name="squared-gap",
        value=lambda x: (x - 1.0) ** 2,
        value_at_zero=1.0,
        second_derivative=lambda x: 2.0,
    )
    assert quad.values([0.0, 3.0]).tolist() == [1.0, 4.0]
    assert not quad.operator_convex


def test_generator_without_normalization_is_rejected():
    with pytest.raises(InvariantViolation) as info:
        FGenerator(name="bad", value=lambda x: x, value_at_zero=0.0)
    assert info.value.invariant == "normalization"


def test_concave_generator_is_rejected():
    with pytest.raises(InvariantViolation) as info:
        FGenerator(name="bad", value=lambda x: -((x - 1.0) ** 2), value_at_zero=-1.0)
    assert info.value.invariant == "convexity"


def test_wrong_second_derivative_is_rejected():
    with pytest.raises(InvariantViolation) as info:
        FGenerator(
            name="bad",
            value=lambda x: (x - 1.0) ** 2,
            value_at_zero=1.0,
            second_derivative=lambda x: 5.0,
        )
    assert info.value.invariant == "second-derivative"


@pytest.mark.parametrize("x", [-1.0, [0.5, -1e-300], np.nan, [1.0, np.nan], -np.inf, "x", "2",
                               [1.0, "x"], 1j, np.array([2.0 + 0j]), [[1.0], [1.0, 2.0]]],
                         ids=["negative", "negative-entry", "nan", "nan-entry", "minus-inf",
                              "string", "numeric-string", "string-entry", "complex",
                              "complex-array", "ragged"])
def test_values_rejects_points_outside_its_domain(x):
    # no nan, no RuntimeWarning and no bare numpy error: a typed DomainError
    for f in map(builtin_generator, BUILTIN_NAMES):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                f.values(x)
