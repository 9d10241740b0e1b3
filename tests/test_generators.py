"""Tests for the convex divergence generators."""

import math

import pytest

from qfdiv.errors import InvariantViolation, UnknownGenerator
from qfdiv.generators import BUILTIN_NAMES, FGenerator, builtin_generator


def test_builtin_names_are_exactly_the_three_generators():
    assert BUILTIN_NAMES == ("kl", "chi2", "tv")
    for name in BUILTIN_NAMES:
        assert builtin_generator(name).name == name
        # built once, at import, and shared: it is frozen
        assert builtin_generator(name) is builtin_generator(name)


def test_kl_generator_values():
    kl = builtin_generator("kl")
    assert kl.at(1.0) == 0.0
    assert kl.at(0.0) == 0.0
    assert kl.at(math.e) == pytest.approx(math.e)
    assert kl.at(2.0) == pytest.approx(2.0 * math.log(2.0))
    assert kl.second_derivative(0.5) == pytest.approx(2.0)
    assert kl.operator_convex


def test_chi2_generator_values():
    chi2 = builtin_generator("chi2")
    assert chi2.at(1.0) == 0.0
    assert chi2.at(0.0) == -1.0
    assert chi2.at(3.0) == pytest.approx(8.0)
    assert chi2.second_derivative(17.0) == 2.0
    assert chi2.operator_convex


def test_tv_generator_values():
    tv = builtin_generator("tv")
    assert tv.at(1.0) == 0.0
    assert tv.at(0.0) == 1.0
    assert tv.at(2.5) == pytest.approx(1.5)
    assert tv.at(0.25) == pytest.approx(0.75)
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
    assert quad.at(0.0) == 1.0
    assert quad.at(3.0) == pytest.approx(4.0)
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
