"""One table of the entry points that take numbers or counts from outside.

Every entry point converts outside numbers with ``linalg.numbers`` and
checks counts with ``linalg.check_counts``, so each refuses the same inputs
with the same error: entries that are not numbers (a numeric string, a
complex entry where reals are wanted, a ragged list, None) are
``DomainError``, and a count below its minimum, a float or a numeric
string is ``OutOfRange``, naming the count, and so is a key prefix that
is not a tuple or list.  Each row also runs once with
a good value in the same place, so it is that value the table varies.
"""

import numpy as np
import pytest

from qfdiv import linalg
from qfdiv.bounds import (
    audenaert_eisert_rows,
    binette_rhs,
    decoherence_bounds,
    pinsker_chi2_lower,
    zeta1_closed,
    zeta1_integral,
)
from qfdiv.cli import ExperimentConfig
from qfdiv.divergence import f_div_rows
from qfdiv.errors import DomainError, OutOfRange
from qfdiv.generators import builtin_generator
from qfdiv.states import (
    DensityStack,
    QuantumChannel,
    apply_channel_rows,
    ginibre_states,
    random_channel,
    random_pairs,
    substream,
    substreams,
)
from qfdiv.verify import (
    condition_rate,
    dpi_suite,
    maximality_and_pinsker,
    operator_jensen_suite,
    reverse_pinsker_and_binette,
    trace_identity_suite,
    witness_suite,
)

KL = builtin_generator("kl")

# name -> (call with x in one numeric place, a good x, whether complex x is good)
NUMBER_TAKERS = {
    "DensityStack": (lambda x: DensityStack([[[x, 0], [0, 0.5]]]), 0.5, True),
    "DensityStack-two-rows": (lambda x: DensityStack([np.eye(2) / 2, [[x, 0], [0, 0.5]]]),
                              0.5, True),
    "ginibre_states": (lambda x: ginibre_states([[[x, 0], [0, 0.5]]]), 0.5, True),
    "QuantumChannel": (lambda x: QuantumChannel([[[x, 0], [0, 1]]]), 1.0, True),
    "apply_channel_rows": (lambda x: apply_channel_rows([[[[x, 0], [0, 1]]]],
                                                        DensityStack([np.eye(2) / 2])),
                           1.0, True),
    "FGenerator.values": (lambda x: KL.values([x, 0.5]), 0.5, False),
    "f_div_rows": (lambda x: f_div_rows([[x, 0.5]], [[0.5, 0.5]], KL), 0.5, False),
    "f_div_rows-q": (lambda x: f_div_rows([[0.5, 0.5]], [[x, 0.5]], KL), 0.5, False),
    "pinsker_chi2_lower": (lambda x: pinsker_chi2_lower([x, 0.5]), 0.5, False),
    "decoherence_bounds": (lambda x: decoherence_bounds(x, 0.1, 1.0), 4.0, False),
    "binette_rhs": (lambda x: binette_rhs([x, 0.5], [2.0, 2.0], [0.5, 0.5], KL), 0.5, False),
    "zeta1_closed": (lambda x: zeta1_closed([x, 0.5], [2.0, 2.0], KL), 0.5, False),
    "zeta1_integral": (lambda x: zeta1_integral([x, 0.5], [2.0, 2.0], KL), 0.5, False),
    "audenaert_eisert_rows": (lambda x: audenaert_eisert_rows([0.5, 0.5], [x, 0.1], [0.25, 0.25]),
                              0.1, False),
    "substreams-indices": (lambda x: substreams(1, (), [x, 1]), 0, False),
}

# name -> (call with c as one count, a good c, the least count allowed)
COUNT_TAKERS = {
    "random_pairs-n": (lambda c: random_pairs([substream(1, 0)], c), 2, 1),
    "random_pairs-rank": (lambda c: random_pairs([substream(1, 0)], 2, c), 1, 1),
    "random_channel-n": (lambda c: random_channel(c, seed=1), 2, 1),
    "random_channel-k": (lambda c: random_channel(2, c, seed=1), 1, 1),
    "substream-seed": (lambda c: substream(c), 0, 0),
    "substream-key": (lambda c: substream(1, c), 0, 0),
    "substreams-seed": (lambda c: substreams(c, (), [0]), 0, 0),
    "substreams-prefix": (lambda c: substreams(1, (c,), [0]), 0, 0),
    "witness_suite-dims": (lambda c: witness_suite(dims=(c,), pairs_per_dim=1, seed=42), 2, 1),
    "witness_suite-pairs_per_dim": (lambda c: witness_suite(dims=(2,), pairs_per_dim=c, seed=42),
                                    1, 1),
    "dpi_suite-dim": (lambda c: dpi_suite(c, 1, 42), 2, 1),
    "dpi_suite-trials": (lambda c: dpi_suite(2, c, 42), 1, 1),
    "maximality_and_pinsker-dim": (lambda c: maximality_and_pinsker(c, 1, 42), 2, 1),
    "maximality_and_pinsker-samples": (lambda c: maximality_and_pinsker(2, c, 42), 1, 1),
    "reverse_pinsker_and_binette-dim": (lambda c: reverse_pinsker_and_binette(c, 1, 42), 2, 1),
    "reverse_pinsker_and_binette-samples": (lambda c: reverse_pinsker_and_binette(2, c, 42), 1, 1),
    "trace_identity_suite-trials": (lambda c: trace_identity_suite(c, 42), 1, 1),
    "operator_jensen_suite-trials": (lambda c: operator_jensen_suite(c, 42), 1, 1),
    "condition_rate-dim": (lambda c: condition_rate(c, 1, 42, False), 2, 1),
    "condition_rate-samples": (lambda c: condition_rate(2, c, 42, False), 1, 1),
    "ExperimentConfig-dim": (lambda c: ExperimentConfig(dim=c), 2, 2),
    "ExperimentConfig-seed": (lambda c: ExperimentConfig(seed=c), 0, 0),
    "ExperimentConfig-samples": (lambda c: ExperimentConfig(samples=c), 1, 1),
}

NOT_NUMBERS = {
    "numeric-string": lambda good: str(good),
    "complex": lambda good: complex(good),
    "ragged": lambda good: [good, [good]],
    "none": lambda good: None,
}

BAD_COUNTS = {
    "below-minimum": lambda least: least - 1,
    "float": lambda least: 2.5,
    "numeric-string": lambda least: "3",
}


def _number_cases():
    for name, (call, good, complex_ok) in NUMBER_TAKERS.items():
        yield pytest.param(call, good, None, id=f"{name}-good")
        for case, bad in NOT_NUMBERS.items():
            if not (case == "complex" and complex_ok):
                yield pytest.param(call, bad(good), DomainError, id=f"{name}-{case}")


def _count_cases():
    for name, (call, good, least) in COUNT_TAKERS.items():
        yield pytest.param(call, good, None, id=f"{name}-good")
        for case, bad in BAD_COUNTS.items():
            yield pytest.param(call, bad(least), OutOfRange, id=f"{name}-{case}")


@pytest.mark.parametrize("call, x, error", _number_cases())
def test_entries_that_are_not_numbers_are_a_domain_error(call, x, error):
    if error is None:
        call(x)
        return
    with pytest.raises(DomainError, match="^entries are not numbers: "):
        call(x)


@pytest.mark.parametrize("call, c, error", _count_cases())
def test_a_count_that_is_not_an_integer_of_its_minimum_is_out_of_range(call, c, error):
    if error is None:
        call(c)
        return
    with pytest.raises(OutOfRange, match=rf"^\w+(\[0\])? must be an integer >= \d, got {c!r}$"):
        call(c)


@pytest.mark.parametrize("prefix", [5, 2.5, None], ids=["int", "float", "none"])
def test_a_key_prefix_that_is_not_a_tuple_or_list_is_out_of_range(prefix):
    want = rf"^prefix must be a tuple or list of integers >= 0, got {prefix!r}$"
    with pytest.raises(OutOfRange, match=want):
        substreams(1, prefix, [0])


@pytest.mark.parametrize("carrier", ["DensityStack", "DensityStack-two-rows", "ginibre_states",
                                     "QuantumChannel", "apply_channel_rows"])
@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_non_finite_entries_are_a_domain_error_in_every_carrier(carrier, x):
    with pytest.raises(DomainError, match="^entries are not finite$"):
        NUMBER_TAKERS[carrier][0](x)


def test_numbers_returns_an_array_of_its_dtype_as_is():
    # the state stacks of the sampling loops are complex128 and not copied
    mats = np.eye(2, dtype=np.complex128)[None] / 2
    assert linalg.numbers(mats, np.complex128) is mats
    assert linalg.as_complex_matrix(mats) is mats
    floats = np.array([0.5, 0.5])
    assert linalg.numbers(floats) is floats
    assert linalg.numbers([True, 2, np.uint8(3)]).dtype == np.float64


def test_carriers_copy_the_callers_array_before_freezing_it():
    # a complex128 stack passes linalg.numbers uncopied, so the carrier copies it
    mats, op = np.eye(2, dtype=np.complex128)[None] / 2, np.eye(2)
    rho, channel = DensityStack(mats), QuantumChannel([op])
    assert not rho.mats.flags.writeable and not channel.kraus.flags.writeable
    assert mats.flags.writeable and op.flags.writeable


def test_check_counts_takes_numpy_integers_and_names_the_first_bad_count():
    linalg.check_counts(n=np.int64(3), k=np.uint8(1))
    with pytest.raises(OutOfRange, match="^k must be an integer >= 2, got 1$"):
        linalg.check_counts(2, n=3, k=1, rank=0)
