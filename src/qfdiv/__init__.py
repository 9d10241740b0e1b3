"""Classical and quantum f-divergences with explicit maximal-divergence
witnesses and numerically verified Pinsker-type bounds."""

from .bounds import (
    binette_rhs,
    decoherence_bounds,
    pinsker_chi2_lower,
    zeta1_closed,
    zeta1_integral,
)
from .divergence import (
    classical_f_div,
    max_relative_entropy,
)
from .errors import QfdivError
from .generators import BUILTIN_NAMES, FGenerator, builtin_generator
from .maximal import (
    Witness,
    WitnessBatch,
    build_witness,
    witness_batch,
)
from .states import (
    ClassicalDistribution,
    DensityMatrix,
    QuantumChannel,
    random_channel,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "ClassicalDistribution",
    "DensityMatrix",
    "FGenerator",
    "QfdivError",
    "QuantumChannel",
    "Witness",
    "WitnessBatch",
    "binette_rhs",
    "build_witness",
    "builtin_generator",
    "classical_f_div",
    "decoherence_bounds",
    "max_relative_entropy",
    "pinsker_chi2_lower",
    "random_channel",
    "substream",
    "witness_batch",
    "zeta1_closed",
    "zeta1_integral",
]
