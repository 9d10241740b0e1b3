"""Classical and quantum f-divergences with explicit maximal-divergence
witnesses and numerically verified Pinsker-type bounds."""

from .bounds import (
    BoundReport,
    adaptive_simpson,
    binette_rhs,
    decoherence_bounds,
    pinsker_chi2_lower,
    reverse_pinsker_report,
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
    WitnessReport,
    build_witness,
    verify_witness,
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
    "BoundReport",
    "ClassicalDistribution",
    "DensityMatrix",
    "FGenerator",
    "QfdivError",
    "QuantumChannel",
    "Witness",
    "WitnessBatch",
    "WitnessReport",
    "adaptive_simpson",
    "binette_rhs",
    "build_witness",
    "builtin_generator",
    "classical_f_div",
    "decoherence_bounds",
    "max_relative_entropy",
    "pinsker_chi2_lower",
    "random_channel",
    "reverse_pinsker_report",
    "substream",
    "verify_witness",
    "witness_batch",
    "zeta1_closed",
    "zeta1_integral",
]
