"""Classical and quantum f-divergences with explicit maximal-divergence
witnesses and numerically verified Pinsker-type bounds.  A single state is
a one-row :class:`DensityStack`."""

from .bounds import (
    binette_rhs,
    decoherence_bounds,
    pinsker_chi2_lower,
    zeta1_closed,
    zeta1_integral,
)
from .divergence import (
    chi2_rows,
    f_div_rows,
    max_relative_entropy_rows,
    relative_entropy_rows,
)
from .errors import QfdivError
from .generators import BUILTIN_NAMES, FGenerator, builtin_generator
from .maximal import WitnessBatch, witness_batch
from .states import DensityStack, QuantumChannel, random_channel, substream

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "DensityStack",
    "FGenerator",
    "QfdivError",
    "QuantumChannel",
    "WitnessBatch",
    "binette_rhs",
    "builtin_generator",
    "chi2_rows",
    "decoherence_bounds",
    "f_div_rows",
    "max_relative_entropy_rows",
    "pinsker_chi2_lower",
    "random_channel",
    "relative_entropy_rows",
    "substream",
    "witness_batch",
    "zeta1_closed",
    "zeta1_integral",
]
