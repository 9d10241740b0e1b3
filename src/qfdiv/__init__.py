"""Classical and quantum f-divergences with explicit maximal-divergence
witnesses and numerically verified Pinsker-type bounds."""

from .bounds import (
    BoundReport,
    adaptive_simpson,
    audenaert_eisert_bound,
    binette_rhs,
    check_audenaert_eisert,
    check_quantum_pinsker_chi2,
    check_reverse_pinsker_quantum,
    decoherence_bounds,
    pinsker_chi2_lower,
    reverse_pinsker_report,
    zeta1_closed,
    zeta1_integral,
)
from .divergence import (
    classical_f_div,
    max_relative_entropy,
    quantum_chi2,
    quantum_relative_entropy,
    trace_distance,
)
from .errors import QfdivError
from .generators import BUILTIN_NAMES, FGenerator, builtin_generator
from .maximal import (
    Witness,
    WitnessBatch,
    WitnessReport,
    build_witness,
    maximal_f_div,
    verify_witness,
    witness_batch,
)
from .states import (
    ClassicalDistribution,
    DensityMatrix,
    QuantumChannel,
    apply_channel,
    diagonal_state,
    random_channel,
    random_density,
    satisfies_abs_condition,
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
    "apply_channel",
    "audenaert_eisert_bound",
    "binette_rhs",
    "build_witness",
    "builtin_generator",
    "check_audenaert_eisert",
    "check_quantum_pinsker_chi2",
    "check_reverse_pinsker_quantum",
    "classical_f_div",
    "decoherence_bounds",
    "diagonal_state",
    "max_relative_entropy",
    "maximal_f_div",
    "pinsker_chi2_lower",
    "quantum_chi2",
    "quantum_relative_entropy",
    "random_channel",
    "random_density",
    "reverse_pinsker_report",
    "satisfies_abs_condition",
    "substream",
    "trace_distance",
    "verify_witness",
    "witness_batch",
    "zeta1_closed",
    "zeta1_integral",
]
