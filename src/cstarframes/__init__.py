"""Frames and compactness certificates for Hilbert modules over
block-diagonal matrix algebras.

Everything is exact at machine precision: norms come from per-block
spectral computations on faithful realizations, so the library can
certify inequalities rather than estimate them.
"""

from .algebra import AlgebraElement, AlgebraShape, State, norm_attaining_state
from .certify import (
    Certificate,
    CertifyConfig,
    EquivalenceEntry,
    EquivalenceReport,
    GramDefectError,
    SeriesDecomposition,
    certify_equivalences,
    check_condition_a,
    check_condition_b,
    check_condition_cd,
    free_submodule_check,
    operator_precompact,
    series_decompose,
    tails_certificate,
)
from .counterexample import (
    TruncatedCSetting,
    build_setting,
    coeff_growth,
    tail_obstruction,
)
from .frames import DegenerateFrameError, Frame, standard_basis_frame
from .modules import (
    ModuleOperator,
    ModuleVector,
    SampleSet,
    inner_product,
    orthogonal_span_family,
    submodule_distance,
    theta_op,
)
from .seminorms import (
    AdmissibilityReport,
    AdmissibleSystem,
    ApproximationHypothesisError,
    SeminormSpec,
    TailDecaySignal,
    WitnessReport,
    admissible_check,
    adversarial_witness,
    epsilon_net,
    net_covers,
    net_transfer,
    pseudometric_eval,
    seminorm_eval,
    seminorm_values,
    state_values,
)
from .serialization import SchemaError, parse, serialize

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "AdmissibleSystem",
    "AlgebraElement",
    "AlgebraShape",
    "ApproximationHypothesisError",
    "Certificate",
    "CertifyConfig",
    "DegenerateFrameError",
    "EquivalenceEntry",
    "EquivalenceReport",
    "Frame",
    "GramDefectError",
    "ModuleOperator",
    "ModuleVector",
    "SampleSet",
    "SchemaError",
    "SeminormSpec",
    "SeriesDecomposition",
    "State",
    "TailDecaySignal",
    "TruncatedCSetting",
    "WitnessReport",
    "admissible_check",
    "adversarial_witness",
    "build_setting",
    "certify_equivalences",
    "check_condition_a",
    "check_condition_b",
    "check_condition_cd",
    "coeff_growth",
    "epsilon_net",
    "free_submodule_check",
    "inner_product",
    "net_covers",
    "net_transfer",
    "norm_attaining_state",
    "operator_precompact",
    "orthogonal_span_family",
    "parse",
    "pseudometric_eval",
    "seminorm_eval",
    "seminorm_values",
    "serialize",
    "series_decompose",
    "standard_basis_frame",
    "state_values",
    "submodule_distance",
    "tail_obstruction",
    "tails_certificate",
    "theta_op",
]
