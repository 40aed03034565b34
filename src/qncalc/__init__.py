"""qncalc: exact noncommutative rewriting for q-deformed matrix-group calculi.

The package encodes the 2x2 q-deformed matrix algebra, its unimodular and
quantum-plane reductions, and the matched left/right differential calculi
as oriented rewrite systems over the field Q(q), then verifies every
relation system, consistency condition, and printed equation table by
exact normalization.
"""

from .calculus import (
    CALCULUS_PRESETS,
    DiffStructure,
    apply_delta,
    check_vector_algebra,
    diff_presentation,
    interchange_left_to_right,
    interchange_right_to_left,
    nilpotent_residuals,
    reduction_morphisms,
    vector_field_components,
)
from .dsl import (
    DslError,
    export_presentation,
    parse_equations,
    parse_expression,
    parse_presentation,
    parse_scalar,
)
from .ncalg import (
    Element,
    Generator,
    Presentation,
    RewriteRule,
    StepBudgetExceededError,
    TerminationOrder,
    check_local_confluence,
    normal_words,
    normalize,
    random_strategy_normalize,
    validate_presentation,
)
from .presentations import (
    PRESET_IDS,
    Morphism,
    antipode_residuals,
    coproduct_residuals,
    epsilon_identity_residuals,
    preset,
    qdet,
)
from .qfield import ONE, Q, ZERO, DivisionByZeroError, PoleAtOneError, Scalar
from .rmatrix import (
    forms_rtt_compat,
    perturbed_r,
    r_inverse_conventions,
    rtt_residual,
    standard_r,
    ybe_residual,
)

__version__ = "0.1.0"
