"""Exact arithmetic for group-valued graph coloring probabilities over the
poset of bridgeless subgraphs, with reciprocity verification tooling."""

from .gamma import (
    BudgetExceededError,
    GammaVector,
    ReciprocityReport,
    apply_transfer,
    chromatic_via_transfer,
    gamma_bruteforce,
    gamma_cyclespace,
    gamma_fourier,
    gamma_plus,
    gamma_vector,
    hamming_k3_closed_form,
    hamming_k3_from_reciprocity,
    main_term,
    residual,
    residual_order_ratio,
    verify_reciprocity,
)
from .graphs import (
    EdgeSet,
    SubgraphPoset,
    chromatic_oracle,
    components,
    enumerate_poset,
    girth,
    is_isthmus_free,
    iso_class_blocks,
)
from .groups import (
    AllowedSet,
    FiniteAbelianGroup,
    allowed_complement_identity,
    allowed_explicit,
    allowed_hamming,
    allowed_interval,
    character_sum,
    make_group,
    pairing_by_index,
)
from .posetlin import (
    VARIABLE,
    PolyMatrix,
    RationalPoly,
    mobius_matrix,
    transfer_at,
    weighted_zeta_at,
    weighted_zeta_inverse_at,
    zeta_matrix,
)

__version__ = "0.1.0"
