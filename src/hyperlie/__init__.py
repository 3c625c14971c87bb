"""Finite Lie hyperalgebras over finite hyperfields: fundamental relations,
quotient Lie algebras, and the structural checks built on them.

The imports below are the public API; `import *` binds them and the
submodules."""

from .analysis import (
    NeighborhoodSet,
    SnPartVerdict,
    bell_number,
    is_Sn_part,
    is_transitive_Sn,
    iter_partitions_rgs,
    lemma_equivalence_check,
    neighborhood_P,
    nontransitivity_search,
    relation_S,
    smallest_solvable_oracle,
)
from .errors import (
    AxiomFailure,
    BoundsExceeded,
    CarrierCapExceeded,
    CharTwoGate,
    DegenerateField,
    FieldMismatch,
    HyperlieError,
    InternalInvariant,
    MalformedTable,
    NoSolvableQuotient,
    NotAField,
    NotAGroup,
    NotASubgroup,
    NotAVectorSpace,
    NotLie,
    NotSymmetric,
    NotWellDefined,
    ParseError,
    TooLarge,
)
from .generators import (
    CONSTANT_PRESETS,
    gen_coset_hypergroup,
    gen_orbit_quotient,
    gen_quotient_hyperfield,
    gen_trivial_field,
    gen_trivial_from_lie,
    make_cyclic_group,
    make_s3,
    preset_structure,
)
from .interchange import parse_structure, serialize_structure
from .quotients import (
    FiniteField,
    FiniteLieAlgebra,
    derived_dims,
    derived_series,
    detect_trivial,
    is_perfect,
    linear_oracle_partition,
    quotient_field,
    quotient_lie_algebra,
    solvable_length,
)
from .relations import (
    DEFAULT_BOUNDS,
    HARD_CAP,
    ExpressionBounds,
    Partition,
    RelationStatus,
    clear_relation_cache,
    closed_relation,
    hyper_derived_sets,
    is_strongly_regular,
    relation_A,
    relation_L,
    relation_Sn,
    relation_alpha,
    relation_json,
    relation_with_escalation,
    transitive_closure,
)
from .structures import (
    CheckReport,
    FiniteHyperfield,
    FiniteLieHyperalgebra,
    Hypergroup,
    check_hyperfield,
    check_hypergroup,
    check_lie_hyperalgebra,
    reevaluate,
)

__version__ = "1.0.0"
