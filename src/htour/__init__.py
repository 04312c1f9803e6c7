"""Finite 3-hypertournaments: classification, completion, families, arrows."""

from .classify import (
    ALL_TYPES,
    CYCLIC,
    EVEN,
    H4_FREE,
    ConstraintSet,
    FourType,
    census4,
    class_member,
    four_type,
)
from .completion import (
    MinimalityReport,
    PropagationResult,
    SolveResult,
    all_completions,
    amalgamate,
    complete,
    is_minimal_obstruction,
    propagate,
)
from .core import (
    HOLE,
    IN_R,
    MINUS,
    PLUS,
    REVERSED,
    ContradictoryTriple,
    GuardExceeded,
    HoleyHT,
    HoleyInput,
    Hypergraph3,
    InputError,
    complete_hypergraph,
    hat,
    is_isomorphic,
    unhat,
    validate,
)
from .families import (
    ChainBuilder,
    ChainInconsistent,
    ChainSpec,
    LinkKind,
    gadget,
    gen_bn,
    gen_cyclic,
    gen_even,
    gen_on,
    gen_onneg,
    on_deletion_tuples,
    onneg_deletion_tuples,
)
from .ramsey import (
    ArrowVerdict,
    ExpansionKind,
    ExpansionMismatch,
    OrderedHT,
    arrow_check,
    compatible_orders_cyclic,
    embeddings,
    fill_holes_ordered,
)

__version__ = "0.1.0"
