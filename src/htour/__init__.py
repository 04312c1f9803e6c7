"""Finite 3-hypertournaments: classification, completion, families, arrows.

The public names below load their submodule on first use (PEP 562), so
importing the package, or one submodule such as ``htour.cli``, loads only
what it needs.
"""

import importlib

# public name -> the submodule that defines it
_SOURCE = {
    **dict.fromkeys((
        "ALL_TYPES", "CYCLIC", "EVEN", "H4_FREE", "ConstraintSet", "FourType",
        "census4", "class_member", "four_type",
    ), "classify"),
    **dict.fromkeys((
        "MinimalityReport", "PropagationResult", "SolveResult", "all_completions",
        "amalgamate", "complete", "is_minimal_obstruction", "propagate",
    ), "completion"),
    **dict.fromkeys((
        "HOLE", "IN_R", "MINUS", "PLUS", "REVERSED", "ContradictoryTriple",
        "GuardExceeded", "HoleyHT", "HoleyInput", "Hypergraph3", "InputError",
        "hat", "is_isomorphic", "unhat", "validate",
    ), "core"),
    **dict.fromkeys((
        "ChainBuilder", "ChainInconsistent", "LinkKind", "gadget",
        "gen_bn", "gen_cyclic", "gen_even", "gen_on", "gen_onneg",
        "on_deletion_tuples", "onneg_deletion_tuples",
    ), "families"),
    **dict.fromkeys((
        "ArrowVerdict", "ExpansionKind", "ExpansionMismatch", "OrderedHT",
        "arrow_check", "compatible_orders_cyclic", "embeddings",
    ), "ramsey"),
}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
