"""Brute-force reference procedures.

These enumerate candidate completions directly over the hole assignments,
judging 4-subsets through the public classification path only.  They share
no pruning or ordering machinery with the solver and exist so that solver
results can be checked against an independent computation.
"""

from __future__ import annotations

from .classify import ConstraintSet, class_member, mask_of
from .core import (
    HOLE,
    MINUS,
    PLUS,
    GuardExceeded,
    HoleyHT,
    quad_triple_ranks,
    triple_quad_ids,
)

BRUTE_FORCE_HOLE_GUARD = 22


def _full_quad_violates(table, ranks, bits) -> bool:
    v0, v1, v2, v3 = table[ranks[0]], table[ranks[1]], table[ranks[2]], table[ranks[3]]
    if HOLE in (v0, v1, v2, v3):
        return False
    return not (bits >> mask_of(v0, v1, v2, v3)) & 1


def enumerate_completions(structure: HoleyHT, allowed) -> list[HoleyHT]:
    """All hole-free extensions of `structure` inside the allowed class, by
    direct enumeration of hole assignments.

    Output is ordered by the assignment vector over holes in rank order with
    PLUS before MINUS.  An assignment is abandoned as soon as some fully
    assigned 4-subset leaves the class, which prunes the enumeration without
    changing the set of results.
    """
    allowed = ConstraintSet.coerce(allowed)
    holes = [r for r, v in enumerate(structure.table) if v == HOLE]
    if len(holes) > BRUTE_FORCE_HOLE_GUARD:
        raise GuardExceeded(
            f"brute-force enumeration limited to {BRUTE_FORCE_HOLE_GUARD} holes"
        )
    if not class_member(structure, allowed):
        return []

    n = structure.n
    bits = allowed.mask_bits()
    qt = quad_triple_ranks(n)
    tq = triple_quad_ids(n)
    table = bytearray(structure.table)
    out: list[HoleyHT] = []

    def rec(i: int) -> None:
        if i == len(holes):
            out.append(HoleyHT(n, bytes(table)))
            return
        r = holes[i]
        for v in (PLUS, MINUS):
            table[r] = v
            if not any(_full_quad_violates(table, qt[qi], bits) for qi in tq[r]):
                rec(i + 1)
        table[r] = HOLE

    rec(0)
    return out

