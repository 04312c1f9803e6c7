"""Brute-force reference procedures.

These enumerate candidate completions directly over the hole assignments,
judging 4-subsets through the public classification path only, and sweep
every coloring of an arrow check in plain counter order.  They share no
pruning or ordering machinery with the solver or the arrow search and exist
so that their results can be checked against an independent computation.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

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
from .ramsey import OrderedHT, embeddings

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


def least_refuting_coloring(big: OrderedHT, mid: OrderedHT, small: OrderedHT,
                            colors: int = 2) -> tuple[int, tuple] | None:
    """Plain base-`colors` counter sweep over the colorings of the embeddings
    of `small` into `big` (digit i = color of embedding i, embeddings in
    `embeddings` order).  Returns (counter value, coloring) of the first
    coloring under which no copy of `mid` has all its `small`-embeddings in
    one color, or None when there is none, i.e. when the arrow holds.
    """
    embs = embeddings(small, big)
    k = len(embs)
    # itertools.product varies its last entry fastest, so it yields the
    # colorings in counter order, digit i at position k-1-i
    place = {e: k - 1 - i for i, e in enumerate(embs)}
    inner = embeddings(small, mid)
    copies = [
        [place[tuple(g[v - 1] for v in e)] for e in inner]
        for g in embeddings(mid, big)
    ]
    if any(len(copy) <= 1 for copy in copies):
        return None  # such a copy is monochromatic under every coloring
    # a copy is monochromatic when the colors of its embeddings, picked out
    # of the digits, form a constant tuple
    pick = [itemgetter(*copy) for copy in copies]
    mono = {(color,) * len(inner) for color in range(colors)}
    for counter, digits in enumerate(itertools.product(range(colors), repeat=k)):
        for colors_of in pick:
            if colors_of(digits) in mono:
                break
        else:
            return counter, digits[::-1]
    return None
