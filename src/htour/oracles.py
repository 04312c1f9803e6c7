"""Brute-force reference procedures.

These enumerate candidate completions directly over the hole assignments
and run unit propagation by plain rescanning, judging 4-subsets through
itertools.combinations, triple_rank and mask_of (not the solver's flat
index, action table or class test), enumerate embeddings by comparing
orientation_of on every order-preserving injection, and sweep every
coloring of an arrow check in plain counter order.  They share no pruning,
ordering or position-table machinery with the solver or the arrow search
and exist so that their results can be checked against an independent
computation.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import TYPE_CHECKING

from .classify import ConstraintSet, mask_of
from .core import HOLE, MINUS, PLUS, GuardExceeded, HoleyHT, triple_rank, triples

if TYPE_CHECKING:  # annotations only, so the arrow search is not loaded
    from .ramsey import OrderedHT

BRUTE_FORCE_HOLE_GUARD = 22


def _violates(table, ranks, bits) -> bool:
    """Is the 4-subset with these four triple ranks fully assigned, with a
    type outside `bits`?"""
    values = [table[r] for r in ranks]
    return HOLE not in values and not (bits >> mask_of(*values)) & 1


def _quad_ranks(n: int) -> list[tuple[int, int, int, int]]:
    """The ranks of {abc}, {abd}, {acd}, {bcd} (the order mask_of reads) of
    every 4-subset {a<b<c<d} of 1..n."""
    return [
        (triple_rank(a, b, c), triple_rank(a, b, d), triple_rank(a, c, d), triple_rank(b, c, d))
        for a, b, c, d in itertools.combinations(range(1, n + 1), 4)
    ]


def unit_fixpoint(structure: HoleyHT, allowed) -> tuple[bool, set]:
    """Unit propagation by rescanning: sweep every 4-subset until a sweep
    changes nothing.  A 4-subset with one hole that allows one value of it
    forces that value; one that allows neither, or a hole-free one outside
    the class, is a conflict.  Returns (ok, forced): ok is False at a
    conflict, and forced is the set of (triple, value) assigned so far."""
    allowed = ConstraintSet.coerce(allowed)
    bits = allowed.mask_bits()
    names = triples(structure.n)
    quads = _quad_ranks(structure.n)
    table = bytearray(structure.table)
    forced: set = set()
    changed = True
    while changed:
        changed = False
        for ranks in quads:
            values = [table[r] for r in ranks]
            if values.count(HOLE) > 1:
                continue
            if HOLE not in values:
                if not (bits >> mask_of(*values)) & 1:
                    return False, forced
                continue
            pos = values.index(HOLE)
            ok = []
            for value in (PLUS, MINUS):
                values[pos] = value
                if (bits >> mask_of(*values)) & 1:
                    ok.append(value)
            if not ok:
                return False, forced
            if len(ok) == 1:
                table[ranks[pos]] = ok[0]
                forced.add((names[ranks[pos]], ok[0]))
                changed = True
    return True, forced


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
    n = structure.n
    bits = allowed.mask_bits()
    quads = _quad_ranks(n)
    table = bytearray(structure.table)
    if any(_violates(table, q, bits) for q in quads):
        return []
    through = [[q for q in quads if r in q] for r in holes]
    out: list[HoleyHT] = []

    def rec(i: int) -> None:
        if i == len(holes):
            out.append(HoleyHT(n, bytes(table)))
            return
        r = holes[i]
        for v in (PLUS, MINUS):
            table[r] = v
            if not any(_violates(table, q, bits) for q in through[i]):
                rec(i + 1)
        table[r] = HOLE

    rec(0)
    return out


def embeddings(small: OrderedHT, big: OrderedHT) -> list[tuple[int, ...]]:
    """Every order-preserving injection of `small` into `big` that keeps
    orientation_of on each triple (and, for EVEN, adjacency on each pair),
    as a tuple f with f[i-1] = image of small's vertex i, lexicographic in
    the chosen order positions of `big`."""
    out = []
    for chosen in itertools.combinations(big.order, small.n):
        f = dict(zip(small.order, chosen))
        if any(small.ht.orientation_of(a, b, c) != big.ht.orientation_of(f[a], f[b], f[c])
               for a, b, c in itertools.combinations(small.ht.vertices, 3)):
            continue
        if small.graph is not None and any(
                ((a, b) in small.graph) != (tuple(sorted((f[a], f[b]))) in big.graph)
                for a, b in itertools.combinations(small.ht.vertices, 2)):
            continue
        out.append(tuple(f[v] for v in small.ht.vertices))
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
