"""Ordered expansions and exhaustive arrow checks.

An ordered structure is a (possibly holey) 3-hypertournament with a linear
order, tagged by the expansion kind that fixes what else must hold:

* CYCLIC: every triple increasing in the order is in the relation, so the
  relation is definable from the order alone.
* EVEN: a graph comes along and the relation is definable from order and
  graph by the parity rule (even edge count inside the triple).
* ALL: nothing beyond the order (holes permitted).

arrow_check(C, B, A, colors) decides, by a pruned exhaustive search over the
colorings of the embeddings of A into C, whether every coloring with
`colors` colors admits a copy of B all of whose A-embeddings share one
color.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cmp_to_key

from .classify import CYCLIC as CYCLIC_SET
from .classify import class_member
from .core import (
    IN_R,
    PLUS,
    GuardExceeded,
    HoleyHT,
    InputError,
    check_order,
)
from .families import gen_even, normalize_edges

MAX_ARROW_EMBEDDINGS = 25


class ExpansionKind(Enum):
    CYCLIC = "cyclic"
    EVEN = "even"
    ALL = "all"


class ExpansionMismatch(InputError):
    """The witness (order / graph) does not produce the given structure."""


def _is_cyclic_for(structure: HoleyHT, order) -> bool:
    n = structure.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if structure.orientation_of(order[i], order[j], order[k]) != IN_R:
                    return False
    return True


@dataclass(frozen=True)
class OrderedHT:
    """A structure with a linear order (and, for EVEN, a graph).

    Validation happens on construction, so holding an OrderedHT means its
    kind invariant is true.
    """

    ht: HoleyHT
    order: tuple
    kind: ExpansionKind
    graph: frozenset | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", check_order(self.order, self.ht.n))
        if self.kind == ExpansionKind.CYCLIC:
            if self.graph is not None:
                raise InputError("cyclic expansions carry no graph")
            if not self.ht.is_complete() or not _is_cyclic_for(self.ht, self.order):
                raise ExpansionMismatch(
                    "structure is not oriented along the given order"
                )
        elif self.kind == ExpansionKind.EVEN:
            if self.graph is None:
                raise InputError("even expansions need a graph")
            object.__setattr__(
                self, "graph", normalize_edges(self.ht.n, self.graph)
            )
            if self.ht != gen_even(self.ht.n, self.graph, self.order):
                raise ExpansionMismatch(
                    "structure does not match the parity rule for (order, graph)"
                )
        elif self.graph is not None:
            raise InputError("free expansions carry no graph")

    @property
    def n(self) -> int:
        return self.ht.n


def expand(structure: HoleyHT, kind: ExpansionKind, order, graph=None) -> OrderedHT:
    """Attach a witness order (and graph) to a structure; raises
    ExpansionMismatch when the witness does not define the structure."""
    return OrderedHT(structure, tuple(order), kind, graph)


def fill_holes_ordered(ordered: OrderedHT) -> OrderedHT:
    """Assign PLUS to every hole of an ALL-kind ordered structure (the fixed
    arbitrary choice).  Embeddings of hole-free structures are preserved."""
    if ordered.kind != ExpansionKind.ALL:
        raise InputError("hole filling applies to the free expansion only")
    if ordered.ht.is_complete():
        return ordered
    return OrderedHT(ordered.ht.filled(PLUS), ordered.order, ExpansionKind.ALL)


def embeddings(small: OrderedHT, big: OrderedHT) -> list[tuple[int, ...]]:
    """All embeddings of `small` into `big`: order-preserving injections
    preserving orientation_of (and the graph, for EVEN).

    Each embedding is a tuple f with f[i-1] = image of small's vertex i.
    The list is complete, duplicate-free and lexicographic in the selected
    order positions of `big`.
    """
    if small.kind != big.kind:
        raise InputError(f"kind mismatch: {small.kind} vs {big.kind}")
    k = small.n
    small_by_pos = small.order
    a_triples = list(itertools.combinations(range(k), 3))
    a_pairs = list(itertools.combinations(range(k), 2))
    out = []
    for chosen in itertools.combinations(big.order, k):
        ok = True
        for i, j, l in a_triples:
            if small.ht.orientation_of(
                small_by_pos[i], small_by_pos[j], small_by_pos[l]
            ) != big.ht.orientation_of(chosen[i], chosen[j], chosen[l]):
                ok = False
                break
        if ok and small.kind == ExpansionKind.EVEN:
            for i, j in a_pairs:
                e_small = tuple(sorted((small_by_pos[i], small_by_pos[j])))
                e_big = tuple(sorted((chosen[i], chosen[j])))
                if (e_small in small.graph) != (e_big in big.graph):
                    ok = False
                    break
        if ok:
            image = [0] * k
            for pos in range(k):
                image[small_by_pos[pos] - 1] = chosen[pos]
            out.append(tuple(image))
    return out


@dataclass(frozen=True)
class ArrowVerdict:
    """Outcome of an exhaustive arrow check.

    `counterexample` (present iff the arrow fails) assigns a color in
    0..colors-1 to each embedding of A into C, listed alongside
    `a_embeddings` in the same order; under it no copy of B is
    monochromatic.  `coloring_index` is the base-`colors` counter value of
    that coloring (digit i = color of embedding i), the least one that
    fails.
    """

    holds: bool
    a_embeddings: tuple
    b_copies: int
    colorings: int
    counterexample: tuple | None = None
    coloring_index: int | None = None


def _copy_masks(big: OrderedHT, mid: OrderedHT, small: OrderedHT,
                emb_index: dict) -> list[int]:
    masks = []
    inner = embeddings(small, mid)
    for g in embeddings(mid, big):
        mask = 0
        for e in inner:
            composed = tuple(g[v - 1] for v in e)
            mask |= 1 << emb_index[composed]
        masks.append(mask)
    return masks


def arrow_check(big: OrderedHT, mid: OrderedHT, small: OrderedHT,
                colors: int = 2, prune: bool = False,
                max_embeddings: int = MAX_ARROW_EMBEDDINGS) -> ArrowVerdict:
    """Exhaustively decide whether every `colors`-coloring of the embeddings
    of `small` into `big` leaves some copy of `mid` monochromatic.

    The search visits colorings in base-`colors` counter order (digit i =
    color of embedding i) and abandons a partial coloring as soon as a fully
    colored copy is monochromatic, so the counterexample it reports is the
    least one.  `prune` is accepted for compatibility and selects nothing:
    the search always prunes.
    """
    embs = embeddings(small, big)
    k = len(embs)
    if k > max_embeddings:
        raise GuardExceeded(
            f"{k} embeddings exceed the exhaustive-coloring guard "
            f"({max_embeddings}); pass a larger max_embeddings to override"
        )
    emb_index = {e: i for i, e in enumerate(embs)}
    masks = _copy_masks(big, mid, small, emb_index)
    total = colors ** k

    if not masks:
        # no copy of mid at all: any coloring (even of nothing) refutes
        return ArrowVerdict(
            holds=False,
            a_embeddings=tuple(embs),
            b_copies=0,
            colorings=total,
            counterexample=(0,) * k,
            coloring_index=0,
        )
    if any(mask == 0 for mask in masks):
        # a copy containing no embedding of `small` at all is monochromatic
        # under every coloring
        return ArrowVerdict(True, tuple(embs), len(masks), total)

    found = _least_refuting(k, masks, colors)
    if found is None:
        return ArrowVerdict(True, tuple(embs), len(masks), total)
    index = sum(color * colors ** i for i, color in enumerate(found))
    return ArrowVerdict(False, tuple(embs), len(masks), total, found, index)


def _least_refuting(k: int, masks: list[int], colors: int) -> tuple | None:
    """DFS over colorings that assigns embedding k-1 first and tries colors
    in ascending order, so leaves come in counter order.  A copy is checked
    when its lowest embedding gets its color, which completes it.  Returns
    the least coloring with no monochromatic copy, or None."""
    closing: list[list[int]] = [[] for _ in range(k)]
    for mask in masks:
        closing[(mask & -mask).bit_length() - 1].append(mask)
    coloring = [0] * k
    # by_color[c]: bitmask of the embeddings colored c so far
    by_color = [0] * colors

    def rec(i: int) -> bool:
        if i < 0:
            return True
        bit = 1 << i
        for color in range(colors):
            same = by_color[color] | bit
            if not any(same & mask == mask for mask in closing[i]):
                by_color[color] = same
                coloring[i] = color
                if rec(i - 1):
                    return True
                by_color[color] = same ^ bit
        return False

    return tuple(coloring) if rec(k - 1) else None


def compatible_orders_cyclic(structure: HoleyHT) -> list[tuple[int, ...]]:
    """All orders making the structure a valid CYCLIC ordered structure.

    For a cyclic-class member there are exactly n of them, one per choice of
    least element: with v least, x precedes y exactly when (v, x, y) is in
    the relation.
    """
    if not structure.is_complete() or not class_member(structure, CYCLIC_SET):
        raise InputError("compatible orders are defined for cyclic-class members")
    out = []
    for v in structure.vertices:
        rest = [u for u in structure.vertices if u != v]

        def after(x: int, y: int) -> int:
            return -1 if structure.orientation_of(v, x, y) == IN_R else 1

        candidate = (v, *sorted(rest, key=cmp_to_key(after)))
        if _is_cyclic_for(structure, candidate):
            out.append(candidate)
    return out
