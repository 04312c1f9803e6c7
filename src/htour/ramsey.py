"""Ordered expansions and exhaustive arrow checks.

An ordered structure is a (possibly holey) 3-hypertournament with a linear
order, tagged by the expansion kind that fixes what else must hold:

* CYCLIC: every triple increasing in the order is in the relation, so the
  relation is definable from the order alone.
* EVEN: a graph comes along and the relation is definable from order and
  graph by the parity rule (even edge count inside the triple).
* ALL: nothing beyond the order (holes permitted).

Each ordered structure is read through its position table, built once:
`ht.along(order)`, the structure in which each vertex becomes its 1-based
place in the order.  A CYCLIC structure is valid iff that table is all PLUS;
an embedding is a set of positions along which the big table reads as the
small one, found by a backtracking search over increasing positions that
checks each new position with one gather from the block of the big table
holding the triples it closes.

arrow_check(C, B, A, colors) decides, by a pruned exhaustive search over the
colorings of the embeddings of A into C, whether every coloring with
`colors` colors admits a copy of B all of whose A-embeddings share one
color.  A copy of B is an isomorphism onto its image, so its A-embeddings
are those of A into C inside that image: two searches, A and B into C.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from enum import Enum
from functools import cmp_to_key
from math import comb
from operator import itemgetter

from .core import (
    PLUS,
    GuardExceeded,
    HoleyHT,
    InputError,
    check_order,
)
from .families import gen_even, normalize_edges

MAX_ARROW_EMBEDDINGS = 25
# arrow_check refuses before its two embedding searches when together they
# would take more steps than this (see _search_steps): a few seconds at most
MAX_ARROW_STEPS = 10**6


class ExpansionKind(Enum):
    CYCLIC = "cyclic"
    EVEN = "even"
    ALL = "all"


class ExpansionMismatch(InputError):
    """The witness (order / graph) does not produce the given structure."""


class OrderedHT:
    """A structure with a linear order (and, for EVEN, a graph).

    Validation happens on construction, so holding an OrderedHT means its
    kind invariant is true.  `by_position` is its position table.  An
    immutable value: equality, hashing and repr go by (ht, order, kind,
    graph), and leave out `by_position`, which they determine.
    """

    def __init__(self, ht: HoleyHT, order: tuple, kind: ExpansionKind,
                 graph: frozenset | None = None) -> None:
        order = check_order(order, ht.n)
        by_position = ht.along(order)
        if kind == ExpansionKind.CYCLIC:
            if graph is not None:
                raise InputError("cyclic expansions carry no graph")
            if not set(by_position.table) <= {PLUS}:
                raise ExpansionMismatch(
                    "structure is not oriented along the given order"
                )
        elif kind == ExpansionKind.EVEN:
            if graph is None:
                raise InputError("even expansions need a graph")
            graph = normalize_edges(ht.n, graph)
            if ht != gen_even(ht.n, graph, order):
                raise ExpansionMismatch(
                    "structure does not match the parity rule for (order, graph)"
                )
        elif graph is not None:
            raise InputError("free expansions carry no graph")
        vars(self).update(ht=ht, order=order, kind=kind, graph=graph,
                          by_position=by_position)

    def _key(self) -> tuple:
        return self.ht, self.order, self.kind, self.graph

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"OrderedHT(ht={self.ht!r}, order={self.order!r}, "
                f"kind={self.kind!r}, graph={self.graph!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def n(self) -> int:
        return self.ht.n


def _graph_by_position(edges, order) -> frozenset | None:
    """The edges among the vertices of `order`, each end relabeled to its
    1-based place in `order` (None without a graph)."""
    if edges is None:
        return None
    place = {v: p for p, v in enumerate(order, 1)}
    return frozenset(tuple(sorted((place[a], place[b])))
                     for a, b in edges if a in place and b in place)


def _closing_rows(ordered: OrderedHT, graph_width: int = 0) -> list[bytes]:
    """Row x-1 (x = 1..n) holds what position x closes against the earlier
    positions: for EVEN, first the graph row (byte p-1 is 1 iff positions p
    and x are adjacent) padded with zeros to `graph_width` bytes; then the
    block of the position table holding the triples {a < b < x}, at offset
    a-1 + C(b-1, 2) from the block's start."""
    table = ordered.by_position.table
    blocks = [table[comb(x - 1, 3):comb(x, 3)] for x in range(1, ordered.n + 1)]
    if ordered.graph is None:
        return blocks
    graph = _graph_by_position(ordered.graph, ordered.order)
    return [bytes((p, x) in graph for p in range(1, x)).ljust(graph_width, b"\0")
            + block for x, block in enumerate(blocks, 1)]


def _tuple_getter(offsets: list[int]):
    """operator.itemgetter over `offsets`, giving a tuple for any length
    (itemgetter itself gives the bare item for one offset, and takes none)."""
    if len(offsets) == 1:
        (only,) = offsets
        return lambda row: (row[only],)
    return itemgetter(*offsets) if offsets else lambda row: ()


def embeddings(small: OrderedHT, big: OrderedHT) -> list[tuple[int, ...]]:
    """All embeddings of `small` into `big`: order-preserving injections
    preserving orientation_of (and the graph, for EVEN), found as the sets of
    `big`'s positions along which its position table (and graph) read as
    `small`'s.

    A backtracking search grows increasing position prefixes of `big`.  At
    depth d it tries a position x only while the other k-d-1 positions
    still fit after it, and keeps x when one gather of the block of triples
    that x closes (C(d, 2) of them, and for EVEN the d pairs) reads as
    small's block for position d+1.

    Each embedding is a tuple f with f[i-1] = image of small's vertex i.
    The list is complete, duplicate-free and lexicographic in the selected
    order positions of `big`.
    """
    if small.kind != big.kind:
        raise InputError(f"kind mismatch: {small.kind} vs {big.kind}")
    k, m = small.n, big.n
    if k == 0:
        return [()]
    even = small.kind == ExpansionKind.EVEN
    lead = m if even else 0  # where the triples start in a row of `big`
    rows = _closing_rows(big, lead)
    wants = [tuple(row) for row in _closing_rows(small)]
    place = {v: i for i, v in enumerate(small.order)}
    # f[v-1] is the image of small's position place[v]+1
    arrange = _tuple_getter([place[v] for v in small.ht.vertices])
    out = []
    chosen: list[int] = []
    image: list[int] = []  # big.order at the chosen positions
    # frame d: the candidates left for position d+1, the triple offsets of
    # the pairs in chosen (which has length d) and the gather over them
    stack = [(iter(range(1, m - k + 2)), [], _tuple_getter([]))]
    while stack:
        candidates, pairs, gather = stack[-1]
        d = len(chosen)
        want = wants[d]
        for x in candidates:
            if gather(rows[x - 1]) != want:
                continue
            if d + 1 == k:  # x completes an embedding
                out.append(arrange(image + [big.order[x - 1]]))
                continue
            below = lead + comb(x - 1, 2) - 1
            more = pairs + [c + below for c in chosen]
            chosen.append(x)
            image.append(big.order[x - 1])
            graph = [c - 1 for c in chosen] if even else []
            stack.append((iter(range(x + 1, m - k + d + 3)), more,
                          _tuple_getter(graph + more)))
            break
        else:
            stack.pop()
            if chosen:
                chosen.pop()
                image.pop()
    return out


class ArrowVerdict(namedtuple("ArrowVerdict", "holds a_embeddings b_copies colorings "
                              "counterexample coloring_index", defaults=(None, None))):
    """Outcome of an exhaustive arrow check.

    `counterexample` (present iff the arrow fails) assigns a color in
    0..colors-1 to each embedding of A into C, listed alongside
    `a_embeddings` in the same order; under it no copy of B is
    monochromatic.  `coloring_index` is the base-`colors` counter value of
    that coloring (digit i = color of embedding i), the least one that
    fails.
    """

    __slots__ = ()


def _search_steps(small: OrderedHT, big: OrderedHT) -> int:
    """An upper bound on the steps of embeddings(small, big), either search
    of arrow_check: with k = small.n and m = big.n, C(m, k) * (1 + C(k, 3))
    steps, a step being one triple read or one try of a last position.

    By the skip rule a prefix of j positions is tried only if it extends to
    k positions of its own, so each depth holds at most C(m-k+j, j) <=
    C(m, k) prefixes.  A prefix of j positions gathers the C(j-1, 2)
    triples its last position closes, and along one path from the root
    these gathers cover at most C(k, 3) triples.  The tries of shorter
    prefixes, at most (k-1) * C(m, k) calls, are left out of the count."""
    return comb(big.n, small.n) * (1 + comb(small.n, 3))


def arrow_check(big: OrderedHT, mid: OrderedHT, small: OrderedHT,
                colors: int = 2, prune: bool = False,
                max_embeddings: int = MAX_ARROW_EMBEDDINGS) -> ArrowVerdict:
    """Exhaustively decide whether every `colors`-coloring of the embeddings
    of `small` into `big` leaves some copy of `mid` monochromatic.

    The search visits colorings in base-`colors` counter order (digit i =
    color of embedding i) and abandons a partial coloring as soon as a fully
    colored copy is monochromatic, so the counterexample it reports is the
    least one.  `prune` is accepted for compatibility and selects nothing:
    the search always prunes.  A copy's embeddings of `small` are those into
    `big` inside the copy's image; with no copy, the zero coloring refutes.

    Refuses (GuardExceeded) before any enumeration when the bound of
    _search_steps on its two embedding searches, `small` and `mid` into
    `big`, exceeds MAX_ARROW_STEPS, and after the first one (which runs to
    its end, so the message names the full count) when `small` has more
    than `max_embeddings` embeddings into `big`, or when the count of
    colorings has more digits than the interpreter writes an integer with
    (`sys.get_int_max_str_digits`).  A negative `max_embeddings`, or fewer
    than one color, is an InputError.
    """
    if max_embeddings < 0:
        raise InputError(f"max_embeddings must be at least 0, got {max_embeddings}")
    if colors < 1:
        raise InputError(f"colors must be at least 1, got {colors}")
    steps = _search_steps(small, big) + _search_steps(mid, big)
    if steps > MAX_ARROW_STEPS:
        raise GuardExceeded(
            f"the embedding searches on {big.n}, {mid.n} and {small.n} vertices "
            f"would take more than {MAX_ARROW_STEPS} steps"
        )
    embs = embeddings(small, big)
    k = len(embs)
    if k > max_embeddings:
        raise GuardExceeded(
            f"{k} embeddings exceed the exhaustive-coloring guard "
            f"({max_embeddings}); pass a larger max_embeddings to override"
        )
    total = colors ** k
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if digits and total >= 10 ** digits:
        raise GuardExceeded(f"{k} embeddings give more colorings than an integer "
                            f"of {digits} digits, the most a report can write")
    images = [sum(1 << v for v in e) for e in embs]
    masks = []
    for g in embeddings(mid, big):
        image = sum(1 << v for v in g)
        masks.append(sum(1 << i for i, e in enumerate(images) if e & image == e))

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
    the least coloring with no monochromatic copy, or None.  A loop, not a
    recursion, so any number of embeddings fits."""
    closing: list[list[int]] = [[] for _ in range(k)]
    for mask in masks:
        closing[(mask & -mask).bit_length() - 1].append(mask)
    coloring = [-1] * k  # -1: not colored yet
    # by_color[c]: bitmask of the embeddings colored c so far
    by_color = [0] * colors
    i = k - 1
    while 0 <= i < k:
        bit = 1 << i
        if coloring[i] >= 0:  # back from below: take the color off again
            by_color[coloring[i]] ^= bit
        for color in range(coloring[i] + 1, colors):
            same = by_color[color] | bit
            if not any(same & mask == mask for mask in closing[i]):
                by_color[color] = same
                coloring[i] = color
                i -= 1
                break
        else:
            coloring[i] = -1
            i += 1
    return tuple(coloring) if i < 0 else None


def compatible_orders_cyclic(structure: HoleyHT) -> list[tuple[int, ...]]:
    """All orders making the structure a valid CYCLIC ordered structure.

    For a cyclic-class member there are exactly n of them, one per choice of
    least element v, listed by v: x precedes y exactly when (v, x, y) is in
    the relation.  They are the rotations of the one with 1 least.

    The hole-free structures whose 4-subsets are all C4 are exactly those of
    a cyclic order, so membership is decided by the one order sorted here:
    any other structure, holey ones among them, reads as something other
    than all PLUS along it and is refused."""
    n = structure.n
    # orientation_of is IN_R (1), REVERSED (2) or, at a hole, HOLE (0); a
    # rotation turns each increasing triple into a cyclic rotation of itself
    after = cmp_to_key(lambda x, y: 2 * structure.orientation_of(1, x, y) - 3)
    order = (1, *sorted(range(2, n + 1), key=after))[:n]
    if not set(structure.along(order).table) <= {PLUS}:
        raise InputError("compatible orders are defined for cyclic-class members")
    return sorted(order[i:] + order[:i] for i in range(n))
