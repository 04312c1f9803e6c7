"""Generators for the named structures: forcing gadgets, chain structures,
their glued obstruction, cyclic structures, and parity-defined even ones.

The forcing gadgets are 4-vertex holey structures with two assigned triples
and two holes, built so that inside the H4-free class one orientation of the
first hole forces an orientation of the second.  `ChainBuilder` embeds
overlapping gadgets one link at a time; the link list `on_links(n)` yields
on(n), whose completions all have {1, 2, 3} MINUS.  Its complement onneg(n)
is the chain of the complemented gadgets, so its completions all have
{1, 2, 3} PLUS.  Gluing the two over {1, 2, 3} (`core.glue`) gives bn(n),
which has no completion at all.  For n >= 7 every vertex-deleted
substructure of bn(n) completes, making it a minimal obstruction; at n = 6
wrap-around overlaps between the links defeat that (see the tests).
"""

from __future__ import annotations

from enum import Enum
from math import comb

from .core import (
    HOLE,
    MINUS,
    PLUS,
    HoleyHT,
    InputError,
    _binomials,
    _lanes,
    _order_parities,
    _triple_columns,
    glue,
    slot,
    triple_of_rank,
    validate,
)


# the value of a triple of a cyclic structure by the parity of its order
_CYCLIC_VALUES = bytes.maketrans(b"\x00\x01", bytes([PLUS, MINUS]))


class LinkKind(Enum):
    """The four gadget embeddings usable as chain links.

    FWD:        xyz forces yzw        (gadget G)
    FWD_NEG:    xyz forces not-xzw    (gadget G-negative)
    CO_FWD:     not-xyz forces not-yzw (complement of G)
    CO_FWD_NEG: not-xyz forces xzw    (complement of G-negative)
    """

    FWD = "fwd"
    FWD_NEG = "fwdneg"
    CO_FWD = "cofwd"
    CO_FWD_NEG = "cofwdneg"


class ChainInconsistent(InputError):
    """Two links asked for contradictory orientations or an assigned hole."""


_GADGET_TUPLES = {
    LinkKind.FWD: ((1, 3, 4), (1, 4, 2)),
    LinkKind.FWD_NEG: ((2, 4, 3), (1, 4, 2)),
    LinkKind.CO_FWD: ((1, 4, 3), (1, 2, 4)),
    LinkKind.CO_FWD_NEG: ((2, 3, 4), (1, 2, 4)),
}


def gadget(kind: LinkKind) -> HoleyHT:
    """The 4-vertex holey structure of a link kind: two assigned triples,
    two holes."""
    return validate(_GADGET_TUPLES[kind], 4)


class ChainBuilder:
    """Accumulates gadget embeddings into one holey structure.

    Keeps the gadget hole triples as must-stay-holes while building, so
    inconsistent chains are rejected mechanically; the finished structure
    records them as plain holes.
    """

    def __init__(self, n: int) -> None:
        if n < 4:
            raise InputError("chains need at least 4 vertices")
        self.n = n
        self.table = bytearray(comb(n, 3))
        self.must_hole: set[int] = set()

    def apply_link(self, kind: LinkKind, verts) -> ChainBuilder:
        """Embed the gadget of `kind` along (x, y, z, w) -> gadget 1..4."""
        x, y, z, w = verts
        image = {1: x, 2: y, 3: z, 4: w}
        # every located triple is checked before the first write, so a
        # refused link leaves the builder as it was
        assigned = []
        for t in _GADGET_TUPLES[kind]:
            rank, odd = slot(self.n, *(image[i] for i in t))
            assigned.append((rank, MINUS if odd else PLUS))
        holes = [slot(self.n, *(image[i] for i in t))[0] for t in gadget(kind).holes()]
        for rank, value in assigned:
            if rank in self.must_hole:
                raise ChainInconsistent(
                    f"link {kind.value}@{verts} assigns required hole "
                    f"{triple_of_rank(self.n, rank)}"
                )
            if self.table[rank] not in (HOLE, value):
                raise ChainInconsistent(
                    f"link {kind.value}@{verts} contradicts {triple_of_rank(self.n, rank)}"
                )
        for rank in holes:
            if self.table[rank] != HOLE:
                raise ChainInconsistent(
                    f"link {kind.value}@{verts} needs "
                    f"{triple_of_rank(self.n, rank)} to be a hole"
                )
        for rank, value in assigned:
            self.table[rank] = value
        self.must_hole.update(holes)
        return self

    def build(self) -> HoleyHT:
        return HoleyHT(self.n, bytes(self.table))


def on_links(n: int) -> list[tuple[LinkKind, tuple[int, int, int, int]]]:
    """The link sequence of on(n): a forward run followed by the three
    wrap-around links that force {1, 2, 3} negative."""
    if n < 6:
        raise InputError(f"on(n) needs n >= 6, got {n}")
    links = [(LinkKind.FWD, (i, i + 1, i + 2, i + 3)) for i in range(1, n - 2)]
    links.append((LinkKind.FWD_NEG, (n - 2, n - 1, n, 1)))
    links.append((LinkKind.CO_FWD, (n - 2, n, 1, 2)))
    links.append((LinkKind.CO_FWD, (n, 1, 2, 3)))
    return links


def gen_on(n: int) -> HoleyHT:
    """Chain structure on 1..n whose completions all have {1, 2, 3} MINUS."""
    links = on_links(n)  # before the builder: its n >= 6 message comes first
    builder = ChainBuilder(n)
    for kind, verts in links:
        builder.apply_link(kind, verts)
    return builder.build()


def gen_onneg(n: int) -> HoleyHT:
    """Complement chain: completions all have {1, 2, 3} PLUS.  It is the
    chain of on(n)'s links with each gadget complemented."""
    if n < 6:
        raise InputError(f"onneg(n) needs n >= 6, got {n}")
    return gen_on(n).complement()


def gen_bn(n: int) -> HoleyHT:
    """Gluing of on(n) and onneg(n) over the vertices {1, 2, 3}.

    The result has 2n-3 vertices: 1..n carry on(n) and {1, 2, 3} together
    with n+1..2n-3 carry onneg(n) (vertex j >= 4 relabeled to n+j-3).  All
    cross triples are holes, as is {1, 2, 3} itself.
    """
    if n < 6:
        raise InputError(f"bn(n) needs n >= 6, got {n}")
    return glue(gen_on(n), gen_onneg(n), (1, 2, 3))


def gen_cyclic(n: int, order=None) -> HoleyHT:
    """Full structure oriented along a cyclic order: each 3-subset gets the
    increasing-in-order tuple; every 4-subset then has type C4."""
    if order is None:
        order = range(1, n + 1)
    return HoleyHT(n, _order_parities(n, order).translate(_CYCLIC_VALUES))


def gen_even(n: int, edges, order=None) -> HoleyHT:
    """Full structure from a graph and an order: the 3-subsets spanning an
    even number of edges get the increasing-in-order tuple, the rest its
    transposition.  Every 4-subset has type C4 or H4."""
    edge_set = normalize_edges(n, edges)
    # first, so that the vertex guard refuses before the columns are built
    cyclic = gen_cyclic(n, order).table
    adjacent = [bytearray(256) for _ in range(n + 1)]
    for a, b in edge_set:
        adjacent[a][b] = adjacent[b][a] = 1
    # the triples {a < b < c} with top vertex c are the ranks C(c-1, 3) up to
    # C(c, 3): their least and middle columns read through the row of c give
    # the edges ac and bc, and their pairs {a < b} are the first C(c-1, 2) of
    # the colex pair sequence, whose edge bits are the rows 2..n-1 cut at
    # the diagonal
    least, middle, _ = _triple_columns(n)
    pairs = b"".join(adjacent[b][1:b] for b in range(2, n))
    c2, c3, _ = _binomials(n)
    runs = [(slice(c3[c - 1], c3[c]), c2[c - 1], adjacent[c]) for c in range(3, n + 1)]
    odd = (_lanes(b"".join(least[run].translate(row) for run, _, row in runs))
           ^ _lanes(b"".join(middle[run].translate(row) for run, _, row in runs))
           ^ _lanes(b"".join(pairs[:size] for _, size, _ in runs)))
    # PLUS (1) and MINUS (2) swap under XOR with 3, a lane per triple
    return HoleyHT(n, (_lanes(cyclic) ^ odd * 3).to_bytes(len(cyclic), "big"))


def normalize_edges(n: int, edges) -> frozenset:
    """Undirected edges as a frozenset of sorted pairs over 1..n."""
    out = set()
    for e in edges:
        x, y = e
        if x == y:
            raise InputError(f"loop edge {e}")
        a, b = (x, y) if x < y else (y, x)
        if not 1 <= a <= n or not b <= n:
            raise InputError(f"edge {e} out of range 1..{n}")
        out.add((a, b))
    return frozenset(out)


def on_deletion_tuples(n: int, v: int) -> list[tuple[int, int, int]]:
    """The explicit relation tuples that, merged into on(n) with vertex v
    deleted, extend to a completion having {1, 2, 3} PLUS.

    The family is: the run (i, i+1, i+2) for i <= v-3, the transposed run
    (j, j+2, j+1) for j >= v+1, and the wrap tuples (n-2, n, 1), (n, 1, 2);
    members touching v itself are dropped (they only occur for v close
    to n).
    """
    if n < 6:
        raise InputError(f"on(n) needs n >= 6, got {n}")
    if not 4 <= v <= n:
        raise InputError(f"deleted vertex must be in 4..{n}, got {v}")
    out = [(i, i + 1, i + 2) for i in range(1, v - 2)]
    out += [(j, j + 2, j + 1) for j in range(v + 1, n - 1)]
    out += [(n - 2, n, 1), (n, 1, 2)]
    return [t for t in out if v not in t]


def onneg_deletion_tuples(n: int, v: int) -> list[tuple[int, int, int]]:
    """Complement family for onneg(n): completion with {1, 2, 3} MINUS."""
    return [(a, c, b) for (a, b, c) in on_deletion_tuples(n, v)]
