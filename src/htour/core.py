"""Core model: finite 3-hypertournaments with holes, on vertices 1..n.

A structure stores exactly one value per 3-subset of its vertices:

* ``PLUS``  -- the increasing tuple (a, b, c) of the 3-subset {a < b < c} is
  in the ternary relation (together with its two cyclic rotations),
* ``MINUS`` -- the transposed tuple (a, c, b) is in the relation instead,
* ``HOLE``  -- the 3-subset carries no relation at all.

Because the two cyclic orbits on a 3-set are the only consistent
orientations, one value per sorted triple makes invalid relation sets
unrepresentable.  A structure with no ``HOLE`` entries is a (full)
3-hypertournament.

Tables are flat ``bytes`` indexed by the colexicographic rank of the sorted
triple, which keeps lookups O(1) and the solver cache-friendly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

HOLE = 0
PLUS = 1
MINUS = 2

# Tuple-relative readings of the same codes, used by orientation_of: for a
# query tuple t, IN_R means t itself is in the relation, REVERSED means the
# transposition of its last two entries is.
IN_R = PLUS
REVERSED = MINUS

ISO_GUARD = 10  # is_isomorphic refuses above this many vertices

_SIGN_CHAR = {PLUS: "+", MINUS: "-"}
_COMPLEMENT_MAP = bytes.maketrans(bytes([HOLE, PLUS, MINUS]), bytes([HOLE, MINUS, PLUS]))


class InputError(ValueError):
    """Malformed input: bad vertex ids, wrong sizes, inconsistent data."""


class ContradictoryTriple(InputError):
    """Both orientations of the same triple were asserted."""


class HoleyInput(InputError):
    """The operation requires a hole-free structure."""


class GuardExceeded(RuntimeError):
    """Refused: the input exceeds a hard size guard."""


def triple_rank(a: int, b: int, c: int) -> int:
    """Colexicographic rank of the sorted triple {a < b < c}, 0-based."""
    if not (0 < a < b < c):
        raise InputError(f"not a sorted triple: ({a}, {b}, {c})")
    i, j, k = a - 1, b - 1, c - 1
    return i + j * (j - 1) // 2 + k * (k - 1) * (k - 2) // 6


def tuple_parity(x: int, y: int, z: int) -> int:
    """Parity (0 even, 1 odd) of the permutation sorting (x, y, z)."""
    return ((x > y) + (x > z) + (y > z)) & 1


@lru_cache(maxsize=None)
def triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All sorted triples over 1..n in rank (colex) order."""
    out = []
    for k in range(3, n + 1):
        for j in range(2, k):
            for i in range(1, j):
                out.append((i, j, k))
    return tuple(out)


@lru_cache(maxsize=None)
def quads(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """All sorted 4-subsets over 1..n in lexicographic order."""
    return tuple(itertools.combinations(range(1, n + 1), 4))


@lru_cache(maxsize=None)
def quad_triple_ranks(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """For each 4-subset {a<b<c<d}: ranks of {abc}, {abd}, {acd}, {bcd}.

    The position of each triple in this sequence matches its position after
    the order-preserving relabeling of the 4-subset to {1, 2, 3, 4}, so the
    four table values can be classified directly (see classify.mask_of).
    """
    out = []
    for a, b, c, d in quads(n):
        out.append(
            (
                triple_rank(a, b, c),
                triple_rank(a, b, d),
                triple_rank(a, c, d),
                triple_rank(b, c, d),
            )
        )
    return tuple(out)


@lru_cache(maxsize=None)
def triple_quad_ids(n: int) -> tuple[tuple[int, ...], ...]:
    """For each triple rank, the ascending ids of 4-subsets containing it."""
    incidence: list[list[int]] = [[] for _ in range(comb(n, 3))]
    for qi, ranks in enumerate(quad_triple_ranks(n)):
        for r in ranks:
            incidence[r].append(qi)
    return tuple(tuple(lst) for lst in incidence)


def check_order(order, n: int) -> tuple[int, ...]:
    """Validate that `order` is a permutation of 1..n; return it as a tuple."""
    ord_t = tuple(order)
    if sorted(ord_t) != list(range(1, n + 1)):
        raise InputError(f"not a permutation of 1..{n}: {ord_t}")
    return ord_t


class HoleyHT:
    """Immutable holey 3-hypertournament on vertices 1..n.

    `table[r]` holds the orientation of the triple with rank r.  Instances
    are value objects: equality and hashing go by (n, table).
    """

    __slots__ = ("n", "table")

    def __init__(self, n: int, table) -> None:
        if n < 0:
            raise InputError(f"negative vertex count: {n}")
        data = bytes(table)
        if len(data) != comb(n, 3):
            raise InputError(f"table length {len(data)} != C({n},3) = {comb(n, 3)}")
        if any(v > MINUS for v in data):
            raise InputError("table values must be HOLE, PLUS or MINUS")
        self.n = n
        self.table = data

    @classmethod
    def empty(cls, n: int) -> HoleyHT:
        """The structure on 1..n where every triple is a hole."""
        return cls(n, bytes(comb(n, 3)))

    @classmethod
    def from_values(cls, n: int, values: dict) -> HoleyHT:
        """Build from a {sorted triple: PLUS/MINUS/HOLE} mapping; rest holes."""
        table = bytearray(comb(n, 3))
        for (a, b, c), v in values.items():
            cls._check_vertex_range(n, (a, b, c))
            table[triple_rank(a, b, c)] = v
        return cls(n, bytes(table))

    @staticmethod
    def _check_vertex_range(n: int, vs) -> None:
        for v in vs:
            if not 1 <= v <= n:
                raise InputError(f"vertex {v} out of range 1..{n}")

    # -- basic queries -----------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def triple_value(self, a: int, b: int, c: int) -> int:
        """Stored orientation of the 3-subset {a, b, c} (any tuple order)."""
        x, y, z = sorted((a, b, c))
        if x == y or y == z:
            raise InputError(f"repeated vertex in triple ({a}, {b}, {c})")
        self._check_vertex_range(self.n, (x, z))
        return self.table[triple_rank(x, y, z)]

    def orientation_of(self, x: int, y: int, z: int) -> int:
        """IN_R if (x, y, z) is in the relation, REVERSED if (x, z, y) is,
        HOLE if the underlying 3-subset is unassigned.

        Invariant under cyclic rotation of the tuple; any transposition
        swaps IN_R and REVERSED.
        """
        v = self.triple_value(x, y, z)
        if v == HOLE or not tuple_parity(x, y, z):
            return v
        return 3 - v

    def holes(self) -> list[tuple[int, int, int]]:
        ts = triples(self.n)
        return [ts[r] for r, v in enumerate(self.table) if v == HOLE]

    def hole_count(self) -> int:
        return self.table.count(HOLE)

    def assigned_count(self) -> int:
        return len(self.table) - self.table.count(HOLE)

    def is_complete(self) -> bool:
        return HOLE not in self.table

    # -- derived structures --------------------------------------------------

    def induced(self, vertices) -> HoleyHT:
        """Substructure on a vertex subset, relabeled 1..|S| preserving the
        relative order of the kept vertices (old vertex sorted(S)[i-1] becomes i)."""
        kept = sorted(set(vertices))
        if not kept:
            raise InputError("induced substructure needs a nonempty vertex set")
        self._check_vertex_range(self.n, kept)
        m = len(kept)
        table = bytearray(comb(m, 3))
        for i, j, k in triples(m):
            table[triple_rank(i, j, k)] = self.table[
                triple_rank(kept[i - 1], kept[j - 1], kept[k - 1])
            ]
        return HoleyHT(m, bytes(table))

    def complement(self) -> HoleyHT:
        """Reverse every assigned orientation; holes stay holes. Involution."""
        return HoleyHT(self.n, self.table.translate(_COMPLEMENT_MAP))

    def relabel(self, perm) -> HoleyHT:
        """Image under the vertex bijection i -> perm[i-1]."""
        p = check_order(perm, self.n)
        table = bytearray(len(self.table))
        for (a, b, c), v in zip(triples(self.n), self.table):
            if v == HOLE:
                continue
            x, y, z = p[a - 1], p[b - 1], p[c - 1]
            i, j, k = sorted((x, y, z))
            table[triple_rank(i, j, k)] = v if not tuple_parity(x, y, z) else 3 - v
        return HoleyHT(self.n, bytes(table))

    def with_value(self, a: int, b: int, c: int, value: int) -> HoleyHT:
        """Copy with one triple set to `value` (functional update)."""
        x, y, z = sorted((a, b, c))
        if x == y or y == z:
            raise InputError(f"repeated vertex in triple ({a}, {b}, {c})")
        self._check_vertex_range(self.n, (x, z))
        if value not in (HOLE, PLUS, MINUS):
            raise InputError(f"bad orientation value {value}")
        table = bytearray(self.table)
        table[triple_rank(x, y, z)] = value
        return HoleyHT(self.n, bytes(table))

    def filled(self, value: int = PLUS) -> HoleyHT:
        """Copy with every hole assigned `value`."""
        if value not in (PLUS, MINUS):
            raise InputError("holes must be filled with PLUS or MINUS")
        return HoleyHT(self.n, self.table.replace(bytes([HOLE]), bytes([value])))

    def extends(self, other: HoleyHT) -> bool:
        """True if self keeps every assigned triple of `other` unchanged."""
        if self.n != other.n:
            return False
        return all(
            v == w for v, w in zip(other.table, self.table) if v != HOLE
        )

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HoleyHT)
            and self.n == other.n
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.n, self.table))

    def __reduce__(self):
        return (HoleyHT, (self.n, self.table))

    def __repr__(self) -> str:
        assigned = ", ".join(
            f"{t}:{_SIGN_CHAR[v]}"
            for t, v in zip(triples(self.n), self.table)
            if v != HOLE
        )
        return f"HoleyHT(n={self.n}, {{{assigned}}})"


def validate(tuples_in_r, n: int) -> HoleyHT:
    """Build the structure whose relation is the cyclic closure of the given
    ordered tuples.

    Duplicate assertions of the same orientation are tolerated; asserting
    both orientations of one 3-subset raises ContradictoryTriple.
    """
    table = bytearray(comb(n, 3))
    for t in tuples_in_r:
        x, y, z = t
        a, b, c = sorted((x, y, z))
        if a == b or b == c:
            raise InputError(f"repeated vertex in tuple {t}")
        HoleyHT._check_vertex_range(n, (a, c))
        value = MINUS if tuple_parity(x, y, z) else PLUS
        r = triple_rank(a, b, c)
        if table[r] == HOLE:
            table[r] = value
        elif table[r] != value:
            raise ContradictoryTriple(
                f"both orientations of {{{a}, {b}, {c}}} asserted"
            )
    return HoleyHT(n, bytes(table))


def is_isomorphic(first: HoleyHT, second: HoleyHT) -> tuple[int, ...] | None:
    """Search for a vertex bijection preserving orientation_of on all tuples.

    Returns the witness as a tuple p with p[i-1] = image of vertex i (the
    lexicographically least witness), or None.  Exhaustive over all
    permutations via backtracking; refuses n > ISO_GUARD.
    """
    if first.n != second.n:
        return None
    n = first.n
    if n > ISO_GUARD:
        raise GuardExceeded(f"isomorphism search limited to n <= {ISO_GUARD}, got {n}")
    # hole count is the only cheap invariant: assigned values flip with the
    # parity of the relabeling, so their multiset is not preserved
    if first.table.count(HOLE) != second.table.count(HOLE):
        return None

    image = [0] * (n + 1)
    used = [False] * (n + 1)

    def consistent(v: int, w: int) -> bool:
        # check triples whose third vertex is v against their images
        for x in range(1, v):
            for y in range(x + 1, v):
                if first.orientation_of(x, y, v) != second.orientation_of(
                    image[x], image[y], w
                ):
                    return False
        return True

    def extend(v: int) -> bool:
        if v > n:
            return True
        for w in range(1, n + 1):
            if not used[w] and consistent(v, w):
                image[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    if extend(1):
        return tuple(image[1:])
    return None


@dataclass(frozen=True)
class Hypergraph3:
    """A 3-uniform hypergraph on vertices 1..n; hyperedges are sorted triples."""

    n: int
    hyperedges: frozenset

    def __post_init__(self) -> None:
        for e in self.hyperedges:
            a, b, c = e
            if not (0 < a < b < c <= self.n):
                raise InputError(f"bad hyperedge {e} for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> Hypergraph3:
        norm = set()
        for e in edges:
            x, y, z = e
            a, b, c = sorted((x, y, z))
            if a == b or b == c:
                raise InputError(f"repeated vertex in hyperedge {e}")
            norm.add((a, b, c))
        return cls(n, frozenset(norm))


def complete_hypergraph(n: int) -> Hypergraph3:
    return Hypergraph3(n, frozenset(triples(n)))


def _order_parities(n: int, order) -> list[int]:
    """For each triple in rank order, the parity of the permutation sorting
    its vertices by position in `order`: 1 exactly when reading the triple
    along the order flips its stored orientation (see orientation_of)."""
    pos = [0] * (n + 1)
    for i, v in enumerate(check_order(order, n)):
        pos[v] = i
    return [tuple_parity(pos[a], pos[b], pos[c]) for a, b, c in triples(n)]


def hat(structure: HoleyHT, order) -> Hypergraph3:
    """Hypergraph whose hyperedges are the 3-subsets {a < b < c in `order`}
    with (a, b, c) in the relation.  Requires a hole-free structure."""
    if not structure.is_complete():
        raise HoleyInput("hat is defined for hole-free structures only")
    parities = _order_parities(structure.n, order)
    edges = frozenset(
        t
        for t, v, odd in zip(triples(structure.n), structure.table, parities)
        if v == (MINUS if odd else PLUS)
    )
    return Hypergraph3(structure.n, edges)


def unhat(hypergraph: Hypergraph3, order) -> HoleyHT:
    """Inverse of hat: orient each 3-subset {a < b < c in `order`} as
    (a, b, c) when it is a hyperedge and (a, c, b) otherwise."""
    parities = _order_parities(hypergraph.n, order)
    edges = hypergraph.hyperedges
    table = bytes(
        PLUS if (t in edges) != odd else MINUS
        for t, odd in zip(triples(hypergraph.n), parities)
    )
    return HoleyHT(hypergraph.n, table)
