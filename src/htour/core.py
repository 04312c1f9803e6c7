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
triple, which keeps lookups O(1) and the solver cache-friendly;
`triple_of_rank` gives the triple of a rank back without a table of
triples.

The parities of an order, a byte per triple that `hat`, `unhat` and the
cyclic generator read, come from a lane kernel: the columns of the least,
middle and largest vertex of each triple, cached per n, are translated to
places in the order and read as ints of byte lanes.  With places below
128, a lane of (p | 0x80) - q never borrows and has its top bit set exactly
when p > q, so the three comparisons of a triple take a few int operations
over all triples at once.  It refuses more than VERTEX_GUARD vertices.

One method, `HoleyHT.along`, reads a structure through a sequence of its
vertices: a restriction (`induced`), a relabeling (`relabel`), a structure
along its order (a position table) and a candidate isomorphism.  One
function, `slot`, locates a single vertex tuple: it checks the vertices and
gives the rank of the sorted triple and the parity of the sort, which
`triple_value`, `orientation_of`, `with_value`, `validate`, `glue` and
the chain builder of `families` all read.

The 4-subset index that the solver reads has two halves, cached per n:
`quad_triple_ranks`, the four triple ranks of each 4-subset packed in one
int, and `triple_quad_ids`, the row of the n-3 4-subsets through each
triple.  One lazy store class, `_Store`, serves both halves and the text
lines of `htfile`: an entry is computed from its rank on its first read and
kept.  4-subsets are numbered in colex order, like triples: {a<b<c<d}
over 0-based vertices has id a + C(b,2) + C(c,3) + C(d,4), and
`quad_vertices` inverts it.  Both halves, and `htfile.parse`, refuse more
than VERTEX_GUARD vertices.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections import Counter, namedtuple
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
# htfile.parse and the 4-subset index refuse above this many vertices; the
# solver keeps a code for each 4-subset, 8 bytes each, about 31 MB at 100
# vertices
VERTEX_GUARD = 100
# the triple ranks of a 4-subset are packed in lanes of this many bits: a
# rank is below C(100,3) < 2**18
_LANE = 18

_VALUES = bytes([HOLE, PLUS, MINUS])
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


def slot(n: int, x: int, y: int, z: int) -> tuple[int, int]:
    """Where the tuple (x, y, z) lives in a table on 1..n: the rank of its
    sorted triple and the parity of the sort.  The tuple is in the relation
    exactly when the stored value, flipped when the parity is odd, is PLUS.
    Refuses a repeated or out-of-range vertex."""
    a, b, c = sorted((x, y, z))
    if not 0 < a < b < c <= n:
        if a == b or b == c:
            raise InputError(f"repeated vertex in ({x}, {y}, {z})")
        raise InputError(f"vertex {c if 1 <= a <= n else a} out of range 1..{n}")
    return triple_rank(a, b, c), tuple_parity(x, y, z)


@lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[list[int], list[int], list[int]]:
    """Lists c2, c3, c4 over 0..n with c2[x] = C(x, 2), c3[x] = C(x, 3) and
    c4[x] = C(x, 4)."""
    return tuple([comb(x, k) for x in range(n + 1)] for k in (2, 3, 4))


def triple_of_rank(n: int, r: int) -> tuple[int, int, int]:
    """The sorted triple (a, b, c) over 1..n of colex rank r, 0 <= r <
    C(n, 3): the inverse of `triple_rank`, which is a-1 + C(b-1, 2) +
    C(c-1, 3), read off largest term first."""
    c2, c3, _ = _binomials(n)
    k = bisect_right(c3, r) - 1
    r -= c3[k]
    j = bisect_right(c2, r) - 1
    return r - c2[j] + 1, j + 1, k + 1


@lru_cache(maxsize=None)
def _triple_columns(n: int) -> tuple[bytes, bytes, bytes]:
    """The least, middle and largest vertex of each triple over 1..n < 256, in
    rank order, as byte columns: the triples with largest vertex c are the
    first C(c-1, 2) pairs {a < b} of the colex pair sequence, each with c."""
    sizes = _binomials(n)[0][2:n]  # C(c-1, 2) for c = 3..n
    least = b"".join(bytes(range(1, b)) for b in range(2, n))
    middle = b"".join(bytes([b]) * (b - 1) for b in range(2, n))
    return (b"".join(least[:s] for s in sizes), b"".join(middle[:s] for s in sizes),
            b"".join(bytes([c]) * s for c, s in enumerate(sizes, 3)))


@lru_cache(maxsize=None)
def triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All sorted triples over 1..n < 256 in rank (colex) order."""
    return tuple(zip(*_triple_columns(n)))


@lru_cache(maxsize=None)
def quads(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """All sorted 4-subsets over 1..n in colex order (largest vertices compared
    first).

    The library never builds this: it is the reference that the 4-subset
    index below is tested against.  `quad_vertices` gives one entry on demand."""
    return tuple(sorted(itertools.combinations(range(1, n + 1), 4), key=lambda q: q[::-1]))


@lru_cache(maxsize=None)
def _rank_terms(n: int) -> tuple[list[int], list[int]]:
    """Lists t2, t3 over 0..n with triple_rank(a, b, c) = a + t2[b] + t3[c]
    for 0 < a < b < c <= n: t2[v] = C(v-1, 2) - 1 and t3[v] = C(v-1, 3)."""
    c2, c3, _ = _binomials(n)
    return [0] + [x - 1 for x in c2[:n]], [0] + c3[:n]


def _guard_index(n: int, what: str = "the 4-subset index") -> None:
    if n > VERTEX_GUARD:
        raise GuardExceeded(f"{what} is limited to {VERTEX_GUARD} vertices, got {n}")


class _Store(dict):
    """A lazy per-rank table on n vertices: entry k, for 0 <= k < size, is
    make(n, k), computed on its first read and kept."""

    __slots__ = ("_n", "_size", "_make")

    def __init__(self, n: int, size: int, make) -> None:
        super().__init__()
        self._n, self._size, self._make = n, size, make

    def __missing__(self, key: int):
        if not 0 <= key < self._size:
            raise KeyError(key)
        entry = self[key] = self._make(self._n, key)
        return entry


def _quad_ranks(n: int, qi: int) -> int:
    """Entry qi of `quad_triple_ranks(n)`."""
    a, b, c, d = quad_vertices(n, qi)
    t2, t3 = _rank_terms(n)
    ab, cd = a + t2[b], t2[c] + t3[d]
    return ab + t3[c] | (ab + t3[d]) << _LANE | (a + cd) << 2 * _LANE | (b + cd) << 3 * _LANE


@lru_cache(maxsize=None)
def quad_triple_ranks(n: int) -> _Store:
    """The triples of each 4-subset: `quad_triple_ranks(n)[qi]` packs the
    ranks of {abc}, {abd}, {acd}, {bcd} of the 4-subset {a<b<c<d} with id
    qi, 4-subsets numbered in colex order (the order of `quads`), in
    lanes of _LANE bits: the rank at place pos is
    ``entry >> _LANE * pos & (1 << _LANE) - 1``.

    The place of each triple matches its place after the order-preserving
    relabeling of the 4-subset to {1, 2, 3, 4}, so the four table values
    can be classified directly (see classify.mask_of).  An entry is made
    from `quad_vertices` on its first read (`_Store`).  Refuses n >
    VERTEX_GUARD.
    """
    _guard_index(n)
    return _Store(n, comb(n, 4), _quad_ranks)


def _triple_row(n: int, r: int) -> array:
    """Row r of `triple_quad_ids(n)`."""
    # the triple {i<j<k}, 0-based
    a, b, c = triple_of_rank(n, r)
    i, j, k = a - 1, b - 1, c - 1
    c2, c3, c4 = _binomials(n)
    # the 4-subsets {i,j,k,x}, x below i, between i and j, between j and k
    # and above k, less the term of x
    t3 = 4 * (c2[i] + c3[j] + c4[k]) + 3
    t2 = 4 * (i + c3[j] + c4[k]) + 2
    t1 = 4 * (i + c2[j] + c4[k]) + 1
    t0 = 4 * (i + c2[j] + c3[k])
    return array("I", [*range(t3, t3 + 4 * i, 4)] + [t2 + 4 * t for t in c2[i + 1:j]]
                 + [t1 + 4 * t for t in c3[j + 1:k]] + [t0 + 4 * t for t in c4[k + 1:n]])


@lru_cache(maxsize=None)
def triple_quad_ids(n: int) -> _Store:
    """The 4-subsets through each triple: `triple_quad_ids(n)[r]` is the
    array('I') of the tagged entries 4*qi + pos of the n-3 4-subsets
    containing the triple of rank r, by ascending id qi, where pos is the
    place of the triple in the 4-subset: 0 {abc}, 1 {abd}, 2 {acd}, 3 {bcd}.
    So place e & 3 of `quad_triple_ranks(n)[e >> 2]` is r for every entry e
    of row r.  A row is computed on its first read and kept as long as this
    cache entry; the largest entry, 4*C(100,4) - 1, is below 2**24.

    Each triple {i<j<k} lies in {i,j,k,x} for every other vertex x, and the
    ids ascend with x; x below i, between i and j, between j and k and above
    k gives pos 3, 2, 1 and 0.  The id of {a<b<c<d} over 0..n-1 is
    a + C(b,2) + C(c,3) + C(d,4), so a row is one comprehension per place
    of x over the terms of x, pre-scaled by 4.  Refuses n > VERTEX_GUARD.
    """
    _guard_index(n)
    return _Store(n, comb(n, 3), _triple_row)


def quad_vertices(n: int, qi: int) -> tuple[int, int, int, int]:
    """The 4-subset {a<b<c<d} with id qi, i.e. `quads(n)[qi]`, by inverting
    the id formula of `triple_quad_ids`, a-1 + C(b-1,2) + C(c-1,3) +
    C(d-1,4): the largest term gives d, and the rest is the colex rank of
    the triple {a<b<c} (`triple_of_rank`)."""
    c4 = _binomials(n)[2]
    d = bisect_right(c4, qi) - 1
    return (*triple_of_rank(n, qi - c4[d]), d + 1)


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
        # deleting the valid values leaves exactly the invalid ones
        if data.translate(None, _VALUES):
            raise InputError("table values must be HOLE, PLUS or MINUS")
        self.n = n
        self.table = data

    @classmethod
    def _trusted(cls, n: int, table: bytes) -> HoleyHT:
        """The structure with this table, unchecked: for `bytes` of length
        C(n,3) and valid values only, such as a table read from a valid one
        or one that the completion check has just passed.  Equal to, and
        hashing and pickling like, `HoleyHT(n, table)`."""
        self = object.__new__(cls)
        self.n = n
        self.table = table
        return self

    @classmethod
    def empty(cls, n: int) -> HoleyHT:
        """The structure on 1..n where every triple is a hole."""
        return cls(n, bytes(comb(n, 3)))

    # -- basic queries -----------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def triple_value(self, a: int, b: int, c: int) -> int:
        """Stored orientation of the 3-subset {a, b, c} (any tuple order)."""
        return self.table[slot(self.n, a, b, c)[0]]

    def orientation_of(self, x: int, y: int, z: int) -> int:
        """IN_R if (x, y, z) is in the relation, REVERSED if (x, z, y) is,
        HOLE if the underlying 3-subset is unassigned.

        Invariant under cyclic rotation of the tuple; any transposition
        swaps IN_R and REVERSED.
        """
        r, odd = slot(self.n, x, y, z)
        v = self.table[r]
        return 3 - v if v != HOLE and odd else v

    def holes(self) -> list[tuple[int, int, int]]:
        return [triple_of_rank(self.n, r) for r, v in enumerate(self.table) if v == HOLE]

    def hole_count(self) -> int:
        return self.table.count(HOLE)

    def assigned_count(self) -> int:
        return len(self.table) - self.table.count(HOLE)

    def is_complete(self) -> bool:
        return HOLE not in self.table

    # -- derived structures --------------------------------------------------

    def along(self, f) -> HoleyHT:
        """The structure read along the distinct vertices `f`: new vertex i
        is old vertex f[i-1], and every triple keeps its relation, so a
        stored value flips with the parity of the sort (see orientation_of).
        Every value is copied from this valid table, so the result skips the
        checks of the constructor."""
        f = tuple(f)
        for v in f:
            if not 1 <= v <= self.n:
                raise InputError(f"vertex {v} out of range 1..{self.n}")
        if len(set(f)) != len(f):
            raise InputError(f"repeated vertex in {f}")
        t2, t3 = _rank_terms(self.n)
        same, flipped = self.table, self.table.translate(_COMPLEMENT_MAP)
        out = bytearray()
        # new triples {i < j < k} in colex order: the place of f[i] against
        # f[j] and f[k] picks the sorted rank, and the sort is odd exactly
        # when f[j] > f[k] xor f[i] lies between them
        for k in range(2, len(f)):
            c = f[k]
            for j in range(1, k):
                b = f[j]
                if b < c:
                    lo, hi, keep, swap = b, c, same, flipped
                else:
                    lo, hi, keep, swap = c, b, flipped, same
                below = t2[lo] + t3[hi]
                for a in f[:j]:
                    out.append(keep[a + below] if a < lo
                               else swap[lo + t2[a] + t3[hi]] if a < hi
                               else keep[lo + t2[hi] + t3[a]])
        return HoleyHT._trusted(len(f), bytes(out))

    def induced(self, vertices) -> HoleyHT:
        """Substructure on a vertex subset, relabeled 1..|S| preserving the
        relative order of the kept vertices (old vertex sorted(S)[i-1] becomes i)."""
        kept = sorted(set(vertices))
        if not kept:
            raise InputError("induced substructure needs a nonempty vertex set")
        return self.along(kept)

    def complement(self) -> HoleyHT:
        """Reverse every assigned orientation; holes stay holes. Involution."""
        return HoleyHT(self.n, self.table.translate(_COMPLEMENT_MAP))

    def relabel(self, perm) -> HoleyHT:
        """Image under the vertex bijection i -> perm[i-1], read along its inverse."""
        p = check_order(perm, self.n)
        return self.along(sorted(self.vertices, key=lambda i: p[i - 1]))

    def with_value(self, a: int, b: int, c: int, value: int) -> HoleyHT:
        """Copy with one triple set to `value` (functional update)."""
        r = slot(self.n, a, b, c)[0]
        if value not in (HOLE, PLUS, MINUS):
            raise InputError(f"bad orientation value {value}")
        table = bytearray(self.table)
        table[r] = value
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
        table = self.table
        # HOLE is 0, so compress keeps the ranks of the assigned triples
        assigned = ", ".join(f"{triple_of_rank(self.n, r)}:{' +-'[table[r]]}"
                             for r in itertools.compress(range(len(table)), table))
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
        r, odd = slot(n, x, y, z)
        value = MINUS if odd else PLUS
        if table[r] == HOLE:
            table[r] = value
        elif table[r] != value:
            a, b, c = triple_of_rank(n, r)
            raise ContradictoryTriple(
                f"both orientations of {{{a}, {b}, {c}}} asserted"
            )
    return HoleyHT(n, bytes(table))


def glue(first: HoleyHT, second: HoleyHT, base) -> HoleyHT:
    """Free gluing of two structures over a shared vertex set.

    Vertices in `base` are identified across the two structures by equal id;
    both must induce the same table on them.  The glued structure keeps the
    first factor's ids 1..n1 and relabels the second factor's remaining
    vertices to n1+1, ... in ascending order.  Cross triples, those meeting
    both factors outside `base`, are holes: strong amalgamation adds no
    identifications.
    """
    base_ids = sorted(set(base))
    for v in base_ids:
        if not 1 <= v <= min(first.n, second.n):
            raise InputError(f"base vertex {v} missing from a factor")
    for t in itertools.combinations(base_ids, 3):
        if first.triple_value(*t) != second.triple_value(*t):
            raise InputError(f"factors disagree on base triple {t}")
    base_set = set(base_ids)
    extra = [v for v in second.vertices if v not in base_set]
    relabel = {v: v for v in base_ids}
    relabel.update(zip(extra, itertools.count(first.n + 1)))
    total = first.n + len(extra)
    # triples of 1..n1 come first in colex order, so the first factor is a
    # prefix of the glued table
    table = bytearray(first.table) + bytes(comb(total, 3) - len(first.table))
    # base ids may interleave with the fresh ones, so the second factor's
    # relabeling need not be monotone: a value flips with its parity
    for r in itertools.compress(range(len(second.table)), second.table):
        v, (a, b, c) = second.table[r], triple_of_rank(second.n, r)
        s, odd = slot(total, relabel[a], relabel[b], relabel[c])
        table[s] = 3 - v if odd else v
    return HoleyHT(total, bytes(table))


def is_isomorphic(first: HoleyHT, second: HoleyHT) -> tuple[int, ...] | None:
    """Search for a vertex bijection preserving orientation_of on all tuples.

    Returns the witness as a tuple p with p[i-1] = image of vertex i (the
    lexicographically least witness), or None.  A least-first search over
    image prefixes p, kept while `second` read along p is `first` on
    1..len(p); vertex i is only sent to vertices with as many hole triples
    through them as through i.  Refuses n > ISO_GUARD.
    """
    if first.n != second.n:
        return None
    n = first.n
    if n > ISO_GUARD:
        raise GuardExceeded(f"isomorphism search limited to n <= {ISO_GUARD}, got {n}")
    # hole degrees are the cheap invariant: assigned values flip with the
    # parity of the relabeling, so their multiset is not preserved
    want, have = (Counter(itertools.chain.from_iterable(s.holes())) for s in (first, second))
    if sorted(want.values()) != sorted(have.values()):
        return None
    stack = [()]
    while stack:
        prefix = stack.pop()
        if second.along(prefix).table != first.table[:comb(len(prefix), 3)]:
            continue
        if len(prefix) == n:
            return prefix
        # pushed in descending order, so the least image is tried first
        degree = want[len(prefix) + 1]
        stack.extend(prefix + (w,) for w in range(n, 0, -1)
                     if have[w] == degree and w not in prefix)
    return None


class Hypergraph3(namedtuple("Hypergraph3", "n hyperedges")):
    """A 3-uniform hypergraph on vertices 1..n; hyperedges are sorted triples."""

    __slots__ = ()

    def __new__(cls, n: int, hyperedges: frozenset) -> Hypergraph3:
        for e in hyperedges:
            a, b, c = e
            if not (0 < a < b < c <= n):
                raise InputError(f"bad hyperedge {e} for n={n}")
        return super().__new__(cls, n, hyperedges)

    @classmethod
    def _make(cls, iterable) -> Hypergraph3:
        # the namedtuple one skips __new__, and _replace calls it
        return cls(*iterable)


def _lanes(data: bytes) -> int:
    """The bytes as one int, a lane of 8 bits per byte."""
    return int.from_bytes(data, "big")


def _order_parities(n: int, order) -> bytes:
    """For each triple in rank order, the parity (a byte 0 or 1) of the
    permutation sorting its vertices by position in `order`: 1 exactly when
    reading the triple along the order flips its stored orientation (see
    orientation_of).  Refuses n > VERTEX_GUARD."""
    _guard_index(n, "the parity table of an order")
    place = bytearray(256)
    for i, v in enumerate(check_order(order, n)):
        place[v] = i
    least, middle, largest = _triple_columns(n)
    a, b = _lanes(least.translate(place)), _lanes(middle.translate(place))
    c, top = _lanes(largest.translate(place)), _lanes(b"\x80" * len(least))
    # a lane (p | 0x80) - q is 0x80 + p - q, in 1..255 for places below 128,
    # so it never borrows and has its top bit set exactly when p > q
    a |= top
    odd = (a - b ^ a - c ^ (b | top) - c) & top
    return (odd >> 7).to_bytes(len(least), "big")


def hat(structure: HoleyHT, order) -> Hypergraph3:
    """Hypergraph whose hyperedges are the 3-subsets {a < b < c in `order`}
    with (a, b, c) in the relation.  Requires a hole-free structure."""
    if not structure.is_complete():
        raise HoleyInput("hat is defined for hole-free structures only")
    n, table = structure.n, structure.table
    # lanes of PLUS (1) or MINUS (2) less the parity never borrow, and are 1
    # exactly where the triple read along the order is PLUS
    ones = (_lanes(table) - _lanes(_order_parities(n, order))).to_bytes(len(table), "big")
    edges = frozenset(itertools.compress(triples(n), ones.replace(b"\x02", b"\x00")))
    # sorted triples over 1..n, so __new__ need not check them again
    return tuple.__new__(Hypergraph3, (n, edges))


def unhat(hypergraph: Hypergraph3, order) -> HoleyHT:
    """Inverse of hat: orient each 3-subset {a < b < c in `order`} as
    (a, b, c) when it is a hyperedge and (a, c, b) otherwise."""
    n = hypergraph.n
    parities = _order_parities(n, order)
    member = bytes(map(hypergraph.hyperedges.__contains__, triples(n)))
    # PLUS is 2 - 1 and MINUS is 2 - 0, a lane per triple
    table = _lanes(b"\x02" * len(member)) - (_lanes(member) ^ _lanes(parities))
    return HoleyHT(n, table.to_bytes(len(member), "big"))
