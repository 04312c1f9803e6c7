"""Classification of 4-vertex 3-hypertournaments and 4-constrained classes.

Every hole-free 3-hypertournament on four vertices is isomorphic to exactly
one of three structures:

* H4 -- the homogeneous one (automorphism group Alt(4)); under the natural
  order its hat hypergraph has hyperedge set {123, 134} or {124, 234},
* O4 -- the odd one: an odd number of hyperedges under every order,
* C4 -- the cyclic one: induced by a cyclic order; even hyperedge count,
  never in the H4 pattern.

A 4-constrained class is given by a nonempty subset of {H4, O4, C4}: it
contains the structures all of whose 4-vertex substructures have a type in
the subset.

The hot paths judge a 4-subset by one lookup: its four table values (HOLE 0,
PLUS 1, MINUS 2) form the code v0 + 3*v1 + 9*v2 + 27*v3, and each constraint
set carries two tables over these codes, derived from mask_of: the action
table of unit propagation and the ok table of the class test.

The class test (`first_offence`, and `class_member` on top of it) judges one
table, or a whole batch of them, by one bytes.translate of the codes of its
4-subsets through the ok table and one find(0).

One table goes through a block kernel that needs no 4-subset index.  With
0-based vertices and the colex rank a + C(b,2) + C(c,3), the 4-subsets
{a<b<c<d} with a fixed top pair c<d form a block of C(c,2), in pair order
a + C(b,2): their {abc} and {abd} values are two slices of the table, and
their {acd} and {bcd} values are two bytes.translate gathers of the row of
the c triples {x,c,d}, by the lower and the upper ends of the pairs below c.
The four value strings of a run of blocks, scaled by 1, 3, 9 and 27, are
summed as one big int read as byte lanes (no lane carries, since a code is
at most 80), which yields the codes in colex order with about C(n-1,2)
Python steps instead of C(n,4).  The runs hold at most _CHECK_BYTES codes
each.  4-subsets are numbered in colex order too (core.quads), so the
first failing code of the first failing run is the least offender.

A batch goes in chunks of at most _CHECK_BYTES codes, a narrow chunk table
by table, one of more tables than vertices column-wise: transposed, by
strided slices of the joined chunk, into one int per triple rank whose byte
k is the value of that triple in table k, so one evaluation of the code
formula on these ints, over the 4-subsets in colex order with their ranks
from the colex formula, yields the codes of a 4-subset in every table,
byte by byte.  Neither path reads a 4-subset index.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum
from functools import cached_property, lru_cache
from math import comb

from .core import (
    HOLE,
    MINUS,
    PLUS,
    HoleyHT,
    HoleyInput,
    InputError,
    _binomials,
    quad_vertices,
)


class FourType(Enum):
    H4 = "H4"
    O4 = "O4"
    C4 = "C4"

    def __str__(self) -> str:
        return self.value


def _type_of_mask(mask: int) -> FourType:
    # mask bit i = 1 iff the i-th triple of the 4-subset, in the order
    # ({123}, {124}, {134}, {234}) after relabeling to 1..4, is PLUS.
    if bin(mask).count("1") & 1:
        return FourType.O4
    if mask in (0b0101, 0b1010):  # {123,134} and {124,234}: the H4 patterns
        return FourType.H4
    return FourType.C4


TYPE_BY_MASK = tuple(_type_of_mask(m) for m in range(16))


def mask_of(v0: int, v1: int, v2: int, v3: int) -> int:
    """Plus-pattern bitmask of a fully assigned 4-subset; inputs are the
    table values of its triples {abc}, {abd}, {acd}, {bcd} in that order."""
    return (
        (v0 == PLUS)
        | (v1 == PLUS) << 1
        | (v2 == PLUS) << 2
        | (v3 == PLUS) << 3
    )


# the table values (v0, v1, v2, v3) of the 4-subsets with code
# v0 + 3*v1 + 9*v2 + 27*v3, by code
_CODES = tuple((c % 3, c // 3 % 3, c // 9 % 3, c // 27) for c in range(81))
# translate tables: a table value times 3, 9 and 27, its weight in a code
_TIMES_3, _TIMES_9, _TIMES_27 = (
    bytes.maketrans(bytes([HOLE, PLUS, MINUS]), bytes([HOLE, w * PLUS, w * MINUS]))
    for w in (3, 9, 27))
# the class test holds at most this many bytes of 4-subset codes at once, so
# its memory is bounded at any vertex count
_CHECK_BYTES = 1 << 20
# a column-wise chunk is joined in pieces of this many tables: a join holds a
# buffer view (80 bytes) per part, more than a small table itself
_JOIN_TABLES = 4096


def _action(bits: int, values) -> int:
    holes = [pos for pos, v in enumerate(values) if v == HOLE]
    if not holes:
        return 0 if (bits >> mask_of(*values)) & 1 else -1
    if len(holes) > 1:
        return 0
    pos = holes[0]
    ok = [
        value
        for value in (PLUS, MINUS)
        if (bits >> mask_of(*values[:pos], value, *values[pos + 1:])) & 1
    ]
    if len(ok) == 2:
        return 0
    return pos << 2 | ok[0] if ok else -1


@lru_cache(maxsize=None)
def _action_table(bits: int) -> tuple[int, ...]:
    return tuple(_action(bits, values) for values in _CODES)


@lru_cache(maxsize=None)
def _queue_table(bits: int) -> bytes:
    action = _action_table(bits)
    return bytes(values.count(HOLE) == 1 and action[code] != 0
                 for code, values in enumerate(_CODES))


@lru_cache(maxsize=None)
def _ok_table(bits: int) -> bytes:
    ok = bytes(
        HOLE in values or (bits >> mask_of(*values)) & 1 for values in _CODES
    )
    return ok + bytes(256 - len(ok))


class ConstraintSet:
    """A nonempty set of allowed 4-vertex types.

    An immutable value: equality and hashing go by `allowed`.  Not a named
    tuple, because it keeps its lookup tables (cached properties) in its
    __dict__ and iterates over its types.
    """

    def __init__(self, allowed: frozenset) -> None:
        if not allowed:
            raise InputError("constraint set must be nonempty")
        for t in allowed:
            if not isinstance(t, FourType):
                raise InputError(f"not a FourType: {t!r}")
        vars(self).update(allowed=allowed)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.allowed == other.allowed
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.allowed)

    def __repr__(self) -> str:
        return f"ConstraintSet(allowed={self.allowed!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def of(cls, *types: FourType) -> ConstraintSet:
        return cls(frozenset(types))

    @classmethod
    def coerce(cls, value) -> ConstraintSet:
        if isinstance(value, ConstraintSet):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(frozenset(value))

    @classmethod
    def parse(cls, text: str) -> ConstraintSet:
        """Parse a comma-separated list such as "C4,O4"."""
        names = [p.strip().upper() for p in text.split(",") if p.strip()]
        try:
            return cls(frozenset(FourType[name] for name in names))
        except KeyError as exc:
            raise InputError(f"unknown 4-vertex type in {text!r}") from exc

    def __contains__(self, t: FourType) -> bool:
        return t in self.allowed

    def __iter__(self):
        return iter(sorted(self.allowed, key=lambda t: t.value))

    @property
    def is_amalgamation_class(self) -> bool:
        """True exactly for {C4}, {C4,H4}, {C4,O4} and {C4,O4,H4} (a recorded
        fact about which 4-constrained classes amalgamate strongly)."""
        return FourType.C4 in self.allowed

    def mask_bits(self) -> int:
        """Bitset over the 16 plus-patterns whose type is allowed."""
        bits = 0
        for m in range(16):
            if TYPE_BY_MASK[m] in self.allowed:
                bits |= 1 << m
        return bits

    @cached_property
    def action_table(self) -> tuple[int, ...]:
        """Unit propagation on a 4-subset, by code: 0 nothing to do (two or
        more holes, or every completion of it allowed), -1 conflict (none
        allowed), else pos << 2 | value: the one hole, at position pos, must
        take value."""
        return _action_table(self.mask_bits())

    @cached_property
    def queue_table(self) -> bytes:
        """1 at the codes with exactly one hole and a nonzero action, 0 at
        the other codes: the 4-subsets that unit propagation queues."""
        return _queue_table(self.mask_bits())

    @cached_property
    def ok_table(self) -> bytes:
        """1 at the codes of 4-subsets that are allowed or hold a hole, 0 at
        the other codes; padded with 0 from code 81 to 256 entries, so that it
        is a bytes.translate table."""
        return _ok_table(self.mask_bits())

    def label(self) -> str:
        return ",".join(t.value for t in self)

    def __str__(self) -> str:
        return self.label()


CYCLIC = ConstraintSet.of(FourType.C4)
EVEN = ConstraintSet.of(FourType.C4, FourType.H4)
H4_FREE = ConstraintSet.of(FourType.C4, FourType.O4)
ALL_TYPES = ConstraintSet.of(FourType.C4, FourType.O4, FourType.H4)


def four_type(structure: HoleyHT) -> FourType:
    """Isomorphism type of a hole-free 4-vertex structure.

    Decided from the hat hypergraph under the natural order 1<2<3<4: odd
    hyperedge count is O4, the two crossing two-edge patterns are H4,
    everything else is C4.
    """
    if structure.n != 4:
        raise InputError(f"four_type needs exactly 4 vertices, got {structure.n}")
    if not structure.is_complete():
        raise HoleyInput("four_type needs a hole-free structure")
    t = structure.table
    return TYPE_BY_MASK[mask_of(t[0], t[1], t[2], t[3])]


def census4() -> dict:
    """Counts of all 16 labeled 4-vertex structures per type."""
    counts = {t: 0 for t in FourType}
    for values in itertools.product((PLUS, MINUS), repeat=4):
        counts[four_type(HoleyHT(4, bytes(values)))] += 1
    return counts


class Membership(namedtuple("Membership", "ok witness", defaults=(None,))):
    """Result of a 4-constrained class test; falsy when a witness exists."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def first_offence(n: int, tables, allowed) -> tuple[int, int] | None:
    """The least offending 4-subset over a batch of tables on n vertices, as
    (4-subset id, index of the first table it offends in), or None when
    every table lies in the class.

    An offending 4-subset is fully assigned with a type outside `allowed`;
    4-subsets containing a hole are not judged.  Ids are those of
    core.quads (colex order).  The batch goes in chunks of at most
    _CHECK_BYTES codes, one byte per table and 4-subset: a chunk of more
    than n tables column-wise, a narrower one table by table through the
    kernel, which is faster there (measured from 12 to 30 vertices).
    Both are described in the module docstring.
    """
    ok = ConstraintSet.coerce(allowed).ok_table
    step = max(1, _CHECK_BYTES // max(comb(n, 4), 1))
    hits = []
    for start in range(0, len(tables), step):
        chunk = tables[start:start + step]
        if len(chunk) > n:
            hit = _column_offence(n, chunk, ok)
            hits += [(hit[0], start + hit[1])] if hit else []
        else:
            qis = enumerate(_least_offence(n, t, ok) for t in chunk)
            hits += [(qi, start + k) for k, qi in qis if qi is not None]
    return min(hits, default=None)


def _column_offence(n: int, tables, ok: bytes) -> tuple[int, int] | None:
    """`first_offence` of one chunk, judged column-wise, with the ranks from
    the colex formula a + C(b,2) + C(c,3) over 0-based vertices.  Column r,
    byte k of which is the value of triple r in table k, is every C(n,3)-th
    byte of the joined chunk from r; the joined copy goes before the walk.
    The walk takes d, c, b, a from the outside in, so the 4-subsets come in
    id order and the place of a verdict is its id."""
    width, m = len(tables), comb(n, 3)
    joined = b"".join([b"".join(tables[i:i + _JOIN_TABLES])
                       for i in range(0, width, _JOIN_TABLES)])
    cols = [int.from_bytes(joined[r::m], "little") for r in range(m)]
    del joined
    c2, c3, _ = _binomials(n)
    # appended in place: joining one string per 4-subset would also hold a
    # list slot and a buffer view (about 120 bytes) per 4-subset
    verdict = bytearray()
    for d in range(n):
        for c in range(d):
            cd = c2[c] + c3[d]
            for b in range(c):
                abc, abd, bcd = c2[b] + c3[c], c2[b] + c3[d], 27 * cols[b + cd]
                # the columns of {abc}, {abd} and {acd} for a = 0..b-1
                for x, y, z in zip(cols[abc:abc + b], cols[abd:abd + b], cols[cd:cd + b]):
                    verdict += (x + 3 * y + 9 * z + bcd).to_bytes(width, "little")
    pos = verdict.translate(ok).find(0)
    return None if pos < 0 else divmod(pos, width)


@lru_cache(maxsize=None)
def _pair_ends(c: int) -> tuple[bytes, bytes]:
    """The lower and the upper ends of the pairs {a<b} below c (0-based), in
    pair order a + C(b,2)."""
    pairs = [(a, b) for b in range(c) for a in range(b)]
    return bytes(a for a, _ in pairs), bytes(b for _, b in pairs)


def _top_runs(n: int) -> list[tuple[int, int]]:
    """Runs [d0, d1) of consecutive top vertices d (0-based), each holding
    at most _CHECK_BYTES 4-subsets {a<b<c<d} (C(d,3) per d), or a single d."""
    runs, start, size = [], 3, 0
    for d in range(3, n):
        if size and size + comb(d, 3) > _CHECK_BYTES:
            runs.append((start, d))
            start, size = d, 0
        size += comb(d, 3)
    if n > 3:
        runs.append((start, n))
    return runs


def _codes(scaled: tuple, d0: int, d1: int) -> bytes:
    """The codes of the 4-subsets {a<b<c<d} with d0 <= d < d1 (0-based), in
    colex order, from the scaled tables of `_verdicts`.

    With the colex rank a + C(b,2) + C(c,3), the 4-subsets with top pair
    c<d come in pair order a + C(b,2), and their triples are: {abc} the
    C(c,2) ranks from C(c,3), {abd} the C(c,2) ranks from C(d,3), and {acd}
    and {bcd} the row of c ranks from C(c,2) + C(d,3), gathered by the lower
    and the upper ends of the pairs.  The {abc} ranks of all c < d together
    are every rank below C(d,3).  The four scaled values are summed in one
    big int read as byte lanes; a code is at most 80, so no lane carries.
    """
    t1, t3, t9, t27 = scaled
    v0, v1, v2, v3 = [], [], [], []
    for d in range(d0, d1):
        e = comb(d, 3)
        v0.append(t1[:e])
        for c in range(2, d):
            lo, hi = _pair_ends(c)
            m = len(lo)
            row = e + m
            v1.append(t3[e:e + m])
            v2.append(lo.translate(t9[row:row + 256]))
            v3.append(hi.translate(t27[row:row + 256]))
    total = 0
    for v in (v3, v2, v1, v0):  # the gathered copies first, freed once summed
        total += int.from_bytes(b"".join(v), "little")
        v.clear()
    return total.to_bytes(comb(d1, 4) - comb(d0, 4), "little")


def _verdicts(table: bytes, runs, ok: bytes):
    """For each run [d0, d1) in turn, d0 and the ok-table bytes of the codes
    of its 4-subsets (`_codes`), in colex order.  `_codes` reads the table
    times 1, 3, 9 and 27, the last two padded by 256 bytes, so that a slice
    of 256 from any rank is a translate table."""
    pad = bytes(256)
    scaled = (memoryview(table), memoryview(table.translate(_TIMES_3)),
              table.translate(_TIMES_9) + pad, table.translate(_TIMES_27) + pad)
    for d0, d1 in runs:
        yield d0, _codes(scaled, d0, d1).translate(ok)


def _least_offence(n: int, table: bytes, ok: bytes) -> int | None:
    """Id of the least offending 4-subset of one table, or None, judged by
    the block kernel (`_codes`) over runs of top vertices: the runs come in
    id order, and run [d0, d1) starts at id C(d0,4)."""
    for d0, verdict in _verdicts(table, _top_runs(n), ok):
        pos = verdict.find(0)
        if pos >= 0:
            return comb(d0, 4) + pos
    return None


def class_member(structure: HoleyHT, allowed) -> Membership:
    """Does every fully assigned 4-subset have a type in `allowed`?

    4-subsets containing a hole are not judged.  On failure the witness is
    the least offending 4-subset in colex order: least top vertex first.
    """
    found = first_offence(structure.n, [structure.table], allowed)
    if found is None:
        return Membership(True)
    return Membership(False, quad_vertices(structure.n, found[0]))
