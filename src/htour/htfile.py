"""Line-based text format for (ordered) structures.

    # comment lines start with '#', blank lines are skipped
    htour <n>
    <a> <b> <c> <+|->      one line per assigned triple, a < b < c
    order: <v1> ... <vn>   optional, for ordered structures
    edge <a> <b>           optional, repeated, for even expansions

Unlisted triples are holes.  emit() is canonical: triples in rank order,
then the order section, then edges sorted; parse(emit(x)) round-trips and
emit(parse(emit(x))) is byte-identical.  `lines` gives the same lines
without their ends, as the JSON reports list them.  The lines of a triple
are made on their first use, from its rank, and kept per vertex count in a
`core._Store`, the lazy store of the 4-subset index, so printing a structure
walks only its assigned triples.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress
from math import comb

from .core import (
    HOLE,
    MINUS,
    PLUS,
    VERTEX_GUARD,
    ContradictoryTriple,
    GuardExceeded,
    HoleyHT,
    InputError,
    _Store,
    check_order,
    triple_of_rank,
    triple_rank,
)

_VALUE = {"+": PLUS, "-": MINUS}


def _triple_line(n: int, r: int) -> tuple:
    """The lines of triple r indexed by its value (PLUS 1, MINUS 2): (None,
    its line with PLUS, its line with MINUS)."""
    triple = "%d %d %d " % triple_of_rank(n, r)
    return None, triple + "+", triple + "-"


@lru_cache(maxsize=None)
def _triple_lines(n: int) -> _Store:
    """Rank r -> `_triple_line(n, r)`, made on the first read and kept."""
    return _Store(n, comb(n, 3), _triple_line)


class Document(namedtuple("Document", "structure order edges", defaults=(None, None))):
    """A parsed file: the structure plus optional order/edges sections."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.structure.n


def lines(structure: HoleyHT, order=None, edges=None) -> list[str]:
    """The lines of the canonical text form, without their ends.

    An empty edge set has no representation distinct from an absent graph
    (there are only `edge` lines, no section marker), so it serializes the
    same way.
    """
    table = structure.table
    store = _triple_lines(structure.n)
    out = [f"htour {structure.n}"]
    # HOLE is 0, so compress keeps the ranks of the assigned triples
    out += [store[r][table[r]] for r in compress(range(len(table)), table)]
    if order is not None:
        out.append("order: " + " ".join(str(v) for v in order))
    if edges:
        for a, b in sorted(edges):
            out.append(f"edge {a} {b}")
    return out


def emit(structure: HoleyHT, order=None, edges=None) -> str:
    """Canonical text form: `lines`, each ended by a newline."""
    return "\n".join(lines(structure, order, edges)) + "\n"


def emit_document(doc: Document) -> str:
    return emit(doc.structure, doc.order, doc.edges)


def parse(text: str) -> Document:
    """Parse one document; tolerant of duplicate identical triple lines,
    rejects contradictory ones."""
    n = None
    table = None
    order = None
    edges: set | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "htour" or len(parts) != 2:
                raise InputError(f"line {lineno}: expected header 'htour <n>'")
            try:
                n = int(parts[1])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad vertex count") from exc
            if n < 0:
                raise InputError(f"line {lineno}: negative vertex count")
            if n > VERTEX_GUARD:
                raise GuardExceeded(
                    f"line {lineno}: files are limited to {VERTEX_GUARD} "
                    f"vertices, got {n}"
                )
            table = bytearray(comb(n, 3))
            continue
        if parts[0] == "order:":
            if order is not None:
                raise InputError(f"line {lineno}: duplicate order section")
            try:
                order = check_order([int(p) for p in parts[1:]], n)
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad order: {exc}") from exc
            continue
        if parts[0] == "edge":
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'edge <a> <b>'")
            try:
                x, y = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad edge") from exc
            if x == y or not (1 <= x <= n) or not (1 <= y <= n):
                raise InputError(f"line {lineno}: bad edge ({x}, {y})")
            if edges is None:
                edges = set()
            edges.add((min(x, y), max(x, y)))
            continue
        if len(parts) != 4 or parts[3] not in _VALUE:
            raise InputError(f"line {lineno}: expected '<a> <b> <c> <+|->'")
        try:
            a, b, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad triple") from exc
        if not (0 < a < b < c <= n):
            raise InputError(f"line {lineno}: triple must satisfy a < b < c <= n")
        value = _VALUE[parts[3]]
        r = triple_rank(a, b, c)
        if table[r] != HOLE and table[r] != value:
            raise ContradictoryTriple(
                f"line {lineno}: both orientations of {{{a}, {b}, {c}}}"
            )
        table[r] = value
    if n is None:
        raise InputError("empty input: missing 'htour <n>' header")
    return Document(
        HoleyHT(n, bytes(table)),
        order,
        frozenset(edges) if edges is not None else None,
    )
