"""Line-based text format for (ordered) structures.

    # comment lines start with '#', blank lines are skipped
    htour <n>
    <a> <b> <c> <+|->      one line per assigned triple, a < b < c
    order: <v1> ... <vn>   optional, for ordered structures
    edge <a> <b>           optional, repeated, for even expansions

Unlisted triples are holes.  emit() is canonical: triples in rank order,
then the order section, then edges sorted; parse(emit(x)) round-trips and
emit(parse(emit(x))) is byte-identical.
"""

from __future__ import annotations

from collections import namedtuple
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
    check_order,
    triple_rank,
    triples,
)

_SIGN = {PLUS: "+", MINUS: "-"}
_VALUE = {"+": PLUS, "-": MINUS}


class Document(namedtuple("Document", "structure order edges", defaults=(None, None))):
    """A parsed file: the structure plus optional order/edges sections."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.structure.n


def emit(structure: HoleyHT, order=None, edges=None) -> str:
    """Canonical text form.

    An empty edge set has no representation distinct from an absent graph
    (there are only `edge` lines, no section marker), so it serializes the
    same way.
    """
    lines = [f"htour {structure.n}"]
    for (a, b, c), v in zip(triples(structure.n), structure.table):
        if v != HOLE:
            lines.append(f"{a} {b} {c} {_SIGN[v]}")
    if order is not None:
        lines.append("order: " + " ".join(str(v) for v in order))
    if edges:
        for a, b in sorted(edges):
            lines.append(f"edge {a} {b}")
    return "\n".join(lines) + "\n"


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
