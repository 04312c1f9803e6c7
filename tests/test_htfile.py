import random
import tracemalloc
from math import comb

import pytest

from htour import core, htfile
from htour.core import (
    HOLE,
    VERTEX_GUARD,
    ContradictoryTriple,
    GuardExceeded,
    HoleyHT,
    InputError,
    MINUS,
    PLUS,
    triples,
)
from htour.families import gen_bn, gen_on
from htour.rand import random_graph, random_holey_ht, random_order


def test_emit_canonical_shape():
    text = htfile.emit(gen_on(6))
    lines = text.splitlines()
    assert lines[0] == "htour 6"
    assert len(lines) == 1 + 11
    assert text.endswith("\n")


def test_emit_lists_the_assigned_triples_in_rank_order():
    rng = random.Random(40)
    for _ in range(100):
        n = rng.randint(0, 12)
        A = random_holey_ht(rng, n, rng.randint(0, len(triples(n))))
        expected = [f"htour {n}"] + [
            f"{a} {b} {c} {'+' if v == PLUS else '-'}"
            for (a, b, c), v in zip(triples(n), A.table) if v != HOLE
        ]
        assert htfile.lines(A) == expected
        assert htfile.emit(A) == "\n".join(expected) + "\n"


def test_emit_builds_no_table_of_triples():
    # bn(51) has 99 vertices and 204 assigned triples: emitting it reads
    # their ranks and builds their lines, under one byte per triple in all
    structure = gen_bn(51)
    core.triples.cache_clear()
    tracemalloc.start()
    try:
        text = htfile.emit(structure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text.splitlines()) == 1 + 204
    assert peak < comb(99, 3), peak


def test_round_trip_structures():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 9)
        A = random_holey_ht(rng, n, rng.randint(0, len(triples(n))))
        doc = htfile.parse(htfile.emit(A))
        assert doc.structure == A and doc.order is None and doc.edges is None


def test_round_trip_sections():
    rng = random.Random(42)
    n = 7
    A = random_holey_ht(rng, n, 10)
    order = random_order(rng, n)
    edges = random_graph(rng, n, p=0.7)
    text = htfile.emit(A, order, edges)
    doc = htfile.parse(text)
    assert (doc.structure, doc.order, doc.edges) == (A, order, edges)
    assert htfile.emit_document(doc) == text
    assert htfile.lines(*doc) == text.splitlines()


def test_parse_tolerates_comments_and_duplicates():
    doc = htfile.parse(
        """
        # a comment
        htour 4

        1 3 4 +
        1 3 4 +
        # another
        1 2 4 -
        """
    )
    assert doc.structure.triple_value(1, 3, 4) == PLUS
    assert doc.structure.triple_value(1, 2, 4) == MINUS


def test_parse_rejects_contradiction():
    with pytest.raises(ContradictoryTriple):
        htfile.parse("htour 4\n1 3 4 +\n1 3 4 -\n")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "htour\n",
        "nope 4\n",
        "htour 4\n1 2 3\n",
        "htour 4\n3 2 1 +\n",
        "htour 4\n1 2 9 +\n",
        "htour 4\n1 2 3 ?\n",
        "htour 4\norder: 1 2 3\n",
        "htour 4\norder: 1 2 3 4\norder: 1 2 3 4\n",
        "htour 4\nedge 1 1\n",
        "htour 4\nedge 1 9\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(InputError):
        htfile.parse(text)


def test_empty_edge_set_serializes_as_absent():
    A = HoleyHT.empty(3)
    assert htfile.emit(A, (1, 2, 3), frozenset()) == htfile.emit(A, (1, 2, 3))
    assert htfile.parse(htfile.emit(A, (1, 2, 3), frozenset())).edges is None


def test_parse_garbage_raises_input_error_not_crash():
    rng = random.Random(55)
    alphabet = "htour edge: 0123456789+-#\n abc?"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            htfile.parse(text)
        except InputError:
            pass  # includes ContradictoryTriple


def test_parse_guards_the_vertex_count():
    # refused right after the header, before the table is allocated
    for n in (VERTEX_GUARD + 1, 3_000_000):
        with pytest.raises(GuardExceeded):
            htfile.parse(f"htour {n}\n1 2 3 +\n")
    assert htfile.parse(f"htour {VERTEX_GUARD}\n").n == VERTEX_GUARD
