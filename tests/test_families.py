import hashlib
import itertools
import random

import pytest

from htour import core
from htour.classify import CYCLIC, EVEN, H4_FREE, FourType, class_member, four_type
from htour.core import (
    HOLE,
    MINUS,
    PLUS,
    ContradictoryTriple,
    GuardExceeded,
    HoleyHT,
    InputError,
    is_isomorphic,
    quads,
    tuple_parity,
    validate,
)
from htour.families import (
    ChainBuilder,
    ChainInconsistent,
    LinkKind,
    gadget,
    gen_bn,
    gen_cyclic,
    gen_even,
    gen_on,
    gen_onneg,
    on_deletion_tuples,
    on_links,
)
from htour.rand import random_order


def test_gadget_tables():
    g = gadget(LinkKind.FWD)
    assert g.triple_value(1, 3, 4) == PLUS
    assert g.triple_value(1, 2, 4) == MINUS
    assert g.holes() == [(1, 2, 3), (2, 3, 4)]

    gn = gadget(LinkKind.FWD_NEG)
    assert gn.triple_value(2, 3, 4) == MINUS
    assert gn.triple_value(1, 2, 4) == MINUS
    assert gn.holes() == [(1, 2, 3), (1, 3, 4)]


def test_gadget_complements():
    assert gadget(LinkKind.CO_FWD) == gadget(LinkKind.FWD).complement()
    assert gadget(LinkKind.CO_FWD_NEG) == gadget(LinkKind.FWD_NEG).complement()


def test_apply_link_assigns():
    b = ChainBuilder(6).apply_link(LinkKind.FWD, (1, 2, 3, 4))
    A = b.build()
    assert A.triple_value(1, 3, 4) == PLUS
    assert A.triple_value(1, 2, 4) == MINUS
    assert A.assigned_count() == 2


def test_apply_link_conflict():
    b = ChainBuilder(6).apply_link(LinkKind.FWD, (1, 2, 3, 4))
    with pytest.raises(ChainInconsistent):
        # maps the gadget's PLUS triple onto {1,3,4} reversed
        b.apply_link(LinkKind.CO_FWD, (1, 2, 3, 4))


def test_apply_link_protects_holes():
    b = ChainBuilder(6).apply_link(LinkKind.FWD, (1, 2, 3, 4))
    with pytest.raises(ChainInconsistent):
        # FWD at (2,5,3,4) would assign {2,3,4}, which the first link
        # requires to stay a hole
        b.apply_link(LinkKind.FWD, (2, 5, 3, 4))


def test_refusals_decode_only_the_triple_they_name():
    # a refusal names its triple from the rank alone: no table of all
    # C(60,3) = 34,220 triples is built
    core.triples.cache_clear()
    with pytest.raises(ContradictoryTriple) as exc:
        validate([(58, 59, 60), (58, 60, 59)], 60)
    assert str(exc.value) == "both orientations of {58, 59, 60} asserted"
    b = ChainBuilder(60).apply_link(LinkKind.FWD, (57, 58, 59, 60))
    for kind, verts, message in (
        (LinkKind.CO_FWD, (57, 58, 59, 60), "contradicts (57, 59, 60)"),
        (LinkKind.FWD, (58, 1, 59, 60), "assigns required hole (58, 59, 60)"),
        (LinkKind.FWD, (1, 57, 59, 60), "needs (57, 59, 60) to be a hole"),
    ):
        with pytest.raises(ChainInconsistent) as exc:
            b.apply_link(kind, verts)
        assert str(exc.value) == f"link {kind.value}@{verts} {message}"
    assert core.triples.cache_info().currsize == 0


def test_refused_link_leaves_the_builder_unchanged():
    # every follow-up link on 1..6 after one FWD link: 4 kinds x 360 vertex
    # sequences; a refusal must write nothing, whichever check refuses
    refused = 0
    for kind in LinkKind:
        for verts in itertools.permutations(range(1, 7), 4):
            b = ChainBuilder(6).apply_link(LinkKind.FWD, (1, 2, 3, 4))
            table, must_hole = bytes(b.table), set(b.must_hole)
            try:
                b.apply_link(kind, verts)
            except ChainInconsistent:
                refused += 1
                assert (bytes(b.table), b.must_hole) == (table, must_hole)
    assert refused == 568


def test_chains_build_consistently():
    for n in range(6, 13):
        gen_on(n)
        gen_onneg(n)


def test_chain_builder_builds_and_rejects():
    builder = ChainBuilder(6)
    for kind, verts in on_links(6):
        builder.apply_link(kind, verts)
    assert builder.build() == gen_on(6)
    clash = ChainBuilder(6).apply_link(LinkKind.FWD, (1, 2, 3, 4))
    with pytest.raises(ChainInconsistent):
        clash.apply_link(LinkKind.CO_FWD, (1, 2, 3, 4))


# sha256 prefixes of the tables, recorded before onneg(n) became the
# complement of on(n) and bn(n) a core.glue of the two
FAMILY_TABLE_DIGESTS = {
    "on": {6: "401c1c66c9585fd2", 7: "9150e21059b5e354", 8: "5914bee1c102e35b",
           9: "75e2d038ef47b107", 10: "06d6c0f9a1256b7e", 11: "f6441c907749c06b",
           12: "72a80a91a9e6a2f2", 20: "0a6b2d97dffb65dd", 26: "dab6a0e9d9016e37"},
    "onneg": {6: "26c69bb0935193f2", 7: "9860ee2870876481", 8: "ded0e9083bc19fa0",
              9: "392983d00e2c0f30", 10: "c842bd1edea302b4", 11: "b3e657fca4b92cbe",
              12: "c858fdf7e1d0a5a9", 20: "3302f1665d097d5e", 26: "dad76b53cfd919cb"},
    "bn": {6: "0ebc795faf0c1101", 7: "a0fc03f300d6ffbe", 8: "806baff0584a50ff",
           9: "db7ecf3d0662759e", 10: "2e324f2902e66f22", 11: "64b9a32bce807d67",
           12: "3f110736ea3d7b1a", 20: "77d2a0087e7abd5b", 26: "79a1d876337b9903"},
}


@pytest.mark.parametrize("family", sorted(FAMILY_TABLE_DIGESTS))
def test_family_tables_are_golden(family):
    gen = {"on": gen_on, "onneg": gen_onneg, "bn": gen_bn}[family]
    got = {n: hashlib.sha256(gen(n).table).hexdigest()[:16]
           for n in FAMILY_TABLE_DIGESTS[family]}
    assert got == FAMILY_TABLE_DIGESTS[family]


def test_on6_pinned_table():
    A = gen_on(6)
    assert A.assigned_count() == 11
    assert A.hole_count() == 9
    expected = {
        (1, 3, 4): PLUS,
        (1, 2, 4): MINUS,
        (2, 4, 5): PLUS,
        (2, 3, 5): MINUS,
        (3, 5, 6): PLUS,
        (3, 4, 6): MINUS,
        (1, 5, 6): MINUS,
        (1, 4, 5): MINUS,
        (2, 4, 6): PLUS,
        (2, 3, 6): MINUS,
        (1, 3, 6): PLUS,
    }
    for t, v in expected.items():
        assert A.triple_value(*t) == v
    assert A.triple_value(1, 2, 3) == HOLE


def test_onneg_is_complement():
    for n in range(6, 13):
        assert gen_onneg(n) == gen_on(n).complement()


def test_on_rejects_small_n():
    with pytest.raises(InputError):
        gen_on(5)
    with pytest.raises(InputError):
        gen_bn(5)


def test_bn_gluing():
    b6 = gen_bn(6)
    assert b6.n == 9
    assert b6.induced(range(1, 7)) == gen_on(6)
    assert b6.induced([1, 2, 3, 7, 8, 9]) == gen_onneg(6)
    assert b6.triple_value(1, 2, 3) == HOLE
    # cross triples are holes
    assert b6.triple_value(4, 5, 7) == HOLE
    assert b6.triple_value(1, 4, 8) == HOLE


def test_bn_vertex_counts():
    for n in (6, 7, 8):
        assert gen_bn(n).n == 2 * n - 3


def test_cyclic_examples():
    assert gen_cyclic(4) == HoleyHT(4, bytes([PLUS] * 4))
    assert class_member(gen_cyclic(7, (3, 1, 7, 5, 2, 4, 6)), CYCLIC)


def test_cyclic_matches_the_comprehension_per_triple():
    # the cyclic table from one tuple_parity call per triple, as the
    # reference for the parity kernel's translation
    rng = random.Random(15)
    for n in [*range(10), 40, 100]:
        order = random_order(rng, n)
        pos = {v: i for i, v in enumerate(order)}
        table = bytes(MINUS if tuple_parity(pos[a], pos[b], pos[c]) else PLUS
                      for a, b, c in core.triples(n))
        assert gen_cyclic(n, order) == HoleyHT(n, table)


def test_cyclic_and_even_refuse_past_the_vertex_guard():
    # past 255 vertices too, where no byte column of the triples exists
    for n in (core.VERTEX_GUARD + 1, 300):
        core.triples.cache_clear()
        for make in (lambda: gen_cyclic(n), lambda: gen_even(n, ())):
            with pytest.raises(GuardExceeded):
                make()
        assert core.triples.cache_info().currsize == 0
    with pytest.raises(InputError, match="negative vertex count"):
        gen_cyclic(-1)


def test_cyclic_rotation_invariance():
    # rotating the cyclic order leaves every triple orientation unchanged
    for n in range(3, 7):
        base = tuple(range(1, n + 1))
        expected = gen_cyclic(n, base)
        for shift in range(1, n):
            rotated = base[shift:] + base[:shift]
            assert gen_cyclic(n, rotated) == expected


def test_even_examples():
    assert gen_even(5, []) == gen_cyclic(5)
    k4 = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    assert all(v == MINUS for v in gen_even(4, k4).table)


def _even_by_triples(n, order):
    """gen_even(n, edges, order) by its definition, as a function of the
    edges: one triple at a time in colex order."""
    pos = {v: i for i, v in enumerate(order)}
    colex = sorted(itertools.combinations(range(1, n + 1), 3), key=lambda t: t[::-1])
    parities = [(a, b, c, tuple_parity(pos[a], pos[b], pos[c])) for a, b, c in colex]

    def table(edges):
        edge = set(map(tuple, map(sorted, edges)))
        return bytes(MINUS if odd ^ ((a, b) in edge) ^ ((a, c) in edge) ^ ((b, c) in edge)
                     else PLUS for a, b, c, odd in parities)

    return table


def test_even_matches_its_definition():
    # every graph on at most 6 vertices, along the sorted order or a
    # shuffled one, then seeded graphs of random density up to the guard
    rng = random.Random(33)
    for n in range(7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        orders = (range(1, n + 1), random_order(rng, n))
        refs = [_even_by_triples(n, order) for order in orders]
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            assert gen_even(n, edges, orders[mask & 1]).table == refs[mask & 1](edges)
    for n in (*range(7, 20), 37, 100):
        density = rng.random()
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < density]
        order = random_order(rng, n)
        core.triples.cache_clear()
        assert gen_even(n, edges, order).table == _even_by_triples(n, order)(edges)
        # the parities come from the byte columns: no tuple per triple
        assert core.triples.cache_info().currsize == 0


def test_even_class_membership():
    import random

    from htour.rand import random_graph, random_order

    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(4, 8)
        E = gen_even(n, random_graph(rng, n), random_order(rng, n))
        assert class_member(E, EVEN)


# What is actually true about 4-subsets of the chain structures: every
# 4-subset with two or more assigned triples is either a copy of the (one,
# shared) gadget shape, or one of a short pinned list of extras created by
# the wrap-around links.  For n >= 8 the extras are forcing-free; at
# n = 6 and 7 some of them genuinely force orientations, which is what
# breaks the default all-MINUS filling there.
GADGET_EXTRAS = {
    6: {(1, 2, 4, 5), (1, 3, 4, 5), (1, 3, 4, 6), (1, 3, 5, 6),
        (2, 3, 4, 6), (2, 3, 5, 6), (2, 4, 5, 6)},
    7: {(1, 2, 4, 5), (1, 3, 4, 7), (2, 3, 5, 7), (2, 4, 5, 7)},
}


def expected_extras(n):
    if n in GADGET_EXTRAS:
        return GADGET_EXTRAS[n]
    return {(1, 2, 4, n - 2), (1, 3, 4, n), (2, 3, 5, n)}


def fill_types(sub):
    holes = sub.holes()
    for values in itertools.product((PLUS, MINUS), repeat=len(holes)):
        full = sub
        for t, v in zip(holes, values):
            full = full.with_value(*t, v)
        yield four_type(full)


@pytest.mark.parametrize("n", range(6, 11))
def test_gadget_coverage(n):
    shape = gadget(LinkKind.FWD)
    A = gen_on(n)
    extras = set()
    for q in quads(n):
        sub = A.induced(q)
        if sub.assigned_count() < 2:
            continue
        if is_isomorphic(sub, shape) is not None:
            continue
        extras.add(q)
        if n >= 8:
            # forcing-free: no hole assignment creates the forbidden type
            assert FourType.H4 not in set(fill_types(sub))
    assert extras == expected_extras(n)


@pytest.mark.parametrize("n", range(8, 13))
def test_all_minus_filling_from_8_up(n):
    assert class_member(gen_on(n).filled(MINUS), H4_FREE)
    assert class_member(gen_onneg(n).filled(PLUS), H4_FREE)


def test_deletion_tuples_skip_removed_vertex():
    for n in (6, 7, 8):
        for v in range(4, n + 1):
            for t in on_deletion_tuples(n, v):
                assert v not in t
                assert all(1 <= x <= n for x in t)


def test_deletion_tuples_shape():
    # n=8, v=5: run below v, transposed run above v, then the wrap pair
    assert on_deletion_tuples(8, 5) == [
        (1, 2, 3), (2, 3, 4), (6, 8, 7), (6, 8, 1), (8, 1, 2)
    ]
    # deleting n drops the wrap tuples
    assert on_deletion_tuples(8, 8) == [
        (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7)
    ]


def test_on_links_are_the_displayed_chain():
    links = on_links(6)
    assert links == [
        (LinkKind.FWD, (1, 2, 3, 4)),
        (LinkKind.FWD, (2, 3, 4, 5)),
        (LinkKind.FWD, (3, 4, 5, 6)),
        (LinkKind.FWD_NEG, (4, 5, 6, 1)),
        (LinkKind.CO_FWD, (4, 6, 1, 2)),
        (LinkKind.CO_FWD, (6, 1, 2, 3)),
    ]
