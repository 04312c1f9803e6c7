import itertools
import random

import pytest

from htour.core import (
    GuardExceeded,
    HoleyHT,
    InputError,
    MINUS,
    PLUS,
)
from htour.families import gen_cyclic, gen_even
from htour.oracles import least_refuting_coloring
from htour.rand import random_graph, random_holey_ht, random_order
from htour.ramsey import (
    ExpansionKind,
    ExpansionMismatch,
    OrderedHT,
    arrow_check,
    compatible_orders_cyclic,
    embeddings,
    expand,
    fill_holes_ordered,
)


def cyc(n, order=None):
    order = tuple(order) if order else tuple(range(1, n + 1))
    return OrderedHT(gen_cyclic(n, order), order, ExpansionKind.CYCLIC)


def free(structure, order=None):
    order = tuple(order) if order else tuple(range(1, structure.n + 1))
    return OrderedHT(structure, order, ExpansionKind.ALL)


def test_embedding_counts():
    point = free(HoleyHT.empty(1))
    target = free(gen_cyclic(6))
    assert len(embeddings(point, target)) == 6
    assert len(embeddings(cyc(2), cyc(6))) == 15
    assert tuple(range(1, 7)) in embeddings(target, target)


def test_embeddings_deterministic_and_duplicate_free():
    embs = embeddings(cyc(2), cyc(5))
    assert embs == sorted(embs)
    assert len(set(embs)) == len(embs)


def test_embeddings_kind_mismatch():
    with pytest.raises(InputError):
        embeddings(cyc(2), free(gen_cyclic(4)))


def test_arrow_r33():
    held = arrow_check(cyc(6), cyc(3), cyc(2))
    assert held.holds and len(held.a_embeddings) == 15 and held.b_copies == 20

    failed = arrow_check(cyc(5), cyc(3), cyc(2))
    assert not failed.holds
    colors = dict(zip(failed.a_embeddings, failed.counterexample))
    for tri in itertools.combinations(range(1, 6), 3):
        assert len({colors[p] for p in itertools.combinations(tri, 2)}) == 2


def test_arrow_single_vertex_trivial():
    point = cyc(1)
    assert arrow_check(cyc(4), point, point).holds


SWEEP_CASES = [
    ((4, 3, 2), 2), ((5, 3, 2), 2), ((6, 3, 2), 2), ((7, 3, 2), 2),
    ((6, 4, 3), 2), ((7, 6, 5), 2), ((6, 2, 3), 2),
    ((5, 3, 2), 3), ((3, 2, 1), 3), ((4, 2, 1), 3),
]


@pytest.mark.parametrize(
    "sizes, colors", SWEEP_CASES,
    ids=[f"{c}-{b}-{a}-colors{k}" for (c, b, a), k in SWEEP_CASES],
)
def test_arrow_matches_plain_sweep(sizes, colors):
    big, mid, small = (cyc(n) for n in sizes)
    verdict = arrow_check(big, mid, small, colors=colors, max_embeddings=21)
    found = least_refuting_coloring(big, mid, small, colors=colors)
    assert verdict.holds == (found is None)
    if found is not None:
        assert (verdict.coloring_index, verdict.counterexample) == found


def test_arrow_monotone_in_target():
    # if the arrow holds into C and C embeds into C*, it holds into C*
    small, mid = cyc(2), cyc(3)
    for big in (6, 7):
        assert arrow_check(cyc(big), mid, small, max_embeddings=25).holds


def test_arrow_equal_pattern_reduces_to_existence():
    for nc in (3, 4, 5):
        for nb in (2, 3):
            b = cyc(nb)
            verdict = arrow_check(cyc(nc), b, b)
            assert verdict.holds == (len(embeddings(b, cyc(nc))) >= 1)


def test_arrow_guard():
    with pytest.raises(GuardExceeded):
        arrow_check(cyc(9), cyc(3), cyc(2))  # 36 pair embeddings
    # the override lifts the guard; with B = A every copy is monochromatic
    assert arrow_check(cyc(7), cyc(5), cyc(5), max_embeddings=21).holds


def test_arrow_vacuous_copies_hold():
    # copies of B too small to contain A are monochromatic under every
    # coloring, for every color count
    v = arrow_check(cyc(6), cyc(2), cyc(3), max_embeddings=20)
    assert v.holds and v.b_copies == 15
    assert arrow_check(cyc(6), cyc(2), cyc(3), colors=3, max_embeddings=20).holds


def test_arrow_three_colors_pigeonhole():
    # points of a 3-vertex target can get three distinct colors, so no pair
    # is monochromatic; with four vertices the pigeonhole forces one
    assert not arrow_check(cyc(3), cyc(2), cyc(1), colors=3).holds
    assert arrow_check(cyc(4), cyc(2), cyc(1), colors=3).holds


def test_compatible_orders_counts():
    for n in range(3, 8):
        orders = compatible_orders_cyclic(gen_cyclic(n))
        assert len(orders) == n
        assert len({o[0] for o in orders}) == n


def test_compatible_orders_rotations():
    got = sorted(compatible_orders_cyclic(gen_cyclic(4)))
    assert got == sorted(
        [(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)]
    )


def test_compatible_orders_match_brute_force():
    # oracle: try all n! orders, keep those where every increasing triple
    # is in the relation
    rng = random.Random(10)
    for n in range(3, 7):
        A = gen_cyclic(n, random_order(rng, n))
        oracle = set()
        for perm in itertools.permutations(range(1, n + 1)):
            if all(
                A.orientation_of(perm[i], perm[j], perm[k]) == 1
                for i in range(n)
                for j in range(i + 1, n)
                for k in range(j + 1, n)
            ):
                oracle.add(perm)
        assert set(compatible_orders_cyclic(A)) == oracle
        assert len(oracle) == n


def test_compatible_orders_rejects_noncyclic():
    h4 = HoleyHT(4, bytes([PLUS, MINUS, PLUS, MINUS]))
    with pytest.raises(InputError):
        compatible_orders_cyclic(h4)


def test_expand_cyclic_valid_and_mismatch():
    A = gen_cyclic(5)
    assert expand(A, ExpansionKind.CYCLIC, range(1, 6)).kind == ExpansionKind.CYCLIC
    with pytest.raises(ExpansionMismatch):
        expand(A, ExpansionKind.CYCLIC, (5, 4, 3, 2, 1))


def test_expand_even_checks_parity_rule():
    rng = random.Random(7)
    n = 6
    graph = random_graph(rng, n)
    order = random_order(rng, n)
    E = gen_even(n, graph, order)
    oht = expand(E, ExpansionKind.EVEN, order, graph)
    assert oht.graph == graph
    wrong = E.complement()
    with pytest.raises(ExpansionMismatch):
        expand(wrong, ExpansionKind.EVEN, order, graph)


def test_expand_even_needs_graph():
    with pytest.raises(InputError):
        expand(gen_cyclic(4), ExpansionKind.EVEN, range(1, 5))


def test_fill_holes_ordered():
    rng = random.Random(8)
    holey = free(random_holey_ht(rng, 6, 8))
    filled = fill_holes_ordered(holey)
    assert filled.ht.is_complete()
    assert filled.ht.extends(holey.ht)
    assert fill_holes_ordered(filled) == filled


def test_fill_holes_only_for_free_kind():
    with pytest.raises(InputError):
        fill_holes_ordered(cyc(4))


def test_fill_preserves_embeddings_of_full_structures():
    rng = random.Random(9)
    for _ in range(20):
        holey = free(random_holey_ht(rng, 6, rng.randint(0, 12)))
        filled = fill_holes_ordered(holey)
        probe = free(random_holey_ht(rng, 3, 0))
        before = set(embeddings(probe, holey))
        after = set(embeddings(probe, filled))
        assert before <= after
