import itertools
import random

import pytest

from htour.core import (
    HOLE,
    IN_R,
    MINUS,
    PLUS,
    REVERSED,
    ContradictoryTriple,
    GuardExceeded,
    HoleyHT,
    HoleyInput,
    Hypergraph3,
    InputError,
    complete_hypergraph,
    hat,
    is_isomorphic,
    triple_rank,
    triples,
    tuple_parity,
    unhat,
    validate,
)
from htour.rand import random_full_ht, random_holey_ht, random_order


def all_plus(n=4):
    return HoleyHT(n, bytes([PLUS] * len(triples(n))))


def test_triple_rank_is_a_bijection():
    for n in (3, 5, 8):
        ranks = [triple_rank(a, b, c) for a, b, c in triples(n)]
        assert ranks == list(range(len(triples(n))))


def test_triple_rank_rejects_unsorted():
    with pytest.raises(InputError):
        triple_rank(2, 1, 3)


def test_parity():
    assert tuple_parity(1, 2, 3) == 0
    assert tuple_parity(2, 3, 1) == 0  # rotation
    assert tuple_parity(1, 3, 2) == 1  # transposition


def test_orientation_of_examples():
    c4 = all_plus()
    assert c4.orientation_of(1, 2, 3) == IN_R
    assert c4.orientation_of(2, 1, 3) == REVERSED
    g = validate([(1, 3, 4), (1, 4, 2)], 4)
    assert g.orientation_of(2, 3, 4) == HOLE


def test_orientation_rotation_and_transposition():
    rng = random.Random(1)
    for _ in range(50):
        A = random_holey_ht(rng, 6, rng.randint(0, 10))
        x, y, z = rng.sample(range(1, 7), 3)
        v = A.orientation_of(x, y, z)
        assert A.orientation_of(y, z, x) == v
        assert A.orientation_of(z, x, y) == v
        swapped = A.orientation_of(x, z, y)
        if v == HOLE:
            assert swapped == HOLE
        else:
            assert swapped == 3 - v


def test_orientation_bad_input():
    A = all_plus()
    with pytest.raises(InputError):
        A.orientation_of(1, 1, 2)
    with pytest.raises(InputError):
        A.orientation_of(1, 2, 9)


def test_validate_gadget_table():
    g = validate([(1, 3, 4), (1, 4, 2)], 4)
    assert g.triple_value(1, 3, 4) == PLUS
    assert g.triple_value(1, 2, 4) == MINUS
    assert g.holes() == [(1, 2, 3), (2, 3, 4)]


def test_validate_empty_and_duplicates():
    assert validate([], 3).holes() == [(1, 2, 3)]
    # duplicate assertions of one orientation are idempotent
    a = validate([(1, 2, 3), (2, 3, 1)], 3)
    assert a.triple_value(1, 2, 3) == PLUS


def test_validate_contradiction():
    with pytest.raises(ContradictoryTriple):
        validate([(1, 2, 3), (1, 3, 2)], 3)


def test_induced_identity_and_composition():
    rng = random.Random(2)
    A = random_holey_ht(rng, 7, 5)
    assert A.induced(range(1, 8)) == A
    # restricting twice composes to restricting once
    first = A.induced([1, 3, 4, 6, 7])   # new labels 1..5
    again = first.induced([2, 3, 5])     # old labels 3, 4, 7
    assert again == A.induced([3, 4, 7])


def test_induced_rejects_bad_sets():
    A = all_plus()
    with pytest.raises(InputError):
        A.induced([])
    with pytest.raises(InputError):
        A.induced([1, 9])


def test_complement_involution_and_holes():
    g = validate([(1, 3, 4), (1, 4, 2)], 4)
    assert g.complement().complement() == g
    assert g.complement().holes() == [(1, 2, 3), (2, 3, 4)]


def test_complement_commutes_with_induced():
    rng = random.Random(3)
    for _ in range(25):
        A = random_holey_ht(rng, 7, rng.randint(0, 15))
        subset = sorted(rng.sample(range(1, 8), rng.randint(1, 7)))
        assert A.complement().induced(subset) == A.induced(subset).complement()


def test_is_isomorphic_identity_and_distinct_types():
    A = all_plus()
    assert is_isomorphic(A, A) == (1, 2, 3, 4)
    h4 = HoleyHT(4, bytes([PLUS, MINUS, PLUS, MINUS]))
    o4 = HoleyHT(4, bytes([PLUS, MINUS, MINUS, MINUS]))
    assert is_isomorphic(h4, o4) is None


def test_is_isomorphic_all_plus_vs_complement():
    # both are the cyclic 4-vertex structure; order reversal is a witness
    A = all_plus()
    w = is_isomorphic(A, A.complement())
    assert w is not None
    assert A.relabel(w) == A.complement()


def test_is_isomorphic_witness_relabels():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(2, 6)
        A = random_holey_ht(rng, n, rng.randint(0, 4))
        perm = random_order(rng, n)
        B = A.relabel(perm)
        w = is_isomorphic(A, B)
        assert w is not None
        assert A.relabel(w) == B


def test_is_isomorphic_equivalence():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(3, 6)
        A = random_holey_ht(rng, n, rng.randint(0, 6))
        B = A.relabel(random_order(rng, n))
        C = B.relabel(random_order(rng, n))
        ab = is_isomorphic(A, B)
        ba = is_isomorphic(B, A)
        assert ab is not None and ba is not None
        # witnesses invert and compose
        inverse = tuple(ab.index(v) + 1 for v in range(1, n + 1))
        assert B.relabel(inverse) == A or is_isomorphic(B, A) is not None
        bc = is_isomorphic(B, C)
        composed = tuple(bc[v - 1] for v in ab)
        assert A.relabel(composed) == C


def test_is_isomorphic_guard():
    with pytest.raises(GuardExceeded):
        is_isomorphic(HoleyHT.empty(11), HoleyHT.empty(11))


def test_hat_examples():
    assert hat(all_plus(), (1, 2, 3, 4)).hyperedges == frozenset(triples(4))
    o4 = HoleyHT(4, bytes([PLUS, MINUS, MINUS, MINUS]))
    for order in itertools.permutations(range(1, 5)):
        assert len(hat(o4, order).hyperedges) % 2 == 1


def test_hat_rejects_holes():
    with pytest.raises(HoleyInput):
        hat(HoleyHT.empty(4), (1, 2, 3, 4))


def test_unhat_examples():
    empty = Hypergraph3(4, frozenset())
    A = unhat(empty, (1, 2, 3, 4))
    assert all(v == MINUS for v in A.table)
    assert unhat(complete_hypergraph(4), (1, 2, 3, 4)) == all_plus()


def test_hat_unhat_match_their_definitions():
    # the docstring definitions, through orientation_of and validate, as an
    # independent reference for the one-pass parity formula
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 8)
        A = random_full_ht(rng, n)
        order = random_order(rng, n)
        pos = {v: i for i, v in enumerate(order)}
        along = [tuple(sorted(t, key=pos.__getitem__)) for t in triples(n)]
        edges = {t for t, (a, b, c) in zip(triples(n), along)
                 if A.orientation_of(a, b, c) == IN_R}
        assert hat(A, order).hyperedges == edges
        H = Hypergraph3(n, frozenset(edges))
        assert unhat(H, order) == validate(
            [(a, b, c) if t in edges else (a, c, b)
             for t, (a, b, c) in zip(triples(n), along)],
            n,
        )


def test_filled_and_extends():
    g = validate([(1, 3, 4), (1, 4, 2)], 4)
    f = g.filled(MINUS)
    assert f.is_complete() and f.extends(g)
    assert not g.filled(PLUS).extends(f)


def test_value_semantics_and_pickle():
    import pickle

    rng = random.Random(6)
    A = random_holey_ht(rng, 6, 4)
    assert pickle.loads(pickle.dumps(A)) == A
    assert hash(A) == hash(HoleyHT(A.n, A.table))


def test_hypergraph_validation():
    with pytest.raises(InputError):
        Hypergraph3(4, frozenset({(1, 2, 5)}))
    h = Hypergraph3.from_edges(5, [(3, 1, 2)])
    assert (1, 2, 3) in h.hyperedges
