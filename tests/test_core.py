import hashlib
import itertools
import random
import sys
import tracemalloc
from array import array
from math import comb

import pytest

from htour import core
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
    glue,
    hat,
    is_isomorphic,
    quad_triple_ranks,
    quad_vertices,
    quads,
    triple_of_rank,
    triple_quad_ids,
    triple_rank,
    triples,
    tuple_parity,
    unhat,
    validate,
)
from htour.families import ChainBuilder, LinkKind, gen_bn
from htour.rand import random_full_ht, random_holey_ht, random_order


def all_plus(n=4):
    return HoleyHT(n, bytes([PLUS] * len(triples(n))))


def test_triple_rank_is_a_bijection():
    for n in (3, 5, 8, 40):
        ranks = [triple_rank(a, b, c) for a, b, c in triples(n)]
        assert ranks == list(range(len(triples(n))))
        assert [triple_of_rank(n, r) for r in ranks] == list(triples(n))


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
    # every entry point that locates a tuple refuses the same bad vertices
    n = 4
    A = all_plus(n)
    entries = {
        "triple_value": A.triple_value,
        "orientation_of": A.orientation_of,
        "with_value": lambda *t: A.with_value(*t, MINUS),
        "validate": lambda *t: validate([t], n),
        "apply_link": lambda *t: ChainBuilder(n).apply_link(LinkKind.FWD, t + (3,)),
    }
    for bad, text in (((1, 1, 2), "repeated vertex"),
                      ((2, 0, 1), "vertex 0 out of range 1..4"),
                      ((1, n + 1, 2), "vertex 5 out of range 1..4")):
        for name, entry in entries.items():
            with pytest.raises(InputError, match=text):
                entry(*bad)
                pytest.fail(f"{name}{bad} was accepted")


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


def test_along_matches_its_definition():
    rng = random.Random(8)
    for n in range(10):
        A = random_holey_ht(rng, n, rng.randint(0, comb(n, 3)))
        for m in range(n + 1):
            kept = sorted(rng.sample(range(1, n + 1), m))
            shuffled = rng.sample(kept, m)
            for f in (kept, shuffled, kept[::-1]):
                B = A.along(f)
                assert B.n == m
                # new vertex i is old vertex f[i-1], every triple in place
                for i, j, k in triples(m):
                    assert B.orientation_of(i, j, k) == A.orientation_of(
                        f[i - 1], f[j - 1], f[k - 1])
            if m:
                assert A.along(kept) == A.induced(shuffled)
        p = random_order(rng, n)
        inverse = [p.index(v) + 1 for v in range(1, n + 1)]
        assert A.relabel(p) == A.along(inverse)
        if n >= 2:
            with pytest.raises(InputError, match="repeated vertex"):
                A.along([1, 2, 1])
        for bad in ([0], [n + 1], [1, n + 1]):
            with pytest.raises(InputError, match="out of range"):
                A.along(bad)


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


def test_glue_refuses_a_base_vertex_missing_from_a_factor():
    four, five = all_plus(4), all_plus(5)
    assert glue(four, five, [1, 4]).n == 7
    for first, second in ((four, five), (five, four)):
        with pytest.raises(InputError, match="base vertex 5 missing from a factor"):
            glue(first, second, [1, 5])
    with pytest.raises(InputError, match="base vertex 0 missing"):
        glue(five, five, [0, 1])


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


# sha256 of repr() of the list of witnesses over the pairs below, recorded
# with the earlier backtracking search (consistency checked triple by
# triple through orientation_of)
ISOMORPHISM_WITNESSES_SHA256 = "b1dc0d8f57208f5a3ff00a926f2454835d1de558d8ee7c7bac95857977ac1162"


def test_is_isomorphic_witnesses_are_golden():
    # relabeled copies, relabeled complements and relabeled copies with one
    # stored value reversed, on 5 to 9 vertices with up to 3 holes
    rng = random.Random(13)
    witnesses = []
    for i in range(60):
        n = 5 + i % 5
        if i % 4 == 3:
            # the cyclic structure has n automorphisms, so n witnesses: the
            # least one must come back
            A = all_plus(n).relabel(random_order(rng, n))
        else:
            A = random_holey_ht(rng, n, rng.randint(0, 3))
        B = A.relabel(random_order(rng, n))
        if i % 4 == 1:
            B = B.complement()
        elif i % 4 == 2:
            table = bytearray(B.table)
            r = rng.randrange(len(table))
            table[r] = -table[r] % 3
            B = HoleyHT(n, bytes(table))
        w = is_isomorphic(A, B)
        assert w is None or A.relabel(w) == B
        witnesses.append(w)
    assert witnesses.count(None) == 27
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == ISOMORPHISM_WITNESSES_SHA256


def test_is_isomorphic_is_bounded_on_sparse_inputs(monkeypatch):
    # nearly every triple a hole: a prefix of holes matches nearly every
    # image, so without the hole degrees the search visits most prefixes
    # (64,363 `along` calls on these six pairs when only hole counts match)
    calls = []
    along = HoleyHT.along
    monkeypatch.setattr(HoleyHT, "along", lambda self, f: calls.append(f) or along(self, f))
    rng = random.Random(17)
    for assigned in (1, 2):
        for _ in range(3):
            A = random_holey_ht(rng, 9, comb(9, 3) - assigned)
            B = A.relabel(random_order(rng, 9))
            w = is_isomorphic(A, B)
            assert B.along(w) == A
    assert len(calls) < 5000
    # equal hole counts, no isomorphism: the two assigned triples share a
    # pair read the same way in one and opposite ways in the other (equal
    # hole degrees), or share one vertex against none (unequal ones)
    same_way = validate([(1, 2, 3), (1, 2, 4)], 9)
    opposite = validate([(1, 2, 3), (2, 1, 4)], 9).relabel(random_order(rng, 9))
    disjoint = validate([(1, 2, 3), (4, 5, 6)], 9)
    meeting = validate([(1, 2, 3), (1, 4, 5)], 9).relabel(random_order(rng, 9))
    calls.clear()
    assert is_isomorphic(same_way, opposite) is None
    assert is_isomorphic(disjoint, meeting) is None
    assert len(calls) < 5000


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
    assert unhat(Hypergraph3(4, frozenset(triples(4))), (1, 2, 3, 4)) == all_plus()


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


def _parities_by_triple(n, order):
    """The parities of an order as one tuple_parity call per triple: the
    reference for the lane kernel."""
    pos = [0] * (n + 1)
    for i, v in enumerate(order):
        pos[v] = i
    return bytes(tuple_parity(pos[a], pos[b], pos[c]) for a, b, c in triples(n))


def test_triple_columns_follow_the_colex_loop():
    for n in [*range(9), 20, 100]:
        loop = tuple((i, j, k) for k in range(3, n + 1) for j in range(2, k)
                     for i in range(1, j))
        assert tuple(zip(*core._triple_columns(n))) == triples(n) == loop


def test_order_parities_match_tuple_parity():
    for n in range(7):
        for order in itertools.permutations(range(1, n + 1)):
            assert core._order_parities(n, order) == _parities_by_triple(n, order)
    rng = random.Random(12)
    for n in range(7, 101):
        order = random_order(rng, n)
        parities = core._order_parities(n, order)
        assert type(parities) is bytes and parities == _parities_by_triple(n, order)


def test_order_parities_refuse_past_the_vertex_guard():
    n = core.VERTEX_GUARD + 1
    order = range(1, n + 1)
    with pytest.raises(GuardExceeded, match="parity table of an order is limited to 100"):
        core._order_parities(n, order)
    with pytest.raises(GuardExceeded):
        hat(HoleyHT(n, bytes([PLUS]) * comb(n, 3)), order)
    with pytest.raises(GuardExceeded):
        unhat(Hypergraph3(n, frozenset()), order)
    # the order is still checked below the guard
    with pytest.raises(InputError):
        core._order_parities(3, (1, 1, 2))


def test_hat_and_unhat_match_the_comprehensions_per_triple():
    rng = random.Random(13)
    for n in [*range(10), 31, 64, 100]:
        for _ in range(3):
            A, order = random_full_ht(rng, n), random_order(rng, n)
            parities = _parities_by_triple(n, order)
            edges = frozenset(t for t, v, odd in zip(triples(n), A.table, parities)
                              if v == (MINUS if odd else PLUS))
            H = hat(A, order)
            assert type(H) is Hypergraph3 and H == Hypergraph3(n, edges)
            # a random hypergraph, not only the hat of a structure
            E = frozenset(t for t in triples(n) if rng.random() < 0.5)
            table = bytes(PLUS if (t in E) != odd else MINUS
                          for t, odd in zip(triples(n), parities))
            assert unhat(Hypergraph3(n, E), order) == HoleyHT(n, table)
            assert unhat(H, order) == A


def test_repr_walks_the_assigned_ranks():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(0, 8)
        A = random_holey_ht(rng, n, rng.randint(0, comb(n, 3)))
        assigned = ", ".join(f"{t}:{'+' if v == PLUS else '-'}"
                             for t, v in zip(triples(n), A.table) if v != HOLE)
        assert repr(A) == f"HoleyHT(n={n}, {{{assigned}}})"
    assert repr(validate([(1, 3, 2)], 4)) == "HoleyHT(n=4, {(1, 2, 3):-})"
    # bn(51), on 99 vertices: the 204 assigned triples are named from their
    # ranks, and no table of the C(99,3) triples is built
    structure = gen_bn(51)
    before = core.triples.cache_info().currsize
    text = repr(structure)
    assert core.triples.cache_info().currsize == before
    assert text.count(":") == 204


def test_table_values_are_checked():
    assert HoleyHT(4, bytes([HOLE, PLUS, MINUS, PLUS])).table == bytes([0, 1, 2, 1])
    for bad in range(3, 256):
        with pytest.raises(InputError, match="HOLE, PLUS or MINUS"):
            HoleyHT(4, bytes([PLUS, MINUS, bad, HOLE]))


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
    # along builds its result unchecked, from values of a valid table: the
    # results of along, induced and relabel are plain structures
    for B in (A.along([5, 2, 6]), A.along([]), A.induced([1, 3, 4, 6]),
              A.relabel([3, 1, 2, 6, 5, 4])):
        plain = HoleyHT(B.n, bytes(B.table))
        assert type(B) is HoleyHT and type(B.table) is bytes
        assert B == plain and hash(B) == hash(plain)
        assert pickle.dumps(B) == pickle.dumps(plain)
        assert pickle.loads(pickle.dumps(B)) == plain


def test_hypergraph_validation():
    with pytest.raises(InputError):
        Hypergraph3(4, frozenset({(1, 2, 5)}))
    # a named tuple: _replace and _make build through the same check
    empty = Hypergraph3(4, frozenset())
    with pytest.raises(InputError):
        empty._replace(hyperedges=frozenset({(1, 2, 5)}))
    with pytest.raises(InputError):
        Hypergraph3._make((3, frozenset({(1, 2, 4)})))
    assert empty._replace(n=5) == Hypergraph3(5, frozenset())


def _places(entry):
    """The four triple ranks packed in an entry of quad_triple_ranks."""
    return [entry >> core._LANE * pos & (1 << core._LANE) - 1 for pos in range(4)]


def _colex(n, k):
    """The sorted k-subsets of 1..n in colex order: largest vertex first."""
    return sorted(itertools.combinations(range(1, n + 1), k), key=lambda s: s[::-1])


def _colex_id(a, b, c, d):
    """The id of the 4-subset {a<b<c<d}: its place in colex order."""
    return a - 1 + comb(b - 1, 2) + comb(c - 1, 3) + comb(d - 1, 4)


def test_index_matches_its_definition():
    for n in [*range(14), 16, 23, 24, 31]:
        qt = quad_triple_ranks(n)
        expected = []
        for a, b, c, d in _colex(n, 4):
            expected += [
                triple_rank(a, b, c), triple_rank(a, b, d),
                triple_rank(a, c, d), triple_rank(b, c, d),
            ]
        flat = [r for qi in range(comb(n, 4)) for r in _places(qt[qi])]
        assert flat == expected
        for qi in (-1, comb(n, 4)):
            with pytest.raises(KeyError):
                qt[qi]
        assert len(qt) == comb(n, 4)
        # every triple lies in n-3 4-subsets, listed by ascending id and
        # tagged with the triple's place in each: entry 4*qi + pos
        incidence = [[] for _ in triples(n)]
        for e, r in enumerate(flat):
            incidence[r].append(e)
        assert all(len(ids) == max(n - 3, 0) for ids in incidence)
        rows = triple_quad_ids(n)
        assert [list(rows[r]) for r in range(len(incidence))] == incidence
        for r in (-1, len(incidence)):
            with pytest.raises(KeyError):
                rows[r]
        assert len(rows) == len(incidence)
    # sampled rows at 49 and 100 vertices, against the id formula: the
    # triple with x added is the 4-subset of entry e, x at place 3 - (e & 3),
    # and x ascends over all the other vertices
    rng = random.Random(23)
    try:
        for n in (49, 100):
            rows = triple_quad_ids(n)
            for triple in [(1, 2, 3), (n - 2, n - 1, n)] + [
                tuple(sorted(rng.sample(range(1, n + 1), 3))) for _ in range(200)
            ]:
                others = [x for x in range(1, n + 1) if x not in triple]
                expected = []
                for x in others:
                    quad = sorted(triple + (x,))
                    expected.append(4 * _colex_id(*quad) + 3 - quad.index(x))
                assert list(rows[triple_rank(*triple)]) == expected
    finally:
        _clear_index_caches()


# sha256 of the little-endian bytes of the ranks of quad_triple_ranks(n),
# four 32-bit entries per 4-subset in id order, and of the ids e >> 2 of the
# rows of triple_quad_ids(n) in rank order, pinned from a reference that
# imports nothing of htour: the 4-subsets and triples sorted in colex order,
# with ranks and ids from the colex formulas over math.comb
_INDEX_SHA256 = {
    37: ("6abc0c9dc048f4464a8e3188b460619f087fe79b03de9254448c2141d48eeb5d",
         "3fdba33ba012bcbe1e10c542abf85721210d2632bd8421380860ab566dae26b3"),
    49: ("4a8e55acdb94718acea06dc61adc303628f2e59ad960eb2781d96449343b3edf",
         "d5dcb561c595da7ebc5dce02780938228d04a9f88ccb9b75b0b8fffc1a4c44ab"),
}


@pytest.mark.parametrize("n", sorted(_INDEX_SHA256))
def test_index_bytes_are_golden(n):
    try:
        rows = triple_quad_ids(n)
        ids = array("I", (e >> 2 for r in range(comb(n, 3)) for e in rows[r]))
        qt = quad_triple_ranks(n)
        ranks = array("I", (r for qi in range(comb(n, 4)) for r in _places(qt[qi])))
        for table, digest in zip((ranks, ids), _INDEX_SHA256[n]):
            if sys.byteorder == "big":
                table = array("I", table)
                table.byteswap()
            assert hashlib.sha256(table.tobytes()).hexdigest() == digest
    finally:
        _clear_index_caches()


def test_quad_vertices_matches_quads():
    for n in range(15):
        expected = _colex(n, 4)
        assert list(quads(n)) == expected
        assert [quad_vertices(n, qi) for qi in range(len(expected))] == expected
    # sampled 4-subsets at 49 and 100 vertices, and the first and the last,
    # by the id formula
    rng = random.Random(20)
    for n in (49, 100):
        for quad in [(1, 2, 3, 4), (n - 3, n - 2, n - 1, n)] + [
            tuple(sorted(rng.sample(range(1, n + 1), 4))) for _ in range(300)
        ]:
            assert quad_vertices(n, _colex_id(*quad)) == quad
        assert _colex_id(n - 3, n - 2, n - 1, n) == comb(n, 4) - 1


def _clear_index_caches():
    for fn in (core.triples, core.quads, core.quad_triple_ranks, core.triple_quad_ids):
        fn.cache_clear()


def _traced(call):
    """The memory that call() holds after it returns, and its peak."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_quad_triple_ranks_builds_nothing_until_read():
    n = 49
    _clear_index_caches()
    try:
        _, peak = _traced(lambda: quad_triple_ranks(n))
        assert len(quad_triple_ranks(n)) == 0
    finally:
        _clear_index_caches()
    # the store object and its cache entry, against 3.4 MB of flat ranks
    assert peak < 1024, peak


@pytest.mark.parametrize("n,reads", [(49, 1000), (49, 9139), (99, 50_000)])
def test_quad_triple_ranks_holds_at_most_96_bytes_per_quad_read(n, reads):
    # what the store keeps per quad read: the entry's int, of four 18-bit
    # lanes, and its slot in the store's table.  The ids are the caller's
    # ints, made here before tracing as the solver's queue makes them (the
    # store keeps each alive, 28 bytes more); a 4-tuple of ranks would keep
    # about 220 bytes
    ids = random.Random(reads).sample(range(comb(n, 4)), reads)
    _clear_index_caches()
    try:
        qt = quad_triple_ranks(n)
        qt[ids[0]]  # the per-n terms that every read shares
        kept, _ = _traced(lambda: [qt[qi] for qi in ids[1:]])
        assert len(qt) == reads
    finally:
        _clear_index_caches()
    assert kept <= 96 * (reads - 1), kept / (reads - 1)


def test_quad_triple_ranks_drops_its_entries_with_the_cache():
    # the per-n terms that every read shares stay cached
    n = 49
    quad_triple_ranks(n)[0]
    _clear_index_caches()
    tracemalloc.start()
    try:
        qt = quad_triple_ranks(n)
        reads = range(0, comb(n, 4), 97)
        for qi in reads:
            qt[qi]
        held = tracemalloc.get_traced_memory()[0]
        del qt
        _clear_index_caches()
        dropped = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _clear_index_caches()
    # each entry holds at least its id and its int, 28 and 36 bytes
    assert held > 64 * len(reads) and dropped < 4096, (held, dropped)
    assert len(quad_triple_ranks(n)) == 0


def test_index_guard_refuses_before_building():
    tracemalloc.start()
    try:
        for build in (quad_triple_ranks, triple_quad_ids):
            with pytest.raises(GuardExceeded):
                build(core.VERTEX_GUARD + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
