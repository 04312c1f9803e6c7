import itertools
import random
import sys
import tracemalloc
from functools import cmp_to_key
from math import comb, factorial

import pytest

from htour import oracles, ramsey
from htour.classify import CYCLIC, class_member
from htour.core import (
    HOLE,
    IN_R,
    GuardExceeded,
    HoleyHT,
    InputError,
    MINUS,
    PLUS,
)
from htour.families import gen_cyclic, gen_even
from htour.rand import random_full_ht, random_graph, random_holey_ht, random_order
from htour.ramsey import (
    ExpansionKind,
    ExpansionMismatch,
    OrderedHT,
    arrow_check,
    compatible_orders_cyclic,
    embeddings,
)
from sweep_arrow import FULL, HOLEY, check_arrow, check_embeddings, free_structures


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
    ((4, 5, 2), 2),  # no copy of B at all: the all-zero coloring refutes
]


@pytest.mark.parametrize(
    "sizes, colors", SWEEP_CASES,
    ids=[f"{c}-{b}-{a}-colors{k}" for (c, b, a), k in SWEEP_CASES],
)
def test_arrow_matches_plain_sweep(sizes, colors):
    big, mid, small = (cyc(n) for n in sizes)
    verdict = arrow_check(big, mid, small, colors=colors, max_embeddings=21)
    found = oracles.least_refuting_coloring(big, mid, small, colors=colors)
    assert verdict.holds == (found is None)
    if found is not None:
        assert (verdict.coloring_index, verdict.counterexample) == found


def test_arrow_search_is_not_bounded_by_recursion():
    # 1,035 embeddings, one copy holding them all: the least refutation
    # recolors embedding 0 only
    verdict = arrow_check(cyc(46), cyc(46), cyc(2), max_embeddings=2000)
    assert not verdict.holds and verdict.coloring_index == 1
    assert len(verdict.a_embeddings) == 1035


def _random_ordered(rng, kind, n):
    order = random_order(rng, n)
    if kind == ExpansionKind.CYCLIC:
        return OrderedHT(gen_cyclic(n, order), order, kind)
    if kind == ExpansionKind.EVEN:
        graph = random_graph(rng, n)
        return OrderedHT(gen_even(n, graph, order), order, kind, graph)
    return OrderedHT(random_holey_ht(rng, n, rng.randint(0, comb(n, 3))), order, kind)


def _sub_ordered(rng, big, k):
    """`big` restricted to k random vertices and relabeled at random: it
    embeds into `big` at least once."""
    kept = sorted(rng.sample(big.ht.vertices, k))
    perm = random_order(rng, k)
    new = {v: perm[i] for i, v in enumerate(kept)}
    graph = None if big.graph is None else frozenset(
        tuple(sorted((new[a], new[b]))) for a, b in big.graph if a in new and b in new)
    order = tuple(new[v] for v in big.order if v in new)
    return OrderedHT(big.ht.induced(kept).relabel(perm), order, big.kind, graph)


@pytest.mark.parametrize("kind", list(ExpansionKind), ids=lambda k: k.value)
def test_embeddings_match_reference(kind):
    rng = random.Random(11)
    found = 0
    for trial in range(100):
        n = rng.randint(0, 8)
        big = _random_ordered(rng, kind, n)
        k = n if trial % 4 == 0 else rng.randint(0, n)
        small = _sub_ordered(rng, big, k) if k and trial % 2 else _random_ordered(rng, kind, k)
        got = embeddings(small, big)
        assert got == oracles.embeddings(small, big), (small, big)
        found += len(got)
    assert found  # not a comparison of empty lists


@pytest.mark.parametrize("kind", list(ExpansionKind), ids=lambda k: k.value)
def test_embeddings_at_edge_sizes(kind):
    # k = 0, 1, 2 (a single triple offset per gather), k = m and k = m + 1
    # (no embedding at all)
    rng = random.Random(13)
    for m in range(6):
        big = _random_ordered(rng, kind, m)
        for k in sorted({0, 1, 2, m, m + 1}):
            smalls = [_random_ordered(rng, kind, k)]
            if 0 < k <= m:
                smalls.append(_sub_ordered(rng, big, k))
            for small in smalls:
                got = embeddings(small, big)
                assert got == oracles.embeddings(small, big), (small, big)
                assert k <= m or got == []


@pytest.mark.parametrize("kind", [ExpansionKind.EVEN, ExpansionKind.ALL],
                         ids=lambda k: k.value)
def test_embeddings_match_reference_when_pruning(kind):
    # full structures on 10 to 12 vertices, where few position sets match:
    # A restricted from C (so it embeds) or drawn afresh (so it rarely does)
    rng = random.Random(14)
    pruned = 0  # searches that found some but not all position sets
    for trial in range(24):
        m = rng.randint(10, 12)
        order = random_order(rng, m)
        if kind == ExpansionKind.EVEN:
            graph = random_graph(rng, m)
            big = OrderedHT(gen_even(m, graph, order), order, kind, graph)
        else:
            big = OrderedHT(random_full_ht(rng, m), order, kind)
        k = rng.randint(4, 6)
        small = _sub_ordered(rng, big, k) if trial % 3 else _random_ordered(rng, kind, k)
        got = embeddings(small, big)
        assert got == oracles.embeddings(small, big), (small, big)
        pruned += 0 < len(got) < comb(m, k)
    assert pruned


def test_embedding_searches_stay_within_their_step_bound(monkeypatch):
    # _search_steps as a count: every gather embeddings makes is counted,
    # with the triples it reads, and a gather over the C(k-1, 2) triples of
    # a last position is one try of that position.  Pairs: a cyclic
    # structure into another, where every position set embeds, so that
    # position j is tried once for each of the C(m-k+j, j) prefixes that fit
    # and reads C(j-1, 2) triples (at k = 3 that meets the bound); and
    # pieces restricted from, or drawn apart from, a cyclic or even structure
    getter, gathers = ramsey._tuple_getter, []

    def counted(offsets):
        gather, calls = getter(offsets), [0]
        gathers.append((offsets, calls))

        def wrapped(row):
            calls[0] += 1
            return gather(row)
        return wrapped

    monkeypatch.setattr(ramsey, "_tuple_getter", counted)
    rng = random.Random(22)
    pairs = [(cyc(k), cyc(m)) for k, m in ((3, 6), (4, 9), (5, 10), (6, 12))]
    for kind in (ExpansionKind.CYCLIC, ExpansionKind.EVEN):
        for k, m in ((3, 8), (4, 10), (5, 11), (6, 12)):
            big = _random_ordered(rng, kind, m)
            pairs += [(_sub_ordered(rng, big, k), big), (_random_ordered(rng, kind, k), big)]
    counts = []
    for small, big in pairs:
        gathers.clear()
        embeddings(small, big)
        lead = big.n if small.kind == ExpansionKind.EVEN else 0
        steps = 0
        for offsets, calls in gathers[1:]:  # the first arranges each embedding
            triples = sum(o >= lead for o in offsets)
            steps += calls[0] * (triples + (triples == comb(small.n - 1, 2)))
        assert 0 < steps <= ramsey._search_steps(small, big), (small, big)
        counts.append(steps)
    for (small, big), steps in zip(pairs[:4], counts):
        k, m = small.n, big.n
        assert steps == comb(m, k) + sum(comb(m - k + j, j) * comb(j - 1, 2)
                                         for j in range(1, k + 1))
    assert counts[0] == ramsey._search_steps(cyc(3), cyc(6)) == 40
    # past MAX_ARROW_STEPS the arrow check refuses before its first gather
    gathers.clear()
    with pytest.raises(GuardExceeded, match="steps"):
        arrow_check(cyc(40), cyc(20), cyc(10))
    assert sum(calls[0] for _, calls in gathers) == 0


@pytest.mark.parametrize("kind", [ExpansionKind.EVEN, ExpansionKind.ALL],
                         ids=lambda k: k.value)
def test_arrow_matches_plain_sweep_seeded(kind):
    # B restricted from C (so it has copies) or drawn afresh (so it may have
    # none), A restricted from B; ALL structures carry holes
    rng = random.Random(12)
    outcomes = set()
    for trial in range(60):
        big = _random_ordered(rng, kind, rng.randint(3, 7))
        nb = rng.randint(1, big.n)
        mid = _sub_ordered(rng, big, nb) if trial % 3 else _random_ordered(rng, kind, nb)
        small = _sub_ordered(rng, mid, rng.randint(1, nb))
        colors = 2 if trial % 4 else 3
        if colors ** len(embeddings(small, big)) > 4096:
            continue
        verdict = arrow_check(big, mid, small, colors=colors, max_embeddings=12)
        found = oracles.least_refuting_coloring(big, mid, small, colors=colors)
        assert verdict.holds == (found is None), (big, mid, small)
        if found is not None:
            assert (verdict.coloring_index, verdict.counterexample) == found
        outcomes.add((verdict.holds, verdict.b_copies > 0))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_arrow_check_runs_two_embedding_searches(monkeypatch):
    calls = []

    def counted(small, big):
        calls.append((small.n, big.n))
        return embeddings(small, big)

    monkeypatch.setattr(ramsey, "embeddings", counted)
    arrow_check(cyc(5), cyc(3), cyc(2))
    assert calls == [(2, 5), (3, 5)]  # A into C, B into C


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


def test_arrow_refuses_a_negative_embedding_guard():
    with pytest.raises(InputError, match="max_embeddings must be at least 0, got -1"):
        arrow_check(cyc(3), cyc(2), cyc(0), max_embeddings=-1)
    # zero is a guard like any other: three embeddings exceed it
    with pytest.raises(GuardExceeded, match=r"3 embeddings exceed .* \(0\)"):
        arrow_check(cyc(3), cyc(2), cyc(1), max_embeddings=0)
    # with no color there is no coloring to search: at least one is needed
    for colors in (0, -1):
        with pytest.raises(InputError, match=f"colors must be at least 1, got {colors}"):
            arrow_check(cyc(5), cyc(3), cyc(2), colors=colors)


def test_arrow_refusal_names_the_full_embedding_count():
    # C(17, 7) = 19448 embeddings, far past the guard: the first search runs
    # to its end, so the refusal counts them all
    with pytest.raises(GuardExceeded, match=r"^19448 embeddings exceed the "
                       r"exhaustive-coloring guard \(25\)"):
        arrow_check(cyc(17), cyc(15), cyc(7))


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


def test_arrow_check_refuses_a_count_too_long_to_write(monkeypatch):
    # under a limit of 10 digits, 2**36 colorings (11 digits) are refused as
    # soon as the embeddings are counted, before the coloring search; 2**28
    # (9 digits) are searched
    searched = []
    least_refuting = ramsey._least_refuting
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 10, raising=False)
    monkeypatch.setattr(ramsey, "_least_refuting",
                        lambda *args: searched.append(args[0]) or least_refuting(*args))
    with pytest.raises(GuardExceeded, match="^36 embeddings give more colorings than "
                                            "an integer of 10 digits"):
        arrow_check(cyc(9), cyc(3), cyc(2), max_embeddings=40)
    assert searched == []
    assert arrow_check(cyc(8), cyc(3), cyc(2), max_embeddings=40).colorings == 2**28
    assert searched == [28]


def test_arrow_digit_guard_follows_the_interpreter_limit(monkeypatch):
    # the guard's power of ten is kept per limit, so lowering the limit
    # takes effect at once: under 640 digits (the least limit allowed) a
    # count of 641 digits is refused before the search, and one of 640 is
    # searched, with 10**320 - 1 colours for the 2 embeddings of a point
    # into a pair
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("the interpreter sets no limit on the digits of an integer")
    searched = []
    least_refuting = ramsey._least_refuting
    monkeypatch.setattr(ramsey, "_least_refuting",
                        lambda *args: searched.append(args[0]) or least_refuting(*args))
    big, mid, small = cyc(2), cyc(2), cyc(1)
    assert arrow_check(big, mid, small, colors=10**320).colorings == 10**640
    assert searched == [2]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(GuardExceeded, match="^2 embeddings give more colorings "
                                                "than an integer of 640 digits"):
            arrow_check(big, mid, small, colors=10**320)
        assert searched == [2]
        verdict = arrow_check(big, mid, small, colors=10**320 - 1)
    finally:
        sys.set_int_max_str_digits(limit)
    assert searched == [2, 2]
    assert len(str(verdict.colorings)) == 640
    assert verdict.counterexample == (1, 0) and verdict.coloring_index == 1


def test_arrow_keeps_no_more_color_classes_than_embeddings():
    # colours are taken in order of first use, so at most one class per
    # embedding is kept: a million colours cost what 15 do (the search
    # allocated 8 MB for them before), with the same least counterexample
    big, mid, small = cyc(6), cyc(3), cyc(2)
    arrow_check(big, mid, small, colors=10**6)  # warm the caches
    tracemalloc.start()
    try:
        verdict = arrow_check(big, mid, small, colors=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    assert verdict.counterexample == (4, 3, 2, 1, 0, 3, 2, 1, 0, 2, 1, 0, 1, 0, 0)
    assert verdict.coloring_index == 1000000000001000002000000000001000002000003000000000001000002000003000004


def _least_refuting_by_sweep(k, masks, colors):
    """The least coloring of k embeddings (in base-`colors` counter order,
    digit i = colour of embedding i) under which no mask has all its
    embeddings in one colour, by a plain sweep over every coloring."""
    # itertools.product varies its last entry fastest: embedding i sits at
    # position k-1-i
    copies = [[k - 1 - i for i in range(k) if mask >> i & 1] for mask in masks]
    for digits in itertools.product(range(colors), repeat=k):
        if all(len({digits[p] for p in copy}) > 1 for copy in copies):
            return digits[::-1]
    return None


def _pigeonhole(k, size, spare=0):
    """Every `size`-subset of embeddings spare..spare+k-1, as masks."""
    return [sum(1 << (spare + i) for i in subset)
            for subset in itertools.combinations(range(k), size)]


def test_least_refuting_matches_a_counter_sweep():
    # the coloring search on bare mask families, against a plain sweep:
    # seeded random families, no masks, single bits, and held pigeonhole
    # families (some with embeddings outside every mask), where trying
    # colours in order of first use prunes the most
    cases = [(k, [], colors) for k in range(5) for colors in (1, 2, 3)]
    cases += [(3, [0b001, 0b110], 2), (4, [0b0100], 3), (2, [0b01, 0b10], 1)]
    cases += [
        (4, _pigeonhole(4, 2), 3),  # 4 embeddings, 3 colours: a pair shares one
        (5, _pigeonhole(5, 2), 4),
        (5, _pigeonhole(5, 3), 2),  # 5 embeddings, 2 colours: a triple shares one
        (7, _pigeonhole(7, 3), 3),
        (7, _pigeonhole(4, 2, spare=2), 3),  # embeddings 0, 1, 6 in no mask
        (6, _pigeonhole(4, 2, spare=1) + [0b100001], 3),
        (4, _pigeonhole(4, 2), 4),  # four colours suffice: refuted
    ]
    rng = random.Random(35)
    for k in range(13):
        for colors in range(1, 5):
            if colors ** k > 3 ** 8:
                continue
            for _ in range(6):
                size = rng.randint(2, max(2, min(k, 4)))
                masks = [sum(1 << i for i in rng.sample(range(k), min(k, rng.randint(1, size))))
                         for _ in range(rng.randint(0, 3 * k))]
                cases.append((k, [m for m in masks if m], colors))
    held = set()
    for k, masks, colors in cases:
        found = ramsey._least_refuting(k, masks, colors)
        assert found == _least_refuting_by_sweep(k, masks, colors), (k, masks, colors)
        if found is None:
            held.add(colors)
    assert held == {1, 2, 3, 4}, held


def test_arrow_layer_on_five_vertices_at_a_stride_matches_the_oracles():
    # a fixed stride through the cases of tests/sweep_arrow.py (free
    # expansions: hole-free big on 5 vertices, holey mid on 4, small on 3,
    # identity order) with 2 and 3 colours, then cyclic and even expansions
    # on 5, at most 4 and at most 3 vertices under shuffled orders (and
    # graphs), where the position table and the graph rows are read along
    # the order: verdict, coloring index and
    # counterexample against the oracle's counter sweep, and both embedding
    # searches against the oracle's
    bigs, mids = free_structures(5, FULL), free_structures(4, HOLEY)
    smalls = free_structures(3, HOLEY)
    held = {kind: 0 for kind in ExpansionKind}
    cases = 0
    for index in range(0, len(bigs) * len(mids) * len(smalls), 97):
        big, mid, small = bigs[index // 243], mids[index // 3 % 81], smalls[index % 3]
        check_embeddings(small, big)
        check_embeddings(mid, big)
        for colors in (2, 3):
            held[ExpansionKind.ALL] += check_arrow(big, mid, small, colors)
            cases += 1
    rng = random.Random(35)
    for kind in (ExpansionKind.CYCLIC, ExpansionKind.EVEN):
        for _ in range(150):
            nb = rng.randint(1, 4)
            sizes = (5, nb, rng.randint(1, min(nb, 3)))
            big, mid, small = (_random_ordered(rng, kind, n) for n in sizes)
            check_embeddings(small, big)
            check_embeddings(mid, big)
            for colors in (2, 3):
                held[kind] += check_arrow(big, mid, small, colors)
                cases += 1
    assert cases == 2 * (2566 + 300)
    # about 2.7 % of free cases hold
    assert held[ExpansionKind.ALL] > 100 and min(held.values()) > 0, held


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
    # is in the relation; permutations come in lexicographic order, so by
    # their first vertex
    rng = random.Random(10)
    for n in range(1, 7):
        A = gen_cyclic(n, random_order(rng, n))
        oracle = [perm for perm in itertools.permutations(range(1, n + 1))
                  if all(A.orientation_of(*t) == IN_R
                         for t in itertools.combinations(perm, 3))]
        assert compatible_orders_cyclic(A) == oracle
        assert len(oracle) == n
    # no vertex, so no choice of a least one
    assert compatible_orders_cyclic(gen_cyclic(0)) == []
    assert compatible_orders_cyclic(gen_cyclic(2, (2, 1))) == [(1, 2), (2, 1)]


def _orders_per_vertex(structure):
    """The orders of compatible_orders_cyclic, one sort and one check per
    choice of least vertex."""
    out = []
    for v in structure.vertices:
        def after(x, y, v=v):
            return -1 if structure.orientation_of(v, x, y) == IN_R else 1

        rest = [u for u in structure.vertices if u != v]
        candidate = (v, *sorted(rest, key=cmp_to_key(after)))
        if set(structure.along(candidate).table) <= {PLUS}:
            out.append(candidate)
    return out


def test_compatible_orders_match_the_sort_per_vertex():
    rng = random.Random(16)
    for n in range(7, 25):
        A = gen_cyclic(n, random_order(rng, n))
        assert compatible_orders_cyclic(A) == _orders_per_vertex(A)


def test_compatible_orders_rejects_noncyclic():
    h4 = HoleyHT(4, bytes([PLUS, MINUS, PLUS, MINUS]))
    with pytest.raises(InputError):
        compatible_orders_cyclic(h4)


def test_compatible_orders_refuse_exactly_the_non_members():
    # over every hole-free table up to 5 vertices, the one sorted order
    # decides membership of the cyclic class: there are (n-1)! members, the
    # cyclic orders of n vertices, each with its n compatible orders
    for n in range(6):
        members = 0
        for values in itertools.product((PLUS, MINUS), repeat=comb(n, 3)):
            A = HoleyHT(n, bytes(values))
            if class_member(A, CYCLIC):
                members += 1
                assert len(compatible_orders_cyclic(A)) == n
            else:
                with pytest.raises(InputError):
                    compatible_orders_cyclic(A)
        assert members == (factorial(n - 1) if n >= 3 else 1)
    # a hole is refused, though the class test judges no 4-subset through it
    table = bytearray(gen_cyclic(5).table)
    table[0] = HOLE
    holey = HoleyHT(5, bytes(table))
    assert class_member(holey, CYCLIC)
    with pytest.raises(InputError):
        compatible_orders_cyclic(holey)


def test_expand_cyclic_valid_and_mismatch():
    A = gen_cyclic(5)
    assert OrderedHT(A, (1, 2, 3, 4, 5), ExpansionKind.CYCLIC).kind == ExpansionKind.CYCLIC
    with pytest.raises(ExpansionMismatch):
        OrderedHT(A, (5, 4, 3, 2, 1), ExpansionKind.CYCLIC)
    with pytest.raises(ExpansionMismatch):
        OrderedHT(A.with_value(2, 3, 5, HOLE), (1, 2, 3, 4, 5), ExpansionKind.CYCLIC)


def test_expand_even_checks_parity_rule():
    rng = random.Random(7)
    n = 6
    graph = random_graph(rng, n)
    order = random_order(rng, n)
    E = gen_even(n, graph, order)
    oht = OrderedHT(E, order, ExpansionKind.EVEN, graph)
    assert oht.graph == graph
    wrong = E.complement()
    with pytest.raises(ExpansionMismatch):
        OrderedHT(wrong, order, ExpansionKind.EVEN, graph)


def test_expand_even_needs_graph():
    with pytest.raises(InputError):
        OrderedHT(gen_cyclic(4), (1, 2, 3, 4), ExpansionKind.EVEN)


def test_fill_preserves_embeddings_of_full_structures():
    rng = random.Random(9)
    for _ in range(20):
        holey = free(random_holey_ht(rng, 6, rng.randint(0, 12)))
        filled = OrderedHT(holey.ht.filled(), holey.order, ExpansionKind.ALL)
        probe = free(random_holey_ht(rng, 3, 0))
        before = set(embeddings(probe, holey))
        after = set(embeddings(probe, filled))
        assert before <= after
