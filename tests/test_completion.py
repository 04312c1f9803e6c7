import concurrent.futures
import functools
import gc
import hashlib
import itertools
import pickle
import random
import sys
import tracemalloc
import weakref
from collections import deque
from math import comb

import pytest

from htour import classify, completion, core, oracles
from htour.classify import (
    ALL_TYPES,
    CYCLIC,
    EVEN,
    H4_FREE,
    ConstraintSet,
    FourType,
    class_member,
)
from htour.completion import (
    _Engine,
    _check_sound,
    all_completions,
    amalgamate,
    complete,
    is_minimal_obstruction,
    propagate,
)
from htour.core import (
    HOLE,
    MINUS,
    PLUS,
    GuardExceeded,
    HoleyHT,
    InputError,
    quad_triple_ranks,
    quads,
    triple_quad_ids,
    triple_rank,
    triples,
    validate,
)
from htour.families import (
    LinkKind,
    gadget,
    gen_bn,
    gen_cyclic,
    gen_even,
    gen_on,
    gen_onneg,
)
from htour.oracles import enumerate_completions
from htour.rand import random_graph, random_holey_ht, random_order


def test_propagate_forcing_examples():
    g = gadget(LinkKind.FWD)
    r = propagate(g.with_value(1, 2, 3, PLUS), H4_FREE)
    assert r.ok and r.structure.triple_value(2, 3, 4) == PLUS
    assert r.forced == (((2, 3, 4), PLUS),)

    gn = gadget(LinkKind.FWD_NEG)
    r = propagate(gn.with_value(1, 2, 3, PLUS), H4_FREE)
    assert r.ok and r.structure.triple_value(1, 3, 4) == MINUS


def test_propagate_gadget_is_fixpoint():
    g = gadget(LinkKind.FWD)
    r = propagate(g, H4_FREE)
    assert r.ok and r.structure == g and r.forced == ()


def test_propagate_conflict():
    # an H4 already fully present conflicts immediately
    h4 = HoleyHT(4, bytes([PLUS, MINUS, PLUS, MINUS]))
    r = propagate(h4, H4_FREE)
    assert not r.ok and r.conflict == (1, 2, 3, 4)


def test_propagate_builds_no_table_of_triples():
    # the forced triples are named from their ranks: bn(51), on 99
    # vertices, forces none, and the forward gadget forces one
    structure, g = gen_bn(51), gadget(LinkKind.FWD).with_value(1, 2, 3, PLUS)
    core.triples.cache_clear()
    try:
        r = propagate(structure, H4_FREE)
        assert r.ok and r.forced == ()
        assert propagate(g, H4_FREE).forced == (((2, 3, 4), PLUS),)
        assert core.triples.cache_info().currsize == 0
    finally:
        for fn in (core.quad_triple_ranks, core.triple_quad_ids):
            fn.cache_clear()


def test_entry_points_coerce_the_allowed_types():
    # the public calls take a label or an iterable of types as well as a set
    calls = {
        "propagate": propagate,
        "complete": complete,
        "all_completions": lambda s, a: all_completions(s, a, cap=5),
        "is_minimal_obstruction": is_minimal_obstruction,
    }
    for structure in (gadget(LinkKind.FWD), gen_on(6), gen_bn(7)):
        for name, call in calls.items():
            expected = call(structure, H4_FREE)
            for allowed in ("C4,O4", [FourType.C4, FourType.O4]):
                assert call(structure, allowed) == expected, (name, allowed)


def test_complete_chain_and_gluing():
    assert complete(gen_on(6), H4_FREE).sat
    assert not complete(gen_bn(6), H4_FREE).sat


def test_complete_all_types_always_sat():
    rng = random.Random(21)
    for _ in range(60):
        A = random_holey_ht(rng, rng.randint(1, 7), rng.randint(0, 12))
        assert complete(A, ALL_TYPES).sat


@pytest.mark.parametrize("allowed", [H4_FREE, ALL_TYPES], ids=["h4free", "all"])
@pytest.mark.parametrize("n", range(4))
def test_complete_small_structures_filled_plus(n, allowed):
    # below 4 vertices there is no 4-subset: nothing propagates, and every
    # hole is a PLUS decision, least rank first
    res = complete(HoleyHT.empty(n), allowed)
    assert res.sat and set(res.completion.table) <= {PLUS}
    assert len(res.completion.table) == comb(n, 3)
    assert res.nodes == comb(n, 3) + 1


def test_complete_survives_deep_branching():
    # 1140 holes and nothing to propagate: one branch level per hole
    res = complete(HoleyHT.empty(20), ALL_TYPES)
    assert res.sat and res.completion.is_complete()


def test_gadget_completes_three_ways():
    g = gadget(LinkKind.FWD)
    assert complete(g, H4_FREE).sat
    assert len(all_completions(g, H4_FREE)) == 3


def test_all_completions_gadget():
    g = gadget(LinkKind.FWD)
    comps = all_completions(g, H4_FREE)
    assert len(comps) == 3
    banned = g.with_value(1, 2, 3, PLUS).with_value(2, 3, 4, MINUS)
    assert banned not in comps
    # lexicographic: first completion takes PLUS on the least-rank hole
    assert comps[0].triple_value(1, 2, 3) == PLUS


def test_all_completions_chain_forces_123():
    comps = all_completions(gen_on(6), H4_FREE)
    assert len(comps) == 9
    assert all(c.triple_value(1, 2, 3) == MINUS for c in comps)
    dual = all_completions(gen_onneg(6), H4_FREE)
    assert all(c.triple_value(1, 2, 3) == PLUS for c in dual)


def test_all_completions_cap_is_prefix():
    g = gen_on(6)
    full = all_completions(g, H4_FREE)
    assert all_completions(g, H4_FREE, cap=4) == full[:4]
    for cap in (0, 1, 5):
        assert all_completions(g, H4_FREE, cap=cap) == full[:cap]
    with pytest.raises(InputError):
        all_completions(g, H4_FREE, cap=-1)


def test_all_completions_guard():
    with pytest.raises(GuardExceeded):
        all_completions(HoleyHT.empty(9), H4_FREE)  # 84 holes
    assert len(all_completions(HoleyHT.empty(9), H4_FREE, cap=2)) == 2


def _thirty_holes():
    """7 vertices, 30 holes (within the hole guard): under ALL_TYPES each
    of the 2^30 assignments is a completion."""
    structure = HoleyHT.empty(7)
    for c in range(3, 8):
        structure = structure.with_value(1, 2, c, PLUS)
    return structure


def test_all_completions_budget_bounds_an_explicit_cap():
    structure = _thirty_holes()
    assert structure.hole_count() == completion.ENUMERATION_HOLE_GUARD
    limit = completion._ENUMERATION_BYTES // comb(7, 3)
    with pytest.raises(GuardExceeded, match=f"more than {limit} completions"):
        all_completions(structure, ALL_TYPES, cap=2**30)


def test_all_completions_budget_counts_results(monkeypatch):
    # 100 bytes hold two 35-byte tables of 7 vertices
    monkeypatch.setattr(completion, "_ENUMERATION_BYTES", 100)
    structure = _thirty_holes()
    assert len(all_completions(structure, ALL_TYPES, cap=2)) == 2
    for cap in (None, 3, 2**30):
        with pytest.raises(GuardExceeded, match="more than 2 completions"):
            all_completions(structure, ALL_TYPES, cap=cap)
    # on(6) has 9 completions of 20 bytes each, exactly the budget
    monkeypatch.setattr(completion, "_ENUMERATION_BYTES", 180)
    assert len(all_completions(gen_on(6), H4_FREE)) == 9
    monkeypatch.setattr(completion, "_ENUMERATION_BYTES", 179)
    with pytest.raises(GuardExceeded):
        all_completions(gen_on(6), H4_FREE)
    assert len(all_completions(gen_on(6), H4_FREE, cap=8)) == 8


def test_all_completions_fetches_one_table_past_the_budget(monkeypatch):
    # the search is asked for one completion more than the budget holds,
    # which tells a refusal from an enumeration that fits exactly, and for
    # no more; under the budget it is asked for `cap` of them
    fetched = []
    search = _Engine.search

    def counted(engine):
        for table in search(engine):
            fetched.append(table)
            yield table

    monkeypatch.setattr(_Engine, "search", counted)
    monkeypatch.setattr(completion, "_ENUMERATION_BYTES", 100)
    structure = _thirty_holes()
    limit = 100 // comb(7, 3)
    for cap in (None, limit + 1, 2**30):
        fetched.clear()
        with pytest.raises(GuardExceeded):
            all_completions(structure, ALL_TYPES, cap=cap)
        assert len(fetched) == limit + 1
    fetched.clear()
    assert len(all_completions(structure, ALL_TYPES, cap=limit)) == len(fetched) == limit


def test_sat_results_extend_and_belong():
    rng = random.Random(22)
    for _ in range(80):
        A = random_holey_ht(rng, rng.randint(4, 7), rng.randint(0, 12))
        res = complete(A, H4_FREE)
        if res.sat:
            assert res.completion.extends(A)
            assert res.completion.is_complete()
            assert class_member(res.completion, H4_FREE)


TYPE_SETS = [
    ConstraintSet.of(*types)
    for size in (1, 2, 3)
    for types in itertools.combinations(sorted(FourType, key=str), size)
]


def test_solver_matches_oracle():
    # every nonempty subset of {C4, H4, O4}, on the same seeded instances
    for allowed in TYPE_SETS:
        rng = random.Random(23)
        for _ in range(150):
            A = random_holey_ht(rng, rng.randint(4, 7), rng.randint(0, 10))
            comps = enumerate_completions(A, allowed)
            res = complete(A, allowed)
            assert res.sat == bool(comps)
            assert all_completions(A, allowed) == comps


def test_complete_returns_the_least_completion():
    # complete and all_completions run one search, on the least-rank hole
    # PLUS first, so the witness is the first completion in the oracle's
    # order; branching on another hole can find a later one first (seed 331,
    # 6 vertices and 13 holes under {C4, O4}, does when the most-constrained
    # hole is taken)
    for allowed in TYPE_SETS:
        for seed in range(300, 400):
            rng = random.Random(seed)
            A = random_holey_ht(rng, rng.randint(4, 8), rng.randint(0, 14))
            comps = enumerate_completions(A, allowed)
            res = complete(A, allowed)
            assert res.sat == bool(comps)
            if comps:
                assert res.completion == all_completions(A, allowed, cap=1)[0] == comps[0]


def unsound_tables(structure, allowed, good):
    """Three tables that are no completion of `structure`, each caught by one
    part of the soundness check alone: one keeps a hole; one lies in the
    class but flips an assigned triple; one is hole-free and keeps every
    assigned triple but leaves the class (a hole triple that takes one value
    throughout `good`, flipped)."""
    holes = [r for r, v in enumerate(structure.table) if v == HOLE]
    forced = next(r for r in holes if len({t[r] for t in good}) == 1)
    flip_forced = bytearray(good[0])
    flip_forced[forced] = 3 - good[0][forced]
    # a completion of the input with one assigned triple made a hole, that
    # flips that triple
    moved = next(
        c.table
        for r, v in enumerate(structure.table) if v != HOLE
        for c in all_completions(
            structure.with_value(*triples(structure.n)[r], HOLE), allowed)
        if c.table[r] != v
    )
    bad = {
        "hole": good[0][:holes[-1]] + bytes([HOLE]) + good[0][holes[-1] + 1:],
        "assigned": moved,
        "class": bytes(flip_forced),
    }
    assert not class_member(HoleyHT(structure.n, bad["class"]), allowed)
    assert class_member(HoleyHT(structure.n, bad["assigned"]), allowed)
    return bad


def test_soundness_check_catches_bad_tables(monkeypatch):
    structure = gen_on(7)
    good = [c.table for c in all_completions(structure, H4_FREE, cap=60)]
    chunk = 25
    monkeypatch.setattr(classify, "_CHECK_BYTES", chunk * comb(7, 4))
    unsound = "solver produced an unsound completion"
    for kind, bad in unsound_tables(structure, H4_FREE, good).items():
        monkeypatch.setattr(_Engine, "search", lambda self: iter([bad]))
        with pytest.raises(RuntimeError, match=unsound):
            complete(structure, H4_FREE)
        # first, either side of the first chunk boundary, and last
        for pos in (0, chunk - 1, chunk, len(good)):
            tables = good[:pos] + [bad] + good[pos:]
            monkeypatch.setattr(_Engine, "search", lambda self: iter(tables))
            with pytest.raises(RuntimeError, match=unsound):
                all_completions(structure, H4_FREE)
    # the same batches without a bad table pass
    monkeypatch.setattr(_Engine, "search", lambda self: iter(good))
    assert [c.table for c in all_completions(structure, H4_FREE)] == good


def _traced_peak(call):
    """The result of call() and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_ceiling(n: int, width: int) -> int:
    """The most the soundness check may hold for a chunk of `width` tables on
    n vertices: by the documented bound, a chunk holds at most _CHECK_BYTES
    bytes of codes, as three chunk-sized strings at most (the codes as they
    grow, with their headroom, and their translation); and, as stated
    per-object overhead, the columns (an int of `width` bytes per triple,
    with its header and its list slot) and two pointers per table (one for
    the chunk's list, one to spare).  The joined chunk that the columns are
    sliced from, and the join's buffer view of each table (80 bytes), are
    gone before the codes grow, and fit in their allowance from 7 vertices
    on."""
    return (3 * classify._CHECK_BYTES
            + comb(n, 3) * (width + sys.getsizeof(0) + 8)
            + 16 * width)


@pytest.mark.parametrize("n", [7, 30])
def test_soundness_check_of_a_batch_holds_one_chunk_of_codes(n):
    # twice _CHECK_BYTES of codes: at 7 vertices a chunk is 29,959 tables and
    # its columns are as large as its codes; at 30 a chunk is 38 tables over
    # 27,405 4-subsets, where a string per 4-subset would outweigh the codes.
    # Both are judged column-wise, and read no index
    full = gen_cyclic(n)
    width = classify._CHECK_BYTES // comb(n, 4)
    assert width > n
    tables = [full.table] * (2 * width)
    _, peak = _traced_peak(lambda: _check_sound(full, CYCLIC, tables))
    assert peak < _check_ceiling(n, width), (peak, _check_ceiling(n, width))


def test_all_completions_at_the_budget_holds_its_tables_and_one_check_chunk():
    # 12 holes of a cyclic structure on 20 vertices take every value under
    # ALL_TYPES: 4,096 completions, of which the 4 MiB budget holds 3,679
    n = 20
    structure = HoleyHT(n, bytes(12) + gen_cyclic(n).table[12:])
    limit = completion._ENUMERATION_BYTES // comb(n, 3)
    assert limit == 3679
    comps, peak = _traced_peak(lambda: all_completions(structure, ALL_TYPES, cap=limit))
    assert len(comps) == limit
    # each table is a bytes object with a slot in the list of tables, and
    # then a HoleyHT with a slot in the list returned; the search adds a
    # code per 4-subset (a list slot) and three table-sized strings (its
    # table, and the mask and values that the check compares)
    per_table = sys.getsizeof(b"") + 8 + sys.getsizeof(comps[0]) + 8
    ceiling = (completion._ENUMERATION_BYTES + limit * per_table
               + _check_ceiling(n, classify._CHECK_BYTES // comb(n, 4))
               + 8 * comb(n, 4) + 3 * comb(n, 3))
    assert peak < ceiling, (peak, ceiling)


def test_oracle_does_not_read_the_flat_index(monkeypatch):
    # a fault in the solver's 4-subset index or in the action table must
    # not reach the oracles that the solver is checked against
    on7, h4 = gen_on(7), HoleyHT(5, bytes([PLUS, MINUS, PLUS, MINUS] + [HOLE] * 6))
    expected = all_completions(on7, H4_FREE)

    def refuse(n):
        raise AssertionError("the oracle read a solver table")

    for module in (core, classify, completion, oracles):
        for name in ("quad_triple_ranks", "triple_quad_ids", "_action_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="read a solver table"):
        complete(on7, H4_FREE)
    # a fresh constraint set, so no action table is cached on it
    h4_free = ConstraintSet.of(FourType.C4, FourType.O4)
    g = gadget(LinkKind.FWD).with_value(1, 2, 3, PLUS)
    with pytest.raises(AssertionError, match="read a solver table"):
        propagate(g, h4_free)
    assert oracles.unit_fixpoint(g, h4_free) == (True, {((2, 3, 4), PLUS)})
    assert enumerate_completions(on7, H4_FREE) == expected
    assert len(expected) == 1228
    # {1, 2, 3, 4} is H4, outside the class before any hole is filled
    assert enumerate_completions(h4, H4_FREE) == []
    assert len(enumerate_completions(h4, ALL_TYPES)) == 2 ** 6


def test_forced_values_in_every_completion():
    rng = random.Random(24)
    checked = 0
    while checked < 60:
        A = random_holey_ht(rng, rng.randint(4, 6), rng.randint(0, 10))
        r = propagate(A, H4_FREE)
        comps = enumerate_completions(A, H4_FREE)
        if not r.ok or not comps or not r.forced:
            continue
        checked += 1
        for (a, b, c), v in r.forced:
            assert all(comp.triple_value(a, b, c) == v for comp in comps)


def test_propagate_matches_rescanning_oracle():
    # unit propagation is confluent: whatever the queue order, the same
    # verdict, and without a conflict the same set of forced values
    outcomes = {"conflict": 0, "forced": 0}
    for allowed in TYPE_SETS:
        rng = random.Random(41)
        for i in range(24):
            n = rng.randint(8, 16)
            if i % 2:
                # a few assigned triples, the rest holes
                structure = random_holey_ht(rng, n, comb(n, 3) - rng.randint(4, 3 * n))
            else:
                structure = _planted(rng, n, rng.choice(["even", "cyclic"]),
                                     rng.choice([0.5, 0.7, 0.85, 0.95]))
            r = propagate(structure, allowed)
            ok, forced = oracles.unit_fixpoint(structure, allowed)
            assert r.ok == ok
            if ok:
                assert set(r.forced) == forced
                outcomes["forced"] += bool(forced)
            else:
                outcomes["conflict"] += 1
    assert outcomes["conflict"] > 20 and outcomes["forced"] > 40


def test_determinism():
    A = gen_bn(6)
    first = complete(A, H4_FREE)
    second = complete(A, H4_FREE)
    assert first == second
    assert [r.table for r in all_completions(gen_on(6), H4_FREE)] == [
        r.table for r in all_completions(gen_on(6), H4_FREE)
    ]


def test_minimal_obstruction_examples():
    assert not is_minimal_obstruction(gen_on(6), H4_FREE)  # completable
    # a bare forbidden structure with no holes is minimal: substructures
    # have at most 3 vertices
    h4 = HoleyHT(4, bytes([PLUS, MINUS, PLUS, MINUS]))
    rep = is_minimal_obstruction(h4, H4_FREE)
    assert rep.is_minimal and not rep.whole.sat
    assert is_minimal_obstruction(gen_bn(7), H4_FREE).is_minimal


def test_bn6_boundary_behavior():
    # bn(6) is an obstruction but not a minimal one: the deletions of
    # vertex 5 (and its mirror 8) are themselves uncompletable
    rep = is_minimal_obstruction(gen_bn(6), H4_FREE)
    assert not rep.whole.sat
    bad = sorted(v for v, r in rep.deletions.items() if not r.sat)
    assert bad == [5, 8]
    assert not rep.is_minimal
    # the deletion named in the gluing example stays completable
    assert rep.deletions[9].sat


def _spread_work(structure):
    """is_minimal_obstruction's estimate of the work of the deletions."""
    n = structure.n
    return n * structure.hole_count() * (n - 4)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool that is_minimal_obstruction starts; the
    pool runs its jobs in this process."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return asked


def test_minimal_obstruction_jobs_agree(monkeypatch):
    asked = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers)

    seq = is_minimal_obstruction(gen_bn(6), H4_FREE, jobs=1)
    # bn(6) is far below the spreading bound: lower it, so that the deletions
    # run in worker processes
    monkeypatch.setattr(completion, "_SPREAD_WORK", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    par = is_minimal_obstruction(gen_bn(6), H4_FREE, jobs=4)
    assert asked == [4]
    assert par == seq


def test_minimal_obstruction_bounds_the_pool(monkeypatch, pool_sizes):
    monkeypatch.setattr(completion, "_SPREAD_WORK", 0)
    # a pool forks all its workers at once; bn(7) has 11 deletions to run
    huge = is_minimal_obstruction(gen_bn(7), H4_FREE, jobs=10**6)
    assert pool_sizes == [11]
    assert huge == is_minimal_obstruction(gen_bn(7), H4_FREE, jobs=1)
    assert pool_sizes == [11]


def test_minimal_obstruction_spreads_from_its_bound(monkeypatch, pool_sizes):
    b7 = gen_bn(7)
    monkeypatch.setattr(completion, "_SPREAD_WORK", _spread_work(b7) + 1)
    assert is_minimal_obstruction(b7, H4_FREE, jobs=4).is_minimal
    assert pool_sizes == []
    monkeypatch.setattr(completion, "_SPREAD_WORK", _spread_work(b7))
    assert is_minimal_obstruction(b7, H4_FREE, jobs=4).is_minimal
    assert pool_sizes == [4]


def test_minimal_obstruction_below_the_bound_starts_no_pool(monkeypatch):
    def refuse(max_workers):
        raise AssertionError("a pool was started")

    # bn(12), 21 vertices, is the largest bn whose deletions run in process
    b12 = gen_bn(12)
    assert _spread_work(b12) < completion._SPREAD_WORK <= _spread_work(gen_bn(13))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    rep = is_minimal_obstruction(b12, H4_FREE, jobs=10**6)
    assert rep.is_minimal
    assert rep == is_minimal_obstruction(b12, H4_FREE, jobs=1)


def test_minimal_obstruction_past_the_bound_asks_for_a_worker_per_deletion(pool_sizes):
    # bn(13), 23 vertices, is the smallest bn whose deletions are spread
    b13 = gen_bn(13)
    assert _spread_work(b13) >= completion._SPREAD_WORK
    assert is_minimal_obstruction(b13, H4_FREE, jobs=10**6).is_minimal
    assert pool_sizes == [23]


def test_restriction_lemma():
    rng = random.Random(25)
    done = 0
    while done < 60:
        n = rng.randint(4, 7)
        A = random_holey_ht(rng, n, rng.randint(0, 10))
        res = complete(A, H4_FREE)
        if not res.sat:
            continue
        done += 1
        subset = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        inner = res.completion.induced(subset)
        assert inner.extends(A.induced(subset))
        assert class_member(inner, H4_FREE)


def test_amalgamate_self_gluing():
    A = gen_cyclic(5)
    res = amalgamate(A, A, range(1, 6), H4_FREE)
    assert res.sat and res.completion == A


def test_amalgamate_disjoint_triangles():
    tri = gen_cyclic(3)
    res = amalgamate(tri, tri, [], CYCLIC)
    assert res.sat
    assert class_member(res.completion, CYCLIC)
    assert res.completion.n == 6


def test_amalgamate_chain_factors_over_shared_pair():
    left = complete(gen_on(6).induced([1, 2, 4, 5, 6]), H4_FREE).completion
    right = complete(gen_onneg(6).induced([1, 2, 4, 5, 6]), H4_FREE).completion
    res = amalgamate(left, right, [1, 2], H4_FREE)
    assert res.sat and res.completion.n == 8


def test_amalgamate_interleaved_base_preserves_orientations():
    # base ids {2, 4} interleave with the fresh ids 6..8, so the second
    # factor's relabeling is not monotone; orientations must survive as
    # ordered tuples, not raw table values
    from htour.core import triples

    rng = random.Random(77)
    checked = 0
    while checked < 15:
        first = random_holey_ht(rng, 5, rng.randint(0, 6))
        second = random_holey_ht(rng, 5, rng.randint(0, 6))
        if not class_member(first, H4_FREE) or not class_member(second, H4_FREE):
            continue
        res = amalgamate(first, second, [2, 4], H4_FREE)
        if not res.sat:
            continue
        checked += 1
        image = {1: 6, 2: 2, 3: 7, 4: 4, 5: 8}
        for a, b, c in triples(5):
            got = res.completion.orientation_of(image[a], image[b], image[c])
            want = second.orientation_of(a, b, c)
            if want != HOLE:
                assert got == want
        assert res.completion.induced(range(1, 6)).extends(first)


def test_amalgamate_base_disagreement():
    plus = validate([(1, 2, 3)], 3)
    minus = validate([(1, 3, 2)], 3)
    with pytest.raises(InputError):
        amalgamate(plus, minus, [1, 2, 3], H4_FREE)


def test_amalgamate_rejects_nonmembers():
    h4 = HoleyHT(4, bytes([PLUS, MINUS, PLUS, MINUS]))
    with pytest.raises(InputError):
        amalgamate(h4, h4, [1, 2], H4_FREE)


def test_unsat_certificate_names_quads():
    res = complete(gen_bn(6), H4_FREE)
    assert res.conflicts  # at least one 4-subset witnessed
    for quad in res.conflicts:
        assert len(quad) == 4 and all(1 <= v <= 9 for v in quad)


# -- golden search trees ----------------------------------------------------
# Node counts, completion hashes and conflict sets of the first-solution
# search, pinned so that a change to branch selection or propagation that
# alters the search tree (not just its speed) turns the suite red.

GOLDEN_COMPLETE = {
    ("on", 12): (161, "ca090c7f609c8f29156355c265efc32646609b1175b28491d212716fcfed68b1",
                 ((7, 8, 9, 10),)),
    ("on", 16): (473, "98ef6fcd4dbff2b37ed16d1945bd333b5497cf34f9b44f289f6f6f5540e9e0e8",
                 ((9, 10, 11, 12),)),
    ("on", 20): (1025, "671f5fb61077fc35c4b3d3d5cd9aeb4a2864950395590413a3dd4e4f06c6d669",
                 ((11, 12, 13, 14),)),
    ("onneg", 12): (179, "e5ec517d8d85689db7eb5363abadf5d4deae3bbea854b16e05465d31742f4394",
                    ()),
    ("onneg", 16): (503, "f791d939b9aa3835d1fe4ee606a19d8469fe73045aa9ee1eb2099b54a52a2bde",
                    ()),
    ("onneg", 20): (1067, "b6e1ae8b2f7231232dfcc991e77affae544a0d745357a64ba1fa075c0f0254b8",
                    ()),
    ("bn", 12): (3, None, ((7, 8, 9, 10), (16, 17, 18, 19))),
    ("bn", 16): (3, None, ((9, 10, 11, 12), (22, 23, 24, 25))),
}

GOLDEN_DELETION_NODES = {
    7: (3, [96, 87, 95, 78, 79, 75, 79, 72, 67, 66, 75]),
    8: (3, [185, 179, 186, 161, 166, 168, 160, 167, 159, 155, 155, 152, 163]),
    9: (3, [322, 312, 321, 290, 295, 296, 300, 291, 298, 287, 283, 283, 282,
            279, 294]),
    12: (3, [1074, 1058, 1070, 1024, 1029, 1030, 1032, 1034, 1036, 1043, 1031,
             1041, 1015, 1008, 1009, 1009, 1009, 1008, 1007, 1004, 1031]),
    # 29 vertices, 90,078 nodes over the deletions
    16: (3, [3178, 3154, 3170, 3104, 3109, 3110, 3112, 3114, 3116, 3118, 3120,
             3122, 3124, 3135, 3119, 3133, 3087, 3076, 3077, 3077, 3077, 3077,
             3077, 3077, 3077, 3076, 3075, 3072, 3115]),
}


@pytest.mark.parametrize("family,n", sorted(GOLDEN_COMPLETE))
def test_golden_search_tree(family, n):
    gen = {"on": gen_on, "onneg": gen_onneg, "bn": gen_bn}[family]
    nodes, digest, conflicts = GOLDEN_COMPLETE[family, n]
    res = complete(gen(n), H4_FREE)
    assert res.nodes == nodes
    assert res.conflicts == conflicts
    if digest is None:
        assert not res.sat
    else:
        assert res.sat
        assert hashlib.sha256(res.completion.table).hexdigest() == digest


@pytest.mark.parametrize("n", sorted(GOLDEN_DELETION_NODES))
def test_golden_deletion_nodes(n):
    whole_nodes, deletion_nodes = GOLDEN_DELETION_NODES[n]
    rep = is_minimal_obstruction(gen_bn(n), H4_FREE)
    assert rep.is_minimal
    assert rep.whole.nodes == whole_nodes
    assert [rep.deletions[v].nodes for v in sorted(rep.deletions)] == deletion_nodes


# the order of the forced assignments (the trail) of root propagation on
# seeded planted instances, and the enumeration order, pinned: a change that
# reorders the trail but keeps its set turns these red.  The trail follows
# the root queue, in order of the colex 4-subset ids
GOLDEN_TRAIL = {
    (4, "cyclic", 0.8): (792, "04d245a37d3e7f1a04def51ebe84563289d7158962731ef3a582bd28a5f73edd"),
    (5, "even", 0.8): (894, "e2fbd0823671f5f268bf88bc8e99645649039fb24054578477943063db05569c"),
    (6, "cyclic", 0.85): (706, "c88172ea6cb1b6229863f0ffac97929abcfa2aeefa17e9ecc8f756e322c123be"),
}
GOLDEN_ENUMERATION = (
    2000, "9ffaa079a46f9be0b450132f20e152e9a2a3ecdd88510e3affa4123a87c63b95"
)


@pytest.mark.parametrize("seed,kind,holes", sorted(GOLDEN_TRAIL))
def test_golden_propagation_trail(seed, kind, holes):
    count, digest = GOLDEN_TRAIL[seed, kind, holes]
    structure = _planted(random.Random(seed), 20, kind, holes)
    r = propagate(structure, EVEN if kind == "even" else CYCLIC)
    assert r.ok and len(r.forced) == count
    trail = bytes(x for t, v in r.forced for x in (*t, v))
    assert hashlib.sha256(trail).hexdigest() == digest


# the dense side (at most half the triples holes), where the root queue is
# large: per allowed set, 48 seeded random and planted structures on 8-14
# vertices -> forced values in all, nodes in all, and the sha256 over each
# ordered trail or root conflict and each search's nodes, conflicts and
# completion
GOLDEN_DENSE = {
    "C4": (689, 49, "f0501c80a29e7c20dd56540be79f53533bcdda0ce4aa7863664896e6d43c558c"),
    "H4": (0, 48, "6f440664f556142cfacee36f6c541053c0bcc63614ccaa9968a2f858a4ec8422"),
    "O4": (0, 48, "17939b4afe3e751349a0e92aef859b6680968fe72b21a1974872e7efbc57561a"),
    "C4,H4": (826, 49, "10a073e36022ff27db5b86e7183b26c1f87902b055178e363edb202f86bd8d03"),
    "C4,O4": (0, 538, "28119fb3b5757accfd6a5653ef6dc917f09ad488ed71dc4ae61b132d20eb6c3f"),
    "H4,O4": (0, 48, "c564aed2e59540788bfad4be386a8ee7eb5615287b76db3fff427d883e24440b"),
    "C4,H4,O4": (0, 1975, "6488b1c42abbcc153fb68671ae54ab13ac30991f61b9c893e79f309fee170609"),
}


@pytest.mark.parametrize("allowed", TYPE_SETS, ids=lambda a: ",".join(map(str, a)))
def test_golden_dense_root(allowed):
    rng = random.Random(50)
    forced = nodes = 0
    h = hashlib.sha256()
    for i in range(48):
        n = rng.randint(8, 14)
        frac = rng.choice([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        if i % 2:
            structure = random_holey_ht(rng, n, round(frac * comb(n, 3)))
        else:
            structure = _planted(rng, n, rng.choice(["even", "cyclic"]), frac)
        r = propagate(structure, allowed)
        res = complete(structure, allowed)
        forced += len(r.forced)
        nodes += res.nodes
        h.update(repr((r.ok, r.conflict, r.forced, res.nodes, res.conflicts)).encode())
        h.update(res.completion.table if res.sat else b"-")
    assert (forced, nodes, h.hexdigest()) == GOLDEN_DENSE[",".join(map(str, allowed))]


def test_golden_enumeration_order():
    count, digest = GOLDEN_ENUMERATION
    tables = [c.table for c in all_completions(gen_on(9), H4_FREE, cap=2000)]
    assert len(tables) == count
    assert hashlib.sha256(b"".join(tables)).hexdigest() == digest


# capped enumerations of seeded planted structures on 13 vertices with 80%
# holes, where every completion after the first comes out of a flipped
# decision: under {C4, O4}, which mixes parities, each of the 1,171 branch
# nodes has a one-hole 4-subset open; EVEN has one parity and closes them
# all.  ({H4, O4} has no structure past 8 vertices.)  kind -> count, sha256
GOLDEN_PLANTED_ENUMERATION = {
    "cyclic": (1000, "11e3d9c247dd4d9c42f73d1d94cbae381b412b098da09a011e78cc1f89d64884"),
    "even": (1000, "7c55952b376e2504d764a1836c2d5b6ea550f24b5489ebe9010a6144cbd2296e"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_PLANTED_ENUMERATION))
def test_golden_enumeration_through_flips(kind):
    count, digest = GOLDEN_PLANTED_ENUMERATION[kind]
    structure = _planted(random.Random(1), 13, kind, 0.8)
    allowed = EVEN if kind == "even" else H4_FREE
    tables = [c.table for c in all_completions(structure, allowed, cap=1000)]
    assert len(tables) == count
    assert hashlib.sha256(b"".join(tables)).hexdigest() == digest


def test_results_built_unchecked_are_plain_structures():
    # complete and all_completions build their results without the
    # constructor's checks, after the soundness check has passed them
    structure = _planted(random.Random(2), 12, "cyclic", 0.9)
    results = [complete(structure, H4_FREE).completion,
               *all_completions(structure, H4_FREE, cap=50)]
    for c in results:
        plain = HoleyHT(c.n, bytes(c.table))
        assert type(c) is HoleyHT and type(c.table) is bytes
        assert c == plain and hash(c) == hash(plain)
        assert pickle.dumps(c) == pickle.dumps(plain)
        assert pickle.loads(pickle.dumps(c)) == plain


def test_rows_live_as_long_as_their_index():
    # the solver reads row r of triple_quad_ids(n), computed on first read
    # and kept by the index; clearing the index cache drops the rows too
    n = 11
    res = complete(_planted(random.Random(3), n, "cyclic", 0.9), CYCLIC)
    assert res.sat
    # a completion assigns every triple, so every row has been read
    rows = triple_quad_ids(n)
    assert len(rows) == comb(n, 3)
    for r, row in rows.items():
        assert len(row) == n - 3 and all(_quad_ranks(n)[e >> 2][e & 3] == r for e in row)
    refs = [weakref.ref(row) for row in rows.values()]
    del rows, row
    for fn in (core.triples, core.quads, core.quad_triple_ranks, core.triple_quad_ids):
        fn.cache_clear()
    gc.collect()
    assert not any(ref() for ref in refs)
    # a fresh index gets fresh rows, and the results are the same
    assert len(triple_quad_ids(n)) == 0
    assert complete(_planted(random.Random(3), n, "cyclic", 0.9), CYCLIC) == res
    assert len(triple_quad_ids(n)) == len(refs)


def test_cold_solve_at_49_vertices_holds_ranks_codes_and_the_rows_it_reads():
    # bn(26) is Unsat in 3 nodes and reads the rows of its 104 assigned
    # triples and of its decisions, and the ranks of the quads it forces
    # from.  The ceiling derives from the layout, not from a measurement:
    # 8 bytes per code slot, the rows and ranks read with their stores, the
    # search's table of C(n,3) bytes, and 32 KiB for its worklist, trail and
    # stack and the per-n terms.  An index of every rank, 16 more bytes per
    # 4-subset, does not fit
    n = 49
    structure = gen_bn(26)
    for fn in (core.triples, core.quads, core.quad_triple_ranks, core.triple_quad_ids):
        fn.cache_clear()
    try:
        res, peak = _traced_peak(lambda: complete(structure, H4_FREE))
        rows, qt = triple_quad_ids(n), quad_triple_ranks(n)
        read = (sys.getsizeof(rows) + sum(map(sys.getsizeof, rows.values()))
                + sys.getsizeof(qt) + sum(map(sys.getsizeof, itertools.chain(*qt.items()))))
    finally:
        for fn in (core.quad_triple_ranks, core.triple_quad_ids):
            fn.cache_clear()
    assert (res.verdict, res.nodes, structure.n) == ("Unsat", 3, n)
    ceiling = 8 * comb(n, 4) + read + comb(n, 3) + 32 * 1024
    assert peak < ceiling, (peak, ceiling)


# -- 4-subset codes across backtracks ----------------------------------------


def _planted(rng, n, kind, holes=0.9):
    """A seeded even or cyclic structure with the fraction `holes` of its
    triples made holes; it completes by design."""
    order = random_order(rng, n)
    if kind == "even":
        full = gen_even(n, random_graph(rng, n), order)
    else:
        full = gen_cyclic(n, order)
    table = bytearray(full.table)
    for r in rng.sample(range(len(table)), round(holes * len(table))):
        table[r] = HOLE
    return HoleyHT(n, bytes(table))


@functools.lru_cache(maxsize=None)
def _quad_ranks(n):
    """The ranks of {abc}, {abd}, {acd}, {bcd} of each 4-subset {a<b<c<d},
    in id order, from core.quads and triple_rank rather than the index."""
    return [tuple(triple_rank(*t) for t in itertools.combinations(q, 3)) for q in quads(n)]


@pytest.fixture
def checked_nodes(monkeypatch):
    """Give every engine a trail and a worklist that check its invariants.
    The trail recounts the 4-subset codes from the table at every append,
    and before and after every cut; the worklist checks that each 4-subset
    queued has one hole and acts.  Returns [checked nodes, flips]: a node is
    counted when a recount first sees its number (the root's, as the engine
    is made), and a flip when a cut leaves the trail ending on its decision,
    which holds PLUS there and MINUS at the next recount that keeps it."""
    init = _Engine.__init__
    calls = [0, 0]

    def recount(engine):
        t = engine.table
        assert engine.code == [
            t[a] + 3 * t[b] + 9 * t[c] + 27 * t[d] for a, b, c, d in _quad_ranks(engine.n)
        ]

    class Trail(list):
        def __init__(self, engine):
            super().__init__()
            self.engine, self.node, self.flip = engine, 1, None

        def check(self, kept):
            # the last flip's decision holds MINUS unless a cut undid it
            engine = self.engine
            recount(engine)
            if self.flip is not None and self.flip < kept:
                assert engine.table[self[self.flip]] == MINUS
            self.flip = None
            if engine.nodes > self.node:
                self.node = engine.nodes
                calls[0] += 1

        def append(self, rank):
            self.check(len(self))
            assert self.engine.table[rank] == HOLE and rank not in self
            super().append(rank)

        def __delitem__(self, key):
            self.check(key.start)
            super().__delitem__(key)
            self.check(len(self))
            self.flip = len(self) - 1
            assert self.engine.table[self[-1]] == PLUS and self.count(self[-1]) == 1
            calls[1] += 1

    class Worklist(deque):
        def __init__(self, engine):
            super().__init__(engine.root)
            self.engine = engine

        def append(self, qi):
            code = self.engine.code[qi]
            assert classify._CODES[code].count(HOLE) == 1 and self.engine.action[code]
            super().append(qi)

    def checked_init(engine, structure, allowed):
        init(engine, structure, allowed)
        engine.trail, engine.root = Trail(engine), Worklist(engine)
        recount(engine)
        calls[0] += 1

    monkeypatch.setattr(_Engine, "__init__", checked_init)
    return calls


@pytest.fixture
def undos(monkeypatch):
    """Count the calls of _Engine.undo_to in a one-element list."""
    original = _Engine.undo_to
    calls = [0]

    def counted(engine, mark):
        calls[0] += 1
        original(engine, mark)

    monkeypatch.setattr(_Engine, "undo_to", counted)
    return calls


@pytest.mark.parametrize(
    "kind,allowed",
    [("even", EVEN), ("cyclic", CYCLIC), ("cyclic", H4_FREE)],
    ids=["even", "cyclic", "cyclic-h4free"],
)
def test_hole_counts_match_recount_at_every_node(checked_nodes, kind, allowed):
    rng = random.Random(31)
    for n in (12, 13, 14):
        structure = _planted(rng, n, kind)
        res = complete(structure, allowed)
        assert res.sat and res.completion.extends(structure)
    assert checked_nodes[0] > 3 * 10  # the searches branch, not just propagate


def test_hole_counts_match_recount_under_backtracking(checked_nodes, undos):
    # 97% holes: the search backtracks out of dozens of conflicting 4-subsets
    structure = _planted(random.Random(1), 13, "cyclic", holes=0.97)
    res = complete(structure, CYCLIC)
    assert res.sat and res.completion.extends(structure)
    assert (res.nodes, len(res.conflicts)) == (2100, 57)
    assert undos[0] > 1000
    assert checked_nodes[1] == undos[0]
    assert is_minimal_obstruction(gen_bn(8), H4_FREE).is_minimal


def test_hole_counts_match_recount_after_backtracks(checked_nodes, undos):
    # {H4, O4} allows both parities, so one-hole 4-subsets survive to the
    # branches, and these two searches backtrack through them
    allowed = ConstraintSet.of(FourType.H4, FourType.O4)
    found = []
    for seed, n, holes in ((0, 9, 71), (2, 11, 140)):
        res = complete(random_holey_ht(random.Random(seed), n, holes), allowed)
        found.append((res.sat, res.nodes, len(res.conflicts)))
    assert found == [(False, 1111, 25), (False, 421, 20)]
    # both are Unsat: every decision's MINUS branch is tried after an undo,
    # so the 1,532 nodes are the two roots and two children per decision
    assert checked_nodes[0] == 1111 + 421
    assert undos[0] == (1111 - 1) // 2 + (421 - 1) // 2
    # each undo is followed by the flip of its decision
    assert checked_nodes[1] == undos[0]


def test_single_parity_classes_leave_no_one_hole_subset_open():
    # the two fills of a one-hole 4-subset differ in hyperedge parity (even
    # for C4 and H4, odd for O4): with the allowed types of one parity, every
    # one-hole 4-subset forces or conflicts, so a propagation fixpoint has no
    # 4-subset with exactly one hole
    one_hole = [code for code, values in enumerate(classify._CODES)
                if values.count(HOLE) == 1]
    for types in ((FourType.C4,), (FourType.H4,), (FourType.C4, FourType.H4),
                  (FourType.O4,)):
        action = ConstraintSet.of(*types).action_table
        assert all(action[code] for code in one_hole)
    for allowed in (H4_FREE, ConstraintSet.of(FourType.H4, FourType.O4)):
        assert not all(allowed.action_table[code] for code in one_hole)


# first-solution searches that backtrack at size: (n, seed) of a planted
# cyclic structure with 93% holes -> nodes, conflicts, completion sha256
GOLDEN_BACKTRACKING = {
    (22, 1): (1854, 111, "07e124dce7a36fd04ef1a0905bbab807230cab5958b3e36c407d3ea4b5c862c4"),
    (26, 3): (967, 86, "47852462ad92d388a1d18111ef2ceb332771bbcac5ad6e61a3c2be5f3f502599"),
    (30, 0): (999, 117, "0e6ee9a51e0f7c0e1520640ef2d95c298d108bf8e5ab2dd0fc7dcf2d736de209"),
}


@pytest.mark.parametrize("n,seed", sorted(GOLDEN_BACKTRACKING))
def test_golden_backtracking_search(n, seed):
    nodes, conflicts, digest = GOLDEN_BACKTRACKING[n, seed]
    structure = _planted(random.Random(seed), n, "cyclic", 0.93)
    res = complete(structure, CYCLIC)
    assert res.sat and res.completion.extends(structure)
    assert (res.nodes, len(res.conflicts)) == (nodes, conflicts)
    assert hashlib.sha256(res.completion.table).hexdigest() == digest


def test_root_queue_is_the_acting_quads_in_id_order():
    # the root judges quads by the rule of the search's row block: its
    # queue is the quads with at most one hole and a nonzero action,
    # ascending, its codes are the input's, and its trail is empty
    for allowed in TYPE_SETS:
        rng = random.Random(5)
        for holes in (0.0, 0.3, 0.6, 0.9, 1.0):
            structure = _planted(rng, 12, rng.choice(["even", "cyclic"]), holes)
            engine = _Engine(structure, allowed)
            table = structure.table
            codes, acting = [], []
            for ranks in _quad_ranks(12):
                values = [table[r] for r in ranks]
                codes.append(values[0] + 3 * values[1] + 9 * values[2] + 27 * values[3])
                if values.count(HOLE) <= 1 and allowed.action_table[codes[-1]]:
                    acting.append(len(codes) - 1)
            assert list(engine.root) == acting
            assert engine.code == codes
            assert engine.trail == []


def test_relations_on_planted_instances_at_size():
    # beyond the oracle, at 15-40 vertices and hundreds of holes: a planted
    # cyclic structure completes in every class with C4, an even one in
    # every class with C4 and H4; complete keeps what propagate forces, is
    # the first completion of all_completions, and its verdict survives
    # relabel and complement (both keep the type of every 4-subset)
    verdicts = set()
    for i, allowed in enumerate(TYPE_SETS):
        rng = random.Random(60 + i)
        for kind in ("cyclic", "even"):
            n = rng.randint(15, 40)
            structure = _planted(rng, n, kind, 0.8)
            res = complete(structure, allowed)
            if FourType.C4 in allowed and (kind == "cyclic" or FourType.H4 in allowed):
                assert res.sat
            r = propagate(structure, allowed)
            if not r.ok:
                assert not res.sat
            elif res.sat:
                assert all(res.completion.triple_value(*t) == v for t, v in r.forced)
            first = all_completions(structure, allowed, cap=1)
            assert first == ([res.completion] if res.sat else [])
            perm = random_order(rng, n)
            assert complete(structure.relabel(perm), allowed).sat == res.sat
            assert complete(structure.complement(), allowed).sat == res.sat
            verdicts.add((res.sat, bool(r.forced)))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_solving_leaves_the_recursion_limit_alone(monkeypatch):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)

    def refuse(limit):
        raise AssertionError("the search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        # 1140 and 2300 holes, and every one of them a decision: a search
        # that recursed per decision would need more than 1000 frames; the
        # loop needs none and never touches the limit
        res = complete(HoleyHT.empty(20), ALL_TYPES)
        assert res.sat and res.nodes == 1141
        assert sys.getrecursionlimit() == 1000
        res = complete(HoleyHT.empty(25), ALL_TYPES)
        assert res.sat and res.nodes == 2301
        assert sys.getrecursionlimit() == 1000
        assert len(all_completions(HoleyHT.empty(20), ALL_TYPES, cap=2)) == 2
        assert sys.getrecursionlimit() == 1000
        # over 250 holes: the whole and each deletion
        assert is_minimal_obstruction(gen_bn(9), H4_FREE).is_minimal
        assert sys.getrecursionlimit() == 1000
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(limit)
