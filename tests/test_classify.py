import itertools
import random
import time
import tracemalloc
from math import comb

import pytest

from htour import classify, core
from htour.classify import (
    ALL_TYPES,
    CYCLIC,
    EVEN,
    H4_FREE,
    ConstraintSet,
    FourType,
    census4,
    class_member,
    first_offence,
    four_type,
    mask_of,
)
from htour.core import (
    HOLE,
    MINUS,
    PLUS,
    HoleyHT,
    HoleyInput,
    InputError,
    hat,
    quads,
    triple_rank,
)
from htour.families import gadget, gen_cyclic, gen_even, LinkKind
from htour.rand import random_full_ht, random_graph, random_holey_ht


def ht4(*values):
    return HoleyHT(4, bytes(values))


NONEMPTY_TYPE_SETS = [
    types
    for size in (1, 2, 3)
    for types in itertools.combinations(sorted(FourType, key=str), size)
]


def test_four_type_examples():
    assert four_type(ht4(PLUS, PLUS, PLUS, PLUS)) == FourType.C4
    # hyperedges {123, 134} under the natural order
    assert four_type(ht4(PLUS, MINUS, PLUS, MINUS)) == FourType.H4
    # a single hyperedge {123}
    assert four_type(ht4(PLUS, MINUS, MINUS, MINUS)) == FourType.O4


def test_four_type_rejects():
    with pytest.raises(InputError):
        four_type(HoleyHT.empty(5).filled(PLUS))
    with pytest.raises(HoleyInput):
        four_type(HoleyHT.empty(4))


def test_census_counts():
    counts = census4()
    assert counts == {FourType.H4: 2, FourType.O4: 8, FourType.C4: 6}
    # each labeled count divides 24; the quotient is the automorphism
    # group order (12 for H4, 3 for O4, 4 for C4)
    assert {t: 24 // c for t, c in counts.items()} == {
        FourType.H4: 12,
        FourType.O4: 3,
        FourType.C4: 4,
    }


def test_four_type_complement_invariant():
    for values in itertools.product((PLUS, MINUS), repeat=4):
        A = ht4(*values)
        assert four_type(A.complement()) == four_type(A)


def test_parity_soundness():
    # O4 exactly when the hyperedge count is odd, under every order
    for values in itertools.product((PLUS, MINUS), repeat=4):
        A = ht4(*values)
        expect_odd = four_type(A) == FourType.O4
        for order in itertools.permutations(range(1, 5)):
            assert (len(hat(A, order).hyperedges) % 2 == 1) == expect_odd


def test_class_member_examples():
    cyc5 = gen_cyclic(5)
    for allowed in (CYCLIC, EVEN, H4_FREE, ALL_TYPES):
        assert class_member(cyc5, allowed)
    h4 = ht4(PLUS, MINUS, PLUS, MINUS)
    res = class_member(h4, H4_FREE)
    assert not res and res.witness == (1, 2, 3, 4)
    # both 4-subsets of the forcing gadget contain a hole, so nothing is judged
    assert class_member(gadget(LinkKind.FWD), H4_FREE)


def test_class_member_least_witness():
    # plant two forbidden quads; the lexicographically least one is reported
    A = gen_cyclic(6)
    table = bytearray(A.table)
    bad = ht4(PLUS, MINUS, PLUS, MINUS)
    for quad in ((2, 3, 4, 5), (1, 2, 3, 4)):
        a, b, c, d = quad
        for t, v in zip(
            [(a, b, c), (a, b, d), (a, c, d), (b, c, d)], bad.table
        ):
            table[triple_rank(*t)] = v
    res = class_member(HoleyHT(6, bytes(table)), H4_FREE)
    assert res.witness == (1, 2, 3, 4)


def scan_offences(table, n, allowed):
    """Brute force: the ids of the offending 4-subsets, scanning quads(n)."""
    bits = allowed.mask_bits()
    out = []
    for qi, (a, b, c, d) in enumerate(quads(n)):
        values = [table[triple_rank(*t)]
                  for t in ((a, b, c), (a, b, d), (a, c, d), (b, c, d))]
        if HOLE not in values and not (bits >> mask_of(*values)) & 1:
            out.append(qi)
    return out


def seeded_inputs(rng, n):
    """Full and holey random structures on n vertices, plus cyclic and even
    ones (members of every class containing C4, resp. C4 and H4)."""
    yield random_full_ht(rng, n)
    triples = n * (n - 1) * (n - 2) // 6
    for holes in (1, triples // 4, triples // 2):
        yield random_holey_ht(rng, n, holes)
    order = rng.sample(range(1, n + 1), n)
    yield gen_cyclic(n, order)
    yield gen_even(n, random_graph(rng, n), order)


@pytest.mark.parametrize(
    "types", NONEMPTY_TYPE_SETS, ids=lambda ts: ",".join(map(str, ts))
)
def test_class_member_matches_brute_force(types):
    allowed = ConstraintSet.of(*types)
    rng = random.Random(14)
    outcomes = set()
    for n in range(17):
        for A in seeded_inputs(rng, n):
            offences = scan_offences(A.table, n, allowed)
            res = class_member(A, allowed)
            assert first_offence(n, [A.table], allowed) == (
                (offences[0], 0) if offences else None)
            assert res.ok == (not offences)
            assert res.witness == (quads(n)[offences[0]] if offences else None)
            outcomes.add(res.ok)
    # both verdicts occur, except under ALL_TYPES, which admits everything
    assert outcomes == ({True} if allowed == ALL_TYPES else {True, False})


@pytest.mark.parametrize(
    "types", NONEMPTY_TYPE_SETS, ids=lambda ts: ",".join(map(str, ts))
)
def test_first_offence_over_a_batch(types, monkeypatch):
    # the least offending 4-subset over the batch, and the first table in
    # it, in one chunk and in chunks of 12 tables (judged column-wise below
    # 12 vertices) with a last chunk of 4 (judged table by table)
    allowed = ConstraintSet.of(*types)
    rng = random.Random(15)
    whole = classify._CHECK_BYTES
    for n in range(10):
        pool = [A.table for _ in range(2) for A in seeded_inputs(rng, n)]
        for size in (1, 2, 3, 40):
            tables = [rng.choice(pool) for _ in range(size)]
            offences = [scan_offences(t, n, allowed) for t in tables]
            least = min((qis[0] for qis in offences if qis), default=None)
            expect = None if least is None else (
                least, next(k for k, qis in enumerate(offences) if least in qis))
            for chunk in (whole, 12 * max(comb(n, 4), 1)):
                monkeypatch.setattr(classify, "_CHECK_BYTES", chunk)
                assert first_offence(n, tables, allowed) == expect
    assert first_offence(5, [], allowed) is None


@pytest.mark.parametrize("n", range(4, 13))
def test_column_offence_agrees_with_the_kernel_table_by_table(n):
    # the column-wise path transposes a chunk by strided slices of the
    # joined tables: against the one-table kernel on seeded holey batches
    # just past the crossover (n + 1 tables), about twice as wide, and one
    # full chunk, drawn from a pool of 40 tables with any number of holes;
    # then on batches of holey cyclic tables whose only offender is the last
    rng = random.Random(20 + n)
    chunk = classify._CHECK_BYTES // comb(n, 4)
    pool = [random_holey_ht(rng, n, rng.randrange(comb(n, 3) + 1)).table for _ in range(40)]
    offender = next(t for t in (random_full_ht(rng, n).table for _ in range(100))
                    if classify._least_offence(n, t, CYCLIC.ok_table) is not None)
    for width in (n + 1, 2 * n + 3, chunk):
        tables = rng.choices(pool, k=width)
        for allowed in (CYCLIC, EVEN, H4_FREE, ConstraintSet.of(FourType.O4)):
            least = {t: classify._least_offence(n, t, allowed.ok_table) for t in set(tables)}
            expect = min(((qi, tables.index(t)) for t, qi in least.items() if qi is not None),
                         default=None)
            assert classify._column_offence(n, tables, allowed.ok_table) == expect
    cyclic = [bytes(v if rng.random() < 0.8 else HOLE
                    for v in gen_cyclic(n, rng.sample(range(1, n + 1), n)).table)
              for _ in range(8)]
    last = classify._least_offence(n, offender, CYCLIC.ok_table)
    for width in (n + 1, 2 * n + 3, chunk):
        batch = rng.choices(cyclic, k=width - 1) + [offender]
        assert classify._column_offence(n, batch, CYCLIC.ok_table) == (last, width - 1)


def plant_random_quads(rng, structure, count):
    """A copy with `count` random 4-subsets given random values."""
    table = bytearray(structure.table)
    for quad in (sorted(rng.sample(range(1, structure.n + 1), 4)) for _ in range(count)):
        for t in itertools.combinations(quad, 3):
            table[triple_rank(*t)] = rng.choice((PLUS, MINUS))
    return HoleyHT(structure.n, bytes(table))


def test_least_witness_across_blocks_and_runs(monkeypatch):
    # offenders planted in a cyclic structure fall into several blocks of
    # the one-table kernel; with small runs, into several runs as well, so
    # the witness search has to pick the least one across them
    rng = random.Random(16)
    spread = 0
    for chunk in (1, 60, 400, classify._CHECK_BYTES):
        monkeypatch.setattr(classify, "_CHECK_BYTES", chunk)
        for _ in range(12):
            n = rng.randint(8, 15)
            A = plant_random_quads(rng, gen_cyclic(n, rng.sample(range(1, n + 1), n)),
                                   rng.randint(1, 4))
            for allowed in (CYCLIC, EVEN, H4_FREE):
                offences = scan_offences(A.table, n, allowed)
                tops = {quads(n)[qi][3] for qi in offences}
                spread = max(spread, len(tops))
                assert first_offence(n, [A.table], allowed) == (
                    (offences[0], 0) if offences else None)
                assert class_member(A, allowed).witness == (
                    quads(n)[offences[0]] if offences else None)
    assert spread >= 3


def test_one_table_agrees_with_a_batch_of_two():
    # the one-table kernel against the column-wise batch path, past the
    # sizes the brute-force scan reaches
    rng = random.Random(17)
    for n in range(17, 41):
        allowed = ConstraintSet.of(*NONEMPTY_TYPE_SETS[n % 7])
        cyclic = gen_cyclic(n, rng.sample(range(1, n + 1), n))
        for A in (cyclic, plant_random_quads(rng, cyclic, rng.randint(1, 3))):
            one = first_offence(n, [A.table], allowed)
            assert one == classify._column_offence(n, [A.table, A.table], allowed.ok_table)
            if FourType.C4 in allowed and A is cyclic:
                assert one is None


def test_class_member_builds_no_index():
    # one table, a batch of two (table by table at 23 vertices) and the
    # column-wise path on the same two
    for fn in (core.quad_triple_ranks, core.triple_quad_ids, core.quads, core.triples):
        fn.cache_clear()
    rng = random.Random(18)
    A = random_full_ht(rng, 23)
    assert class_member(A, ALL_TYPES)
    assert not class_member(A, CYCLIC)
    pair = [A.table, random_full_ht(rng, 23).table]
    least = min((first_offence(23, [t], CYCLIC)[0], k) for k, t in enumerate(pair))
    assert first_offence(23, pair, CYCLIC) == least == classify._column_offence(
        23, pair, CYCLIC.ok_table)
    for fn in (core.quad_triple_ranks, core.triple_quad_ids, core.quads, core.triples):
        assert fn.cache_info().currsize == 0


def test_failing_member_at_49_vertices():
    # the witness of the column-wise scan over every 4-subset, in a fraction
    # of its time: the kernel judges the table run by run of top vertices
    # and stops at the first run that offends
    A = random_full_ht(random.Random(49), 49)
    pair, ok = [A.table, A.table], CYCLIC.ok_table
    assert classify._column_offence(49, pair, ok) == (1, 0)
    kernel, scan = [], []
    for _ in range(3):
        start = time.perf_counter()
        res = class_member(A, CYCLIC)
        kernel.append(time.perf_counter() - start)
        classify._column_offence(49, pair, ok)
        scan.append(time.perf_counter() - start - kernel[-1])
    assert not res and res.witness == (1, 2, 3, 5)
    assert min(kernel) < min(scan)


def test_one_table_holds_at_most_a_chunk_of_codes(monkeypatch):
    # C(70,4) = 916,895 codes against runs of at most 64 KiB of them (the
    # largest top vertex alone has C(69,3) = 52,394); the ceiling allows a
    # few chunk-sized strings at once (the gathered values, their sum, the
    # codes and their verdict) and a few table-sized ones (the scaled
    # tables and the pair patterns), and stays below the codes of all
    # 4-subsets at once
    n, chunk = 70, 1 << 16
    monkeypatch.setattr(classify, "_CHECK_BYTES", chunk)
    ceiling = 6 * chunk + 8 * comb(n, 3)
    assert comb(n - 1, 3) <= chunk and ceiling < comb(n, 4)
    order = random.Random(19).sample(range(1, n + 1), n)
    for allowed, ok in ((CYCLIC, True), (EVEN, True), (ConstraintSet.of(FourType.H4), False)):
        A = gen_cyclic(n, order)
        tracemalloc.start()
        try:
            res = class_member(A, allowed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bool(res) == ok
        assert peak < ceiling, (peak, ceiling)


def test_wide_chunk_joins_in_pieces():
    # 200,000 tables of 5 vertices are one chunk of 1,000,000 codes: joined
    # in one call, the chunk would hold a buffer view of 80 bytes per table
    # (16 MB) beside its 2 MB copy
    n, width, m = 5, 200_000, 10
    assert width * comb(n, 4) <= classify._CHECK_BYTES and m == comb(n, 3)
    values = bytes(PLUS + (i & 1) for i in range(256))
    data = random.Random(21).randbytes(width * m).translate(values)
    tables = [data[i:i + m] for i in range(0, len(data), m)]
    del data
    tracemalloc.start()
    try:
        hit = first_offence(n, tables, ALL_TYPES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hit is None
    assert peak < 8 * 2**20, peak


def test_all_types_unconstrained():
    rng = random.Random(11)
    for _ in range(50):
        assert class_member(random_full_ht(rng, rng.randint(4, 7)), ALL_TYPES)


def test_monotone_and_hereditary():
    rng = random.Random(12)
    sets = [CYCLIC, EVEN, H4_FREE, ALL_TYPES]
    for _ in range(40):
        n = rng.randint(4, 7)
        A = random_holey_ht(rng, n, rng.randint(0, 8))
        for small in sets:
            for big in sets:
                if small.allowed <= big.allowed and class_member(A, small):
                    assert class_member(A, big)
        if class_member(A, H4_FREE):
            subset = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            assert class_member(A.induced(subset), H4_FREE)


def test_constraint_set_parse_and_flag():
    assert ConstraintSet.parse("C4,O4").allowed == {FourType.C4, FourType.O4}
    assert ConstraintSet.parse("o4, c4") == H4_FREE
    with pytest.raises(InputError):
        ConstraintSet.parse("")
    with pytest.raises(InputError):
        ConstraintSet.parse("X4")
    # exactly the four sets containing C4 amalgamate strongly
    flags = {
        cs.label(): cs.is_amalgamation_class
        for cs in (
            ConstraintSet.of(FourType.C4),
            ConstraintSet.of(FourType.H4),
            ConstraintSet.of(FourType.O4),
            ConstraintSet.of(FourType.C4, FourType.H4),
            ConstraintSet.of(FourType.C4, FourType.O4),
            ConstraintSet.of(FourType.H4, FourType.O4),
            ConstraintSet.of(FourType.C4, FourType.H4, FourType.O4),
        )
    }
    assert flags == {
        "C4": True,
        "H4": False,
        "O4": False,
        "C4,H4": True,
        "C4,O4": True,
        "H4,O4": False,
        "C4,H4,O4": True,
    }


def test_label_is_canonical():
    assert ConstraintSet.of(FourType.O4, FourType.C4).label() == "C4,O4"


def test_quad_shortcut_matches_induced_classification():
    # class_member reads the four table values of a 4-subset straight off;
    # that must agree with relabeling via induced() and classifying
    import random

    from htour.core import _LANE, quad_triple_ranks, quads

    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(4, 8)
        A = random_full_ht(rng, n)
        qt = quad_triple_ranks(n)
        for qi, q in enumerate(quads(n)):
            ranks = [qt[qi] >> _LANE * pos & (1 << _LANE) - 1 for pos in range(4)]
            mask_type = four_type(HoleyHT(4, bytes(A.table[r] for r in ranks)))
            assert mask_type == four_type(A.induced(q))



@pytest.mark.parametrize(
    "types", NONEMPTY_TYPE_SETS, ids=lambda ts: ",".join(map(str, ts))
)
def test_action_and_ok_tables_agree_with_mask_of(types):
    allowed = ConstraintSet.of(*types)
    bits = allowed.mask_bits()
    for code in range(81):
        values = [code // 3**pos % 3 for pos in range(4)]
        holes = [pos for pos, v in enumerate(values) if v == HOLE]
        fills = []
        for fill in itertools.product((PLUS, MINUS), repeat=len(holes)):
            full = list(values)
            for pos, v in zip(holes, fill):
                full[pos] = v
            fills.append(full)
        good = [full for full in fills if (bits >> mask_of(*full)) & 1]
        assert allowed.ok_table[code] == (1 if holes or good else 0)
        act = allowed.action_table[code]
        # the solver queues a 4-subset on exactly these codes
        assert allowed.queue_table[code] == (1 if len(holes) == 1 and act else 0)
        if len(holes) >= 2 or len(good) == len(fills):
            assert act == 0
        elif not good:
            assert act == -1
        else:
            (full,) = good
            assert act == holes[0] << 2 | full[holes[0]]
    assert len(allowed.queue_table) == 81
    # one set of tables per class, however the constraint set was built
    again = ConstraintSet.parse(allowed.label())
    assert again.action_table is allowed.action_table
    assert again.ok_table is allowed.ok_table
    assert again.queue_table is allowed.queue_table
