"""One-shot acceptance driver: runs every acceptance check and reports one
pass/fail line per item.

The items of build_items are the only definition of the acceptance
criteria; tests/test_acceptance.py runs the full level through pytest.

Items known to be unattainable because of the boundary behavior of the
chain construction at n = 6 and 7 (see the n6/n7 notes in the item names)
are expected failures: they run, their assertion is the literal claim, and
the driver treats "expected failure" as non-fatal while an unexpected pass
of such an item is fatal.  quick caps family sizes at n <= 7, full at
n <= 9.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time

from . import htfile, oracles
from .classify import ALL_TYPES, EVEN, H4_FREE, FourType, census4, class_member, four_type
from .completion import all_completions, complete, is_minimal_obstruction, propagate
from .core import (
    HOLE,
    MINUS,
    PLUS,
    HoleyHT,
    hat,
    is_isomorphic,
    triples,
    unhat,
    validate,
)
from .families import (
    LinkKind,
    gadget,
    gen_bn,
    gen_cyclic,
    gen_even,
    gen_on,
    gen_onneg,
    on_deletion_tuples,
    onneg_deletion_tuples,
)
from .rand import random_graph, random_holey_ht, random_order
from .ramsey import ExpansionKind, OrderedHT, arrow_check, compatible_orders_cyclic


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


# -- criterion 1: four-vertex census ------------------------------------------


def item_census() -> str:
    counts = census4()
    _check(
        counts == {FourType.H4: 2, FourType.O4: 8, FourType.C4: 6},
        f"census counts off: {counts}",
    )
    # cross-check against exhaustive isomorphism classification
    reps: list[HoleyHT] = []
    sizes: dict[int, int] = {}
    for values in itertools.product((PLUS, MINUS), repeat=4):
        A = HoleyHT(4, bytes(values))
        for i, r in enumerate(reps):
            if is_isomorphic(A, r) is not None:
                _check(four_type(A) == four_type(r), "type differs inside iso class")
                sizes[i] += 1
                break
        else:
            reps.append(A)
            sizes[len(reps) - 1] = 1
    _check(len(reps) == 3, f"{len(reps)} iso classes")
    by_type = {four_type(r): sizes[i] for i, r in enumerate(reps)}
    _check(
        by_type == {FourType.H4: 2, FourType.O4: 8, FourType.C4: 6},
        f"iso class sizes off: {by_type}",
    )
    # invariance over all 16 x 24 relabelings
    for values in itertools.product((PLUS, MINUS), repeat=4):
        A = HoleyHT(4, bytes(values))
        t = four_type(A)
        for perm in itertools.permutations(range(1, 5)):
            _check(four_type(A.relabel(perm)) == t, "relabel changed the type")
    _check(24 // 12 == by_type[FourType.H4], "H4 automorphism quotient")
    return "16 structures: H4=2 O4=8 C4=6, invariant under 16x24 relabelings"


# -- criterion 2: forcing gadget oracle ----------------------------------------


def item_forcing() -> str:
    # per gadget: its other hole, the one H4 fill of {1, 2, 3} and that hole,
    # and the value that {1, 2, 3} PLUS forces on that hole
    cases = (("G", LinkKind.FWD, (2, 3, 4), (PLUS, MINUS), PLUS),
             ("G-neg", LinkKind.FWD_NEG, (1, 3, 4), (PLUS, PLUS), MINUS))
    for name, kind, hole, fill, forced in cases:
        g = gadget(kind)
        h4_fills = [(a, b) for a, b in itertools.product((PLUS, MINUS), repeat=2)
                    if four_type(g.with_value(1, 2, 3, a).with_value(*hole, b)) == FourType.H4]
        _check(h4_fills == [fill], f"{name} H4 fills: {h4_fills}")
        _check(len(oracles.enumerate_completions(g, H4_FREE)) == 3, f"{name} completion count")
        r = propagate(g.with_value(1, 2, 3, PLUS), H4_FREE)
        _check(r.ok and r.structure.triple_value(*hole) == forced, f"{name} forcing")
    g = gadget(LinkKind.FWD)
    r = propagate(g, H4_FREE)
    _check(r.ok and r.structure == g and not r.forced, "G must be a fixpoint")
    return "unique H4 fills (+,-) / (+,+); both implications reproduced"


# -- criterion 3: the chain structures ---------------------------------------------


def item_chain_sat(n: int) -> str:
    for structure in (gen_on(n), gen_onneg(n)):
        res = complete(structure, H4_FREE)
        _check(res.sat, f"no completion at n={n}")
    return f"on({n}) and onneg({n}) complete"


def item_chain_allminus(n: int) -> str:
    m = class_member(gen_on(n).filled(MINUS), H4_FREE)
    _check(m.ok, f"all-MINUS filling of on({n}) fails at {m.witness}")
    m = class_member(gen_onneg(n).filled(PLUS), H4_FREE)
    _check(m.ok, f"all-PLUS filling of onneg({n}) fails at {m.witness}")
    return "default fillings are completions"


# number of H4-free completions of on(n), for the sizes item_chain_forced runs
FORCED_COUNTS = {6: 9, 7: 1228}


def item_chain_forced(n: int) -> str:
    comps = all_completions(gen_on(n), H4_FREE)
    _check(len(comps) > 0, "no completions")
    _check(
        all(c.triple_value(1, 2, 3) == MINUS for c in comps),
        "a completion of on(n) has {1,2,3} PLUS",
    )
    dual = all_completions(gen_onneg(n), H4_FREE)
    _check(len(dual) > 0, "no completions of the dual")
    _check(
        all(c.triple_value(1, 2, 3) == PLUS for c in dual),
        "a completion of onneg(n) has {1,2,3} MINUS",
    )
    # frozen sizes, cross-checked against the brute-force oracle
    _check(len(comps) == FORCED_COUNTS[n], f"{len(comps)} completions of on({n})")
    _check(
        comps == oracles.enumerate_completions(gen_on(n), H4_FREE),
        f"completions of on({n}) differ from the oracle",
    )
    return f"{len(comps)} completions, {{1,2,3}} forced both ways"


def _part3_one(n: int, v: int, dual: bool) -> None:
    base = gen_onneg(n) if dual else gen_on(n)
    seed = onneg_deletion_tuples(n, v) if dual else on_deletion_tuples(n, v)
    want = MINUS if dual else PLUS
    kept = [u for u in base.vertices if u != v]
    relabel = {u: i + 1 for i, u in enumerate(kept)}
    sub = base.induced(kept)
    merged = validate([tuple(relabel[x] for x in t) for t in seed], n - 1)
    table = bytearray(sub.table)
    # HOLE is 0, so compress keeps the ranks that the seed assigns
    for r in itertools.compress(range(len(merged.table)), merged.table):
        _check(table[r] in (HOLE, merged.table[r]), f"seed conflicts at n={n} v={v}")
        table[r] = merged.table[r]
    res = complete(HoleyHT(n - 1, bytes(table)), H4_FREE)
    _check(res.sat, f"deleted-vertex seed not completable at n={n} v={v}")
    _check(res.completion.triple_value(1, 2, 3) == want, "wrong forced {1,2,3}")


def item_chain_part3(n: int) -> str:
    for v in range(4, n + 1):
        _part3_one(n, v, dual=False)
        _part3_one(n, v, dual=True)
    return f"v in 4..{n}: seeds conflict-free and completable, both chains"


# -- criterion 4: glued obstructions -------------------------------------------


def item_bn_unsat(n: int) -> str:
    res = complete(gen_bn(n), H4_FREE)
    _check(not res.sat, f"bn({n}) completed")
    _check(bool(res.conflicts), f"bn({n}) is Unsat without a conflict")
    _check(gen_bn(n).n == 2 * n - 3, "vertex count")
    return f"bn({n}) on {2 * n - 3} vertices has no completion"


def item_bn_minimal(n: int) -> str:
    rep = is_minimal_obstruction(gen_bn(n), H4_FREE)
    _check(not rep.whole.sat, f"bn({n}) completed")
    _check(len(rep.deletions) == 2 * n - 3, f"{len(rep.deletions)} deletions")
    bad = sorted(v for v, r in rep.deletions.items() if not r.sat)
    _check(rep.is_minimal, f"uncompletable deletions: {bad}")
    return f"all {2 * n - 3} deletions completable"


# -- criterion 5: solver versus oracle ------------------------------------------


def item_solver_oracle() -> str:
    sat = 0
    for i in range(500):
        rng = random.Random(9000 + i)
        n = rng.randint(4, 7)
        A = random_holey_ht(rng, n, rng.randint(0, 12))
        res = complete(A, H4_FREE)
        comps = oracles.enumerate_completions(A, H4_FREE)
        _check(res.sat == bool(comps), f"verdict mismatch at seed {9000 + i}")
        if res.sat:
            sat += 1
            _check(
                res.completion == comps[0],
                f"witness is not the least completion (seed {9000 + i})",
            )
            p = propagate(A, H4_FREE)
            _check(p.ok, "propagation conflict on a satisfiable instance")
            for (a, b, c), val in p.forced:
                _check(
                    all(c_.triple_value(a, b, c) == val for c_ in comps),
                    f"forced value absent from a completion (seed {9000 + i})",
                )
            _check(
                all_completions(A, H4_FREE) == comps,
                f"enumeration differs from oracle (seed {9000 + i})",
            )
    _check(0 < sat < 500, f"{sat} of 500 sat: one verdict never exercised")
    return f"500 instances: {sat} sat / {500 - sat} unsat, verdicts and witnesses identical"


# -- criterion 6: arrows, orders, expansions -------------------------------------


def _cyc(n: int) -> OrderedHT:
    return OrderedHT(gen_cyclic(n), tuple(range(1, n + 1)), ExpansionKind.CYCLIC)


def item_arrow() -> str:
    v6 = arrow_check(_cyc(6), _cyc(3), _cyc(2))
    _check(v6.holds, "6-vertex arrow fails")
    v5 = arrow_check(_cyc(5), _cyc(3), _cyc(2))
    _check(not v5.holds and v5.counterexample is not None, "5-vertex arrow holds")
    # the counterexample must contain no monochromatic copy
    colors = dict(zip(v5.a_embeddings, v5.counterexample))
    for tri in itertools.combinations(range(1, 6), 3):
        seen = {colors[p] for p in itertools.combinations(tri, 2)}
        _check(len(seen) == 2, "counterexample admits a monochromatic copy")
    return f"holds at 6 ({v6.colorings} colorings), fails at 5 with witness"


def item_orders() -> str:
    for n in range(3, 8):
        orders = compatible_orders_cyclic(gen_cyclic(n))
        _check(len(orders) == n, f"{len(orders)} orders at n={n}")
        _check(len({o[0] for o in orders}) == n, "least elements not distinct")
    return "compatible order count equals n for n=3..7"


def item_even_class() -> str:
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(4, 8)
        E = gen_even(n, random_graph(rng, n), random_order(rng, n))
        _check(bool(class_member(E, EVEN)), "even structure left the even class")
    return "200 random (graph, order) pairs stay in the even class"


def item_fill_any() -> str:
    rng = random.Random(778)
    for _ in range(200):
        n = rng.randint(4, 8)
        A = random_holey_ht(rng, n, rng.randint(0, 12))
        _check(complete(A, ALL_TYPES).sat, "completion failed with all types allowed")
    return "200 random holey inputs complete when every type is allowed"


# -- criterion 7: structural suites -----------------------------------------------


def item_hat_roundtrip() -> str:
    count = 0
    for n in range(1, 6):
        orders = list(itertools.permutations(range(1, n + 1)))
        for values in itertools.product((PLUS, MINUS), repeat=len(triples(n))):
            A = HoleyHT(n, bytes(values))
            for order in orders:
                H = hat(A, order)
                _check(unhat(H, order) == A, f"unhat(hat) != id at n={n}")
                _check(hat(unhat(H, order), order) == H, f"hat(unhat) != id at n={n}")
                count += 1
    return f"{count} round-trips exact for n <= 5"


def item_restriction() -> str:
    rng = random.Random(4242)
    done = 0
    while done < 200:
        n = rng.randint(4, 7)
        A = random_holey_ht(rng, n, rng.randint(0, 12))
        res = complete(A, H4_FREE)
        if not res.sat:
            continue
        done += 1
        size = rng.randint(1, n)
        subset = sorted(rng.sample(range(1, n + 1), size))
        inner = res.completion.induced(subset)
        _check(inner.extends(A.induced(subset)), "restriction does not extend")
        _check(bool(class_member(inner, H4_FREE)), "restriction left the class")
    return "200 completable instances: completions restrict to completions"


def item_serialization() -> str:
    rng = random.Random(31)
    for i in range(1000):
        n = rng.randint(1, 9)
        A = random_holey_ht(rng, n, rng.randint(0, len(triples(n))))
        order = random_order(rng, n) if rng.random() < 0.3 else None
        edges = random_graph(rng, n) if order is not None and rng.random() < 0.5 else None
        text = htfile.emit(A, order, edges)
        doc = htfile.parse(text)
        _check(doc.structure == A, f"structure round-trip failed (i={i})")
        _check(doc.order == order, "order round-trip failed")
        # an empty edge set serializes identically to an absent graph
        _check(doc.edges == (frozenset(edges) if edges else None),
               "edges round-trip failed")
        _check(htfile.emit_document(doc) == text, "emit not canonical")
    return "1000 documents round-trip byte-exactly"


def item_cli_determinism() -> str:
    # bn(13), 23 vertices, is the smallest bn whose deletions are spread over
    # worker processes (completion._SPREAD_WORK), so --jobs 8 starts a pool
    gen = subprocess.run(
        [sys.executable, "-m", "htour", "gen", "--family", "bn", "--n", "13"],
        capture_output=True, text=True, check=True,
    )
    outs = []
    for jobs in ("1", "8"):
        run = subprocess.run(
            [sys.executable, "-m", "htour", "minimal-obstruction", "--jobs", jobs],
            input=gen.stdout, capture_output=True, text=True, check=True,
        )
        outs.append(run.stdout)
    _check(outs[0] == outs[1], "reports differ between --jobs 1 and --jobs 8")
    try:
        json.loads(outs[0])
    except ValueError as exc:
        raise AssertionError(f"the report is not JSON: {exc}") from exc
    return "minimal-obstruction reports byte-identical at --jobs 1 and 8"


# -- driver -----------------------------------------------------------------------


def build_items(level: str):
    chain_ns = (6, 7) if level == "quick" else (6, 7, 8, 9)
    bn_ns = (6, 7) if level == "quick" else (6, 7, 8, 9)
    items: list[tuple[str, object, bool]] = [
        ("c1-census", item_census, False),
        ("c2-forcing-gadgets", item_forcing, False),
    ]
    for n in chain_ns:
        items.append((f"c3a-sat-n{n}", lambda n=n: item_chain_sat(n), False))
        items.append(
            (f"c3a-allminus-n{n}", lambda n=n: item_chain_allminus(n), n in (6, 7))
        )
    for n in (6, 7):
        items.append((f"c3b-forced123-n{n}", lambda n=n: item_chain_forced(n), False))
    for n in chain_ns:
        items.append((f"c3c-part3-n{n}", lambda n=n: item_chain_part3(n), n == 6))
    for n in bn_ns:
        items.append((f"c4-bn-unsat-n{n}", lambda n=n: item_bn_unsat(n), False))
        items.append(
            (f"c4-bn-minimal-n{n}", lambda n=n: item_bn_minimal(n), n == 6)
        )
    items += [
        ("c5-solver-vs-oracle", item_solver_oracle, False),
        ("c6-arrow-instances", item_arrow, False),
        ("c6-orders-count", item_orders, False),
        ("c6-even-class", item_even_class, False),
        ("c6-fill-any-type", item_fill_any, False),
        ("c7-hat-roundtrip", item_hat_roundtrip, False),
        ("c7-restriction-lemma", item_restriction, False),
        ("c7-serialization", item_serialization, False),
        ("c7-cli-determinism", item_cli_determinism, False),
    ]
    return items


def run_verify(level: str = "quick", out=sys.stderr) -> dict:
    """Run all items; returns the summary used by the CLI report."""
    results = []
    counts = {"pass": 0, "fail": 0, "xfail": 0, "upass": 0}
    for name, fn, xfail in build_items(level):
        started = time.perf_counter()
        try:
            detail = fn()
            status = "upass" if xfail else "pass"
        except AssertionError as exc:
            detail = str(exc)
            status = "xfail" if xfail else "fail"
        seconds = round(time.perf_counter() - started, 3)
        counts[status] += 1
        print(f"{status.upper():5} {name} ({seconds:.2f}s): {detail}", file=out)
        results.append(
            {"name": name, "status": status, "seconds": seconds, "detail": detail}
        )
    ok = counts["fail"] == 0 and counts["upass"] == 0
    print(
        f"summary: {counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['xfail']} expected failures, {counts['upass']} unexpected passes",
        file=out,
    )
    return {"ok": ok, "counts": counts, "items": results}
