"""The four benchmark workloads: their instances, operations and checks.

setup(rng, workdir, tiny, tracer) builds one workload from the seeded
generator and returns a Workload.  Every pass runs the same list of ops in
the same order.  An op's `run` makes the timed call into htour, wrapped in
a layer span when traced; its `check` runs outside the timed region and
returns None or a message saying what is wrong.  `expect` holds the
expected verdict, so a test can make it wrong on purpose.  `once` holds the
checks made once per run, such as the comparison with the brute-force
oracle.  `tiny` selects small instances for the harness self-test.

Only public functions of htour are called; the harness never reaches into
the solver, so each layer is timed from outside.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from htour import (
    CYCLIC,
    EVEN,
    H4_FREE,
    HOLE,
    MINUS,
    PLUS,
    ExpansionKind,
    HoleyHT,
    OrderedHT,
    all_completions,
    arrow_check,
    class_member,
    compatible_orders_cyclic,
    complete,
    embeddings,
    gen_bn,
    gen_cyclic,
    gen_even,
    gen_on,
    gen_onneg,
    hat,
    is_minimal_obstruction,
    propagate,
    unhat,
)
from htour import cli, core, htfile, oracles
from htour.classify import four_type
from htour.rand import random_full_ht, random_graph, random_order

# share of the triples of a planted instance that become holes; at 0.97 one
# seeded cyclic n=20 instance took 363,801 nodes, at 0.8 they take 1 to 12
HOLE_FRACTION = 0.8


@dataclass
class Op:
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any, Any], str | None]
    expect: Any = None


@dataclass
class Workload:
    ops: list[Op]
    once: list[tuple[str, Callable[[], str | None]]] = field(default_factory=list)
    # cli only: the specs of the in-process probes of the traced run
    calls: list = field(default_factory=list)


def clear_index_caches() -> None:
    for fn in (core.triples, core.quads, core.quad_triple_ranks, core.triple_quad_ids):
        fn.cache_clear()


def build_index(n: int) -> None:
    # triple_quad_ids builds quads and quad_triple_ranks on the way
    core.triples(n)
    core.triple_quad_ids(n)


def _warm(sizes, tracer) -> None:
    with tracer.span("core.index_warm"):
        for n in sorted(set(sizes)):
            build_index(n)


def _gen(tracer, fn, *args):
    with tracer.span("families.gen"):
        return fn(*args)


def _member(structure, allowed, tracer) -> str | None:
    with tracer.span("classify.class_member"):
        member = class_member(structure, allowed)
    return None if member else f"completion leaves the class at {member.witness}"


def _extends(completion, structure) -> str | None:
    if not completion.is_complete() or not completion.extends(structure):
        return "completion has holes or changes an assigned triple"
    return None


# -- solve -------------------------------------------------------------------


def _complete(structure, allowed, tracer):
    with tracer.span("completion.complete"):
        return complete(structure, allowed)


def _check_solve(structure, allowed, expect, res, tracer) -> str | None:
    verdict, sign = expect
    tracer.add("completion.nodes", res.nodes)
    tracer.add("completion.conflicts", len(res.conflicts))
    if res.verdict != verdict:
        return f"verdict {res.verdict}, expected {verdict}"
    if res.sat:
        error = _extends(res.completion, structure) or _member(
            res.completion, allowed, tracer)
        if error:
            return error
        if sign is not None and res.completion.triple_value(1, 2, 3) != sign:
            return "wrong orientation of {1, 2, 3}"
    if tracer.enabled:
        # root propagation, timed on its own; complete() minus it and minus
        # the re-check is the search: branch selection plus propagation
        with tracer.span("completion.propagate"):
            prop = propagate(structure, allowed)
        tracer.add("completion.forced", len(prop.forced))
        tracer.add("completion.search_s", tracer.last("completion.complete")
                   - tracer.last("completion.propagate")
                   - tracer.last("classify.class_member"))
    return None


def _minimal(structure, tracer):
    with tracer.span("completion.minimal"):
        return is_minimal_obstruction(structure, H4_FREE, jobs=1)


def _check_minimal(structure, expect, rep, tracer) -> str | None:
    tracer.add("completion.deletion_solves", 1 + len(rep.deletions))
    if rep.is_minimal != expect:
        return f"is_minimal {rep.is_minimal}, expected {expect}"
    if rep.whole.sat:
        return "the obstruction has a completion"
    if sorted(rep.deletions) != list(structure.vertices):
        return "a single-vertex deletion is missing"
    for v, res in rep.deletions.items():
        with tracer.span("core.induced"):
            sub = structure.induced([u for u in structure.vertices if u != v])
        if not res.sat:
            return f"deleting vertex {v} leaves no completion"
        error = _extends(res.completion, sub) or _member(res.completion, H4_FREE, tracer)
        if error:
            return f"deletion of {v}: {error}"
    return None


def _planted(rng, kind: str, n: int, tracer) -> HoleyHT:
    """A full even or cyclic structure from a seeded order (and graph),
    with HOLE_FRACTION of its triples made holes; it completes by design."""
    order = random_order(rng, n)
    if kind == "even":
        full = _gen(tracer, gen_even, n, random_graph(rng, n), order)
    else:
        full = _gen(tracer, gen_cyclic, n, order)
    table = bytearray(full.table)
    for r in rng.sample(range(len(table)), round(HOLE_FRACTION * len(table))):
        table[r] = HOLE
    return HoleyHT(n, bytes(table))


def setup_solve(rng, workdir, tiny, tracer) -> Workload:
    chain_sizes = (8,) if tiny else (12, 16, 20)
    bn_sizes = (7,) if tiny else (12, 16)
    minimal_sizes = (7,) if tiny else (7, 8, 9)
    planted_n, planted_each = (8, 1) if tiny else (20, 3)
    ops = []
    sizes = []
    for n in chain_sizes:
        for name, gen, sign in (("on", gen_on, MINUS), ("onneg", gen_onneg, PLUS)):
            s = _gen(tracer, gen, n)
            ops.append(Op(f"complete {name}({n})", partial(_complete, s, H4_FREE),
                          partial(_check_solve, s, H4_FREE), ("Sat", sign)))
            sizes.append(n)
    for n in bn_sizes:
        s = _gen(tracer, gen_bn, n)
        ops.append(Op(f"complete bn({n})", partial(_complete, s, H4_FREE),
                      partial(_check_solve, s, H4_FREE), ("Unsat", None)))
        sizes.append(s.n)
    for n in minimal_sizes:
        s = _gen(tracer, gen_bn, n)
        ops.append(Op(f"minimal bn({n})", partial(_minimal, s),
                      partial(_check_minimal, s), True))
        sizes += [s.n, s.n - 1]
    for kind, allowed in (("even", EVEN), ("cyclic", CYCLIC)):
        for i in range(planted_each):
            s = _planted(rng, kind, planted_n, tracer)
            ops.append(Op(f"planted {kind} {i}", partial(_complete, s, allowed),
                          partial(_check_solve, s, allowed), ("Sat", None)))
    _warm(sizes + [planted_n], tracer)
    return Workload(ops)


# -- enumerate ---------------------------------------------------------------


def _enumerate(structure, cap, tracer):
    with tracer.span("completion.enumerate"):
        return all_completions(structure, H4_FREE, cap=cap)


def _check_enumerate(structure, sign, expect, comps, tracer) -> str | None:
    tracer.add("completion.completions", len(comps))
    if len(comps) != expect:
        return f"{len(comps)} completions, expected {expect}"
    tables = [c.table for c in comps]
    if any(a >= b for a, b in zip(tables, tables[1:])):
        return "completions not in strictly increasing lexicographic order"
    for c in comps:
        error = _extends(c, structure)
        if error:
            return error
        if c.triple_value(1, 2, 3) != sign:
            return "wrong orientation of {1, 2, 3}"
    with tracer.span("classify.class_member"):
        for c in comps:
            if not class_member(c, H4_FREE):
                return "a completion leaves the class"
    return None


def _oracle_on7() -> str | None:
    on7 = gen_on(7)
    if all_completions(on7, H4_FREE) != oracles.enumerate_completions(on7, H4_FREE):
        return "all_completions(on(7)) differs from the brute-force oracle"
    return None


def setup_enumerate(rng, workdir, tiny, tracer) -> Workload:
    # (family, n, cap, expected count); the capped ones have more completions
    cases = (
        [("on", 6, None, 9), ("onneg", 7, 100, 100)] if tiny else
        [("on", 6, None, 9), ("on", 7, None, 1228), ("onneg", 7, None, 1228),
         ("on", 8, 2000, 2000), ("onneg", 8, 2000, 2000), ("on", 9, 2000, 2000)]
    )
    ops = []
    for name, n, cap, count in cases:
        gen, sign = (gen_on, MINUS) if name == "on" else (gen_onneg, PLUS)
        s = _gen(tracer, gen, n)
        label = f"enumerate {name}({n})" + (f" cap {cap}" if cap else "")
        ops.append(Op(label, partial(_enumerate, s, cap),
                      partial(_check_enumerate, s, sign), count))
    _warm([n for _, n, _, _ in cases], tracer)
    return Workload(ops, once=[("oracle on(7)", _oracle_on7)])


# -- ordered -----------------------------------------------------------------


def _cyc(n: int, tracer) -> OrderedHT:
    order = tuple(range(1, n + 1))
    return OrderedHT(_gen(tracer, gen_cyclic, n, order), order, ExpansionKind.CYCLIC)


def _refutes(verdict, big, mid, small, colors: int) -> str | None:
    """Check a counterexample independently: it is the coloring its index
    encodes, and it leaves no copy of `mid` monochromatic."""
    digits, c = [], verdict.coloring_index
    for _ in verdict.a_embeddings:
        digits.append(c % colors)
        c //= colors
    if tuple(digits) != verdict.counterexample:
        return "counterexample does not match its coloring index"
    color = dict(zip(verdict.a_embeddings, verdict.counterexample))
    inner = embeddings(small, mid)
    for g in embeddings(mid, big):
        if len({color[tuple(g[v - 1] for v in e)] for e in inner}) == 1:
            return f"counterexample leaves the copy {g} monochromatic"
    return None


def _arrow(big, mid, small, tracer):
    with tracer.span("ramsey.arrow.plain"):
        plain = arrow_check(big, mid, small)
    with tracer.span("ramsey.arrow.prune"):
        pruned = arrow_check(big, mid, small, prune=True)
    return plain, pruned


def _check_arrow(big, mid, small, expect, result, tracer) -> str | None:
    plain, pruned = result
    tracer.add("ramsey.copies", plain.b_copies)
    if plain.holds:
        tracer.add("ramsey.held_colorings", plain.colorings)
        tracer.add("ramsey.held_s", tracer.last("ramsey.arrow.plain"))
    if plain != pruned:
        return "plain and pruned verdicts differ"
    if plain.holds != expect:
        return f"holds {plain.holds}, expected {expect}"
    return None if plain.holds else _refutes(plain, big, mid, small, 2)


def _arrow_c3(big, mid, small, tracer):
    with tracer.span("ramsey.arrow.c3"):
        return arrow_check(big, mid, small, colors=3)


def _check_arrow_c3(big, mid, small, expect, verdict, tracer) -> str | None:
    if verdict.holds != expect:
        return f"holds {verdict.holds}, expected {expect}"
    return None if verdict.holds else _refutes(verdict, big, mid, small, 3)


def _embeddings(pairs, tracer):
    with tracer.span("ramsey.embeddings"):
        return [embeddings(small, big) for small, big in pairs]


def _check_embeddings(expect, result, tracer) -> str | None:
    tracer.add("ramsey.embeddings.count", sum(len(embs) for embs in result))
    # under its natural order a cyclic structure embeds a smaller one by
    # every increasing injection, and by nothing else
    if [len(embs) for embs in result] != list(expect):
        return f"embedding counts {[len(e) for e in result]}, expected {list(expect)}"
    for embs in result:
        if any(list(e) != sorted(set(e)) for e in embs) or len(set(embs)) != len(embs):
            return "an embedding is not an increasing injection, or repeats"
    return None


def _orders(structure, tracer):
    with tracer.span("ramsey.orders"):
        return compatible_orders_cyclic(structure)


def _check_orders(order, expect, result, tracer) -> str | None:
    rotations = {order[i:] + order[:i] for i in range(len(order))}
    if len(result) != expect or set(result) != rotations:
        return f"{len(result)} compatible orders, expected the {expect} rotations"
    return None


def _roundtrips(pairs, tracer):
    with tracer.span("core.hat_unhat"):
        return [unhat(hat(x, o), o) for x, o in pairs]


def _check_roundtrips(pairs, expect, result, tracer) -> str | None:
    bad = sum(y != x for y, (x, _) in zip(result, pairs))
    return f"{bad} hat/unhat round-trips changed the structure" if bad else None


def setup_ordered(rng, workdir, tiny, tracer) -> Workload:
    # (C, B, A, expected verdict)
    arrows = ((6, 3, 2, True),) if tiny else (
        (6, 3, 2, True), (7, 3, 2, True), (6, 4, 3, False), (7, 6, 5, False))
    emb_pairs = ((3, 6),) if tiny else ((3, 9), (4, 9), (5, 10))
    orders_n = 6 if tiny else 12
    trip_sizes, trips_each = ((5,), 2) if tiny else ((8, 9), 32)
    ops = []
    for c, b, a, holds in arrows:
        big, mid, small = _cyc(c, tracer), _cyc(b, tracer), _cyc(a, tracer)
        ops.append(Op(f"arrow ({c},{b},{a})", partial(_arrow, big, mid, small),
                      partial(_check_arrow, big, mid, small), holds))
    big, mid, small = _cyc(5, tracer), _cyc(3, tracer), _cyc(2, tracer)
    ops.append(Op("arrow (5,3,2) 3 colours", partial(_arrow_c3, big, mid, small),
                  partial(_check_arrow_c3, big, mid, small), False))
    pairs = [(_cyc(a, tracer), _cyc(c, tracer)) for a, c in emb_pairs]
    ops.append(Op("embeddings", partial(_embeddings, pairs), _check_embeddings,
                  tuple(comb(c, a) for a, c in emb_pairs)))
    order = random_order(rng, orders_n)
    s = _gen(tracer, gen_cyclic, orders_n, order)
    ops.append(Op(f"orders cyclic({orders_n})", partial(_orders, s),
                  partial(_check_orders, order), orders_n))
    trips = [(random_full_ht(rng, n), random_order(rng, n))
             for n in trip_sizes for _ in range(trips_each)]
    ops.append(Op("hat/unhat round-trips", partial(_roundtrips, trips),
                  partial(_check_roundtrips, trips)))
    _warm([orders_n, *trip_sizes, *(n for arrow in arrows for n in arrow[:3])], tracer)
    return Workload(ops)


# -- cli ---------------------------------------------------------------------


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_bytes: int = field(compare=False)
    seconds: float = field(compare=False)


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def run_child(argv, workdir: Path, env) -> ChildResult:
    """Run one child to its end, reading its stdout from a pipe as a shell
    pipeline would; time it and read its rusage from wait4."""
    err_path = workdir / "child.err"
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=workdir)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, err_path.read_bytes(),
                       usage.ru_maxrss * 1024, seconds)


@dataclass
class Call:
    """One CLI call: its argv, input, expected verdict, and the in-process
    pieces the traced run times it against."""

    label: str
    args: list
    path: Path
    check: Callable
    expect: Any
    lib_layer: str | None = None
    lib: Callable | None = None
    emit: Callable = lambda result: []
    index_sizes: tuple = ()


def _invoke(argv, workdir, env, tracer) -> ChildResult:
    with tracer.span("cli.invoke"):
        return run_child(argv, workdir, env)


def _check_call(call_check, expect, res, tracer) -> str | None:
    tracer.add("cli.report_bytes", len(res.stdout))
    if res.returncode != 0:
        return f"exit {res.returncode}: {res.stderr.decode(errors='replace').strip()[:200]}"
    return call_check(expect, res.stdout)


def _verdict_is(expect, stdout) -> str | None:
    verdict = json.loads(stdout)["verdict"]
    return None if verdict == expect else f"verdict {verdict!r}, expected {expect!r}"


def _check_validate(structure, expect, stdout) -> str | None:
    report = json.loads(stdout)
    witness = report["witness"]
    if report["verdict"] != expect or witness["holes"] != structure.hole_count():
        return "validate report has the wrong verdict or hole count"
    if witness["canonical"] != htfile.emit(structure).splitlines():
        return "validate report has the wrong canonical form"
    return None


def _check_ht_completion(structure, expect, stdout) -> str | None:
    done = htfile.parse(stdout.decode()).structure
    error = _extends(done, structure)
    if error or not class_member(done, H4_FREE):
        return error or "completion leaves the class"
    return None if done.triple_value(1, 2, 3) == expect else "wrong orientation of {1, 2, 3}"


def _check_enumerate_report(expected_lines, expect, stdout) -> str | None:
    report = json.loads(stdout)
    if report["verdict"] != expect:
        return f"verdict {report['verdict']}, expected {expect}"
    if report["witness"]["completions"] != expected_lines:
        return "reported completions differ from all_completions"
    return None


def _check_minimal_report(structure, shared, jobs, expect, stdout) -> str | None:
    """The --jobs 1 call stores its report in `shared`; the --jobs 2 call,
    which runs after it, must print the same bytes."""
    report = json.loads(stdout)
    deletions = report["witness"]["deletions"]
    if report["verdict"] != expect or report["witness"]["whole"] != "Unsat":
        return f"minimal-obstruction verdict {report['verdict']}, expected {expect}"
    if sorted(map(int, deletions)) != list(structure.vertices) or any(
            d["verdict"] != "Sat" for d in deletions.values()):
        return "a single-vertex deletion is missing or has no completion"
    if jobs == 1:
        shared["jobs1"] = stdout
    elif shared.get("jobs1") != stdout:
        return "--jobs 1 and --jobs 2 reports differ"
    return None


def setup_cli(rng, workdir, tiny, tracer) -> Workload:
    src = Path(htfile.__file__).resolve().parents[1]
    env = child_env(src)
    c4 = HoleyHT(4, bytes([PLUS, PLUS, PLUS, PLUS]))
    cyc_n = 8 if tiny else 24
    on_n, bn_sizes, bn_min = (8, (), 7) if tiny else (16, (20, 26), 8)
    with tracer.span("families.gen"):
        inputs = {"c4": c4, f"cyclic{cyc_n}": gen_cyclic(cyc_n, random_order(rng, cyc_n)),
                  f"on{on_n}": gen_on(on_n), f"bn{bn_min}": gen_bn(bn_min)}
        inputs.update({f"bn{n}": gen_bn(n) for n in bn_sizes})
        if not tiny:
            inputs["on7"] = gen_on(7)
    paths = {}
    for name, s in inputs.items():
        paths[name] = workdir / f"{name}.ht"
        paths[name].write_text(htfile.emit(s), encoding="utf-8")

    def complete_h4(doc):
        return complete(doc.structure, H4_FREE)

    def minimal(jobs, doc):
        return is_minimal_obstruction(doc.structure, H4_FREE, jobs=jobs)

    minimal_reports: dict = {}
    bn_m = inputs[f"bn{bn_min}"]
    calls = [
        Call("classify4 c4", ["classify4"], paths["c4"], _verdict_is, "C4",
             "classify", lambda doc: four_type(doc.structure)),
        Call(f"member cyclic({cyc_n})", ["member", "--allow", "C4"], paths[f"cyclic{cyc_n}"],
             _verdict_is, True, "classify", lambda doc: class_member(doc.structure, CYCLIC),
             index_sizes=(cyc_n,)),
    ]
    for n in bn_sizes[-1:]:
        calls.append(Call(f"validate bn({n})", ["validate"], paths[f"bn{n}"],
                          partial(_check_validate, inputs[f"bn{n}"]), "ok",
                          emit=lambda doc: [htfile.emit_document(doc)]))
    for n in bn_sizes:
        calls.append(Call(f"complete bn({n})", ["complete"], paths[f"bn{n}"], _verdict_is,
                          "Unsat", "completion", complete_h4,
                          index_sizes=(inputs[f"bn{n}"].n,)))
    calls.append(Call(f"complete on({on_n}) --format ht", ["complete", "--format", "ht"],
                      paths[f"on{on_n}"], partial(_check_ht_completion, inputs[f"on{on_n}"]),
                      MINUS, "completion", complete_h4,
                      emit=lambda res: [htfile.emit(res.completion)], index_sizes=(on_n,)))
    once = []
    if not tiny:
        expected_lines: list = []

        def expect_on7() -> str | None:
            comps = all_completions(inputs["on7"], H4_FREE)
            if comps != oracles.enumerate_completions(inputs["on7"], H4_FREE):
                return "all_completions(on(7)) differs from the brute-force oracle"
            expected_lines[:] = [htfile.emit(c).splitlines() for c in comps]
            return None

        once.append(("oracle on(7)", expect_on7))
        calls.append(Call("enumerate on(7)", ["enumerate"], paths["on7"],
                          partial(_check_enumerate_report, expected_lines), 1228,
                          "completion", lambda doc: all_completions(doc.structure, H4_FREE),
                          emit=lambda comps: [htfile.emit(c) for c in comps],
                          index_sizes=(7,)))
    for jobs in (1, 2):
        calls.append(Call(f"minimal-obstruction bn({bn_min}) --jobs {jobs}",
                          ["minimal-obstruction", "--jobs", str(jobs)], paths[f"bn{bn_min}"],
                          partial(_check_minimal_report, bn_m, minimal_reports, jobs), True,
                          "completion", partial(minimal, jobs),
                          emit=lambda rep: [htfile.emit(r.completion)
                                            for r in rep.deletions.values()],
                          index_sizes=(bn_m.n, bn_m.n - 1)))
    ops = [
        Op(call.label,
           partial(_invoke, [sys.executable, "-m", "htour", *call.args, str(call.path)],
                   workdir, env),
           partial(_check_call, call.check), call.expect)
        for call in calls
    ]
    _warm([on_n, 7], tracer)
    return Workload(ops, once=once, calls=calls)


def probe_call(call: Call, tracer, repeats: int) -> tuple[float, float, int]:
    """Time one CLI call in-process, piece by piece: parse, then the index
    build from cold caches, then with warm caches the library call, emit,
    and the whole cli.main, `repeats` times.  Returns the index seconds, the
    median of cli.main minus the library call, and the htfile bytes."""
    text = call.path.read_text(encoding="utf-8")
    with tracer.span("htfile.parse"):
        doc = htfile.parse(text)
    clear_index_caches()
    with tracer.span("core.index_build"):
        for n in call.index_sizes:
            build_index(n)
    index_s = tracer.last("core.index_build")
    overheads = []
    for _ in range(repeats):
        result = doc
        lib_s = 0.0
        if call.lib is not None:
            with tracer.span(call.lib_layer):
                result = call.lib(doc)
            lib_s = tracer.last(call.lib_layer)
        with tracer.span("htfile.emit"):
            texts = call.emit(result)
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("cli.main"):
                code = cli.main([*call.args, str(call.path)])
        if code != 0:
            raise RuntimeError(f"in-process cli.main failed on {call.label}: exit {code}")
        overheads.append(tracer.last("cli.main") - lib_s)
    clear_index_caches()
    return index_s, statistics.median(overheads), len(text) + sum(map(len, texts))


SETUPS = {
    "solve": setup_solve,
    "enumerate": setup_enumerate,
    "ordered": setup_ordered,
    "cli": setup_cli,
}
