"""Command-line front end.

Subcommands that generate structures print the text format (htfile); those
that decide something print one JSON report object with a fixed field order:
schema, command, inputs, verdict, witness, timing.  Exit codes: 0 for any
definite verdict (Sat and Unsat both count), 1 when `verify` finds a failure
or the output pipe closes, 2 for input and usage errors (an unreadable
input file among them), 3 for guard refusals.

`main` alone reads the input file, parses `--allow`, reads the clock and
writes the output; each `_cmd_*` handler only computes.  The clock stops
before anything is written.  Output goes out as it is made: a report in the
layout of `json.dumps(report, indent=2)`, piece by piece, and the text form
of many structures one structure at a time, so `enumerate` holds no more
than its completion tables and one completion's lines, and a closed pipe
stops the writing at the next flush.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import namedtuple

from . import htfile
from .classify import ConstraintSet, class_member, four_type
from .core import (
    GuardExceeded,
    HoleyHT,
    InputError,
    MINUS,
    PLUS,
    VERTEX_GUARD,
    check_order,
    hat,
)

REPORT_SCHEMA = "htour.report/1"


# A handler's report fields.  Only `verify` sets the last two: more fields of
# the timing object (present only with --timing) and the exit code.
_Report = namedtuple("_Report", "inputs verdict witness timing code", defaults=({}, 0))


def _read_document(path: str) -> htfile.Document:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read {path}: {reason}") from exc
    return htfile.parse(text)


def _parse_order_flag(text: str, n: int) -> tuple[int, ...]:
    try:
        parts = [int(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad order {text!r}") from exc
    return check_order(parts, n)


def _guard_vertices(what: str, vertices: int) -> None:
    """Refuse what no reader would accept, before building anything."""
    if vertices > VERTEX_GUARD:
        raise GuardExceeded(
            f"{what} has {vertices} vertices; files are limited to {VERTEX_GUARD}"
        )


# -- subcommand handlers -----------------------------------------------------


def _cmd_gen(args, doc, allowed):
    from . import families

    family = args.family
    fixed4 = {
        "h4": HoleyHT(4, bytes([PLUS, MINUS, PLUS, MINUS])),
        "o4": HoleyHT(4, bytes([PLUS, MINUS, MINUS, MINUS])),
        "c4": HoleyHT(4, bytes([PLUS, PLUS, PLUS, PLUS])),
        "g": families.gadget(families.LinkKind.FWD),
        "gneg": families.gadget(families.LinkKind.FWD_NEG),
    }
    order = None
    edges = None
    if family in fixed4:
        structure = fixed4[family]
    elif family in ("on", "onneg", "bn", "cyclic", "even"):
        if args.n is None:
            raise InputError(f"--family {family} needs --n")
        _guard_vertices(f"--family {family} --n {args.n}",
                        2 * args.n - 3 if family == "bn" else args.n)
        if family in ("on", "onneg", "bn"):
            gen = {"on": families.gen_on, "onneg": families.gen_onneg, "bn": families.gen_bn}
            structure = gen[family](args.n)
        else:
            order = (
                _parse_order_flag(args.order, args.n)
                if args.order
                else tuple(range(1, args.n + 1))
            )
            if family == "cyclic":
                structure = families.gen_cyclic(args.n, order)
            else:
                import random

                from .rand import random_graph

                edges = random_graph(random.Random(args.seed), args.n)
                structure = families.gen_even(args.n, edges, order)
    else:
        raise InputError(f"unknown family {family!r}")

    if args.format == "ht":
        return htfile.emit(structure, order, edges)
    return (
        {"family": family, "n": structure.n, "seed": args.seed},
        "ok",
        {
            "structure": htfile.lines(structure),
            "order": list(order) if order else None,
            "edges": sorted(edges) if edges else None,
        },
    )


def _cmd_validate(args, doc, allowed):
    if args.format == "ht":
        return htfile.emit_document(doc)
    return (
        {"n": doc.n},
        "ok",
        {
            "assigned": doc.structure.assigned_count(),
            "holes": doc.structure.hole_count(),
            "canonical": htfile.lines(*doc),
        },
    )


def _cmd_classify4(args, doc, allowed):
    return {}, four_type(doc.structure).value, None


def _cmd_member(args, doc, allowed):
    res = class_member(doc.structure, allowed)
    return {}, bool(res), {"offending": list(res.witness)} if res.witness else None


def _cmd_hat(args, doc, allowed):
    if args.order:
        order = _parse_order_flag(args.order, doc.n)
    elif doc.order is not None:
        order = doc.order
    else:
        order = tuple(range(1, doc.n + 1))
    hyper = hat(doc.structure, order)
    return (
        {"order": list(order)},
        "ok",
        {"hyperedges": sorted(list(e) for e in hyper.hyperedges)},
    )


def _cmd_complete(args, doc, allowed):
    from .completion import complete

    res = complete(doc.structure, allowed)
    if args.format == "ht" and res.sat:
        return htfile.emit(res.completion)
    witness = (
        {"completion": htfile.lines(res.completion)}
        if res.sat
        else {"conflicts": [list(q) for q in res.conflicts]}
    )
    witness["nodes"] = res.nodes
    return {}, res.verdict, witness


def _cmd_enumerate(args, doc, allowed):
    from .completion import all_completions

    comps = all_completions(doc.structure, allowed, cap=args.cap)
    if args.format == "ht":
        # one table at a time, a blank line between two
        return (("\n" if i else "") + htfile.emit(c) for i, c in enumerate(comps))
    return {"cap": args.cap}, len(comps), {"completions": map(htfile.lines, comps)}


def _cmd_minimal_obstruction(args, doc, allowed):
    from .completion import is_minimal_obstruction

    rep = is_minimal_obstruction(doc.structure, allowed, jobs=args.jobs)
    per_vertex = {
        str(v): {
            "verdict": r.verdict,
            "completion": htfile.lines(r.completion) if r.sat else None,
        }
        for v, r in sorted(rep.deletions.items())
    }
    return {}, rep.is_minimal, {"whole": rep.whole.verdict, "deletions": per_vertex}


def _cmd_orders_count(args, doc, allowed):
    from .ramsey import compatible_orders_cyclic

    orders = compatible_orders_cyclic(doc.structure)
    return {"n": doc.n}, len(orders), {"orders": [list(o) for o in orders]}


def _ordered_from_doc(doc: htfile.Document, kind):
    from .ramsey import OrderedHT

    if doc.order is None:
        raise InputError("ramsey inputs need an 'order:' section")
    return OrderedHT(doc.structure, doc.order, kind, doc.edges)


def _cmd_ramsey(args, doc, allowed):
    from . import families
    from .ramsey import ExpansionKind, OrderedHT, arrow_check

    if args.sizes:
        try:
            sizes = [int(p) for p in args.sizes.replace(",", " ").split()]
            nc, nb, na = sizes
        except ValueError as exc:
            raise InputError(f"--sizes wants three integers, got {args.sizes!r}") from exc
        for n in sizes:
            _guard_vertices(f"--sizes entry {n}", n)

        def mk(n):
            return OrderedHT(families.gen_cyclic(n), tuple(range(1, n + 1)),
                             ExpansionKind.CYCLIC)

        big, mid, small = mk(nc), mk(nb), mk(na)
        inputs = {"sizes": sizes, "kind": "cyclic"}
    elif args.files:
        kind = ExpansionKind(args.kind)
        docs = [_read_document(p) for p in args.files]
        big, mid, small = (_ordered_from_doc(d, kind) for d in docs)
        inputs = {"files": args.files, "kind": args.kind}
    else:
        raise InputError("ramsey needs --sizes C,B,A or --files C B A")
    verdict = arrow_check(big, mid, small, max_embeddings=args.max_embeddings)
    witness = {
        "embeddings": len(verdict.a_embeddings),
        "copies": verdict.b_copies,
        "colorings": verdict.colorings,
    }
    if not verdict.holds:
        witness["counterexample"] = {
            "coloring_index": verdict.coloring_index,
            "colors": [
                {"embedding": list(e), "color": c}
                for e, c in zip(verdict.a_embeddings, verdict.counterexample)
            ],
        }
    return inputs, verdict.holds, witness


def _cmd_verify(args, doc, allowed):
    from .verify import run_verify

    summary = run_verify(args.level, out=sys.stderr)
    # per-item runtimes differ from run to run, so they go under timing
    item_seconds = {item["name"]: item.pop("seconds") for item in summary["items"]}
    return _Report({"level": args.level}, summary["ok"], summary,
                   {"items": item_seconds}, 0 if summary["ok"] else 1)


# -- output ---------------------------------------------------------------

_encode = json.encoder.encode_basestring_ascii
_SCALARS = (str, int, float, type(None))


@functools.lru_cache(maxsize=None)
def _scalars_encoder(sep: str):
    return json.JSONEncoder(separators=(sep, ": ")).encode


def _flat_items(value, sep: str) -> str | None:
    """The items of a nonempty list of scalars, encoded and joined by `sep`;
    None for any other list."""
    if isinstance(value[0], str):
        try:
            return sep.join(map(_encode, value))
        except TypeError:  # not only strings
            return None
    if all(isinstance(item, _SCALARS) for item in value):
        return _scalars_encoder(sep)(value)[1:-1]
    return None


def _write_json(write, value, indent: str = "\n") -> None:
    """Write `value` exactly as `json.dumps(value, indent=2)` lays it out,
    piece by piece: an iterator goes out as a list, one item at a time, and
    a nonempty list of scalars in one piece.  Keys and strings are encoded
    by the stdlib's encoder, every other scalar by `json.dumps`; keys must
    be strings."""
    inner = indent + "  "
    if isinstance(value, str):
        write(_encode(value))
    elif isinstance(value, dict):
        sep = "{" + inner
        for key, item in value.items():
            write(sep + _encode(key) + ": ")
            _write_json(write, item, inner)
            sep = "," + inner
        write(indent + "}" if value else "{}")
    elif isinstance(value, (list, tuple)) and value and (
            flat := _flat_items(value, "," + inner)) is not None:
        write("[" + inner + flat + indent + "]")
    elif isinstance(value, (list, tuple)) or hasattr(value, "__next__"):
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(write, item, inner)
            sep = "," + inner
        write("[]" if sep == "[" + inner else indent + "]")
    else:
        write(json.dumps(value))


# -- parser --------------------------------------------------------------


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htour",
        description="Finite 3-hypertournament toolkit: classify, complete, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, file=True, formats=(), allow=False):
        p = sub.add_parser(name, help=help)
        if file:
            p.add_argument("file", nargs="?", default="-",
                           help="input file in htour text format ('-' = stdin)")
        if allow:
            p.add_argument("--allow", default="C4,O4")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report")
        p.set_defaults(func=handler)
        return p

    p = add("gen", _cmd_gen, "generate a named structure", file=False,
            formats=["ht", "report"])
    p.add_argument("--family", required=True,
                   choices=["h4", "o4", "c4", "g", "gneg", "on", "onneg", "bn",
                            "cyclic", "even"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random graph of --family even")
    p.add_argument("--order", default=None,
                   help="comma-separated order for cyclic/even")
    add("validate", _cmd_validate, "parse and canonicalize a structure",
        formats=["report", "ht"])
    add("classify4", _cmd_classify4, "type of a 4-vertex structure")
    add("member", _cmd_member, "4-constrained class membership", allow=True)
    p = add("hat", _cmd_hat, "hypergraph of a structure under an order")
    p.add_argument("--order", default=None)
    add("complete", _cmd_complete, "find a completion inside a class",
        formats=["report", "ht"], allow=True)
    p = add("enumerate", _cmd_enumerate, "list all completions",
            formats=["report", "ht"], allow=True)
    p.add_argument("--cap", type=int, default=None)
    p = add("minimal-obstruction", _cmd_minimal_obstruction,
            "no completion, all single-vertex deletions completable", allow=True)
    p.add_argument("--jobs", type=_jobs, default=1)
    add("orders-count", _cmd_orders_count, "orders compatible with a cyclic structure")
    p = add("ramsey", _cmd_ramsey, "exhaustive arrow check C -> (B)^A_2", file=False)
    structures = p.add_mutually_exclusive_group()
    structures.add_argument("--sizes", default=None,
                            help="C,B,A sizes for ordered cyclic structures")
    structures.add_argument("--files", nargs=3, default=None, metavar=("C", "B", "A"))
    p.add_argument("--kind", choices=["cyclic", "even", "all"], default="all")
    p.add_argument("--max-embeddings", type=int, default=25)
    p = add("verify", _cmd_verify, "run the acceptance checks", file=False)
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        doc = _read_document(args.file) if "file" in args else None
        allowed = ConstraintSet.parse(args.allow) if "allow" in args else None
        result = args.func(args, doc, allowed)
        if not isinstance(result, tuple):
            # text: one string, or its pieces as they are made
            sys.stdout.writelines([result] if isinstance(result, str) else result)
            return 0
        report = _Report(*result)
        inputs = {"file": args.file} if doc is not None else {}
        if allowed is not None:
            inputs["allow"] = allowed.label()
        timing = (
            {"seconds": round(time.perf_counter() - started, 6), **report.timing}
            if args.timing
            else None
        )
        _write_json(sys.stdout.write, {
            "schema": REPORT_SCHEMA,
            "command": args.command,
            "inputs": {**inputs, **report.inputs},
            "verdict": report.verdict,
            "witness": report.witness,
            "timing": timing,
        })
        sys.stdout.write("\n")
        return report.code
    except GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe (e.g. piping into head); exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
