"""Command-line front end.

Subcommands that generate structures print the text format (htfile); those
that decide something print one JSON report object with a fixed field order:
schema, command, inputs, verdict, witness, timing.  Exit codes: 0 for any
definite verdict (Sat and Unsat both count), 2 for input errors, 3 for guard
refusals.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import htfile
from .classify import ConstraintSet, class_member, four_type
from .core import (
    GuardExceeded,
    HoleyHT,
    InputError,
    MINUS,
    PLUS,
    check_order,
    hat,
)
from .completion import all_completions, complete, is_minimal_obstruction
from .families import (
    LinkKind,
    gadget,
    gen_bn,
    gen_cyclic,
    gen_even,
    gen_on,
    gen_onneg,
)
from .rand import random_graph
from .ramsey import ExpansionKind, OrderedHT, arrow_check, compatible_orders_cyclic

REPORT_SCHEMA = "htour.report/1"


def _report(command: str, inputs: dict, verdict, witness, args, started: float,
            timing: dict | None = None) -> str:
    """The JSON report; `timing` adds fields to the timing object, which is
    present only with --timing."""
    doc = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "inputs": inputs,
        "verdict": verdict,
        "witness": witness,
        "timing": (
            {"seconds": round(time.perf_counter() - started, 6), **(timing or {})}
            if getattr(args, "timing", False)
            else None
        ),
    }
    return json.dumps(doc, indent=2) + "\n"


def _read_document(path: str) -> htfile.Document:
    if path == "-":
        return htfile.parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return htfile.parse(fh.read())


def _structure_lines(structure: HoleyHT) -> list[str]:
    return htfile.emit(structure).splitlines()


def _parse_order_flag(text: str, n: int) -> tuple[int, ...]:
    try:
        parts = [int(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad order {text!r}") from exc
    return check_order(parts, n)


# -- subcommand handlers -----------------------------------------------------


def _cmd_gen(args) -> int:
    started = time.perf_counter()
    family = args.family
    fixed4 = {
        "h4": HoleyHT(4, bytes([PLUS, MINUS, PLUS, MINUS])),
        "o4": HoleyHT(4, bytes([PLUS, MINUS, MINUS, MINUS])),
        "c4": HoleyHT(4, bytes([PLUS, PLUS, PLUS, PLUS])),
        "g": gadget(LinkKind.FWD),
        "gneg": gadget(LinkKind.FWD_NEG),
    }
    order = None
    edges = None
    if family in fixed4:
        structure = fixed4[family]
    elif family in ("on", "onneg", "bn"):
        if args.n is None:
            raise InputError(f"--family {family} needs --n")
        structure = {"on": gen_on, "onneg": gen_onneg, "bn": gen_bn}[family](args.n)
    elif family == "cyclic":
        if args.n is None:
            raise InputError("--family cyclic needs --n")
        order = (
            _parse_order_flag(args.order, args.n)
            if args.order
            else tuple(range(1, args.n + 1))
        )
        structure = gen_cyclic(args.n, order)
    elif family == "even":
        if args.n is None:
            raise InputError("--family even needs --n")
        order = (
            _parse_order_flag(args.order, args.n)
            if args.order
            else tuple(range(1, args.n + 1))
        )
        edges = random_graph(random.Random(args.seed), args.n)
        structure = gen_even(args.n, edges, order)
    else:
        raise InputError(f"unknown family {family!r}")

    if args.format == "report":
        sys.stdout.write(
            _report(
                "gen",
                {"family": family, "n": structure.n, "seed": args.seed},
                "ok",
                {
                    "structure": _structure_lines(structure),
                    "order": list(order) if order else None,
                    "edges": sorted(edges) if edges else None,
                },
                args,
                started,
            )
        )
    else:
        sys.stdout.write(htfile.emit(structure, order, edges))
    return 0


def _cmd_validate(args) -> int:
    started = time.perf_counter()
    doc = _read_document(args.file)
    if args.format == "ht":
        sys.stdout.write(htfile.emit_document(doc))
        return 0
    sys.stdout.write(
        _report(
            "validate",
            {"file": args.file, "n": doc.n},
            "ok",
            {
                "assigned": doc.structure.assigned_count(),
                "holes": doc.structure.hole_count(),
                "canonical": htfile.emit_document(doc).splitlines(),
            },
            args,
            started,
        )
    )
    return 0


def _cmd_classify4(args) -> int:
    started = time.perf_counter()
    doc = _read_document(args.file)
    t = four_type(doc.structure)
    sys.stdout.write(
        _report("classify4", {"file": args.file}, t.value, None, args, started)
    )
    return 0


def _cmd_member(args) -> int:
    started = time.perf_counter()
    doc = _read_document(args.file)
    allowed = ConstraintSet.parse(args.allow)
    res = class_member(doc.structure, allowed)
    sys.stdout.write(
        _report(
            "member",
            {"file": args.file, "allow": allowed.label()},
            bool(res),
            {"offending": list(res.witness)} if res.witness else None,
            args,
            started,
        )
    )
    return 0


def _cmd_hat(args) -> int:
    started = time.perf_counter()
    doc = _read_document(args.file)
    if args.order:
        order = _parse_order_flag(args.order, doc.n)
    elif doc.order is not None:
        order = doc.order
    else:
        order = tuple(range(1, doc.n + 1))
    hyper = hat(doc.structure, order)
    sys.stdout.write(
        _report(
            "hat",
            {"file": args.file, "order": list(order)},
            "ok",
            {"hyperedges": sorted(list(e) for e in hyper.hyperedges)},
            args,
            started,
        )
    )
    return 0


def _cmd_complete(args) -> int:
    started = time.perf_counter()
    doc = _read_document(args.file)
    allowed = ConstraintSet.parse(args.allow)
    res = complete(doc.structure, allowed)
    if args.format == "ht" and res.sat:
        sys.stdout.write(htfile.emit(res.completion))
        return 0
    witness = (
        {"completion": _structure_lines(res.completion)}
        if res.sat
        else {"conflicts": [list(q) for q in res.conflicts]}
    )
    witness["nodes"] = res.nodes
    sys.stdout.write(
        _report(
            "complete",
            {"file": args.file, "allow": allowed.label()},
            res.verdict,
            witness,
            args,
            started,
        )
    )
    return 0


def _cmd_enumerate(args) -> int:
    started = time.perf_counter()
    doc = _read_document(args.file)
    allowed = ConstraintSet.parse(args.allow)
    comps = all_completions(doc.structure, allowed, cap=args.cap)
    if args.format == "ht":
        sys.stdout.write("\n".join(htfile.emit(c) for c in comps))
        return 0
    sys.stdout.write(
        _report(
            "enumerate",
            {"file": args.file, "allow": allowed.label(), "cap": args.cap},
            len(comps),
            {"completions": [_structure_lines(c) for c in comps]},
            args,
            started,
        )
    )
    return 0


def _cmd_minimal_obstruction(args) -> int:
    started = time.perf_counter()
    doc = _read_document(args.file)
    allowed = ConstraintSet.parse(args.allow)
    rep = is_minimal_obstruction(doc.structure, allowed, jobs=args.jobs)
    per_vertex = {
        str(v): {
            "verdict": r.verdict,
            "completion": _structure_lines(r.completion) if r.sat else None,
        }
        for v, r in sorted(rep.deletions.items())
    }
    sys.stdout.write(
        _report(
            "minimal-obstruction",
            {"file": args.file, "allow": allowed.label()},
            rep.is_minimal,
            {"whole": rep.whole.verdict, "deletions": per_vertex},
            args,
            started,
        )
    )
    return 0


def _cmd_orders_count(args) -> int:
    started = time.perf_counter()
    doc = _read_document(args.file)
    orders = compatible_orders_cyclic(doc.structure)
    sys.stdout.write(
        _report(
            "orders-count",
            {"file": args.file, "n": doc.n},
            len(orders),
            {"orders": [list(o) for o in orders]},
            args,
            started,
        )
    )
    return 0


def _ordered_from_doc(doc: htfile.Document, kind: ExpansionKind) -> OrderedHT:
    if doc.order is None:
        raise InputError("ramsey inputs need an 'order:' section")
    return OrderedHT(doc.structure, doc.order, kind, doc.edges)


def _cmd_ramsey(args) -> int:
    started = time.perf_counter()
    if args.sizes:
        try:
            nc, nb, na = (int(p) for p in args.sizes.replace(",", " ").split())
        except ValueError as exc:
            raise InputError(f"--sizes wants three integers, got {args.sizes!r}") from exc

        def mk(n):
            return OrderedHT(gen_cyclic(n), tuple(range(1, n + 1)), ExpansionKind.CYCLIC)

        big, mid, small = mk(nc), mk(nb), mk(na)
        inputs = {"sizes": [nc, nb, na], "kind": "cyclic"}
    elif args.files:
        kind = ExpansionKind(args.kind)
        docs = [_read_document(p) for p in args.files]
        big, mid, small = (_ordered_from_doc(d, kind) for d in docs)
        inputs = {"files": args.files, "kind": args.kind}
    else:
        raise InputError("ramsey needs --sizes C,B,A or --files C B A")
    verdict = arrow_check(
        big, mid, small, prune=args.prune, max_embeddings=args.max_embeddings
    )
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
    sys.stdout.write(
        _report("ramsey", inputs, verdict.holds, witness, args, started)
    )
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verify

    started = time.perf_counter()
    summary = run_verify(args.level, jobs=args.jobs, out=sys.stderr)
    # per-item runtimes differ from run to run, so they go under timing
    item_seconds = {item["name"]: item.pop("seconds") for item in summary["items"]}
    sys.stdout.write(
        _report(
            "verify",
            {"level": args.level},
            summary["ok"],
            summary,
            args,
            started,
            {"items": item_seconds},
        )
    )
    return 0 if summary["ok"] else 1


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htour",
        description="Finite 3-hypertournament toolkit: classify, complete, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, file_arg=True):
        if file_arg:
            p.add_argument(
                "file", nargs="?", default="-",
                help="input file in htour text format ('-' = stdin)",
            )
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report")

    p = sub.add_parser("gen", help="generate a named structure")
    p.add_argument("--family", required=True,
                   choices=["h4", "o4", "c4", "g", "gneg", "on", "onneg", "bn",
                            "cyclic", "even"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random graph of --family even")
    p.add_argument("--order", default=None,
                   help="comma-separated order for cyclic/even")
    p.add_argument("--format", choices=["ht", "report"], default="ht")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="parse and canonicalize a structure")
    add_common(p)
    p.add_argument("--format", choices=["report", "ht"], default="report")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify4", help="type of a 4-vertex structure")
    add_common(p)
    p.set_defaults(func=_cmd_classify4)

    p = sub.add_parser("member", help="4-constrained class membership")
    add_common(p)
    p.add_argument("--allow", default="C4,O4")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("hat", help="hypergraph of a structure under an order")
    add_common(p)
    p.add_argument("--order", default=None)
    p.set_defaults(func=_cmd_hat)

    p = sub.add_parser("complete", help="find a completion inside a class")
    add_common(p)
    p.add_argument("--allow", default="C4,O4")
    p.add_argument("--format", choices=["report", "ht"], default="report")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("enumerate", help="list all completions")
    add_common(p)
    p.add_argument("--allow", default="C4,O4")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--format", choices=["report", "ht"], default="report")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("minimal-obstruction",
                       help="no completion, all single-vertex deletions completable")
    add_common(p)
    p.add_argument("--allow", default="C4,O4")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_minimal_obstruction)

    p = sub.add_parser("orders-count", help="orders compatible with a cyclic structure")
    add_common(p)
    p.set_defaults(func=_cmd_orders_count)

    p = sub.add_parser("ramsey", help="exhaustive arrow check C -> (B)^A_2")
    p.add_argument("--sizes", default=None,
                   help="C,B,A sizes for ordered cyclic structures")
    p.add_argument("--files", nargs=3, default=None, metavar=("C", "B", "A"))
    p.add_argument("--kind", choices=["cyclic", "even", "all"], default="all")
    p.add_argument("--prune", action="store_true",
                   help="accepted for compatibility; selects nothing, the "
                   "search always prunes")
    p.add_argument("--max-embeddings", type=int, default=25)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
