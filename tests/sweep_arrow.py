"""Every arrow check and embedding search on 5 vertices against the oracles.

    PYTHONPATH=src python tests/sweep_arrow.py

Free (ALL) expansions under the identity order: `arrow_check(big, mid,
small)` with 2 colours for every hole-free big table on 5 vertices, every
holey mid table on 4 and every small table on 3 (1,024 x 81 x 3 = 248,832
cases), against `oracles.least_refuting_coloring` (verdict, coloring index
and counterexample); and `ramsey.embeddings` for every holey table on 5
vertices against every small table on 3 (59,049 x 3 pairs), against
`oracles.embeddings`.  Nothing is reduced by symmetry.  Prints one line per
disagreement and a summary, and exits 1 if any input disagrees.

The name keeps pytest from collecting it; tier-1 runs a fixed stride of the
same cases (tests/test_ramsey.py) through the helpers below.
"""

from __future__ import annotations

import sys
import time
from itertools import product
from math import comb

from htour import oracles, ramsey
from htour.core import HOLE, MINUS, PLUS, HoleyHT
from htour.ramsey import ExpansionKind, OrderedHT

FULL = (PLUS, MINUS)
HOLEY = (HOLE, PLUS, MINUS)


def free_structures(n: int, values) -> list[OrderedHT]:
    """Every table on n vertices with entries from `values`, as a free
    expansion under the identity order, in counter order: structure i gives
    the triple of rank r digit r of i in base len(values)."""
    identity = tuple(range(1, n + 1))
    return [OrderedHT(HoleyHT(n, bytes(digits[::-1])), identity, ExpansionKind.ALL)
            for digits in product(values, repeat=comb(n, 3))]


def check_embeddings(small: OrderedHT, big: OrderedHT) -> None:
    """Raise AssertionError unless the embedding search agrees with the
    oracle."""
    if ramsey.embeddings(small, big) != oracles.embeddings(small, big):
        raise AssertionError(f"embeddings differ: {small!r} into {big!r}")


def check_arrow(big: OrderedHT, mid: OrderedHT, small: OrderedHT,
                colors: int) -> bool:
    """Whether the arrow holds, after raising AssertionError unless
    `arrow_check` agrees with the oracle's plain counter sweep on the
    verdict, the coloring index and the counterexample."""
    verdict = ramsey.arrow_check(big, mid, small, colors=colors)
    found = oracles.least_refuting_coloring(big, mid, small, colors=colors)
    expect = (True, None, None) if found is None else (False, *found)
    if (verdict.holds, verdict.coloring_index, verdict.counterexample) != expect:
        raise AssertionError(f"arrow differs with {colors} colours: "
                             f"{big!r}, {mid!r}, {small!r}: {verdict} against {found}")
    return verdict.holds


def main() -> int:
    start = time.perf_counter()
    bad = held = 0
    bigs, mids = free_structures(5, FULL), free_structures(4, HOLEY)
    smalls = free_structures(3, HOLEY)
    for big, mid, small in product(bigs, mids, smalls):
        try:
            held += check_arrow(big, mid, small, 2)
        except AssertionError as fault:
            bad += 1
            print(fault)
    arrows = time.perf_counter() - start
    for big, small in product(free_structures(5, HOLEY), smalls):
        try:
            check_embeddings(small, big)
        except AssertionError as fault:
            bad += 1
            print(fault)
    print(f"{len(bigs) * len(mids) * len(smalls)} arrow checks ({held} held) in "
          f"{arrows:.1f} s, {3 ** 10 * len(smalls)} embedding pairs in "
          f"{time.perf_counter() - start - arrows:.1f} s: {bad} disagreed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
