"""Completion of holey 3-hypertournaments inside a 4-constrained class.

A completion assigns PLUS or MINUS to every hole so that all 4-vertex
substructures stay inside the allowed type set.  The solver is a
deterministic backtracking search over hole triples with unit propagation
at the 4-subset level: whenever a 4-subset has a single unassigned triple,
any orientation that would push it outside the class is excluded; if both
are excluded the 4-subset is a conflict.

There is one search loop, `_Engine.search`: a depth-first search over the
assignment trail with an explicit stack of (rank, trail mark) frames, after
MiniSat (Een and Sorensson, SAT 2003).  It is one flat loop that calls an
engine method only to backtrack: each turn pops the worklist, or at an
empty worklist decides the least-rank hole PLUS, or yields a completion; a
conflict or a completion backtracks, undoing the trail to just after the
latest decision and flipping it to MINUS in place.  Every forced, decided
or flipped value goes through the one row block at the foot of the loop.
Branching PLUS before MINUS on the least-rank hole, it yields the
completions in lexicographic order of the hole assignment vector (a forced
value is the only one that any completion below the node takes).  Its
callers differ only in when they stop: `complete` takes the first
completion, the least one, which is `all_completions(structure, allowed,
cap=1)[0]`; `all_completions` takes up to `cap` of them; `propagate` runs
the same loop up to its first branch.  Propagation worklists are FIFO, so
identical inputs give identical results.  The search is iterative and
changes no interpreter-wide state.

Propagation judges a 4-subset by one lookup in the constraint set's 81-entry
action table (see classify.ConstraintSet.action_table), keyed by the code
v0 + 3*v1 + 9*v2 + 27*v3 of its four table values: nothing to do, a
conflict, or which hole is forced to which value.  The engine keeps each
4-subset's code as it searches: assigning a triple adds its value times
3**pos to the code of every 4-subset through it (pos is the triple's place
in the 4-subset, tagged on each entry of the index), flipping it from PLUS
to MINUS adds the difference, 3**pos, and undoing it takes its weight off.
HOLE is 0, so the code also shows which triples are holes.  There is one
judging rule: the row block judges a 4-subset once, when its code falls to
one hole, and queues it only when its action is not 0 (one lookup in the
constraint set's queue table); a 4-subset whose last hole fills is never
queued.  The root adds up the input's codes from a table of holes by the
same rule, so its queue is the 4-subsets with at most one hole whose input
code acts, in ascending id order (core's colex ids, the order of the class
test too).  The order of the forced values, and which conflicting 4-subset
is met first, follow the ids; the fixpoint, and so the node counts and the
completions, do not.  A pop is one lookup, `action[code]`, and reads no
table value.  Only no-op pops go: a one-hole 4-subset's three
assigned triples cannot change during a propagation, so its action when
queued is its action when popped, until its hole fills; and if both values
were allowed then, any fill is allowed too.  The entries that are kept keep
their FIFO order, so trails, conflicts and node counts are those of
queueing a 4-subset whenever it falls to one hole or to none.  The flip
gives the codes, and so the queue, of undoing the decision and assigning
MINUS.  The 4-subset index is core's, and both its halves are computed on
first read and kept for as long as it is cached: the 4-subsets through a
triple, its row in triple_quad_ids, read at every assignment, and the
triple ranks of a 4-subset in quad_triple_ranks, read only to name the hole
of a forced pop.

Soundness is checked on every run, outside the search: every table that
`complete` or `all_completions` returns must be hole-free, keep every
assigned triple of the input (one masked int compare per table) and lie in
the class, or a RuntimeError is raised.  The class test is one call of
classify.first_offence on all the tables, which chunks them itself: one
table, such as the completion of `complete`, goes through its block kernel,
which takes about C(n-1,2) Python steps; a wide chunk of an enumeration's
completions is judged column-wise, so it pays one pass over the 4-subsets
per chunk instead of one per completion.  Neither reads a 4-subset index.
The tables that pass become structures without a second validation
(HoleyHT._trusted).
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from collections.abc import Iterator
from functools import partial
from math import comb

from .classify import ConstraintSet, class_member, first_offence
from .core import (
    HOLE,
    MINUS,
    PLUS,
    GuardExceeded,
    HoleyHT,
    InputError,
    _LANE,
    glue,
    quad_triple_ranks,
    quad_vertices,
    triple_of_rank,
    triple_quad_ids,
)

ENUMERATION_HOLE_GUARD = 30
# is_minimal_obstruction spreads its deletions over a process pool only when
# their work, estimated as the row entries that filling every deletion walks
# (n * holes * (n - 4) on n vertices), reaches this; below it, starting the
# pool costs more than it saves (importing concurrent.futures.process alone
# adds about 18 ms to a child).  Measured as child processes, --jobs 2
# against --jobs 1 in alternating runs (Python 3.11.7, shared 2-CPU box),
# --jobs 2 won 1 of 7 on bn(9), 0 of 7 on bn(10), 1 of 7 on bn(11) (estimate
# 263,625), 1 of 14 on bn(12) (457,674; medians 0.133 against 0.148 s),
# 11 of 14 on bn(13) (751,203; 0.169 against 0.166 s) and 7 of 7 on each of
# bn(14) to bn(16) (bn(16): 0.409 against 0.328 s).  The bound lies between
# bn(12) and bn(13)
_SPREAD_WORK = 600_000
# all_completions holds at most this many bytes of tables, cap or not:
# enumerate --cap 40000 on on(8) holds 2.2 MB
_ENUMERATION_BYTES = 1 << 22
# translate table: 0xFF at assigned values, 0 at holes
_ASSIGNED_MASK = bytes([0, 0xFF, 0xFF]) + bytes(253)
# by old and new table value: the change of a 4-subset code when a triple
# at place 0, 1, 2, 3 of it goes from old to new (HOLE, PLUS, MINUS are
# 0, 1, 2)
_DELTAS = tuple(
    tuple(tuple((new - old) * 3 ** pos for pos in range(4)) for new in range(3))
    for old in range(3)
)
# by forcing action pos << 2 | value: the shift of the hole's lane in qt[qi]
_SHIFT = tuple(_LANE * (act >> 2) for act in range(16))
_RANK = (1 << _LANE) - 1


class SolveResult(namedtuple("SolveResult", "sat completion conflicts nodes",
                             defaults=(None, (), 0))):
    """Verdict of a completion search.

    For Sat, `completion` extends the input, lies in the class and is the
    least completion in the order of all_completions.  For Unsat,
    `conflicts` lists the 4-subsets (vertex tuples) that produced conflicts
    along the exhausted search tree, deduplicated and sorted; no minimality
    is promised.
    """

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return "Sat" if self.sat else "Unsat"


class PropagationResult(namedtuple("PropagationResult", "ok structure forced conflict",
                                   defaults=(None, (), None))):
    """Fixpoint of unit propagation, or the 4-subset where it conflicted."""

    __slots__ = ()


class MinimalityReport(namedtuple("MinimalityReport", "is_minimal whole deletions")):
    """is_minimal_obstruction verdict with its per-vertex witnesses:
    `deletions` maps each deleted vertex to its SolveResult (empty when the
    whole structure completes)."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.is_minimal


class _Engine:
    """Search state over a mutable copy of the orientation table.

    `code[qi]` is the code v0 + 3*v1 + 9*v2 + 27*v3 of 4-subset qi over the
    current table, kept as triples are assigned and undone.  HOLE is 0, so a
    hole adds nothing, and the code shows both the values and which triples
    are holes: the solver keeps no separate hole count."""

    __slots__ = (
        "n",
        "table",
        "qt",
        "rows",
        "action",
        "queue",
        "code",
        "trail",
        "root",
        "conflicts",
        "nodes",
    )

    def __init__(self, structure: HoleyHT, allowed: ConstraintSet) -> None:
        self.n = n = structure.n
        given = structure.table
        self.table = bytearray(given)
        # qt[qi] packs quad qi's triple ranks; the tagged entries 4*qi + pos
        # of the quads through the triple of rank r are rows[r]
        self.qt = quad_triple_ranks(n)
        self.rows = rows = triple_quad_ids(n)
        self.action = action = allowed.action_table
        self.queue = queue = allowed.queue_table
        self.code = code = [0] * comb(n, 4)
        self.trail: list[int] = []
        self.conflicts: set = set()
        self.nodes = 0
        # the input's codes, added up triple by triple from a table of holes.
        # A quad passes through one hole at most once on the way, and its
        # queue entry there keeps every quad that acts at the end with at
        # most one hole (a full quad that offends had only one allowed fill
        # at one hole); sorted, the root queue is in quad order
        seen = []
        for r in itertools.compress(range(len(given)), given):
            weight = _DELTAS[HOLE][given[r]]
            for e in rows[r]:
                qi = e >> 2
                c = code[qi] + weight[e & 3]
                code[qi] = c
                if queue[c]:
                    seen.append(qi)
        self.root = deque(sorted(qi for qi in seen if action[code[qi]]))

    def undo_to(self, mark: int) -> None:
        """Cut the trail back to `mark`, making its triples holes again and
        taking their weights off the codes (in any order: the weights add
        up the same)."""
        table = self.table
        trail = self.trail
        code = self.code
        rows = self.rows
        for rank in trail[mark:]:
            weight = _DELTAS[table[rank]][HOLE]
            table[rank] = HOLE
            for e in rows[rank]:
                code[e >> 2] += weight[e & 3]
        del trail[mark:]

    def search(self, branch: bool = True) -> Iterator[bytes]:
        """Yield every completion, depth first, branching on the least-rank
        hole, PLUS before MINUS, so completions come out in lexicographic
        order; with `branch` false, stop at the first branch instead, at
        the root's propagation fixpoint or conflict.

        Each turn of the loop pops the worklist, decides, or yields and
        backtracks, and every value it sets (forced, decided or flipped)
        goes through the one row block at its foot.  One frame (rank, trail
        mark) is stacked per decision whose MINUS branch is still to be
        tried; a conflict or a yielded completion pops the latest frame,
        undoes the trail to just after the decision and flips it to MINUS in
        place: the decision keeps its place on the trail, and adding the
        difference of the two weights gives each code, and so the queue,
        that undoing it and assigning MINUS would give.  The search runs on
        one worklist, the root's, cleared after a conflict.

        A queued quad had a nonzero action when it was queued.  Its three
        assigned triples cannot change before its pop, so the pop re-judges
        its current code only for the case that its hole filled meanwhile:
        then it gives 0 or a conflict.  A quad whose last hole fills is
        never queued: it had one hole just before, and either it was queued
        then, or both values were allowed and so is any fill."""
        stack: list[tuple[int, int]] = []
        worklist = self.root
        popleft, push = worklist.popleft, worklist.append
        table, trail, code, rows = self.table, self.trail, self.code, self.rows
        qt, shift, mask = self.qt, _SHIFT, _RANK
        action, queue, deltas = self.action, self.queue, _DELTAS
        conflicts, n, undo_to = self.conflicts, self.n, self.undo_to
        self.nodes += 1
        while True:
            if worklist:
                qi = popleft()
                act = action[code[qi]]
                if not act:
                    continue
                if act > 0:
                    rank, value = qt[qi] >> shift[act] & mask, act & 3
                else:
                    conflicts.add(quad_vertices(n, qi))
                    worklist.clear()
                    rank = -1
            elif not branch:
                return
            else:
                rank = table.find(HOLE)
                if rank >= 0:
                    stack.append((rank, len(trail)))
                    self.nodes += 1
                    value = PLUS
                else:
                    yield bytes(table)
            if rank < 0:
                if not stack:
                    return
                rank, mark = stack.pop()
                self.nodes += 1
                undo_to(mark + 1)
                value = MINUS
            # the row block: a hole goes on the trail, a flip keeps its place
            old = table[rank]
            if not old:
                trail.append(rank)
            table[rank] = value
            weight = deltas[old][value]
            for e in rows[rank]:
                qi = e >> 2
                c = code[qi] + weight[e & 3]
                code[qi] = c
                if queue[c]:
                    push(qi)


def _check_sound(structure: HoleyHT, allowed: ConstraintSet, tables) -> None:
    """Raise unless every table is a completion of `structure` in the class:
    no hole, every assigned triple of `structure` kept, every 4-subset
    allowed (one class test over the batch, which bounds its own memory)."""
    given = structure.table
    keep = int.from_bytes(given.translate(_ASSIGNED_MASK), "little")
    want = int.from_bytes(given, "little")
    for table in tables:
        if HOLE in table or int.from_bytes(table, "little") & keep != want:
            raise RuntimeError("solver produced an unsound completion")
    if first_offence(structure.n, tables, allowed) is not None:
        raise RuntimeError("solver produced an unsound completion")


def propagate(structure: HoleyHT, allowed) -> PropagationResult:
    """Unit propagation to fixpoint, without search.

    Every forced orientation is sound: the discarded one would put some
    4-subset outside the class, so it appears in no completion.
    """
    allowed = ConstraintSet.coerce(allowed)
    engine = _Engine(structure, allowed)
    # up to its first branch the search yields nothing; a conflict ends it
    next(engine.search(branch=False), None)
    if engine.conflicts:
        return PropagationResult(ok=False, conflict=engine.conflicts.pop())
    n, table = structure.n, engine.table
    forced = tuple((triple_of_rank(n, r), table[r]) for r in engine.trail)
    return PropagationResult(
        ok=True,
        structure=HoleyHT(structure.n, bytes(engine.table)),
        forced=forced,
    )


def complete(structure: HoleyHT, allowed) -> SolveResult:
    """Decide whether a completion exists; return one if so.

    Complete and sound: Sat iff some hole assignment stays in the class.
    The search branches on the least-rank hole, PLUS first, so the
    completion is the least one in enumeration order:
    `all_completions(structure, allowed, cap=1)[0]`.
    """
    allowed = ConstraintSet.coerce(allowed)
    engine = _Engine(structure, allowed)
    table = next(engine.search(), None)
    completion = None
    if table is not None:
        _check_sound(structure, allowed, [table])
        completion = HoleyHT._trusted(structure.n, table)
    return SolveResult(
        sat=completion is not None,
        completion=completion,
        conflicts=tuple(sorted(engine.conflicts)),
        nodes=engine.nodes,
    )


def all_completions(structure: HoleyHT, allowed, cap: int | None = None) -> list[HoleyHT]:
    """Every completion (or the first `cap` of them), in lexicographic order
    by the hole assignment vector (holes by rank, PLUS before MINUS).
    Refuses (GuardExceeded) past ENUMERATION_HOLE_GUARD holes without a cap,
    and past _ENUMERATION_BYTES bytes of tables (one per triple) in any case."""
    allowed = ConstraintSet.coerce(allowed)
    if cap is not None and cap < 0:
        raise InputError(f"cap must be at least 0, got {cap}")
    if cap is None and structure.hole_count() > ENUMERATION_HOLE_GUARD:
        raise GuardExceeded(
            f"enumeration over {structure.hole_count()} holes refused; "
            f"set a cap or stay at <= {ENUMERATION_HOLE_GUARD} holes"
        )
    limit = _ENUMERATION_BYTES // max(comb(structure.n, 3), 1)
    engine = _Engine(structure, allowed)
    want = limit + 1 if cap is None else min(cap, limit + 1)
    tables = list(itertools.islice(engine.search(), want))
    if len(tables) > limit:
        raise GuardExceeded(
            f"more than {limit} completions on {structure.n} vertices exceed the "
            f"enumeration budget of {_ENUMERATION_BYTES} bytes; cap at most {limit}"
        )
    _check_sound(structure, allowed, tables)
    return [HoleyHT._trusted(structure.n, table) for table in tables]


def _deletion(structure: HoleyHT, allowed: ConstraintSet, vertex: int) -> SolveResult:
    sub = structure.induced([v for v in structure.vertices if v != vertex])
    return complete(sub, allowed)


def is_minimal_obstruction(structure: HoleyHT, allowed, jobs: int = 1) -> MinimalityReport:
    """No completion, but deleting any single vertex leaves a completable
    structure.

    Single-vertex deletions suffice: restricting a completion of a
    substructure yields completions of all deeper substructures.

    `jobs` bounds the worker processes that the deletions are spread over.
    No worker starts, and no pool module is imported, unless the estimated
    work of the deletions reaches `_SPREAD_WORK` (from `bn(13)` on, 23
    vertices): below it they run in this process, because starting a pool
    costs more than it saves.  The report does not depend on `jobs`.
    """
    allowed = ConstraintSet.coerce(allowed)
    whole = complete(structure, allowed)
    if whole.sat:
        return MinimalityReport(False, whole, {})
    job = partial(_deletion, structure, allowed)
    n = structure.n
    # the pool starts all its workers at once: no more than there are deletions
    workers = min(jobs, n) if n * structure.hole_count() * (n - 4) >= _SPREAD_WORK else 1
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, structure.vertices))
    else:
        results = map(job, structure.vertices)
    deletions = dict(zip(structure.vertices, results))
    return MinimalityReport(all(r.sat for r in deletions.values()), whole, deletions)


def amalgamate(first: HoleyHT, second: HoleyHT, base, allowed) -> SolveResult:
    """Free gluing over a shared vertex set (`core.glue`, which fixes the
    vertex ids and checks the base), then completion inside the class.

    Both factors must lie in the class.
    """
    allowed = ConstraintSet.coerce(allowed)
    glued = glue(first, second, base)
    if not class_member(first, allowed) or not class_member(second, allowed):
        raise InputError("amalgamation factors must lie in the class")
    return complete(glued, allowed)
