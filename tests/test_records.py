"""The contract of the result and value types: they pickle (the process
pool of minimal-obstruction --jobs sends them between processes), compare
and hash by value, refuse assignment and deletion, and print as before."""

import pickle

import pytest

from htour import htfile
from htour.classify import CYCLIC, H4_FREE, ConstraintSet, class_member
from htour.completion import complete, is_minimal_obstruction, propagate
from htour.core import MINUS, PLUS, HoleyHT, hat
from htour.families import gen_bn, gen_cyclic, gen_even
from htour.ramsey import ExpansionKind, OrderedHT, arrow_check

C4 = HoleyHT(4, bytes([PLUS] * 4))
H4 = HoleyHT(4, bytes([PLUS, MINUS, PLUS, MINUS]))


def _cyc(n):
    return OrderedHT(gen_cyclic(n), tuple(range(1, n + 1)), ExpansionKind.CYCLIC)


def _even4():
    order = (1, 2, 3, 4)
    return OrderedHT(gen_even(4, {(1, 2)}, order), order, ExpansionKind.EVEN, {(2, 1)})


# each record with its fields and the repr it has always had; every set in
# these reprs has at most one element or holds tuples of ints, so no hash
# seed reorders it
RECORDS = {
    "ConstraintSet": (
        "allowed",
        lambda: CYCLIC,
        "ConstraintSet(allowed=frozenset({<FourType.C4: 'C4'>}))",
    ),
    "Membership": (
        "ok witness",
        lambda: class_member(H4, H4_FREE),
        "Membership(ok=False, witness=(1, 2, 3, 4))",
    ),
    "SolveResult": (
        "sat completion conflicts nodes",
        lambda: complete(gen_bn(6), H4_FREE),
        "SolveResult(sat=False, completion=None, conflicts=((1, 2, 3, 7),), nodes=1)",
    ),
    "PropagationResult": (
        "ok structure forced conflict",
        lambda: propagate(gen_bn(6), H4_FREE),
        "PropagationResult(ok=False, structure=None, forced=(), conflict=(1, 2, 3, 7))",
    ),
    "MinimalityReport": (
        "is_minimal whole deletions",
        lambda: is_minimal_obstruction(C4, H4_FREE),
        "MinimalityReport(is_minimal=False, whole=SolveResult(sat=True, "
        "completion=HoleyHT(n=4, {(1, 2, 3):+, (1, 2, 4):+, (1, 3, 4):+, (2, 3, 4):+}), "
        "conflicts=(), nodes=1), deletions={})",
    ),
    "Document": (
        "structure order edges",
        lambda: htfile.parse(htfile.emit(C4, (4, 3, 2, 1), {(1, 2)})),
        "Document(structure=HoleyHT(n=4, {(1, 2, 3):+, (1, 2, 4):+, (1, 3, 4):+, "
        "(2, 3, 4):+}), order=(4, 3, 2, 1), edges=frozenset({(1, 2)}))",
    ),
    "Hypergraph3": (
        "n hyperedges",
        lambda: hat(C4, (1, 2, 3, 4)),
        "Hypergraph3(n=4, hyperedges=frozenset({(2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)}))",
    ),
    "OrderedHT": (
        "ht order kind graph by_position",
        _even4,
        "OrderedHT(ht=HoleyHT(n=4, {(1, 2, 3):-, (1, 2, 4):-, (1, 3, 4):+, (2, 3, 4):+}), "
        "order=(1, 2, 3, 4), kind=<ExpansionKind.EVEN: 'even'>, graph=frozenset({(1, 2)}))",
    ),
    "ArrowVerdict": (
        "holds a_embeddings b_copies colorings counterexample coloring_index",
        lambda: arrow_check(_cyc(4), _cyc(3), _cyc(2)),
        "ArrowVerdict(holds=False, a_embeddings=((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), "
        "(3, 4)), b_copies=4, colorings=64, counterexample=(0, 0, 1, 1, 0, 0), "
        "coloring_index=12)",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_pickle_and_refusals(name):
    fields, build, text = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record) and again == record
    for field in (*fields.split(), "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text


def test_constraint_set_is_a_value():
    parsed = ConstraintSet.parse("C4,O4")
    assert parsed == H4_FREE and hash(parsed) == hash(H4_FREE)
    assert parsed is not H4_FREE and len({parsed, H4_FREE, CYCLIC}) == 2
    assert parsed != CYCLIC and parsed != H4_FREE.allowed


def test_a_constraint_set_pickles_with_its_tables():
    # the tables are filled on first use, and --jobs pickles the set with them
    allowed = ConstraintSet.parse("C4,O4")
    tables = allowed.action_table, allowed.queue_table, allowed.ok_table
    again = pickle.loads(pickle.dumps(allowed))
    assert again == allowed
    assert {"action_table", "queue_table", "ok_table"} <= vars(again).keys()
    assert (again.action_table, again.queue_table, again.ok_table) == tables
    assert complete(gen_bn(6), again) == complete(gen_bn(6), H4_FREE)


def test_ordered_structures_compare_without_their_position_table():
    first, second = _even4(), _even4()
    assert first is not second and first.by_position is not second.by_position
    assert first == second and hash(first) == hash(second)
    assert first != _cyc(4)
    assert pickle.loads(pickle.dumps(first)).by_position == first.by_position


def test_results_are_named_tuples():
    res = complete(gen_bn(6), H4_FREE)
    sat, completion, conflicts, nodes = res
    assert (sat, completion, conflicts, nodes) == (False, None, ((1, 2, 3, 7),), 1)
    assert res == (False, None, ((1, 2, 3, 7),), 1) and res[3] == res.nodes
    # a report holds a dict of deletions, so it has no hash
    report = is_minimal_obstruction(gen_bn(6), H4_FREE)
    with pytest.raises(TypeError):
        hash(report)
