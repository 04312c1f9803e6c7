import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from htour import cli, completion, families, htfile, ramsey, verify
from htour.classify import CYCLIC, H4_FREE, class_member
from htour.completion import complete
from htour.core import HOLE, PLUS, HoleyHT, triple_rank
from htour.families import gen_bn, gen_cyclic, gen_even, gen_on


def run_cli(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "htour", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def chain(specs):
    """Run a pipeline of CLI invocations, feeding stdout to stdin."""
    data = None
    for spec in specs:
        proc = run_cli(spec, stdin=data)
        assert proc.returncode == 0, proc.stderr
        data = proc.stdout
    return data


def test_gen_complete_pipeline_unsat():
    out = chain([["gen", "--family", "bn", "--n", "6"], ["complete", "--allow", "C4,O4"]])
    report = json.loads(out)
    assert report["schema"] == "htour.report/1"
    assert report["verdict"] == "Unsat"
    assert report["witness"]["conflicts"]


def test_gen_enumerate_pipeline_forced_line():
    out = chain(
        [["gen", "--family", "on", "--n", "6"],
         ["enumerate", "--allow", "C4,O4", "--format", "ht"]]
    )
    docs = [d for d in out.split("\n\n") if d.strip()]
    assert len(docs) == 9
    for doc in docs:
        assert "1 2 3 -" in doc.splitlines()


def test_enumerate_report_lists_completions():
    out = chain(
        [["gen", "--family", "g"], ["enumerate", "--allow", "C4,O4"]]
    )
    report = json.loads(out)
    assert report["verdict"] == 3
    assert len(report["witness"]["completions"]) == 3


def test_enumerate_cap_zero_and_negative(tmp_path, capsys):
    path = tmp_path / "on6.ht"
    path.write_text(htfile.emit(gen_on(6)))
    assert cli.main(["enumerate", str(path), "--cap", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == 0 and report["witness"]["completions"] == []
    assert cli.main(["enumerate", str(path), "--cap", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_report_holds_its_tables_and_one_completion(tmp_path, monkeypatch):
    # the report is written as it is made: the peak is the completion
    # tables, within the 4 MiB budget, with per completion its bytes object
    # and HoleyHT, each with a list slot, plus 64 KiB for one completion's
    # lines and the stream's buffers.  Writing the whole report as one
    # string held about 18 MB for these 2,000 completions of on(8)
    path = tmp_path / "on8.ht"
    structure = gen_on(8)
    path.write_text(htfile.emit(structure))
    cap = 2000
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        assert cli.main(["enumerate", "--cap", "1", str(path)]) == 0
        tracemalloc.start()
        try:
            assert cli.main(["enumerate", "--cap", str(cap), str(path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    per_table = sys.getsizeof(b"") + 8 + sys.getsizeof(structure) + 8
    ceiling = completion._ENUMERATION_BYTES + cap * per_table + 64 * 1024
    assert peak < ceiling, (peak, ceiling)


def test_gen_classify_pipeline():
    out = chain([["gen", "--family", "c4"], ["classify4"]])
    assert json.loads(out)["verdict"] == "C4"
    out = chain([["gen", "--family", "h4"], ["classify4"]])
    assert json.loads(out)["verdict"] == "H4"
    out = chain([["gen", "--family", "o4"], ["classify4"]])
    assert json.loads(out)["verdict"] == "O4"


def test_member_witness():
    out = chain([["gen", "--family", "h4"], ["member", "--allow", "C4,O4"]])
    report = json.loads(out)
    assert report["verdict"] is False
    assert report["witness"]["offending"] == [1, 2, 3, 4]


def test_member_witness_is_the_colex_least_offender():
    # a cyclic structure with {1,2,9} and {3,4,5} flipped: in lexicographic
    # order the 4-subsets through {1,2,9} come first, (1,2,3,9) first of all,
    # but in colex order the least top vertex wins, and (1,3,4,5) is the
    # first 4-subset through {3,4,5}
    table = bytearray(gen_cyclic(9).table)
    for t in ((1, 2, 9), (3, 4, 5)):
        r = triple_rank(*t)
        table[r] = 3 - table[r]
    structure = HoleyHT(9, bytes(table))
    assert class_member(structure, CYCLIC).witness == (1, 3, 4, 5)
    proc = run_cli(["member", "--allow", "C4"], stdin=htfile.emit(structure))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"] is False
    assert report["witness"]["offending"] == [1, 3, 4, 5]


def test_pipeline_matches_in_process():
    cli_out = chain(
        [["gen", "--family", "on", "--n", "6"],
         ["complete", "--allow", "C4,O4", "--format", "ht"]]
    )
    expected = complete(gen_on(6), H4_FREE).completion
    assert htfile.parse(cli_out).structure == expected


def test_validate_canonicalizes():
    messy = "# note\nhtour 4\n1 3 4 +\n\n1 2 4 -\n"
    out = run_cli(["validate", "--format", "ht"], stdin=messy)
    assert out.returncode == 0
    assert out.stdout == "htour 4\n1 2 4 -\n1 3 4 +\n"


def test_hat_uses_document_order():
    doc = "htour 3\n1 2 3 +\norder: 3 2 1\n"
    report = json.loads(run_cli(["hat"], stdin=doc).stdout)
    # under the reversed order, (3,2,1) is a rotation of (1,3,2): not in R
    assert report["witness"]["hyperedges"] == []


def test_orders_count():
    out = chain([["gen", "--family", "cyclic", "--n", "5"], ["orders-count"]])
    report = json.loads(out)
    assert report["verdict"] == 5
    assert len(report["witness"]["orders"]) == 5


def test_ramsey_sizes():
    report = json.loads(run_cli(["ramsey", "--sizes", "6,3,2"]).stdout)
    assert report["verdict"] is True
    report = json.loads(run_cli(["ramsey", "--sizes", "5,3,2"]).stdout)
    assert report["verdict"] is False
    assert report["witness"]["counterexample"]["colors"]


def test_minimal_obstruction_cli():
    b7 = run_cli(["gen", "--family", "bn", "--n", "7"]).stdout
    report = json.loads(run_cli(["minimal-obstruction"], stdin=b7).stdout)
    assert report["verdict"] is True
    assert report["witness"]["whole"] == "Unsat"
    assert len(report["witness"]["deletions"]) == 11


def test_exit_code_input_error():
    bad = run_cli(["classify4"], stdin="htour 4\n1 2 3 +\n1 2 3 -\n")
    assert bad.returncode == 2
    assert "error:" in bad.stderr
    holey = run_cli(["classify4"], stdin="htour 4\n")
    assert holey.returncode == 2


def test_exit_code_guard():
    big = run_cli(["gen", "--family", "cyclic", "--n", "9"]).stdout
    guard = run_cli(["ramsey", "--sizes", "9,3,2"])
    assert guard.returncode == 3
    assert "refused" in guard.stderr
    enum = run_cli(["enumerate"], stdin="htour 9\n")
    assert enum.returncode == 3


def test_enumerate_budget_refuses_thirty_holes(tmp_path, capsys):
    # 30 holes pass the hole guard, and under C4,O4,H4 every one of the 2^30
    # assignments is a completion: the table budget refuses
    path = tmp_path / "holes30.ht"
    path.write_text("htour 7\n" + "".join(f"1 2 {c} +\n" for c in range(3, 8)))
    started = time.perf_counter()
    assert cli.main(["enumerate", str(path), "--allow", "C4,O4,H4"]) == 3
    assert time.perf_counter() - started < 10
    out = capsys.readouterr()
    assert out.out == "" and "exceed the enumeration budget" in out.err


def test_vertex_guard_refuses_huge_header(tmp_path, capsys):
    path = tmp_path / "huge.ht"
    path.write_text("htour 3000000\n")
    assert cli.main(["validate", str(path)]) == 3
    assert "refused" in capsys.readouterr().err


def test_unreadable_input_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nosuch.ht")
    bad = tmp_path / "bad.ht"
    bad.write_bytes(b"htour 4\n\xff\xfe\n")
    good = tmp_path / "on6.ht"
    good.write_text(htfile.emit(gen_on(6)))
    for argv, reason in (
        (["classify4", missing], "No such file or directory"),
        (["validate", str(tmp_path)], "Is a directory"),
        (["validate", str(bad)], "can't decode byte 0xff"),
        (["ramsey", "--files", str(good), str(good), missing], "No such file or directory"),
    ):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: cannot read ") and reason in out.err
        assert "Traceback" not in out.err


def test_ramsey_sizes_guard_the_vertex_count(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("generated before the guard")

    monkeypatch.setattr(families, "gen_cyclic", refuse)
    assert cli.main(["ramsey", "--sizes", "101,3,2"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "101 vertices" in out.err


@pytest.mark.parametrize("sizes", ["40,20,10", "40,20,0", "100,50,50"])
def test_ramsey_sizes_refuse_before_enumerating(sizes, capsys):
    # one of the two embedding searches, A into C and B into C, would try
    # C(40,10), C(40,20) or C(100,50) candidate injections
    started = time.perf_counter()
    assert cli.main(["ramsey", "--sizes", sizes]) == 3
    assert time.perf_counter() - started < 1
    out = capsys.readouterr()
    assert out.out == "" and "refused: the embedding searches" in out.err


@pytest.mark.parametrize("argv", [
    ["--sizes", "3,2,1", "--files", "x", "y", "z"],
    ["--files", "x", "y", "z", "--sizes", "3,2,1"],
])
def test_ramsey_takes_sizes_or_files_not_both(argv, capsys):
    # the structures come from one of the two; neither is dropped silently
    with pytest.raises(SystemExit) as exc:
        cli.main(["ramsey", *argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument" in out.err


def test_ramsey_refuses_a_count_too_long_for_the_report(capsys, monkeypatch):
    # 2**19448 colorings have 5,855 digits: past the interpreter's limit on
    # writing an integer, the report is refused, and nothing is written.
    # The count is known after the first embedding search, so the coloring
    # search never starts
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits or digits >= 5855:
        pytest.skip("this interpreter writes integers of 5,855 digits")

    def search(*args):
        raise AssertionError("the coloring search ran")

    monkeypatch.setattr(ramsey, "_least_refuting", search)
    argv = ["ramsey", "--sizes", "17,15,7", "--max-embeddings", "20000"]
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"refused: 19448 embeddings give more colorings than an "
                       f"integer of {digits} digits, the most a report can write\n")


def test_ramsey_refuses_a_negative_embedding_guard(capsys):
    assert cli.main(["ramsey", "--sizes", "3,2,0", "--max-embeddings", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: max_embeddings must be at least 0, got -1" in out.err


def test_gen_guards_the_vertex_count(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("generated before the guard")

    for family in ("on", "bn"):
        monkeypatch.setattr(families, f"gen_{family}", refuse)
    # bn(52) would have 2*52-3 = 101 vertices, on(101) 101
    for family, n in (("bn", "52"), ("on", "101")):
        assert cli.main(["gen", "--family", family, "--n", n]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "101 vertices" in out.err


# what complete, enumerate, member and validate never run: the generators of
# the named families, the arrow search, the random generators, the acceptance
# driver and its oracles, the process pool of minimal-obstruction --jobs, and
# dataclasses with the inspect module it imports (about 20 ms of start-up)
_UNUSED_MODULES = ("htour.families", "htour.ramsey", "htour.rand", "htour.verify",
                   "htour.oracles", "concurrent.futures", "multiprocessing",
                   "dataclasses", "inspect")


def _unused_modules_loaded(code, unused=_UNUSED_MODULES):
    """The entries of `unused` that a fresh interpreter has loaded after
    running `code`.  It runs without the site module (-S), so that only the
    imports of htour and of `code` count."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {unused!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_unused_module():
    assert _unused_modules_loaded("import htour.cli") == []


def test_importing_the_oracles_loads_no_search():
    # the oracles name OrderedHT in annotations only
    assert _unused_modules_loaded("import htour.oracles") == ["htour.oracles"]


def test_complete_loads_no_unused_module(tmp_path):
    path = tmp_path / "bn8.ht"
    path.write_text(htfile.emit(gen_bn(8)))
    code = f"from htour import cli\nassert cli.main(['complete', {str(path)!r}]) == 0"
    assert _unused_modules_loaded(code) == []


def test_minimality_below_the_spreading_bound_loads_no_pool(tmp_path):
    # bn(8)'s deletions run in process whatever --jobs asks for
    path = tmp_path / "bn8.ht"
    path.write_text(htfile.emit(gen_bn(8)))
    code = (f"from htour import cli\n"
            f"assert cli.main(['minimal-obstruction', '--jobs', '2', {str(path)!r}]) == 0")
    assert _unused_modules_loaded(code) == []


@pytest.mark.parametrize("command", [["validate"], ["member", "--allow", "C4"], ["classify4"]])
def test_commands_that_solve_nothing_load_no_solver(tmp_path, command):
    path = tmp_path / "c4.ht"
    path.write_text(htfile.emit(HoleyHT(4, bytes([PLUS] * 4))))
    code = f"from htour import cli\nassert cli.main({[*command, str(path)]!r}) == 0"
    assert _unused_modules_loaded(code, (*_UNUSED_MODULES, "htour.completion")) == []


def test_package_names_resolve_to_the_submodule_objects():
    import htour

    star = {}
    exec("from htour import *", star)
    for name in htour.__all__:
        defined = getattr(importlib.import_module(f"htour.{htour._SOURCE[name]}"), name)
        assert getattr(htour, name) is defined
        assert star[name] is defined
    assert set(htour.__all__) <= set(dir(htour))
    with pytest.raises(AttributeError, match="no_such_name"):
        htour.no_such_name


def test_usage_error_exit_2():
    proc = run_cli(["no-such-command"])
    assert proc.returncode == 2
    # gone options: --prune selected nothing, verify --jobs had one value in use
    proc = run_cli(["ramsey", "--sizes", "4,3,2", "--prune"])
    assert proc.returncode == 2 and "--prune" in proc.stderr
    proc = run_cli(["verify", "--jobs", "1"])
    assert proc.returncode == 2 and "--jobs" in proc.stderr
    proc = run_cli(["minimal-obstruction", "--jobs", "0"], stdin="htour 3\n")
    assert proc.returncode == 2 and "--jobs" in proc.stderr


def test_truncated_pipe_exits_quietly():
    gen = run_cli(["gen", "--family", "on", "--n", "8"])
    pipeline = subprocess.run(
        f"{sys.executable} -m htour enumerate --cap 40000 --format ht | head -1",
        input=gen.stdout, capture_output=True, text=True, shell=True,
    )
    assert pipeline.stdout == "htour 8\n"
    assert "Traceback" not in pipeline.stderr


def test_timing_flag_adds_seconds():
    out = run_cli(["classify4", "--timing"], stdin="htour 4\n1 2 3 +\n1 2 4 +\n1 3 4 +\n2 3 4 +\n")
    report = json.loads(out.stdout)
    assert report["timing"] is not None and report["timing"]["seconds"] >= 0
    plain = run_cli(["classify4"], stdin="htour 4\n1 2 3 +\n1 2 4 +\n1 3 4 +\n2 3 4 +\n")
    assert json.loads(plain.stdout)["timing"] is None


def _slow(result):
    def fn(*args, **kwargs):
        time.sleep(0.05)
        return result
    return fn


def test_verify_timing_covers_the_run(monkeypatch, capsys):
    summary = {"ok": True, "counts": {}, "items": []}
    monkeypatch.setattr(verify, "run_verify", _slow(summary))
    assert cli.main(["verify", "--timing"]) == 0
    assert json.loads(capsys.readouterr().out)["timing"]["seconds"] >= 0.05
    assert cli.main(["verify"]) == 0
    assert json.loads(capsys.readouterr().out)["timing"] is None


def test_gen_timing_covers_the_build(monkeypatch, capsys):
    monkeypatch.setattr(families, "gen_on", _slow(gen_on(6)))
    assert cli.main(["gen", "--family", "on", "--n", "6", "--format", "report",
                     "--timing"]) == 0
    assert json.loads(capsys.readouterr().out)["timing"]["seconds"] >= 0.05


def test_verify_report_is_byte_deterministic(monkeypatch, capsys):
    naps = iter((0.01, 0.03, 0.02))

    def sleepy():
        time.sleep(next(naps))
        return "slept"

    monkeypatch.setattr(verify, "build_items", lambda level: [
        ("c1-fast", lambda: "fast", False), ("c1-sleepy", sleepy, False)])
    outs = []
    for _ in range(2):
        assert cli.main(["verify"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert cli.main(["verify", "--timing"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["timing"]["items"]["c1-sleepy"] >= 0.02
    assert "seconds" not in report["witness"]["items"][1]


def _written(value) -> str:
    out = io.StringIO()
    cli._write_json(out.write, value)
    return out.getvalue()


_ODD_TEXT = ["", "plain", 'a "quoted" word', "back\\slash", "\t\n\r\x00\x1f\x7f",
             "ünïcödé €", "\U0001d11e clef", "</end>"]
_ODD_SCALARS = [0, -7, 2**70, 0.1, 1e-07, 1e300, -0.0, float("inf"), float("nan"),
                True, False, None]


def _random_json(rng, depth=0):
    kind = rng.randrange(7 if depth < 4 else 2)
    if kind == 0:
        return rng.choice(_ODD_SCALARS)
    if kind == 1:
        return rng.choice(_ODD_TEXT)
    items = [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 2:
        return {rng.choice(_ODD_TEXT) + str(i): item for i, item in enumerate(items)}
    if kind == 3:
        return items
    if kind == 4:
        return tuple(items)
    if kind == 5:
        return [rng.choice(_ODD_TEXT) for _ in items]
    return [rng.choice(_ODD_SCALARS + _ODD_TEXT) for _ in items]


def test_report_writer_lays_out_as_json_dumps_with_indent_2():
    fixed = [{}, [], (), {"a": {}}, {"a": []}, [[]], [{}], [[], {}, ()], ["a", 1],
             {'k"\\\n€': ["\u00e9", None]}, *_ODD_SCALARS, *_ODD_TEXT]
    rng = random.Random(2718)
    for value in fixed + [_random_json(rng) for _ in range(500)]:
        assert _written(value) == json.dumps(value, indent=2), value


def test_report_writer_writes_an_iterator_as_its_list_one_item_at_a_time():
    for items in ([], ["a"], [1, 2], [["x", "y"], {"k": []}, None]):
        assert _written(iter(items)) == json.dumps(items, indent=2)
        assert (_written({"s": iter(items), "t": 1})
                == json.dumps({"s": items, "t": 1}, indent=2))
    written, pulled = [], []

    def items():
        for i in range(3):
            pulled.append(len(written))
            yield [f"line {i}"]

    cli._write_json(written.append, {"completions": items()})
    # each item is taken only after the one before it was written
    assert pulled[0] < pulled[1] < pulled[2] < len(written)


def _golden_files() -> dict:
    cyclic = {n: htfile.emit(gen_cyclic(n), tuple(range(1, n + 1))) for n in (2, 3, 5, 6)}
    # even and holey free inputs with nonempty graphs and non-identity orders
    even = {
        "even6.ht": (6, {(1, 2), (1, 5), (2, 3), (3, 6), (4, 5), (2, 6)}, (3, 1, 5, 2, 6, 4)),
        "even4.ht": (4, {(1, 2), (3, 4)}, (2, 4, 1, 3)),
        "even3.ht": (3, {(1, 2)}, (2, 3, 1)),
    }
    holey = HoleyHT(6, bytes(
        HOLE if r in (0, 3, 7, 12, 15, 19) else v
        for r, v in enumerate(gen_cyclic(6, (2, 5, 1, 6, 3, 4)).table)
    ))
    return {
        "on6.ht": htfile.emit(gen_on(6)),
        "bn7.ht": htfile.emit(gen_bn(7)),
        "c4.ht": "htour 4\n1 2 3 +\n1 2 4 +\n1 3 4 +\n2 3 4 +\n",
        "h4.ht": "htour 4\n1 2 3 +\n1 2 4 -\n1 3 4 +\n2 3 4 -\n",
        "bad.ht": "htour 4\n1 2 3 +\n1 2 3 -\n",
        "messy.ht": "# note\nhtour 4\n1 3 4 +\n\n1 2 4 -\n",
        **{f"cyc{n}.ht": text for n, text in cyclic.items()},
        **{name: htfile.emit(gen_even(n, edges, order), order, edges)
           for name, (n, edges, order) in even.items()},
        "holey6.ht": htfile.emit(holey, (4, 1, 6, 2, 5, 3)),
        "holey4.ht": htfile.emit(holey.induced((1, 2, 3, 6)), (3, 1, 4, 2)),
        "hole3.ht": htfile.emit(HoleyHT.empty(3), (2, 3, 1)),
    }


def _golden_items(level):
    def fails():
        raise AssertionError("planted failure")

    second = ("c2-xfail", fails, True) if level == "quick" else ("c2-fail", fails, False)
    return [("c1-pass", lambda: "fine", False), second]


# sha256 prefix of stdout and the exit code of each call, recorded before the
# handlers shared one report path; every subcommand, both output forms, an
# input error and a guard refusal
GOLDEN_CALLS = [
    (["gen", "--family", "bn", "--n", "6"], "a24b9f7200eb0954", 0),
    (["gen", "--family", "even", "--n", "6", "--seed", "3", "--format", "report"],
     "dd7cdf5ea69d92fd", 0),
    (["validate", "messy.ht"], "dbd78e0fda5936bf", 0),
    (["validate", "messy.ht", "--format", "ht"], "35d760590dd55127", 0),
    (["classify4", "c4.ht"], "15e409f0464b6e9a", 0),
    (["member", "h4.ht", "--allow", "C4,O4"], "f0df5ddf616b2b52", 0),
    (["hat", "cyc5.ht", "--order", "2,1,3,5,4"], "c5c99001e6004676", 0),
    (["complete", "on6.ht"], "52dc3b5b8977f9de", 0),
    (["complete", "on6.ht", "--format", "ht"], "195ec981eebc3a01", 0),
    (["complete", "bn7.ht", "--format", "ht"], "629687bb95b7969c", 0),
    (["enumerate", "on6.ht", "--cap", "3"], "c23c2b4c3a53abd3", 0),
    (["enumerate", "on6.ht", "--format", "ht"], "422d3a400e8dfe45", 0),
    (["minimal-obstruction", "bn7.ht"], "2c593251797ba7b0", 0),
    (["orders-count", "cyc5.ht"], "8bd9176970446af8", 0),
    (["ramsey", "--sizes", "5,3,2"], "b5a987824d9dfbd2", 0),
    (["ramsey", "--files", "cyc6.ht", "cyc3.ht", "cyc2.ht", "--kind", "cyclic"],
     "dd744e5b97af9af1", 0),
    (["ramsey", "--sizes", "3,2,0"], "607574914fcc0001", 0),
    (["ramsey", "--sizes", "4,5,2"], "878f3f58abdce859", 0),
    (["ramsey", "--files", "even6.ht", "even4.ht", "even3.ht", "--kind", "even"],
     "7677da1d4fcef04d", 0),
    (["ramsey", "--files", "holey6.ht", "holey4.ht", "hole3.ht", "--kind", "all"],
     "6463f663f49574c4", 0),
    (["verify"], "14bc35e59ae01888", 0),
    (["verify", "--level", "full"], "3409594d1425ea46", 1),
    (["classify4", "bad.ht"], "e3b0c44298fc1c14", 2),
    (["gen", "--family", "bn", "--n", "52"], "e3b0c44298fc1c14", 3),
]


@pytest.mark.parametrize("argv, digest, code", GOLDEN_CALLS,
                         ids=[" ".join(c[0]) for c in GOLDEN_CALLS])
def test_report_bytes_are_golden(argv, digest, code, tmp_path, monkeypatch, capsys):
    for name, text in _golden_files().items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "build_items", _golden_items)
    assert cli.main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest
