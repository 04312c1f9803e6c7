import json
import subprocess
import sys
import time

from htour import cli, htfile, verify
from htour.classify import H4_FREE
from htour.completion import complete
from htour.families import gen_on


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


def test_vertex_guard_refuses_huge_header(tmp_path, capsys):
    path = tmp_path / "huge.ht"
    path.write_text("htour 3000000\n")
    assert cli.main(["validate", str(path)]) == 3
    assert "refused" in capsys.readouterr().err


def test_gen_guards_the_vertex_count(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("generated before the guard")

    for family in ("on", "bn"):
        monkeypatch.setattr(cli, f"gen_{family}", refuse)
    # bn(52) would have 2*52-3 = 101 vertices, on(101) 101
    for family, n in (("bn", "52"), ("on", "101")):
        assert cli.main(["gen", "--family", family, "--n", n]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "101 vertices" in out.err


def test_usage_error_exit_2():
    proc = run_cli(["no-such-command"])
    assert proc.returncode == 2
    # the option selected nothing and is gone
    proc = run_cli(["ramsey", "--sizes", "4,3,2", "--prune"])
    assert proc.returncode == 2 and "--prune" in proc.stderr


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
    monkeypatch.setattr(cli, "gen_on", _slow(gen_on(6)))
    assert cli.main(["gen", "--family", "on", "--n", "6", "--format", "report",
                     "--timing"]) == 0
    assert json.loads(capsys.readouterr().out)["timing"]["seconds"] >= 0.05


def test_verify_report_is_byte_deterministic(monkeypatch, capsys):
    naps = iter((0.01, 0.03, 0.02))

    def sleepy():
        time.sleep(next(naps))
        return "slept"

    monkeypatch.setattr(verify, "build_items", lambda level, jobs=1: [
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
