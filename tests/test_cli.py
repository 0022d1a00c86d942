"""Command line behavior: pipelines, exit codes, reports, determinism."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fanoturan import __version__, cli, search
from fanoturan.cli import build_parser, emit_report, main
from fanoturan.errors import ParameterError
from fanoturan.fano import DetectionMethod, find_fano_edges
from fanoturan.hypergraph import construct, from_json_dict, parse_text, to_json_dict


# `verify all --long-run --format json --seed 42` without elapsed_ms
PINNED = Path(__file__).resolve().parent / "data" / "certificates_seed42.json"


def _strip_elapsed(report_text):
    certs = json.loads(report_text)
    for c in certs:
        c["elapsed_ms"] = 0
    return json.dumps(certs, indent=2)


def test_construct_check_roundtrip_text(tmp_path, capsys):
    path = str(tmp_path / "k7.txt")
    assert main(["construct", "complete", "7", "-o", path]) == 0
    with open(path) as fh:
        assert parse_text(fh.read()) == construct("complete", 7)
    assert main(["check", path, "--pattern", "fano", "--method", "all"]) == 0
    out = capsys.readouterr().out
    assert "found=true" in out


def test_construct_check_roundtrip_json(tmp_path, capsys):
    path = str(tmp_path / "b8.json")
    assert main(["construct", "balanced_bipartite", "8", "--format", "json", "-o", path]) == 0
    with open(path) as fh:
        assert from_json_dict(json.load(fh)) == construct("balanced_bipartite", 8)
    # the bipartite extremum is plane-free: exit code 1, no witness
    assert main(["check", path, "--pattern", "fano", "--method", "all"]) == 1
    out = capsys.readouterr().out
    assert "found=false" in out


def test_check_reads_stdin(tmp_path, capsys, monkeypatch):
    text = capsys.readouterr()
    assert main(["construct", "fano", "7"]) == 0
    payload = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(payload))
    assert main(["check", "-", "--pattern", "fano"]) == 0


def test_check_clique_patterns(tmp_path, capsys):
    path = str(tmp_path / "j7.txt")
    assert main(["construct", "j7", "7", "-o", path]) == 0
    assert main(["check", path, "--pattern", "k6"]) == 0
    assert main(["check", path, "--pattern", "fano"]) == 1
    capsys.readouterr()
    assert main(["check", path, "--pattern", "k4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is True
    assert payload["pattern"] == "k4"


def test_check_rejects_malformed_files(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("7 1\n0 1\n")
    assert main(["check", str(path)]) == 2
    assert "format error" in capsys.readouterr().err
    path.write_text('{"n": 7}')
    assert main(["check", str(path)]) == 2


def test_construct_validates_arguments(capsys):
    assert main(["construct", "fano", "8"]) == 2
    assert "error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["construct", "heptagon", "7"])
    assert info.value.code == 2


def test_unknown_family_messages_list_the_families(capsys):
    with pytest.raises(SystemExit):
        main(["construct", "heptagon", "7"])
    assert (
        "invalid choice: 'heptagon' (choose from "
        "'complete', 'balanced_bipartite', 'j7', 'fano', 'pasch')"
    ) in capsys.readouterr().err
    with pytest.raises(ParameterError) as info:
        construct("heptagon", 7)
    assert str(info.value) == (
        "unknown family 'heptagon'; expected one of complete, balanced_bipartite, j7, fano, pasch"
    )


def test_search_verb(capsys):
    assert main(["search", "ex", "--n", "7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_edges"] == 30
    assert len(payload["extremal_classes"]) == 2
    assert main(["search", "ex", "--n", "8"]) == 3
    assert "capability" in capsys.readouterr().err


def test_verify_single_claim_text_report(capsys):
    assert main(["verify", "matching-facts"]) == 0
    out = capsys.readouterr().out
    assert "matching-facts" in out
    assert "summary: 1 passed, 0 failed" in out


def test_verify_json_report_keys(capsys):
    assert main(["verify", "fact-2-4", "--format", "json", "--seed", "5"]) == 0
    certs = json.loads(capsys.readouterr().out)
    assert len(certs) == 1
    assert set(certs[0]) == {
        "claim", "verdict", "space", "visited", "witnesses",
        "seed", "elapsed_ms", "tool_version",
    }
    assert certs[0]["seed"] == 5
    assert certs[0]["verdict"] == "pass"


def test_verify_unknown_claim_lists_valid_ids(capsys):
    assert main(["verify", "lemma-99"]) == 2
    err = capsys.readouterr().err
    assert "unknown claim" in err
    assert "ex-7" in err and "lemma-4vertex" in err


def test_verify_validates_before_any_computation(tmp_path, capsys):
    # an unknown claim alongside the gated scan must stop the run before the
    # scan opens its checkpoint file
    path = tmp_path / "never.ckpt"
    code = main(
        ["verify", "ex-8", "lemma-99", "--long-run", "--checkpoint", str(path)]
    )
    assert code == 2
    assert not path.exists()
    capsys.readouterr()


def test_bad_paths_are_usage_errors(tmp_path, capsys):
    # a path that cannot be opened is bad usage (exit 2), not "not found" (exit 1)
    missing_dir = tmp_path / "no" / "such" / "dir"
    commands = (
        ["check", str(tmp_path / "missing.txt")],
        ["construct", "fano", "7", "-o", str(missing_dir / "x")],
        ["verify", "ex-8", "--long-run", "--checkpoint", str(missing_dir / "x.ckpt")],
    )
    for argv in commands:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "No such file or directory" in captured.err
        assert captured.out == ""


def test_non_utf8_files_are_format_errors(tmp_path, capsys):
    # the same bytes on stdin already give a format error; a file must too
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x01, 0x61, 0x62]))
    for argv in (["check", str(path)], ["multigraph", "check", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("format error: ") and "utf-8" in captured.err
        assert captured.out == ""


def test_verify_long_run_gate(tmp_path, capsys):
    assert main(["verify", "ex-8"]) == 3
    assert "capability" in capsys.readouterr().err
    path = tmp_path / "gated.ckpt"
    assert main(["verify", "ex-8", "--checkpoint", str(path)]) == 3
    assert capsys.readouterr().err == "capability: ex-8: the 8-vertex scan is gated behind long_run\n"
    assert not path.exists()


def test_verify_gate_stops_before_any_claim_runs(monkeypatch, capsys):
    def never(**kwargs):
        raise AssertionError("a claim ran before the long-run gate")

    monkeypatch.setattr(search, "verify_lemma_n7", never)
    monkeypatch.setattr(search, "verify_lemma_4vertex", never)
    for jobs in ("1", "3"):
        assert main(["verify", "lemma-n7", "lemma-4vertex", "ex-8", "--jobs", jobs]) == 3
        captured = capsys.readouterr()
        assert captured.err == "capability: ex-8: the 8-vertex scan is gated behind long_run\n"
        assert captured.out == ""


def test_verify_checkpoint_without_a_long_run_claim_is_noted(tmp_path, capsys):
    path = tmp_path / "cp.ckpt"
    assert main(["verify", "fact-2-4", "--format", "json"]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(["verify", "fact-2-4", "--format", "json", "--checkpoint", str(path)]) == 0
    noted = capsys.readouterr()
    assert noted.err == "note: --checkpoint is unused: only ex-8 writes one\n"
    assert _strip_elapsed(noted.out) == _strip_elapsed(plain.out)
    assert not path.exists()


def test_verify_all_is_deterministic_modulo_elapsed(capsys):
    assert main(["verify", "all", "--seed", "42", "--jobs", "1", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "all", "--seed", "42", "--jobs", "1", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first != "" and second != ""
    assert _strip_elapsed(first) == _strip_elapsed(second)
    certs = json.loads(first)
    assert [c["claim"] for c in certs] == [
        "ex-7", "lemma-n7", "fact-tetra", "lemma-2-3", "fact-2-4",
        "matching-facts", "lemma-4vertex", "corollary-bf", "section4-arith",
    ]
    for c in certs:
        del c["elapsed_ms"]
    assert certs == json.loads(PINNED.read_text(encoding="utf-8"))[:9]


def test_verify_parallel_jobs_match_serial(capsys):
    argv = ["verify", "fact-2-4", "matching-facts", "corollary-bf", "--format", "json"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "3"]) == 0
    parallel = capsys.readouterr().out
    assert len(json.loads(serial)) == 3
    assert _strip_elapsed(serial) == _strip_elapsed(parallel)


def test_cli_import_leaves_the_process_pool_unloaded():
    # a fresh interpreter, so an import by any other test cannot hide one here;
    # claims run in the calling process at every --jobs value
    code = """if True:
        import io, sys
        from contextlib import redirect_stdout
        from fanoturan.cli import main
        imported = "concurrent.futures.process" in sys.modules
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "fact-2-4", "matching-facts", "--jobs", "3"]) == 0
        print(imported, "concurrent.futures.process" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


def test_verify_reports_claims_in_the_order_named(capsys):
    argv = ["verify", "matching-facts", "ex-7", "--format", "json"]
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == 0
        certs = json.loads(capsys.readouterr().out)
        assert [c["claim"] for c in certs] == ["matching-facts", "ex-7"]


def test_verify_reads_jobs_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("FANOTURAN_JOBS", "2")
    argv = ["verify", "matching-facts", "section4-arith", "--format", "json"]
    assert main(argv) == 0
    certs = json.loads(capsys.readouterr().out)
    assert [c["verdict"] for c in certs] == ["pass", "pass"]


def test_verify_rejects_malformed_jobs_environment(capsys, monkeypatch):
    # bad usage (exit 2), like --jobs 0, not a failed claim (exit 1)
    monkeypatch.setenv("FANOTURAN_JOBS", "abc")
    assert main(["verify", "matching-facts"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "FANOTURAN_JOBS" in captured.err
    assert captured.out == ""


def test_verify_dedups_repeated_claims(capsys):
    assert main(["verify", "fact-2-4", "fact-2-4", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1


def test_multigraph_extremal4_and_constructions(capsys):
    assert main(["multigraph", "extremal4", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edge_total"] == payload["formula"] == 88
    assert main(["multigraph", "constructions", "6", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    totals = [c["total"] for c in payload["constructions"]]
    assert totals == [60, 57]


def test_multigraph_constructions_beyond_the_vertex_cap_are_usage_errors(capsys):
    for action in ("extremal4", "constructions"):
        assert main(["multigraph", action, "1000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def test_multigraph_search_and_gate(capsys):
    assert main(["multigraph", "search", "--p", "4", "--n", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_edges"] == 20
    assert main(["multigraph", "search", "--p", "5", "--n", "7"]) == 3
    err = capsys.readouterr().err
    assert err == "capability: the (5, 7) search is gated behind long_run (best_found=80)\n"
    # a budget below 1 is bad usage, not a capability limit
    for n in ("3", "4"):
        assert main(["multigraph", "search", "--p", "4", "--n", n, "--node-budget", "-5"]) == 2
        assert "error: node budget must be at least 1" in capsys.readouterr().err


def test_multigraph_check_exit_codes(tmp_path, capsys):
    crossing_free = tmp_path / "free.json"
    assert main(["multigraph", "extremal4", "6", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    crossing_free.write_text(json.dumps(payload["multigraph"]))
    assert main(["multigraph", "check", str(crossing_free)]) == 1
    full = tmp_path / "full.json"
    full.write_text(json.dumps({
        "p": 4, "n": 4,
        "pairs": [
            {"u": u, "v": v, "layers": [1, 2, 3, 4]}
            for u in range(4) for v in range(u + 1, 4)
        ],
    }))
    assert main(["multigraph", "check", str(full)]) == 0
    assert "quad=[0, 1, 2, 3]" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 4, "n": -1, "pairs": []}))
    assert main(["multigraph", "check", str(bad)]) == 2
    assert "format error" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "fanoturan" in capsys.readouterr().out


def test_emit_report_edge_cases():
    assert emit_report([], "text") == "no claims run"
    assert json.loads(emit_report([], "json")) == []
    failing = {
        "claim": "demo", "verdict": "fail", "space": 4, "visited": 2,
        "witnesses": [{"n": 9}], "seed": 0, "elapsed_ms": 1, "tool_version": "0.1.0",
    }
    text = emit_report([failing], "text")
    assert "witness" in text
    assert "summary: 0 passed, 1 failed" in text


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "fanoturan.cli", "construct", "pasch", "6"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_text(proc.stdout) == construct("pasch", 6)
    # An installed wrapper is a property of the environment, so check the
    # command as pyproject.toml declares it; the installed program has its
    # own test below.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    target = project["scripts"]["fanoturan"]
    assert target == "fanoturan.cli:main"
    module_name, attr = target.split(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert callable(entry) and entry is main
    # the body of the console-script wrapper pip generates for the entry point
    wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"fanoturan {project['version']}\n", proc.stderr


@pytest.mark.skipif(
    shutil.which("fanoturan") is None,
    reason="fanoturan is not on PATH; install it with "
    "`pip install -e . --no-build-isolation` (README, Installation)",
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["fanoturan", "--version"], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"fanoturan {__version__}\n", proc.stderr
    proc = subprocess.run(
        ["fanoturan", "construct", "pasch", "6"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_text(proc.stdout) == construct("pasch", 6)


def test_parser_exposes_all_verbs():
    parser = build_parser()
    text = parser.format_help()
    for verb in ("construct", "check", "search", "verify", "multigraph"):
        assert verb in text


# Text reports, pinned byte for byte: a change to any of them changes what a
# user reads.
SEARCH_EX_7_TEXT = """\
n=7 max_edges=30 classes=2
7 30
0 1 2
0 1 3
0 2 3
1 2 3
0 1 4
0 2 4
1 2 4
0 3 4
1 3 4
2 3 4
0 1 5
0 2 5
1 2 5
0 3 5
1 3 5
2 3 5
0 4 5
1 4 5
2 4 5
3 4 5
0 1 6
0 2 6
1 2 6
0 3 6
1 3 6
2 3 6
0 4 6
1 4 6
2 4 6
3 4 6

7 30
0 1 2
0 1 3
0 2 3
1 2 3
0 1 4
0 2 4
1 2 4
0 3 4
1 3 4
0 1 5
0 2 5
1 2 5
0 3 5
1 3 5
0 4 5
1 4 5
0 2 6
1 2 6
0 3 6
1 3 6
2 3 6
0 4 6
1 4 6
2 4 6
3 4 6
0 5 6
1 5 6
2 5 6
3 5 6
4 5 6

"""

EXTREMAL_4_4 = (
    '{"p": 4, "n": 4, "pairs": [{"u": 0, "v": 1, "layers": [1, 2]}, '
    '{"u": 0, "v": 2, "layers": [1, 2, 3, 4]}, {"u": 0, "v": 3, "layers": [1, 2, 3, 4]}, '
    '{"u": 1, "v": 2, "layers": [1, 2, 3, 4]}, {"u": 1, "v": 3, "layers": [1, 2, 3, 4]}, '
    '{"u": 2, "v": 3, "layers": [3, 4]}]}'
)

PINNED_TEXT = {
    ("search", "ex", "--n", "7"): SEARCH_EX_7_TEXT,
    ("multigraph", "extremal4", "4"): f"edge_total=20\nformula=20\n{EXTREMAL_4_4}\n",
    ("multigraph", "constructions", "4"): (
        "n=4 totals=(25, 24)\n"
        '{"p": 5, "n": 4, "pairs": [{"u": 0, "v": 2, "layers": [1, 2, 3, 4, 5]}, '
        '{"u": 0, "v": 3, "layers": [1, 2, 3, 4, 5]}, {"u": 1, "v": 2, "layers": [1, 2, 3, 4, 5]}, '
        '{"u": 1, "v": 3, "layers": [1, 2, 3, 4, 5]}, {"u": 2, "v": 3, "layers": [1, 2, 3, 4, 5]}]}\n'
        '{"p": 5, "n": 4, "pairs": [{"u": 0, "v": 1, "layers": [1, 2]}, '
        '{"u": 0, "v": 2, "layers": [1, 2, 3, 4, 5]}, {"u": 0, "v": 3, "layers": [1, 2, 3, 4, 5]}, '
        '{"u": 1, "v": 2, "layers": [1, 2, 3, 4, 5]}, {"u": 1, "v": 3, "layers": [1, 2, 3, 4, 5]}, '
        '{"u": 2, "v": 3, "layers": [3, 4]}]}\n'
    ),
    ("multigraph", "search", "--p", "4", "--n", "4"): f"p=4\nn=4\nmax_edges=20\n{EXTREMAL_4_4}\n",
}


@pytest.mark.parametrize(
    "argv", list(PINNED_TEXT), ids=lambda argv: "-".join(a.lstrip("-") for a in argv)
)
def test_text_reports_match_the_pinned_text(argv, capsys):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.out == PINNED_TEXT[argv]
    assert captured.err == ""


@pytest.mark.parametrize("family,code,text", [
    ("j7", 1,
     "pattern=fano found=false\n"
     "  embedding: no witness\n"
     "  crossing_pairs: no witness\n"
     "  pasch_matching: no witness\n"),
    ("fano", 0,
     "pattern=fano found=true\n"
     "  embedding: [[0, 1, 2], [2, 3, 4], [0, 4, 5], [0, 3, 6], [2, 5, 6], [1, 4, 6], [1, 3, 5]]\n"
     "  crossing_pairs: [[0, 1, 2], [0, 3, 6], [0, 4, 5], [1, 3, 5], [1, 4, 6], [2, 3, 4], [2, 5, 6]]\n"
     "  pasch_matching: [[0, 1, 2], [0, 4, 5], [0, 3, 6], [2, 5, 6], [2, 3, 4], [1, 3, 5], [1, 4, 6]]\n"),
], ids=["j7", "fano"])
def test_check_all_methods_text_report(family, code, text, tmp_path, capsys):
    path = str(tmp_path / f"{family}.txt")
    assert main(["construct", family, "7", "-o", path]) == 0
    assert main(["check", path, "--method", "all"]) == code
    captured = capsys.readouterr()
    assert captured.out == text
    assert captured.err == ""


def test_verify_reports_a_failing_claim(capsys, monkeypatch):
    # a class list with one construction too many makes lemma-n7 fail
    monkeypatch.delenv("FANOTURAN_JOBS", raising=False)
    monkeypatch.setattr(search, "LEMMA_N7_FAMILIES", ("balanced_bipartite", "j7", "fano"))
    assert main(["verify", "lemma-n7"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[1].split()[:2] == ["lemma-n7", "fail"]
    assert lines[2].startswith("  witness: ")
    assert lines[-1] == "summary: 0 passed, 1 failed"
    assert captured.err == ""
    assert main(["verify", "lemma-n7", "--format", "json"]) == 1
    (cert,) = json.loads(capsys.readouterr().out)
    assert (cert["claim"], cert["verdict"], cert["space"], cert["visited"]) == (
        "lemma-n7", "fail", 324632, 324632,
    )
    assert cert["witnesses"][0]["unexpected_classes"] == []


def test_verify_rejects_zero_jobs(capsys):
    assert main(["verify", "matching-facts", "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: jobs must be at least 1, got 0\n"
    assert captured.out == ""


def test_check_reports_detector_disagreement(tmp_path, capsys, monkeypatch):
    def pasch_sees_nothing(h, method):
        return None if method is DetectionMethod.PASCH_MATCHING else find_fano_edges(h, method)

    path = str(tmp_path / "fano.txt")
    assert main(["construct", "fano", "7", "-o", path]) == 0
    monkeypatch.setattr(cli, "find_fano_edges", pasch_sees_nothing)
    assert main(["check", path, "--method", "all"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: detection methods disagree\n")
    assert json.loads(captured.err.split("\n", 1)[1])["pasch_matching"] == {
        "found": False, "witness": None,
    }
    assert captured.out == ""
