"""Command-line behavior on the corpus."""

import contextlib
import gc
import glob
import importlib
import io
import json
import os
import subprocess
import sys

import pytest

from eopoly import syntax
from eopoly.cli import main
from eopoly.enum_terms import enumerate_welltyped

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")
PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def path(name):
    return os.path.join(CORPUS, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_corpus(capsys):
    for f in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        code, out, _ = run(capsys, "check", f)
        assert code == 0, f
        assert "type:" in out and "valueness:" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "--json", "check", path("id_poly_v.eo"))
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "check"
    assert record["verdict"] == "ok"
    assert record["payload"]["valueness"] in ("val", "top")


def test_check_renames_type_binder_in_expression(tmp_path, capsys):
    """Checking the outer type abstraction substitutes 'a for 'b under the
    inner binder 'a, which must be renamed: the substituted reference is an
    impartial type variable, not an expression."""
    f = tmp_path / "tylam.eo"
    f.write_text("#lang impartial\n"
                 "((/\\'b. /\\'a. \\x. (x : 'b)) : forall 'a. forall 'c. 'a -[V]> 'a)\n")
    code, out, err = run(capsys, "check", str(f))
    assert code == 0, err
    assert out.splitlines() == ["type: forall 'a. forall 'c. 'a -[V]> 'a",
                                "valueness: val"]


@pytest.mark.parametrize("lang,ty", [("impartial", "1 -[V]> 1 -[V]> 1"),
                                     ("econ", "1 -> 1 -> 1")])
@pytest.mark.parametrize("outer", ["\\x.", "\\y.", "fix x. \\z.", "fix y. \\z."])
def test_renamed_binder_does_not_capture_a_free_name(tmp_path, capsys, lang,
                                                     ty, outer):
    """The inner binder x, renamed apart from an outer x, must not become
    the free x_1 of its body: every alpha-variant is the same unbound
    variable error."""
    f = tmp_path / "capture.eo"
    f.write_text(f"#lang {lang}\n(({outer} \\x. x_1) : {ty})\n")
    for command in ("check", "elaborate"):
        code, out, err = run(capsys, command, str(f))
        assert (code, out) == (1, ""), out
        assert err == "error: UnboundVariable: unbound variable x_1\n"


@pytest.mark.parametrize("lang,arrow", [("impartial", "-[V]>"), ("econ", "->")])
@pytest.mark.parametrize("free", ["'b", "'c"])
def test_type_abstraction_does_not_capture_a_free_type_name(tmp_path, capsys,
                                                             lang, arrow, free):
    """The abstraction is opened at its quantifier's name 'b, which is free
    in its body, so the name is renamed: with 'b the annotation is as
    ill-formed as its alpha-variant with 'c."""
    f = tmp_path / "tycapture.eo"
    f.write_text(f"#lang {lang}\n"
                 f"((/\\'a. (\\x. x : {free} {arrow} {free})) "
                 f": forall 'b. 'b {arrow} 'b)\n")
    for command in ("check", "elaborate"):
        code, out, err = run(capsys, command, str(f))
        assert (code, out) == (1, ""), out
        assert err.startswith("error: IllFormedType: annotation is not well-formed")


def test_econ_command(capsys):
    code, out, _ = run(capsys, "econ", path("map_impartial.eo"))
    assert code == 0
    assert "susp[" in out


def test_econ_rejects_econ_files(capsys):
    code, _, err = run(capsys, "econ", path("map_econ.eo"))
    assert code == 1


def test_elaborate_golden(capsys):
    code, out, _ = run(capsys, "--json", "elaborate", path("id_poly_n.eo"))
    assert code == 0
    record = json.loads(out)
    assert "force" in record["payload"]["term"]


def test_run_command(capsys):
    code, out, _ = run(capsys, "run", path("id_poly_v.eo"))
    assert code == 0
    assert "value" in out


def test_run_trace(capsys):
    code, out, _ = run(capsys, "run", path("byname_discard.eo"), "--trace")
    assert code == 0
    assert "thunk" in out  # the argument is suspended in the trace


def test_src_run_divergence(capsys):
    code, out, _ = run(capsys, "src-run", path("byname_discard.eo"),
                       "--fuel", "50")
    assert code == 1
    assert "out-of-fuel" in out


def test_src_run_json_trace(capsys):
    """``src-run --trace`` carries its trace in the JSON record, as ``run``
    does."""
    for cmd in ("run", "src-run"):
        code, out, _ = run(capsys, "--json", cmd, path("byname_discard.eo"),
                           "--fuel", "3", "--trace")
        payload = json.loads(out)["payload"]
        assert len(payload["trace"]) == payload["steps"] + 1, cmd
        assert payload["trace"][-1] == payload["result"], cmd


def test_trace_lines_are_written_as_the_run_goes(monkeypatch):
    """A traced run prints each state as soon as it reaches it: the first
    line is out before the run takes its last step."""
    from eopoly import source, target

    for cmd, module in (("run", target), ("src-run", source)):
        taken = []
        contract = module._contract
        monkeypatch.setattr(module, "_contract",
                            lambda redex: taken.append(redex) or contract(redex))
        writes = []

        class Out(io.StringIO):
            def write(self, text):
                writes.append((text, len(taken)))
                return len(text)

        with contextlib.redirect_stdout(Out()):
            main([cmd, "--trace", "--fuel", "20", path("stream_head.eo")])
        first = next(n for text, n in writes if text.startswith("  [0] "))
        assert first < len(taken), cmd


def test_src_run_reaches_default_fuel(capsys):
    """The by-value run of the lazy stream's head diverges; at the default
    fuel it still ends, because a run resumes each search at the
    contractum instead of re-walking the whole term."""
    code, out, _ = run(capsys, "src-run", path("stream_head.eo"))
    assert code == 1
    assert out.splitlines()[-1].startswith("out-of-fuel after 10000 step(s): ")


def test_src_run_value(capsys):
    code, out, _ = run(capsys, "src-run", path("nfree_mono.eo"))
    assert code == 0
    assert "value" in out


def test_steps_reports_flavors(capsys):
    code, out, _ = run(capsys, "steps", path("byname_discard.eo"))
    assert code == 0
    assert "byname" in out and "byvalue" in out


def test_freeness(capsys):
    code, out, _ = run(capsys, "--json", "freeness", path("nfree_mono.eo"))
    record = json.loads(out)
    assert record["payload"] == {"impartial": True, "econ": True, "target": True}
    code, out, _ = run(capsys, "--json", "freeness", path("id_poly_n.eo"))
    record = json.loads(out)
    assert record["payload"]["target"] is False


def test_verify_program(capsys):
    code, out, _ = run(capsys, "verify", path("id_poly_n.eo"))
    assert code == 0
    assert "consistency-simulation" in out
    assert "FAIL" not in out


# The corpus files whose membership or core searches never try a
# candidate type, so that ``verify`` builds no pool for them.
NO_POOL = {"map_econ.eo", "map_impartial.eo", "stream_even.eo",
           "stream_odd.eo", "tree_map.eo"}


def test_verify_builds_one_pool_per_file(capsys, monkeypatch):
    """A file's pool is built once, at the first search that tries
    candidates, and not at all for a file whose searches never do."""
    from eopoly import verify

    calls = []
    pool = verify._pool

    def counting(*a):
        calls.append(a)
        return pool(*a)

    monkeypatch.setattr(verify, "_pool", counting)
    for f in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        calls.clear()
        run(capsys, "verify", f)
        assert len(calls) == int(os.path.basename(f) not in NO_POOL), f


def test_verify_builds_no_pool_that_no_search_reads(tmp_path, capsys, monkeypatch):
    """On nested pairs and on nested recursive heads every search is
    decided by the terms alone, so ``verify`` never builds a pool."""
    from eopoly import verify

    def refuse(*a):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(verify, "_pool", refuse)
    monkeypatch.setattr(verify, "target_pool", refuse)
    e, t = "()", "1"
    for _ in range(200):
        e, t = f"((), {e})", f"1 *[V] ({t})"
    heads = "(1 -[V]> 1)"
    for i in reversed(range(50)):
        heads = f"rec[V] 'a{i}. {heads}"
    for name, text in (("pairs", f"({e} : {t})"), ("heads", f"((\\x. x) : {heads})")):
        f = tmp_path / f"{name}.eo"
        f.write_text(f"#lang impartial\n{text}\n")
        code, out, err = run(capsys, "verify", str(f))
        assert code == 0, (name, err)
        assert out.splitlines()[-1] == "7 checks: 7 ok, 0 failed, 0 search-exhausted"


def outermost_counter(counts):
    """A wrapper maker: ``outermost(name, fn)`` counts into ``counts[name]``
    each call of ``fn`` not made inside another counted call."""
    depth = [0]

    def outermost(name, fn):
        def wrapper(*a, **k):
            if depth[0] == 0:
                counts[name] = counts.get(name, 0) + 1
            depth[0] += 1
            try:
                return fn(*a, **k)
            finally:
                depth[0] -= 1
        return wrapper
    return outermost


def test_verify_derives_each_judgment_once(capsys, monkeypatch):
    """``verify FILE`` synthesizes and elaborates the program once and builds
    at most one pool, off the synthesis derivation, and none for a file
    whose searches try no candidate; the only checking derivation is the
    translation check's, on an impartial file.  Calls made inside another
    counted call are not counted."""
    from eopoly import econ, verify
    from eopoly.program import load_program

    counts = {}
    outermost = outermost_counter(counts)
    monkeypatch.setattr(econ, "econ_synth", outermost("econ_synth", econ.econ_synth))
    monkeypatch.setattr(econ, "econ_check", outermost("econ_check", econ.econ_check))
    monkeypatch.setattr(verify, "elaborate", outermost("elaborate", verify.elaborate))
    monkeypatch.setattr(verify, "_pool", outermost("_pool", verify._pool))
    for f in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        counts.clear()
        run(capsys, "verify", f)
        impartial_file = load_program(f).lang == "impartial"
        assert counts.get("econ_synth") == 1, (f, counts)
        assert counts.get("elaborate") == 1, (f, counts)
        assert counts.get("_pool", 0) == int(os.path.basename(f) not in NO_POOL), (
            f, counts)
        assert counts.get("econ_check", 0) == int(impartial_file), (f, counts)


def test_verify_derives_the_impartial_side_once(capsys, monkeypatch):
    """``verify FILE`` synthesizes an impartial program once and an econ
    program never; ``verify --enumerate`` makes no impartial derivation
    beyond the enumerator's own: the translation checks read the typing
    they are given."""
    from eopoly import impartial

    counts = {}
    outermost = outermost_counter(counts)
    monkeypatch.setattr(impartial, "check", outermost("check", impartial.check))
    monkeypatch.setattr(impartial, "synth", outermost("synth", impartial.synth))
    for f in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        counts.clear()
        run(capsys, "verify", f)
        impartial_file = open(f).readline().strip() == "#lang impartial"
        assert counts == ({"synth": 1} if impartial_file else {}), (f, counts)
    counts.clear()
    enumerate_welltyped(3)
    enumerator_only = dict(counts)
    counts.clear()
    run(capsys, "verify", "--enumerate", "3")
    assert counts == enumerator_only


def _check_line(out, check):
    return next(line for line in out.splitlines() if f" {check} " in line)


def test_verify_fuel_counts_steps_alike(capsys):
    """At ``--fuel k``, where the core run takes ``k`` steps, type safety
    and simulation both see the run end in a value; at ``k - 1`` both run
    out of fuel.  The gap witness's refutation comes before either."""
    for f in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        _, out, _ = run(capsys, "run", f)
        assert out.startswith("value after "), f
        k = int(out.split()[2])
        _, out, _ = run(capsys, "verify", f)
        simulation = _check_line(out, "consistency-simulation")
        for fuel, verdict in ((k, "PASS"), (k - 1, "OUT-OF-FUEL")):
            if fuel < 0:
                continue
            _, out, _ = run(capsys, "verify", "--fuel", str(fuel), f)
            safety = _check_line(out, "target-type-safety")
            assert safety.split() == ["PASS", "target-type-safety", f,
                                      f"steps={fuel}"], safety
            got = _check_line(out, "consistency-simulation")
            if "gap_" in f:
                assert got == simulation, got
            else:
                assert got.split() == [verdict, "consistency-simulation", f,
                                       f"steps={fuel}"], got


def test_verify_ill_typed_impartial_file(tmp_path, capsys):
    bad = tmp_path / "bad.eo"
    bad.write_text("#lang impartial\n((\\x. x) : 1 -[V]> 1 +[N] 1)\n")
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, out) == (1, "")
    assert err == ("error: TypeMismatch: synthesized IUnit() but expected "
                   "ISum(left=IUnit(), right=IUnit(), eo=N)\n")


def test_verify_verdicts_match_answers(capsys, monkeypatch):
    """Every corpus file's verdicts, in order, are the benchmark's
    hand-written known answers."""
    monkeypatch.syspath_prepend(PERFBENCH)
    answers = importlib.import_module("answers")
    for f in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        _, out, _ = run(capsys, "--json", "verify", f)
        got = [(r["check"], r["verdict"]) for r in json.loads(out)]
        assert got == answers.expected_checks(os.path.basename(f)), f


def test_verify_gap_witness_fails(capsys):
    code, out, _ = run(capsys, "verify", path("gap_argument_position.eo"))
    assert code == 1
    assert "refuted" in out


def test_verify_json_records(capsys):
    code, out, _ = run(capsys, "--json", "verify", path("nfree_mono.eo"))
    assert code == 0
    records = json.loads(out)
    assert all({"check", "program", "verdict", "witness"} <= set(r) for r in records)
    assert all(r["verdict"] in ("pass", "vacuous") for r in records)


def test_verify_summary_counts_exhausted_apart(capsys):
    code, out, _ = run(capsys, "verify", "--depth", "0", path("map_applied_v.eo"))
    assert code == 0
    assert out.splitlines()[-1] == "7 checks: 6 ok, 0 failed, 1 search-exhausted"


def test_python_m_eopoly():
    r = subprocess.run([sys.executable, "-m", "eopoly", "check", path("id_poly_v.eo")],
                       env=dict(os.environ, PYTHONPATH=SRC),
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert "type:" in r.stdout


def test_verify_enumerate(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "4")
    assert code == 0
    assert out.splitlines()[-1] == "2540 checks: 2540 ok, 0 failed, 0 search-exhausted"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.eo"
    bad.write_text("#lang impartial\n(\\x. : 1)")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "parse error" in err


def test_missing_file_exit_code(capsys):
    code, _, _ = run(capsys, "check", "no_such_file.eo")
    assert code == 2


def _error_record(out, command, file, error):
    record = json.loads(out)
    assert record["command"] == command and record["input"] == file
    assert record["verdict"] == "error"
    assert record["payload"]["error"] == error
    return record["payload"]["message"]


def test_json_reports_a_type_error_on_stdout(tmp_path, capsys):
    """Exit 1 with ``--json``: the stderr line stays, and stdout holds one
    error record."""
    bad = tmp_path / "bad.eo"
    bad.write_text("#lang impartial\n(() : 1 -[V]> 1)\n")
    code, out, err = run(capsys, "--json", "verify", str(bad))
    assert code == 1
    assert err.startswith("error: TypeMismatch: ")
    message = _error_record(out, "verify", str(bad), "TypeMismatch")
    assert err == f"error: TypeMismatch: {message}\n"


def test_json_reports_parse_and_file_errors_on_stdout(tmp_path, capsys):
    """Exit 2 with ``--json``: an empty file and a missing one each give
    their stderr line and one error record; a usage error prints nothing
    on stdout."""
    empty = tmp_path / "empty.eo"
    empty.write_text("")
    code, out, err = run(capsys, "--json", "check", str(empty))
    assert code == 2
    message = _error_record(out, "check", str(empty), "ParseError")
    assert err == f"parse error: {message}\n"
    code, out, err = run(capsys, "--json", "check", "no_such_file.eo")
    assert code == 2
    message = _error_record(out, "check", "no_such_file.eo", "FileNotFoundError")
    assert err == f"error: {message}\n"
    code, out, err = run(capsys, "--json", "run", "--fuel", "-1", str(empty))
    assert (code, out) == (2, "") and "non-negative integer" in err


def test_unreadable_input_exits_2_with_one_error_line(tmp_path, capsys):
    """A directory and a file that is not UTF-8 each exit 2 with one
    ``error:`` line and no traceback, and with ``--json`` also one error
    record on stdout."""
    latin = tmp_path / "latin.eo"
    latin.write_bytes(b"#lang impartial\n(() : 1) \xe9\n")
    for file, error in ((str(tmp_path), "IsADirectoryError"),
                        (str(latin), "UnicodeDecodeError")):
        code, out, err = run(capsys, "check", file)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        code, out, err = run(capsys, "--json", "check", file)
        assert code == 2
        message = _error_record(out, "check", file, error)
        assert err == f"error: {message}\n"


def test_deep_input_exit_code(tmp_path, capsys):
    lst = "inj1 ()"
    for _ in range(30_000):
        lst = f"inj2 ((), {lst})"
    deep = tmp_path / "deep.eo"
    deep.write_text("#lang impartial\n"
                    "type VList 'e = rec[V] 'b. (1 +[V] ('e *[V] 'b))\n"
                    f"(({lst}) : VList 1)\n")
    code, _, err = run(capsys, "check", str(deep))
    assert code == 3
    assert "nests too deeply" in err
    assert "Traceback" not in err


def test_negative_counts_are_usage_errors(capsys):
    f = path("nfree_mono.eo")
    for argv in (["run", "--fuel", "-1", f], ["src-run", "--fuel", "-1", f],
                 ["verify", "--fuel", "-1", f], ["verify", "--depth", "-1", f],
                 ["verify", "--enumerate", "-1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "non-negative integer" in err, argv


def test_verify_takes_a_file_or_an_enumeration(capsys):
    code, out, err = run(capsys, "verify", path("id_poly_v.eo"), "--enumerate", "1")
    assert code == 2
    assert out == "" and "not both" in err


def test_verify_without_a_file_or_an_enumeration_is_a_usage_error(capsys):
    for argv in (["verify"], ["--json", "verify"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("usage: "), argv
        assert "error: verify needs a FILE or a positive --enumerate BOUND" in err


def _live_nodes():
    gc.collect()
    return sum(isinstance(o, syntax.Node) for o in gc.get_objects())


def test_no_node_outlives_its_request(capsys):
    """Verifying every corpus file in one process leaves no node alive:
    no table kept across requests holds one."""
    before = _live_nodes()
    for f in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        code, out, _ = run(capsys, "verify", f)
        assert code in (0, 1) and out.endswith(" search-exhausted\n"), f
    assert _live_nodes() == before


def test_zero_counts_are_accepted(capsys):
    code, out, _ = run(capsys, "run", "--fuel", "0", path("nfree_mono.eo"))
    assert code == 1 and out.startswith("out-of-fuel after 0 step(s)")
    code, out, _ = run(capsys, "verify", "--enumerate", "0", "--depth", "0",
                       path("id_poly_v.eo"))
    assert code == 0
