"""Command-line behavior on the corpus."""

import glob
import json
import os

from eopoly.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


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


def test_verify_builds_one_pool_per_file(capsys, monkeypatch):
    from eopoly import verify

    calls = []
    build_pool = verify.build_pool

    def counting(*a):
        calls.append(a)
        return build_pool(*a)

    monkeypatch.setattr(verify, "build_pool", counting)
    for f in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        calls.clear()
        run(capsys, "verify", f)
        assert len(calls) == 1, f


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


def test_verify_enumerate(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "3")
    assert code == 0


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.eo"
    bad.write_text("#lang impartial\n(\\x. : 1)")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "parse error" in err


def test_missing_file_exit_code(capsys):
    code, _, _ = run(capsys, "check", "no_such_file.eo")
    assert code == 2


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
