import io
import json

import pytest

from abwscl.cli import main
from conftest import MINI_SOURCE


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main([str(a) for a in argv], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def corpus_file(tmp_path, corpus_text):
    p = tmp_path / "corpus.abwscl"
    p.write_text(corpus_text, encoding="utf-8")
    return p


@pytest.fixture()
def mini_file(tmp_path):
    p = tmp_path / "mini.abwscl"
    p.write_text(MINI_SOURCE, encoding="utf-8")
    return p


def test_run_reaches_quiescence(corpus_file, tmp_path):
    out_file = tmp_path / "trace.txt"
    code, out, err = run_cli(
        "run", "BuyingBookWSC", corpus_file, "--max-steps", "500", "--out", out_file
    )
    assert (code, out, err) == (0, "", "")
    text = out_file.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "abwscl-trace v1"
    assert "quiescent" in text.splitlines()[1]


def test_run_without_out_prints_the_trace(mini_file):
    code, out, err = run_cli("run", "MiniWSC", mini_file)
    assert code == 0
    assert out.splitlines()[0] == "abwscl-trace v1"


def test_run_is_deterministic(corpus_file, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("run", "BuyingBookWSC", corpus_file, "--out", a)[0] == 0
    assert run_cli("run", "BuyingBookWSC", corpus_file, "--out", b)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_reports_the_step_limit(corpus_file):
    code, out, _ = run_cli(
        "run", "BuyingBookWSC", corpus_file, "--max-steps", "3"
    )
    assert code == 3
    assert "step-limit" in out


def test_unknown_entry_name(corpus_file):
    code, _, err = run_cli("run", "NoSuchWSC", corpus_file)
    assert code == 2
    assert "NoSuchWSC" in err


def test_unknown_second_name(corpus_file):
    code, out, err = run_cli("check", "UserAgentWSO", "Nobody", "wso-ws", corpus_file)
    assert (code, out) == (2, "")
    assert "Nobody" in err


def test_unparseable_corpus(tmp_path):
    bad = tmp_path / "bad.abwscl"
    bad.write_text("WSO Broken {", encoding="utf-8")
    code, _, err = run_cli("run", "Broken", bad)
    assert code == 1
    assert "error:" in err


# each command with names for a corpus defining `Broken`, before the corpus
COMMANDS = {
    "run": ("run", "Broken"),
    "check": ("check", "Broken", "Broken", "ws-ws"),
    "export": ("export", "cdl", "Broken"),
}


def _refused(files, command, tmp_path):
    """Standard error of a command refusing the corpus `files`."""
    args = COMMANDS[command] + tuple(files)
    if command == "export":
        args += ("--out", tmp_path)
    code, out, err = run_cli(*args)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["check", "export"])
def test_unparseable_corpus_for_check_and_export(tmp_path, command):
    bad = tmp_path / "bad.abwscl"
    bad.write_text("WSO Broken {", encoding="utf-8")
    _refused((bad,), command, tmp_path)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_undecodable_corpus(tmp_path, command):
    bad = tmp_path / "bad.abwscl"
    bad.write_bytes(b"AA A {\xff }")
    _refused((bad,), command, tmp_path)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_load_errors_name_their_file(mini_file, tmp_path, command):
    """With two files, a parse or decode error names the file at fault."""
    broken = tmp_path / "broken.abwscl"
    for content, where in ((b"WSO Broken {", ":1:13: "), (b"AA A {\n  x\xff }", ":2:4: ")):
        broken.write_bytes(content)
        err = _refused((mini_file, broken), command, tmp_path)
        assert err.startswith(f"error: {broken}{where}"), err


def test_invalid_corpus(tmp_path, aa_create_mutant_text):
    bad = tmp_path / "mutant.abwscl"
    bad.write_text(aa_create_mutant_text, encoding="utf-8")
    code, _, err = run_cli("run", "BuyingBookWSC", bad)
    assert code == 1
    assert "AACannotCreate" in err


def test_run_reports_an_evaluation_error(tmp_path, corpus_text):
    # validates, but `!` of a list is a type error once SendSBAA sends
    send = "wso-ref <- sendSB(selectedBooks)"
    at = corpus_text.index(send)
    assert corpus_text.index("AA SendSBAA") < at < corpus_text.index("AA ReceivePBAA")
    bad = tmp_path / "negated.abwscl"
    negated = corpus_text.replace(send, "wso-ref <- sendSB(!selectedBooks)", 1)
    bad.write_text(negated, encoding="utf-8")
    code, out, err = run_cli("run", "BuyingBookWSC", bad)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_flag_invariants(corpus_file):
    code, _, err = run_cli("run", "BuyingBookWSC", corpus_file, "--max-steps", "0")
    assert code == 1
    assert "positive" in err
    code, _, err = run_cli(
        "check", "MiniWSO", "MiniWS", "wso-ws", corpus_file, "--depth", "-1"
    )
    assert code == 1
    code, out, err = run_cli(
        "check", "UserAgentWSO", "UserAgentWS", "wso-ws", corpus_file, "--depth", "0"
    )
    assert (code, out) == (1, "")
    assert err == "error: depth must be positive\n"


def test_check_composable(mini_file):
    code, out, _ = run_cli(
        "check", "MiniWSO", "MiniWS", "wso-ws", mini_file, "--depth", "6"
    )
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["verdict"] == "Composable"
    assert record["depth"] == 6
    assert "composable" in out.splitlines()[1]


def test_check_incompatible_prints_a_witness(mini_file):
    code, out, _ = run_cli(
        "check", "MiniWSO", "MiniDriverWS", "wso-ws", mini_file, "--depth", "6"
    )
    assert code == 4
    record = json.loads(out.splitlines()[0])
    assert record["verdict"] == "Incompatible"
    assert record["missing"] == ["right:consume-2(pong)"]
    assert record["witness"][-1].endswith("consume-2(MiniWSO,MiniDriverWS,pong)")


def test_check_member_overlap(mini_file):
    code, out, _ = run_cli("check", "MiniWS", "MiniWS", "ws-ws", mini_file)
    assert code == 5
    record = json.loads(out.splitlines()[0])
    assert record["verdict"] == "MemberOverlap"
    assert record["overlap"] == ["MiniWS"]


def test_check_kind_mismatch(mini_file):
    for name_a, name_b, boundary, message in [
        ("MiniWS", "MiniWSO", "wso-ws", "MiniWS is a WS, not a WSO"),
        # one name on both sides still has to be of the boundary's kind
        ("MiniWSO", "MiniWSO", "ws-ws", "MiniWSO is a WSO, not a WS"),
        ("MiniWS", "MiniWS", "wso-ws", "MiniWS is a WS, not a WSO"),
    ]:
        code, _, err = run_cli("check", name_a, name_b, boundary, mini_file)
        assert code == 1
        assert err == f"error: {message}\n"


def test_export_writes_the_document(corpus_file, tmp_path):
    out_dir = tmp_path / "docs"
    out_dir.mkdir()
    code, out, _ = run_cli(
        "export", "cdl", "BuyingBookWSC", corpus_file, "--out", out_dir
    )
    assert code == 0
    written = out_dir / "BuyingBookWSC.cdl.xml"
    assert str(written) in out
    body = written.read_bytes()
    assert body.startswith(b'<?xml version="1.0" encoding="UTF-8"?>')
    assert run_cli(
        "export", "cdl", "BuyingBookWSC", corpus_file, "--out", out_dir
    )[0] == 0
    assert written.read_bytes() == body


def test_export_kind_mismatch(corpus_file, tmp_path):
    code, _, err = run_cli(
        "export", "wsdl", "BuyingBookWSC", corpus_file, "--out", tmp_path
    )
    assert code == 6
    assert "not WS" in err


def test_export_unknown_name(corpus_file, tmp_path):
    code, _, _ = run_cli(
        "export", "bpel", "Nobody", corpus_file, "--out", tmp_path
    )
    assert code == 2


def test_run_into_a_missing_directory_is_an_error(mini_file, tmp_path):
    missing = tmp_path / "nonexistent_dir" / "trace.txt"
    code, out, err = run_cli("run", "MiniWSC", mini_file, "--out", missing)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "nonexistent_dir" in err
    assert "Traceback" not in err
    assert not missing.parent.exists()


def test_export_into_a_missing_directory_is_an_error(corpus_file, tmp_path):
    missing = tmp_path / "nonexistent_dir"
    code, out, err = run_cli("export", "cdl", "BuyingBookWSC", corpus_file, "--out", missing)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "nonexistent_dir" in err
    assert not missing.exists()
