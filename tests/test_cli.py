import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vknots
from vknots import invariants, parse, serialize
from vknots.cli import main
from vknots.errors import GaussCodeError, ValidationError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_roundtrip(capsys):
    code, out, _ = run(capsys, "parse", "U1+O2+U2+O1+")
    assert code == 0
    assert out.strip() == "O1+U1+O2+U2+"


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "--json", "HOPF")
    assert code == 0
    assert json.loads(out) == {"code": "O1-;U1-", "components": 2, "crossings": 1}


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", "O1+U1-")
    assert code == 2
    assert "mismatched signs" in err


def test_parse_nonpositive_id_exit_2(capsys):
    code, _, err = run(capsys, "parse", "O0+U0+")
    assert code == 2
    assert "crossing id must be positive, got 0" in err


def test_invariant_aip_golden(capsys):
    code, out, _ = run(capsys, "invariant", "--inv", "aip", "O1+O2+U1+U2+")
    assert code == 0
    assert out.strip() == "t - 2 + t^-1"


def test_invariant_fnmk_kprime(capsys):
    code, out, _ = run(capsys, "invariant", "--inv", "fnmk",
                       "--n", "1", "--m", "1", "--k", "1", "KPRIME")
    assert code == 0
    assert out.strip() == "-l2^4 + 2 - l2^-4"


def test_invariant_span_hopf(capsys):
    code, out, _ = run(capsys, "invariant", "--inv", "span", "HOPF")
    assert code == 0
    assert out.strip() == "-1"


def test_invariant_json_poly(capsys):
    code, out, _ = run(capsys, "invariant", "--inv", "aip", "--json", "VTREF")
    assert code == 0
    assert json.loads(out) == {
        "vars": ["t"],
        "terms": [
            {"coef": 1, "exp": [1]},
            {"coef": -2, "exp": [0]},
            {"coef": 1, "exp": [-1]},
        ],
    }


def test_invariant_precondition_exit_3(capsys):
    code, _, err = run(capsys, "invariant", "--inv", "aip", "HOPF")
    assert code == 3
    assert "knot diagram" in err


@pytest.mark.parametrize("code", ["0", "O1+U1+", "K431"])
@pytest.mark.parametrize("spec", ["ftilde(1,0,1)", "ftilde(1,-2,0)"])
def test_ftilde_nonpositive_k_exit_3(capsys, code, spec):
    """k is the n of ftilde's flat spans, so k <= 0 is rejected on every
    knot, including one without crossings."""
    status, out, err = run(capsys, "invariant", "--inv", spec, code)
    assert (status, out) == (3, "")
    assert err.strip() == "precondition violated: the (n,k)-span requires n > 0"


def test_smooth_subcommand(capsys):
    code, out, _ = run(capsys, "smooth", "--type", "3", "--at", "1", "HOPF")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "smooth", "--type", "2", "--at", "1", "O1+U1+")
    assert out.strip() == "0;0"
    code, _, err = run(capsys, "smooth", "--type", "1", "--at", "1", "HOPF")
    assert code == 3


def test_move_list_and_apply(capsys):
    code, out, _ = run(capsys, "move", "--list", "O1+U1+")
    assert code == 0
    assert "R1-delete" in out
    code, out, _ = run(capsys, "move", "--apply", "0", "O1+U1+")
    assert code == 0
    assert out.strip() == "0"


@pytest.mark.parametrize("kinds", ["R4", "R1-delete,R4", "R1-insert,", ""])
@pytest.mark.parametrize("apply", [(), ("--apply", "0")])
def test_move_unknown_kind_exit_3(capsys, kinds, apply):
    code, out, err = run(capsys, "move", "--kinds", kinds, *apply, "O1+U1+")
    assert code == 3
    assert out == ""
    assert err.startswith("precondition violated: unknown move kind")


def test_move_apply_builds_the_listed_site(capsys):
    # --apply builds site N by index instead of listing; it must be site N.
    from vknots.moves import apply_move, enumerate_moves

    code = "O1+U2-U1+O2-;0"
    for kinds in ("R1-delete,R2-insert", "R3,R1-insert,R2-insert"):
        sites = enumerate_moves(parse(code), tuple(kinds.split(",")))
        for n in (0, 1, len(sites) // 2, len(sites) - 1):
            _, out, _ = run(capsys, "move", "--kinds", kinds, "--apply", str(n), code)
            assert out.strip() == serialize(apply_move(parse(code), sites[n])), (kinds, n)
        status, _, err = run(capsys, "move", "--kinds", kinds, "--apply", str(len(sites)), code)
        assert status == 3
        assert err.strip().endswith(f"move index {len(sites)} out of range (0..{len(sites) - 1})")


def test_move_kinds_ignore_spaces(capsys):
    _, spaced, _ = run(capsys, "move", "--kinds", "R1-delete, R1-insert", "O1+U1+")
    _, tight, _ = run(capsys, "move", "--kinds", "R1-delete,R1-insert", "O1+U1+")
    assert spaced == tight
    assert "R1-insert" in spaced


def test_parameter_flags_do_not_leak_between_calls(capsys):
    code = "O1-O2+O3+U1-U3+U2+"  # djn(1) = 2, djn(2) = -1
    assert run(capsys, "invariant", "--inv", "djn", "--n", "2", code)[:2] == (0, "-1\n")
    assert run(capsys, "invariant", "--inv", "djn", code)[:2] == (0, "2\n")


def test_verify_pass_and_determinism(capsys):
    args = ("verify", "--inv", "aip,djn(1),djnm(1,1)", "--steps", "20",
            "--seed", "5", "K431")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "RESULT PASS" in out1
    assert out1.count("PASS") == 4  # three invariants + RESULT line


def test_verify_unknot_all(capsys):
    code, out, _ = run(capsys, "verify", "--inv", "all", "--steps", "10",
                       "--seed", "3", "--max-crossings", "6", "UNKNOT")
    assert code == 0
    assert "RESULT PASS" in out


_CATALOG = str(Path(vknots.__file__).parent / "data" / "catalog.tsv")


@pytest.mark.parametrize("argv", [
    ("verify", "--inv", "", "--steps", "3", "--seed", "1", "K431"),
    ("verify", "--inv", "aip,", "--steps", "3", "--seed", "1", "K431"),
    ("distinguish", "--inv", "", "K431", "VTREF"),
    ("batch", "--inv", "", _CATALOG),
], ids=["verify-empty", "verify-trailing-comma", "distinguish-empty", "batch-empty"])
def test_empty_invariant_entry_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "precondition violated: unknown invariant ''\n"


def test_verify_walk_stopped_early_says_so(capsys):
    # VK3 has 20 crossings, so no move keeps it within the default cap of 12.
    code, out, err = run(capsys, "verify", "--inv", "aip", "--steps", "50",
                         "--seed", "1", "VK3")
    assert code == 0
    assert out == "verify steps=50 seed=1 max-crossings=12\nPASS aip\nRESULT PASS\n"
    assert err == ("walk stopped after 0 of 50 steps: no move keeps the diagram "
                   "within --max-crossings 12\n")


def test_verify_full_walk_writes_no_stderr(capsys):
    code, _, err = run(capsys, "verify", "--inv", "aip", "--steps", "5",
                       "--seed", "1", "K431")
    assert (code, err) == (0, "")


def test_distinguish_kishino_unknot(capsys):
    code, out, _ = run(capsys, "distinguish", "KISHINO", "UNKNOT")
    assert code == 0
    assert out.startswith("DISTINCT")


def test_distinguish_vk_pair(capsys):
    for spec in ("ftilde(2,2,0)", "ftilde(2,2,2)"):
        code, out, _ = run(capsys, "distinguish", "--inv", spec, "VK3", "VK4")
        assert code == 0
        assert out.startswith("DISTINCT via ftilde")


def test_distinguish_equivalent_inconclusive(capsys):
    from vknots import serialize
    from vknots.moves import random_walk
    from conftest import named

    moved = serialize(random_walk(named("VTREF"), 25, 9, 9))
    code, out, _ = run(capsys, "distinguish", "VTREF", moved)
    assert code == 1
    assert out.strip() == "INCONCLUSIVE"


@pytest.mark.parametrize("argv,message", [
    (("djn(0)", "K431", "VTREF"), "n > 0"),
    (("aip", "HOPF", "UNLINK2"), "needs a knot diagram"),
    (("bsum(3)", "K431", "VTREF"), "out of range"),
])
def test_distinguish_with_nothing_comparable_is_a_precondition_error(
        capsys, argv, message):
    """When no listed invariant applies, nothing was compared: exit 3,
    as ``verify`` does, not INCONCLUSIVE."""
    code, out, err = run(capsys, "distinguish", "--inv", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("precondition violated:") and message in err


def test_distinguish_skips_an_invariant_that_does_not_apply(capsys):
    code, out, _ = run(capsys, "distinguish", "--inv", "lk,aip", "K431", "VTREF")
    assert code == 0
    assert out.startswith("DISTINCT via aip")
    code, out, _ = run(capsys, "distinguish", "--inv", "djn(0),aip",
                       "VTREF", "VTREF")
    assert (code, out.strip()) == (1, "INCONCLUSIVE")


def test_batch(capsys, tmp_path):
    cat = tmp_path / "cat.tsv"
    cat.write_text(
        "# demo catalog\nvt\tO1+O2+U1+U2+\thello\nhopf\tO1-;U1-\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "batch", "--inv", "aip,span", str(cat))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vt\taip=t - 2 + t^-1\tspan=-"
    assert lines[1] == "hopf\taip=-\tspan=-1"


def test_input_from_file(capsys, tmp_path):
    f = tmp_path / "knot.gauss"
    f.write_text("# the virtual trefoil\nO1+O2+U1+U2+\n", encoding="utf-8")
    code, out, _ = run(capsys, "invariant", "--inv", "aip", str(f))
    assert code == 0
    assert out.strip() == "t - 2 + t^-1"


@pytest.mark.parametrize("spec", ["djn(x)", "djn(1,)", "djnm(1, y)"])
def test_invariant_bad_parameters_exit_3(capsys, spec):
    code, _, err = run(capsys, "invariant", "--inv", spec, "VTREF")
    assert code == 3
    assert "must be integers" in err


@pytest.mark.parametrize("spec,message", [
    ("foo(1", "malformed invariant spec 'foo(1'"),
    ("foo(x)", "parameters of 'foo(x)' must be integers"),
    ("foo", "unknown invariant 'foo'"),
    ("djn(1,2)", "invariant 'djn' takes 1 parameter(s)"),
])
def test_invariant_spec_errors_exit_3(capsys, spec, message):
    # Checked in this order: shape, then integer parameters, then the name,
    # then the parameter count.
    code, out, err = run(capsys, "invariant", "--inv", spec, "VTREF")
    assert (code, out, err) == (3, "", f"precondition violated: {message}\n")


def test_batch_missing_catalog_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "batch", "--inv", "aip", str(tmp_path / "none.tsv"))
    assert code == 2
    assert err.startswith("input error: cannot read catalog")


def test_unreadable_input_file_exit_2(capsys, tmp_path):
    f = tmp_path / "knot.gauss"
    f.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "invariant", "--inv", "aip", str(f))
    assert code == 2
    assert err.startswith("input error: cannot read input file")


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--seed", "1", "--steps", "3", "--max-crossings", "-5", "VTREF"),
     "max-crossings"),
    (("distinguish", "--depth", "-1", "KISHINO", "UNKNOT"), "depth"),
    (("distinguish", "--window", "0", "KISHINO", "UNKNOT"), "window"),
    (("batch", "--window", "0", "missing.tsv"), "window"),
])
def test_out_of_range_flags_exit_3(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"precondition violated: {flag} must be >= ")


@pytest.mark.parametrize("argv", [
    ("smooth", "--json", "--type", "1", "--at", "1", "HOPF"),
    ("move", "--json", "O1+U1+"),
    ("verify", "--json", "--seed", "1", "--steps", "1", "--inv", "aip", "VTREF"),
    ("distinguish", "--json", "KISHINO", "UNKNOT"),
    ("invariant", "--depth", "1", "--inv", "aip", "VTREF"),
    ("batch", "--depth", "1", "--inv", "aip", "missing.tsv"),
    ("invariant", "--window", "2", "--inv", "aip", "VTREF"),
])
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--steps", "--max-crossings"])
def test_verify_rejects_flag_before_baseline(capsys, monkeypatch, flag):
    calls = []
    real = invariants.comparable_invariant

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(invariants, "comparable_invariant", counting)
    code, out, err = run(capsys, "verify", flag, "-1", "--seed", "7", "K431")
    assert code == 3
    assert out == ""
    assert err.startswith(f"precondition violated: {flag[2:]} must be >= 0")
    assert calls == []


_FUZZ_COMMANDS = (
    ("parse",),
    ("invariant", "--inv", "aip"),
    ("invariant", "--inv", "span"),
    ("invariant", "--inv", "bsum(1)"),
    ("smooth", "--type", "2", "--at", "1"),
    ("move",),
)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="OU0123456789+-;() \u0663", max_size=30))
def test_arbitrary_text_maps_to_documented_exit_codes(text):
    for command in _FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*command, "--", text])
        assert code in (0, 2, 3), (command, err.getvalue())
        if command == ("parse",):
            try:
                canon = serialize(parse(text))
            except (GaussCodeError, ValidationError):
                assert code == 2
                continue
            assert code == 0
            assert out.getvalue() == canon + "\n"
            assert serialize(parse(canon)) == canon


def test_reader_closing_stdout_exits_141_without_traceback():
    # VK4's site list (about 590 kB) outgrows the pipe buffer, so a write
    # fails once the reader has gone.
    src = str(Path(vknots.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen([sys.executable, "-m", "vknots.cli", "move", "--list", "VK4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"0: R1-delete at (0, 8)\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert b"Traceback" not in err, err.decode()
