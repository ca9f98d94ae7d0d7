import ast
import atexit
import gc
import importlib
import io
import os
import resource
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import dualmem
from dualmem import (
    MembershipRelation,
    Permutation,
    build_v_universe,
    dual_structure,
    iso,
    lemmas,
    parse_structure,
    serialize_structure,
    scramble,
    tamper,
)
from dualmem import cli
from dualmem.cli import main
from dualmem.formulas import MAX_FORMULA_DEPTH
from dualmem.iso import IsoCertificate
from dualmem.lemmas import EXPECTED_SUMMARIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MAIN_ENTRY = ["-c", "import sys; from dualmem.cli import main; sys.exit(main())"]  # main, then a normal exit


def run_process(*argv, entry=("-m", "dualmem.cli"), unbuffered=False, **options):
    """The CLI in a child interpreter, so that a traceback would show on its stderr;
    its stdio buffered unless unbuffered, whatever the environment of the tests."""
    env = {**os.environ, "PYTHONPATH": str(Path(dualmem.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *entry, *argv], capture_output=True, text=True, env=env, **options,
    )


def run_child(argv, entry=("-m", "dualmem.cli"), unbuffered=False, close_stdout=False):
    """(exit code, stdout, stderr) of a child interpreter, its stdout buffered unless
    unbuffered; with close_stdout the reader of stdout has gone before the child
    writes, and stdout reads b""."""
    env = {**os.environ, "PYTHONPATH": str(Path(dualmem.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, *entry, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    if close_stdout:
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        return proc.wait(timeout=60), b"", err
    out, err = proc.communicate(timeout=60)
    return proc.returncode, out, err


@pytest.fixture()
def v3_file(tmp_path):
    path = tmp_path / "v3.st"
    path.write_text(serialize_structure(build_v_universe(3)))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["find-iso", "{st}"],
        ["check-axioms", "{st}"],
        ["eval", "{st}", "--formula", "x = x", "--assign", "x=0"],
        ["verify-lemmas", "{st}"],
        ["collapse", "{st}", "--element", "0"],
        ["gen", "scramble", "--in", "{st}", "--out", "{out}"],
    ],
)
def test_structure_not_utf8_exit_two_with_line(tmp_path, argv):
    bad = tmp_path / "bad.st"
    bad.write_bytes(b"n 2\r\ne1 0 1\r\n# caf\xff\r\n")
    proc = run_process(*(arg.format(st=bad, out=tmp_path / "out.st") for arg in argv))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: line 3: byte 0xff is not valid UTF-8\n"


@pytest.mark.parametrize("ending, code", [(b"\n", 0), (b"\r\n", 0), (b"\r", 2)])
def test_structure_lines_end_at_newline(capsys, tmp_path, ending, code):
    # The file's bytes are read as the format says: a line ends at '\n', and
    # a '\r' before it is dropped; a lone '\r' ends no line.
    path = tmp_path / "lines.st"
    path.write_bytes(ending.join([b"n 2", b"e1 0 1", b"e2 0 1", b""]))
    assert run(capsys, "find-iso", str(path)) == (
        (0, "iso 2\nmap 0 0\nmap 1 1\n", "") if code == 0 else (2, "", "error: line 1: header must be 'n <N>'\n")
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["find-iso", "{st}"],
        ["collapse", "{st}", "--element", "0"],
        ["check-axioms", "{st}", "--mode", "semantic"],
        ["verify-lemmas", "{st}"],
    ],
)
def test_out_of_memory_exit_two(tmp_path, argv):
    huge = tmp_path / "huge.st"
    huge.write_text("n 300000000\ne1 0 1\n")  # the CSR offsets alone take 2.4 GB

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))

    proc = run_process(*(arg.format(st=huge) for arg in argv), preexec_fn=limit_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr


def run_every_subcommand(capsys, tmp_path, s):
    """Run each subcommand once, on s (an isomorphic pair), a gallery item or
    generated input, and check its exit code."""
    iso_file = str(tmp_path / "s.st")
    Path(iso_file).write_text(serialize_structure(s))
    gallery = tmp_path / "g"
    run(capsys, "gen", "gallery", "--out", str(gallery))
    assert run(capsys, "find-iso", iso_file, "--verify", "--oracle-check")[0] == 0
    assert run(capsys, "find-iso", str(gallery / "chain-vs-v3.st"))[0] == 1
    assert run(capsys, "eval", iso_file, "--formula", "x in1 y | y in2 x", "--assign", "x=0,y=1")[0] == 0
    assert run(capsys, "verify-lemmas", iso_file)[0] == 0
    assert run(capsys, "verify-lemmas", "--corpus", "sizes=3 count=2 kinds=scrambled,random-pair")[0] == 0
    for mode in ("battery", "bounded", "semantic"):
        assert run(capsys, "check-axioms", iso_file, "--mode", mode)[0] == 0, mode
    assert run(capsys, "collapse", iso_file, "--element", "5")[0] == 0
    out = str(tmp_path / "out.st")
    assert run(capsys, "gen", "v-universe", "--n", "4", "--out", out)[0] == 0
    assert run(capsys, "gen", "scramble", "--in", iso_file, "--out", out)[0] == 0
    assert run(capsys, "gen", "random-pair", "--size", "20", "--out", out)[0] == 0
    assert run(capsys, "gen", "gallery", "--out", str(tmp_path / "g2"))[0] == 0
    for kind in ("add-cycle", "break-extensionality", "remove-edge"):
        assert run(capsys, "gen", "tamper", "--in", iso_file, "--tamper-kind", kind, "--out", out)[0] == 0, kind


class TestGen:
    def test_v_universe(self, capsys, tmp_path):
        out_path = tmp_path / "u.st"
        code, out, _ = run(capsys, "gen", "v-universe", "--n", "3", "--out", str(out_path))
        assert code == 0
        assert out.strip() == str(out_path)
        assert parse_structure(out_path.read_text()) == build_v_universe(3)

    def test_scramble_prints_permutation(self, capsys, tmp_path, v3_file):
        out_path = tmp_path / "s.st"
        code, out, _ = run(capsys, "gen", "scramble", "--in", v3_file, "--seed", "7", "--out", str(out_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == str(out_path)
        assert lines[1].startswith("perm ")
        assert sorted(map(int, lines[1].split()[1:])) == [0, 1, 2, 3]

    def test_gallery_writes_files_and_summaries(self, capsys, tmp_path):
        directory = tmp_path / "g"
        code, out, _ = run(capsys, "gen", "gallery", "--out", str(directory))
        assert code == 0
        assert len(out.splitlines()) == 8
        expected = (directory / "chain-vs-v3.expected").read_text()
        assert expected == EXPECTED_SUMMARIES["chain-vs-v3"]

    def test_tamper(self, capsys, tmp_path, v3_file):
        out_path = tmp_path / "t.st"
        code, out, _ = run(
            capsys, "gen", "tamper", "--in", v3_file, "--tamper-kind", "add-cycle",
            "--seed", "1", "--out", str(out_path),
        )
        assert code == 0
        assert parse_structure(out_path.read_text()).e1.find_cycle() is not None

    def test_bad_params_exit_two(self, capsys):
        code, _, err = run(capsys, "gen", "scramble")
        assert code == 2
        assert "error" in err

    def test_unknown_tamper_kind_exit_two(self, capsys, tmp_path, v3_file):
        out_path = tmp_path / "t.st"
        code, out, err = run(capsys, "gen", "tamper", "--in", v3_file, "--tamper-kind", "bogus", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert "argument --tamper-kind: invalid choice: 'bogus'" in err
        assert not out_path.exists()


class TestCheckAxioms:
    def test_universe_passes(self, capsys, v3_file):
        code, out, _ = run(capsys, "check-axioms", v3_file)
        assert code == 0
        assert "1 extensionality pass" in out

    def test_tampered_fails_exit_one(self, capsys, tmp_path, v3_file):
        tampered = tmp_path / "t.st"
        run(capsys, "gen", "tamper", "--in", v3_file, "--tamper-kind", "break-extensionality",
            "--seed", "2", "--out", str(tampered))
        code, out, _ = run(capsys, "check-axioms", str(tampered))
        assert code == 1
        assert "1 extensionality fail" in out

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "check-axioms", "no-such-file.st")
        assert code == 2

    def test_bounded_mode(self, capsys, v3_file):
        code, out, _ = run(capsys, "check-axioms", v3_file, "--mode", "bounded", "--depth", "3")
        assert code == 0
        assert "battery+bounded" in out

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_bounded_depth_below_one_exit_two(self, v3_file, depth):
        proc = run_process("check-axioms", v3_file, "--mode", "bounded", "--depth", depth)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: bounded depth must be >= 1, got {depth}\n"

    def test_bounded_depth_one_runs(self, capsys, v3_file):
        code, out, _ = run(capsys, "check-axioms", v3_file, "--mode", "bounded", "--depth", "1")
        assert code == 0
        assert "separation-schema pass mode=battery+bounded" in out

    def test_v5_semantic_mode_is_exact(self, capsys, tmp_path):
        v5 = tmp_path / "v5.st"
        assert run(capsys, "gen", "v-universe", "--n", "5", "--out", str(v5))[0] == 0
        code, out, _ = run(capsys, "check-axioms", str(v5), "--mode", "semantic")
        assert code == 0
        rows = [line for line in out.splitlines() if "schema" not in line]
        assert len(rows) == 14
        assert all(line.split()[2] == "pass" for line in rows)
        for tag in (1, 2):
            for axiom in ("separation-semantic", "replacement-semantic"):
                assert f"{tag} {axiom} pass mode=exhaustive" in rows

    def test_sampling_flags_removed(self, capsys, v3_file):
        for flag in ("--seed", "--samples"):
            assert run(capsys, "check-axioms", v3_file, flag, "1")[0] == 2


class TestFindIso:
    @pytest.mark.parametrize("n", [4, 20_000])
    def test_closed_stdout_exits_141_quietly(self, tmp_path, n):
        # The reader closes the pipe before the child writes. The certificate
        # of the 20,000-chain is larger than a pipe buffer, so a write fails;
        # that of the 4-chain waits in the buffer until main flushes it.
        chain = dual_structure(n, [(k, k + 1) for k in range(n - 1)], [])
        path = tmp_path / "chain.st"
        path.write_text(serialize_structure(scramble(chain, Permutation.random(n, 7))))
        env = {**os.environ, "PYTHONPATH": str(Path(dualmem.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as a pipe's is by default
        proc = subprocess.Popen(
            [sys.executable, "-m", "dualmem.cli", "find-iso", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        with proc.stderr:
            assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 141

    @pytest.mark.parametrize("entry", [["-m", "dualmem.cli"], MAIN_ENTRY], ids=["run", "main"])
    def test_help_to_closed_stdout_exits_141_quietly(self, entry):
        # The help text waits in stdout's buffer until main flushes it.
        assert run_child(["--help"], entry, close_stdout=True) == (141, b"", b"")

    def test_identity_certificate(self, capsys, v3_file):
        code, out, _ = run(capsys, "find-iso", v3_file, "--verify", "--oracle-check")
        assert code == 0
        assert out.splitlines()[0] == "iso 4"
        assert out.splitlines()[1] == "map 0 0"

    def test_scrambled_matches_permutation(self, capsys, tmp_path, v3_file):
        s_path = tmp_path / "s.st"
        _, gen_out, _ = run(capsys, "gen", "scramble", "--in", v3_file, "--seed", "5", "--out", str(s_path))
        perm = gen_out.splitlines()[1].split()[1:]
        code, out, _ = run(capsys, "find-iso", str(s_path))
        assert code == 0
        maps = [line.split()[2] for line in out.splitlines()[1:]]
        assert maps == perm

    def test_diagnostic_exit_one(self, capsys, tmp_path):
        directory = tmp_path / "g"
        run(capsys, "gen", "gallery", "--out", str(directory))
        code, out, _ = run(capsys, "find-iso", str(directory / "chain-vs-v3.st"))
        assert code == 1
        assert out.splitlines()[0] == "fail both-directions-fail"

    def test_ill_founded_diagnostic(self, capsys, tmp_path):
        directory = tmp_path / "g"
        run(capsys, "gen", "gallery", "--out", str(directory))
        code, out, _ = run(capsys, "find-iso", str(directory / "membership-cycle.st"))
        assert code == 1
        assert out.startswith("fail ill-founded e1")

    @pytest.mark.parametrize(
        ("flags", "verdict"),
        [
            (["--verify"], "fail certificate-rejected\n"),
            (["--oracle-check"], "fail oracle-mismatch x=3 y={y}\n"),
            (["--verify", "--oracle-check"], "fail certificate-rejected\n"),
        ],
    )
    def test_wrong_certificate_is_caught(self, capsys, monkeypatch, tmp_path, scrambled_v4, flags, verdict):
        # The true certificate with the images of 3 and 9 swapped: both checks
        # must refuse it, the oracle at its first wrong x.
        images = list(Permutation.random(16, 7).images)
        images[3], images[9] = images[9], images[3]
        monkeypatch.setattr(iso, "global_isomorphism", lambda s: IsoCertificate(tuple(images)))
        path = tmp_path / "s.st"
        path.write_text(serialize_structure(scrambled_v4))
        assert run(capsys, "find-iso", str(path), *flags) == (1, verdict.format(y=images[3]), "")

    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.st"
        bad.write_text("n 2\ne1 0 5\n")
        code, _, err = run(capsys, "find-iso", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_non_ascii_digit_exit_two_without_traceback(self, tmp_path):
        bad = tmp_path / "bad.st"
        bad.write_text("n 2\ne1 ² 1\n", encoding="utf-8")
        proc = run_process("find-iso", str(bad))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: line 2: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["find-iso", "check-axioms"])
    def test_domain_size_beyond_int64_exit_two(self, tmp_path, command):
        bad = tmp_path / "huge.st"
        bad.write_text("n 99999999999999999999\ne1 0 1\n")
        proc = run_process(command, str(bad))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: line 1: ")
        assert "Traceback" not in proc.stderr

    def test_never_builds_edge_set(self, capsys, tmp_path, monkeypatch, scrambled_v4):
        # Every subcommand works on the arrays and member tuples only.
        def refuse(rel):
            raise AssertionError("a command built the edge set")

        monkeypatch.setattr(MembershipRelation, "edges", property(refuse))
        run_every_subcommand(capsys, tmp_path, scrambled_v4)

    def test_never_builds_member_sets(self, capsys, tmp_path, monkeypatch, scrambled_v4):
        # Matching, verification, the oracle, the diagnostic, the lemma suite,
        # evaluation and every axiom check read the ascending member tuples
        # only: no command builds a frozenset per element.
        def refuse(rel):
            raise AssertionError("a command built the member or parent sets")

        monkeypatch.setattr(MembershipRelation, "member_sets", refuse)
        monkeypatch.setattr(MembershipRelation, "parent_sets", refuse)
        run_every_subcommand(capsys, tmp_path, scrambled_v4)

    def test_cycle_witness_pinned(self, capsys, tmp_path, two_cycles):
        path = tmp_path / "c.st"
        path.write_text(serialize_structure(two_cycles))
        assert run(capsys, "find-iso", str(path)) == (1, "fail ill-founded e1 cycle=3>4>5>3\n", "")

    @pytest.mark.parametrize(
        ("text", "verdict"),
        [
            ("n 3\ne1 0 2\ne1 1 2\ne2 0 1\ne2 1 2\n", "e1 x=0 y=1"),
            ("n 3\ne1 0 2\ne1 1 2\ne2 0 1\n", "e1 x=0 y=1"),  # e2 is non-extensional too
            ("n 3\ne1 0 2\ne1 1 2\ne2 0 1\ne2 1 0\n", "e1 x=0 y=1"),  # e1 is checked before e2's cycle
            ("n 3\ne1 0 1\ne1 1 2\ne2 0 2\ne2 1 2\n", "e2 x=0 y=1"),
            ("n 4\ne1 0 1\ne1 1 2\ne1 2 3\ne2 0 1\ne2 0 2\ne2 1 3\ne2 2 3\n", "e2 x=1 y=2"),
        ],
    )
    @pytest.mark.parametrize("flags", [[], ["--verify", "--oracle-check"]])
    def test_non_extensional_names_a_pair(self, capsys, tmp_path, text, verdict, flags):
        path = tmp_path / "d.st"
        path.write_text(text)
        assert run(capsys, "find-iso", str(path), *flags) == (1, f"fail non-extensional {verdict}\n", "")

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["add-cycle", "break-extensionality", "remove-edge"])
    def test_tampered_e2_is_validated_as_before(self, capsys, tmp_path, scrambled_v4, kind, seed):
        # e1 is scrambled V4's e2 and e2 a tampered V4. The verdict is the one
        # of validating both relations before the sweep: e2's cycle, then a
        # pair of e2 elements sharing a member-set, then the diagnostic.
        tampered = tamper(scrambled_v4, kind, seed)
        s = dual_structure(16, tampered.e2.edges, tampered.e1.edges)
        cycle, dupes = s.e2.find_cycle(), s.e2.duplicate_extensions()
        if cycle is not None:
            first = f"fail ill-founded e2 cycle={'>'.join(map(str, cycle))}"
        elif dupes:
            first = f"fail non-extensional e2 x={dupes[0][0]} y={dupes[0][1]}"
        else:
            first = f"fail {iso.read_off(s, iso.partners(s)).case}"
        assert kind != "add-cycle" or cycle is not None
        assert kind != "break-extensionality" or dupes
        path = tmp_path / "t.st"
        path.write_text(serialize_structure(s))
        for flags in ([], ["--verify"], ["--oracle-check"], ["--verify", "--oracle-check"]):
            code, out, err = run(capsys, "find-iso", str(path), *flags)
            assert (code, out.split("\n", 1)[0], err) == (1, first, "")

    @pytest.mark.parametrize("flags", [[], ["--verify", "--oracle-check"]])
    def test_both_cyclic_reports_e1(self, capsys, tmp_path, flags):
        path = tmp_path / "c.st"
        path.write_text("n 3\ne1 0 1\ne1 1 0\ne2 2 2\n")
        assert run(capsys, "find-iso", str(path), *flags) == (1, "fail ill-founded e1 cycle=0>1>0\n", "")

    def test_empty_domain(self, capsys, tmp_path):
        empty = tmp_path / "v0.st"
        empty.write_text("n 0\n")
        code, out, _ = run(capsys, "find-iso", str(empty), "--verify", "--oracle-check")
        assert code == 0
        assert out == "iso 0\n"
        code, out, _ = run(capsys, "eval", str(empty), "--formula", "forall x false")
        assert code == 0 and out.strip() == "true"


class TestEval:
    def test_edge_query(self, capsys, tmp_path):
        path = tmp_path / "v2.st"
        path.write_text(serialize_structure(build_v_universe(2)))
        code, out, _ = run(capsys, "eval", str(path), "--formula", "x in1 y", "--assign", "x=0,y=1")
        assert code == 0 and out.strip() == "true"

    def test_false_exit_one(self, capsys, v3_file):
        code, out, _ = run(capsys, "eval", v3_file, "--formula", "exists x x in1 x")
        assert code == 1 and out.strip() == "false"

    def test_missing_assignment_exit_two(self, capsys, v3_file):
        code, _, err = run(capsys, "eval", v3_file, "--formula", "x in1 y", "--assign", "x=0")
        assert code == 2

    def test_repeated_assignment_exit_two(self, capsys, v3_file):
        code, out, err = run(capsys, "eval", v3_file, "--formula", "x in1 x", "--assign", "x=1,x=2")
        assert code == 2
        assert out == ""
        assert err == "error: assignment repeats variable 'x'\n"

    @pytest.mark.parametrize("value", ["²", "١", "--1", "1-"])
    def test_non_ascii_or_malformed_id_exit_two(self, v3_file, value):
        proc = run_process("eval", v3_file, "--formula", "x in1 x", "--assign", f"x={value}")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: bad assignment chunk 'x={value}'; expected var=id\n"

    def test_negative_id_outside_domain(self, capsys, v3_file):
        code, _, err = run(capsys, "eval", v3_file, "--formula", "x in1 x", "--assign", "x=-1")
        assert code == 2
        assert "outside domain" in err

    @pytest.mark.parametrize(
        "formula",
        [
            "(" * 180 + "true" + ")" * 180,
            " & ".join(["x = x"] * 3000),
            " -> ".join(["x = x"] * 1000),
            "!" * 3000 + "true",
            "forall y " * 200 + "true",
        ],
        ids=["parentheses", "and-chain", "implies-chain", "negations", "quantifiers"],
    )
    def test_deep_formula_exit_two_without_traceback(self, v3_file, formula):
        proc = run_process("eval", v3_file, "--assign", "x=0", "--formula", formula)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: at offset ")
        assert f"nested deeper than {MAX_FORMULA_DEPTH} levels" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "formula",
        [
            "(" * MAX_FORMULA_DEPTH + "x = x" + ")" * MAX_FORMULA_DEPTH,
            " & ".join(["x = x"] * MAX_FORMULA_DEPTH),
            " -> ".join(["x = x"] * MAX_FORMULA_DEPTH),
            "!" * (MAX_FORMULA_DEPTH - 1) + "x = x",
            "exists y " * (MAX_FORMULA_DEPTH - 1) + "x = x",  # exists stops at the first value
        ],
        ids=["parentheses", "and-chain", "implies-chain", "negations", "quantifiers"],
    )
    def test_formula_at_depth_ceiling_evaluates(self, capsys, v3_file, formula):
        expected = "false" if formula.startswith("!") else "true"  # an odd number of negations
        code, out, err = run(capsys, "eval", v3_file, "--assign", "x=0", "--formula", formula)
        assert (code, out, err) == ((0 if expected == "true" else 1), expected + "\n", "")

    def test_vacuous_binders_at_depth_ceiling_finish(self, v3_file):
        # Each vacuous binder leaves its body's table as it is; a loop over
        # the domain per binder would take 4**99 steps.
        formula = "forall y " * (MAX_FORMULA_DEPTH - 1) + "x = x"
        proc = run_process("eval", v3_file, "--assign", "x=0", "--formula", formula, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "true\n", "")

    def test_formula_file(self, capsys, tmp_path, v3_file):
        f = tmp_path / "f.formula"
        f.write_text("forall x forall y ((forall z (z in1 x <-> z in1 y)) -> x = y)\n")
        code, out, _ = run(capsys, "eval", v3_file, "--formula-file", str(f))
        assert code == 0 and out.strip() == "true"

    def test_formula_file_not_utf8_exit_two(self, tmp_path, v3_file):
        f = tmp_path / "f.formula"
        f.write_bytes(b"forall x\n(x = x) \xfe\n")
        proc = run_process("eval", v3_file, "--formula-file", str(f))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: line 2: byte 0xfe is not valid UTF-8\n"

    def test_formula_file_lines_end_at_newline(self, capsys, tmp_path, v3_file):
        # As in structure files, a lone '\r' ends no line.
        f = tmp_path / "f.formula"
        f.write_bytes(b"forall x\r(x = x) \xfe\n")
        assert run(capsys, "eval", v3_file, "--formula-file", str(f)) == (
            2, "", "error: line 1: byte 0xfe is not valid UTF-8\n"
        )

    def test_formula_file_offsets_count_every_character(self, capsys, tmp_path, v3_file):
        # The offset is the character's in the file: a '\r\n' is two.
        f = tmp_path / "f.formula"
        f.write_bytes(b"forall x\r\n(x = x) $\r\n")
        assert run(capsys, "eval", v3_file, "--formula-file", str(f)) == (
            2, "", "error: at offset 18: unexpected character '$'\n"
        )
        f.write_bytes(b"forall x\r\n(x = x)\r\n")
        assert run(capsys, "eval", v3_file, "--formula-file", str(f)) == (0, "true\n", "")


class TestVerifyLemmas:
    def test_structure_file(self, capsys, v3_file):
        code, out, _ = run(capsys, "verify-lemmas", v3_file)
        assert code == 0
        assert out.splitlines()[0] == "lemma witness-uniqueness pass"

    def test_gallery_failure_exit_one(self, capsys, tmp_path):
        directory = tmp_path / "g"
        run(capsys, "gen", "gallery", "--out", str(directory))
        code, out, _ = run(capsys, "verify-lemmas", str(directory / "chain-vs-v3.st"))
        assert code == 1
        assert "lemma isomorphism fail" in out

    def test_corpus_aggregate(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--corpus", "sizes=3 count=4", "--seed", "1")
        assert code == 0
        assert out.splitlines()[-1].startswith("corpus seeds=1..4 sizes=3")

    def test_no_input_exit_two(self, capsys):
        code, _, _ = run(capsys, "verify-lemmas")
        assert code == 2

    @pytest.mark.parametrize("setting, message", [
        ("sizes=x", "error: corpus setting sizes needs an integer"),
        ("count=abc", "error: corpus setting count needs an integer"),
        ("seed=", "error: unknown corpus setting 'seed'"),  # --seed is the one way to set it
        ("count=5 count=1", "error: corpus repeats setting 'count'"),
        ("sizes=3;sizes=3", "error: corpus repeats setting 'sizes'"),
        ("kinds=scrambled count=1 kinds=random-pair", "error: corpus repeats setting 'kinds'"),
    ], ids=["sizes=x", "count=abc", "seed=", "count-twice", "sizes-twice", "kinds-twice"])
    def test_bad_corpus_value_exit_two(self, setting, message):
        proc = run_process("verify-lemmas", "--corpus", setting)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(message)
        assert "Traceback" not in proc.stderr

    def test_file_and_corpus_exit_two(self, v3_file):
        proc = run_process("verify-lemmas", v3_file, "--corpus", "sizes=3 count=1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: verify-lemmas takes either a structure file or --corpus, not both\n"

    @pytest.mark.parametrize(
        "setting, code, last_line",
        [
            ("sizes=9 count=0", 0, "corpus seeds=- sizes=9 kinds=scrambled items=0 iso-pass=0 iso-fail=0\n"),
            ("sizes=9 count=1", 2, "error: level 9 exceeds the supported bound 5 (size 2^65536)\n"),
            ("sizes=3,9 count=1", 2, "error: level 9 exceeds the supported bound 5 (size 2^65536)\n"),
        ],
    )
    def test_level_beyond_the_bound(self, capsys, setting, code, last_line):
        # A level is built when the first item of its size needs it.
        returned, out, err = run(capsys, "verify-lemmas", "--corpus", setting)
        assert returned == code
        if code == 0:
            assert (out.splitlines(keepends=True)[-1], err) == (last_line, "")
        else:
            assert (out, err) == ("", last_line)

    def test_negative_count_exit_two(self):
        proc = run_process("verify-lemmas", "--corpus", "count=-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: corpus setting count")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("count", [cli.CORPUS_COUNT_MAX + 1, 99999999999999999999])
    def test_count_above_the_ceiling_exit_two(self, count):
        # Refused before any item: such a corpus would run for hours or forever.
        proc = run_process("verify-lemmas", "--corpus", f"count={count}", timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: corpus setting count must be <= {cli.CORPUS_COUNT_MAX}, got {count}\n"

    def test_count_at_the_ceiling_is_accepted(self):
        assert cli._parse_corpus(f"count={cli.CORPUS_COUNT_MAX}", 0).count == cli.CORPUS_COUNT_MAX

    @pytest.mark.parametrize("setting", ["count=0 kinds=bogus", "count=1 kinds=scrambled,bogus"])
    def test_unknown_corpus_kind_exit_two_before_any_item(self, capsys, monkeypatch, setting):
        calls = []
        monkeypatch.setattr(lemmas, "run_suite", calls.append)
        assert run(capsys, "verify-lemmas", "--corpus", f"sizes=3 {setting}") == (
            2, "", "error: unknown corpus kind 'bogus'\n"
        )
        assert calls == []

    def test_zero_count_is_empty_corpus(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--corpus", "count=0")
        assert code == 0
        assert out.splitlines()[-1].startswith("corpus seeds=- sizes=3,4 kinds=scrambled items=0 ")


class TestCollapse:
    def test_braces_and_code(self, capsys, v3_file):
        code, out, _ = run(capsys, "collapse", v3_file, "--element", "3")
        assert code == 0
        assert out == "{{},{{}}}\ncode=3\n"

    def test_empty_element(self, capsys, v3_file):
        code, out, _ = run(capsys, "collapse", v3_file, "--element", "0")
        assert code == 0
        assert out == "{}\ncode=0\n"

    def test_cycle_exit_one(self, capsys, tmp_path):
        directory = tmp_path / "g"
        run(capsys, "gen", "gallery", "--out", str(directory))
        code, out, _ = run(capsys, "collapse", str(directory / "membership-cycle.st"), "--element", "0")
        assert code == 1
        assert out.startswith("fail ill-founded e1 cycle=")

    def test_cycle_witness_pinned(self, capsys, tmp_path, two_cycles):
        path = tmp_path / "c.st"
        path.write_text(serialize_structure(two_cycles))
        for element, cycle in (("0", "3>4>5>3"), ("5", "5>3>4>5"), ("7", "7>6>7")):
            out = f"fail ill-founded e1 cycle={cycle}\n"
            assert run(capsys, "collapse", str(path), "--element", element) == (1, out, "")

    def test_deep_chain(self, capsys, tmp_path):
        # One nesting per rank: a recursive renderer or numeral overruns the stack here.
        n = 3000
        path = tmp_path / "chain.st"
        path.write_text(serialize_structure(dual_structure(n, [(i, i + 1) for i in range(n - 1)], [])))
        code, out, _ = run(capsys, "collapse", str(path), "--element", str(n - 1))
        assert code == 0
        assert out == "{" * n + "}" * n + "\ncode=large\n"

    def test_members_differing_only_at_the_bottom(self, capsys, tmp_path):
        # Ordering the two members compares them once per rank, down to {} against {{}}.
        depth = 1500
        over_empty = [(0, 2)] + [(i, i + 1) for i in range(2, depth + 1)]
        over_one = [(0, 1), (1, depth + 2)] + [(i, i + 1) for i in range(depth + 2, 2 * depth + 1)]
        top = 2 * depth + 2
        edges = over_empty + over_one + [(depth + 1, top), (2 * depth + 1, top)]
        path = tmp_path / "two-chains.st"
        path.write_text(serialize_structure(dual_structure(top + 1, edges, [])))
        code, out, _ = run(capsys, "collapse", str(path), "--element", str(top))
        assert code == 0
        lower, upper = depth + 1, depth + 2  # nesting depths of the two members
        assert out == "{" + "{" * lower + "}" * lower + "," + "{" * upper + "}" * upper + "}\ncode=large\n"

    def test_out_of_range_exit_two(self, capsys, v3_file):
        code, _, _ = run(capsys, "collapse", v3_file, "--element", "9")
        assert code == 2


class TestCollector:
    """main pauses the cyclic collector for a command, which makes no reference
    cycles, and leaves the collector as it found it."""

    @staticmethod
    def chain_files(directory, n):
        """A scrambled n-chain (e2 the scrambled image of e1, rank n - 1) and a copy with a cycle added."""
        s = scramble(dual_structure(n, [(k, k + 1) for k in range(n - 1)], []), Permutation.random(n, 7))
        paths = {"iso": directory / f"chain-{n}.st", "cyclic": directory / f"chain-{n}-cycle.st"}
        paths["iso"].write_text(serialize_structure(s))
        paths["cyclic"].write_text(serialize_structure(tamper(s, "add-cycle", 1)))
        return {name: str(path) for name, path in paths.items()}

    @pytest.mark.parametrize(
        "argv, sizes",
        [
            (["find-iso", "{iso}", "--verify", "--oracle-check"], (1000, 4000)),
            (["find-iso", "{cyclic}"], (1000, 4000)),
            # verify-lemmas is quadratic in a chain's length (about 14 s at 4,000 elements).
            (["verify-lemmas", "{iso}"], (250, 1000)),
            (["verify-lemmas", "--corpus", "sizes=3,4 count={count}"], (1000, 4000)),  # n // 100 items
            (["check-axioms", "{iso}", "--mode", "semantic"], (1000, 4000)),
            (["collapse", "{iso}", "--element", "{top}"], (1000, 4000)),
            (["eval", "{iso}", "--formula", "exists x exists y exists z (x in1 y & y in1 z)"], (1000, 4000)),
        ],
    )
    def test_garbage_does_not_grow_with_input(self, capsys, tmp_path, argv, sizes):
        def run_then_collect(n):
            files = self.chain_files(tmp_path, n)
            collecting = gc.isenabled()
            gc.collect()
            gc.disable()  # else a collection when main resumes the collector could free the garbage first
            try:
                code = main([arg.format(**files, top=n - 1, count=n // 100) for arg in argv])
                capsys.readouterr()
                return code, gc.collect()
            finally:
                if collecting:
                    gc.enable()

        run_then_collect(sizes[0])  # warm-up: first-use caches and imports
        assert run_then_collect(sizes[0]) == run_then_collect(sizes[1])

    def test_paused_during_a_command(self, capsys, monkeypatch, v3_file):
        seen = []

        def recording(s):
            seen.append(gc.isenabled())
            return matching(s)

        matching = iso.global_isomorphism
        monkeypatch.setattr(iso, "global_isomorphism", recording)
        assert run(capsys, "find-iso", v3_file)[0] == 0
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["collapse", "{st}", "--element", "3"], 0),
            (["eval", "{st}", "--formula", "x in1 x", "--assign", "x=0"], 1),
            (["eval", "{st}", "--formula", "x in1 y", "--assign", "x=0"], 2),  # a DualMemError
            (["find-iso"], 2),  # an argparse usage error
            (["find-iso", "--help"], 0),
        ],
    )
    def test_state_restored(self, capsys, v3_file, enabled, argv, code):
        before = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert main([arg.format(st=v3_file) for arg in argv]) == code
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if before else gc.disable)()
        capsys.readouterr()


class TestRun:
    """run(), the entry of `python -m dualmem.cli` and of the installed script,
    ends the process with os._exit and keeps what a normal exit does; main()
    returns its code to in-process callers."""

    CASES = [
        (["--help"], 0),
        (["find-iso", "{st}"], 0),
        (["find-iso", "{negative}"], 1),
        (["find-iso", "{missing}"], 2),
        (["find-iso"], 2),  # an argparse usage error
    ]

    @pytest.fixture()
    def files(self, tmp_path, v3_file):
        negative = tmp_path / "chain-vs-v3.st"
        item = next(item for item in lemmas.counterexample_gallery() if item.name == "chain-vs-v3")
        negative.write_text(serialize_structure(item.structure))
        return {"st": v3_file, "negative": str(negative), "missing": str(tmp_path / "missing.st")}

    @pytest.mark.parametrize("argv, code", CASES)
    def test_main_returns_without_ending_the_process(self, capsys, monkeypatch, files, argv, code):
        def ending(status):
            raise AssertionError(f"os._exit({status}) from main")

        monkeypatch.setattr(os, "_exit", ending)
        assert run(capsys, *(arg.format(**files) for arg in argv))[0] == code

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("close_stdout", [False, True], ids=["read", "reader-gone"])
    @pytest.mark.parametrize("argv, code", CASES)
    def test_exits_as_main_with_a_normal_exit(self, files, unbuffered, close_stdout, argv, code):
        argv = [arg.format(**files) for arg in argv]
        through_run = run_child(argv, unbuffered=unbuffered, close_stdout=close_stdout)
        assert through_run == run_child(argv, MAIN_ENTRY, unbuffered, close_stdout)
        if not close_stdout:
            assert through_run[0] == code

    def test_atexit_callbacks_run(self, v3_file):
        entry = ["-c", "import atexit; from dualmem.cli import run; atexit.register(print, 'atexit ran'); run()"]
        code, out, err = run_child(["find-iso", v3_file], entry)
        assert (code, err) == (0, b"")
        assert out.endswith(b"map 3 3\natexit ran\n")

    def test_profiler_still_reports(self, v3_file):
        # cProfile prints its table once the profiled program has exited normally.
        code, out, err = run_child(["-m", "dualmem.cli", "collapse", v3_file, "--element", "3"], ["-m", "cProfile"])
        assert (code, err) == (0, b"")
        assert out.startswith(b"{{},{{}}}\ncode=3\n")
        assert b" function calls " in out

    @pytest.fixture()
    def ending(self, monkeypatch):
        """run() after a main() that returns 1, with no tracer or profiler set,
        no atexit callback run and os._exit raising its status as an Ended."""

        class Ended(Exception):
            pass

        def end(status):
            raise Ended(status)

        monkeypatch.setattr(cli, "main", lambda: 1)
        monkeypatch.setattr(sys, "gettrace", lambda: None)
        monkeypatch.setattr(sys, "getprofile", lambda: None)
        monkeypatch.setattr(os, "_exit", end)
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: None)  # the test process's own callbacks
        return Ended

    def test_monitoring_tool_gets_a_normal_exit(self, monkeypatch, ending):
        # From Python 3.12 cProfile and coverage register as sys.monitoring tools
        # and leave sys.getprofile() and sys.gettrace() unset.
        class Monitoring:
            @staticmethod
            def get_tool(tool_id):
                return "cProfile" if tool_id == 2 else None

        monkeypatch.setattr(sys, "monitoring", Monitoring, raising=False)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 1

    def test_stderr_flushed_when_stdout_reader_gone(self, monkeypatch, ending):
        class GoneReader(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        class Flushed(io.StringIO):
            flushed = False

            def flush(self):
                self.flushed = True

        stderr = Flushed()
        monkeypatch.setattr(sys, "monitoring", None, raising=False)
        monkeypatch.setattr(sys, "stdout", GoneReader())
        monkeypatch.setattr(sys, "stderr", stderr)
        with pytest.raises(ending) as exc:
            cli.run()
        assert exc.value.args == (141,)
        assert stderr.flushed

    def test_written_files_read_back(self, tmp_path):
        v4, gallery = tmp_path / "v4.st", tmp_path / "g"
        assert run_child(["gen", "v-universe", "--n", "4", "--out", str(v4)])[0] == 0
        assert run_child(["gen", "gallery", "--out", str(gallery)])[0] == 0
        assert parse_structure(v4.read_bytes()) == build_v_universe(4)
        for item in lemmas.counterexample_gallery():
            assert parse_structure((gallery / f"{item.name}.st").read_bytes()) == item.structure
            assert (gallery / f"{item.name}.expected").read_text() == item.expected_summary

    def test_installed_script_calls_what_the_main_block_calls(self):
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["dualmem"]
        module, _, attribute = entry.partition(":")
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        block = next(node for node in tree.body
                     if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")
        called = [getattr(cli, node.func.id) for node in ast.walk(block) if isinstance(node, ast.Call)]
        assert called == [getattr(importlib.import_module(module), attribute)]


def _close(fd):
    return lambda: os.close(fd)


def _read_only(fd):
    # Writes fail with EBADF, as on a shell's `2>&-` behind a launcher that
    # leaves a file it reads on that descriptor.
    return lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), fd)


def _reader_gone(fd):
    # Writes fail with EPIPE, as on a pipe whose reader has exited; a buffered
    # stream keeps what it could not write and fails again on its next flush.
    def setup():
        read_end, write_end = os.pipe()
        os.dup2(write_end, fd)
        os.close(read_end)
        os.close(write_end)
    return setup


class TestClosedStreams:
    """A command whose process starts with fd 1 or fd 2 closed exits with its usual code."""

    # run(), and main() then a normal exit under -X dev, which would report a file left open
    ENTRIES = [["-m", "dualmem.cli"], ["-X", "dev", *MAIN_ENTRY]]
    # a buffered stderr keeps what it could not write and tries again at exit
    BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    STDERR_UNWRITABLE = pytest.mark.parametrize(
        "setup", [_close(2), _read_only(2), _reader_gone(2)], ids=["closed", "read-only", "reader-gone"]
    )

    @BUFFERING
    @pytest.mark.parametrize("entry", ENTRIES, ids=["run", "main"])
    @pytest.mark.parametrize("argv, code", [
        (["find-iso", "{st}"], 0),
        (["find-iso", "{negative}"], 1),
        (["check-axioms", "{st}"], 0),
        (["verify-lemmas", "{st}"], 0),
        (["collapse", "{st}", "--element", "3"], 0),
        (["eval", "{st}", "--formula", "x = x", "--assign", "x=0"], 0),
    ], ids=["find-iso", "find-iso-negative", "check-axioms", "verify-lemmas", "collapse", "eval"])
    def test_stdout_closed_drops_the_report(self, tmp_path, v3_file, entry, argv, code, unbuffered):
        negative = tmp_path / "chain-vs-v3.st"
        negative.write_text(serialize_structure(lemmas._chain_vs_v3()))
        argv = [arg.format(st=v3_file, negative=negative) for arg in argv]
        proc = run_process(*argv, entry=entry, unbuffered=unbuffered, preexec_fn=_close(1))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", "")

    @BUFFERING
    @pytest.mark.parametrize("entry", ENTRIES, ids=["run", "main"])
    def test_stdout_closed_drops_the_help(self, entry, unbuffered):
        proc = run_process("--help", entry=entry, unbuffered=unbuffered, preexec_fn=_close(1))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

    @BUFFERING
    @pytest.mark.parametrize("entry", ENTRIES, ids=["run", "main"])
    @STDERR_UNWRITABLE
    @pytest.mark.parametrize("argv", [["find-iso", "{missing}"], ["find-iso"], ["--bogus"]],
                             ids=["missing-file", "no-infile", "unknown-flag"])
    def test_stderr_unwritable_still_exits_two(self, tmp_path, entry, setup, argv, unbuffered):
        argv = [arg.format(missing=tmp_path / "missing.st") for arg in argv]
        proc = run_process(*argv, entry=entry, unbuffered=unbuffered, preexec_fn=setup)
        assert (proc.returncode, proc.stdout) == (2, "")

    @BUFFERING
    @STDERR_UNWRITABLE
    def test_stderr_unwritable_keeps_the_report(self, v3_file, setup, unbuffered):
        proc = run_process("find-iso", v3_file, unbuffered=unbuffered, preexec_fn=setup)
        assert (proc.returncode, proc.stdout) == (0, "iso 4\nmap 0 0\nmap 1 1\nmap 2 2\nmap 3 3\n")
