"""Command line behavior: outputs, formats, exit codes."""

import concurrent.futures
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import treepatterns
from treepatterns import (
    FormulaCheck,
    MomentVerification,
    build_tree,
    cherry,
    estimate_pattern_stats,
    pattern_to_text,
    sample_tree,
    stream_for,
    tree_from_text,
    tree_to_text,
)
from treepatterns import cli
from treepatterns.patterns import BUILTIN_PATTERN_HELP

from test_golden_cli import run_case


def path_text(n):
    return tree_to_text(build_tree(n, [(i, i + 1) for i in range(1, n)]))


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


class TestGenEncodeDecode:
    def test_gen_is_deterministic_and_valid(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert cli.main(["gen", "--n", "8", "--seed", "5",
                         "--out", str(out)]) == 0
        t = tree_from_text(out.read_text())
        assert t == sample_tree(8, stream_for(5, 0))
        assert capsys.readouterr().out == ""

    def test_round_trip_pipeline(self, tmp_path):
        t1 = tmp_path / "t1.txt"
        s = tmp_path / "s.txt"
        t2 = tmp_path / "t2.txt"
        assert cli.main(["gen", "--n", "12", "--seed", "3",
                         "--out", str(t1)]) == 0
        assert cli.main(["encode", str(t1), "--out", str(s)]) == 0
        assert cli.main(["decode", str(s), "--out", str(t2)]) == 0
        assert t1.read_text() == t2.read_text()

    def test_encode_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(path_text(3)))
        assert cli.main(["encode"]) == 0
        assert capsys.readouterr().out == "n 3\n2\n"

    def test_encode_ignores_a_byte_order_mark_in_a_file(self, tmp_path,
                                                         capsys):
        f = tmp_path / "bom.txt"
        f.write_bytes(b"\xef\xbb\xbf" + path_text(3).encode())
        assert cli.main(["encode", str(f)]) == 0
        assert capsys.readouterr().out == "n 3\n2\n"

    def test_encode_ignores_a_byte_order_mark_on_stdin(self, monkeypatch,
                                                       capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(b"\xef\xbb\xbf" + path_text(3).encode()),
            encoding="utf-8", errors="strict"))
        assert cli.main(["encode", "-"]) == 0
        assert capsys.readouterr().out == "n 3\n2\n"

    def test_decode_writes_stdout(self, tmp_path, capsys):
        f = write(tmp_path, "s.txt", "n 4\n1 1\n")
        assert cli.main(["decode", f]) == 0
        assert capsys.readouterr().out == "n 4\n1 2\n1 3\n1 4\n"

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        f = write(tmp_path, "bad.txt", "nope\n")
        assert cli.main(["decode", f]) == cli.INPUT_ERROR
        assert "treepatterns:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert cli.main(["encode", str(tmp_path / "absent.txt")]) \
            == cli.INPUT_ERROR


class TestTreeCommands:
    def test_count_text_output(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", path_text(5))
        assert cli.main(["count", "--tree", f,
                         "--pattern", "path3@end"]) == 0
        assert capsys.readouterr().out == "2\n3: 1 2\n3: 4 5\n"

    def test_count_json_output(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", path_text(5))
        assert cli.main(["count", "--tree", f, "--pattern", "path3@end",
                         "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["count"] == 2
        assert rec["occurrences"] == [{"root": 3, "others": [1, 2]},
                                      {"root": 3, "others": [4, 5]}]

    def test_count_accepts_a_pattern_file(self, tmp_path, capsys):
        t = write(tmp_path, "t.txt", path_text(5))
        p = write(tmp_path, "p.txt", pattern_to_text(cherry()))
        assert cli.main(["count", "--tree", t, "--pattern", p]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_aut_unrooted_and_rooted(self, tmp_path, capsys):
        star = write(tmp_path, "star.txt",
                     tree_to_text(build_tree(4, [(1, 2), (1, 3), (1, 4)])))
        assert cli.main(["aut", "--tree", star]) == 0
        assert capsys.readouterr().out == "6\n"
        assert cli.main(["aut", "--tree", star, "--root", "2"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_center_vertex_and_edge(self, tmp_path, capsys):
        f5 = write(tmp_path, "p5.txt", path_text(5))
        assert cli.main(["center", "--tree", f5]) == 0
        assert capsys.readouterr().out == "vertex 3\n"
        f4 = write(tmp_path, "p4.txt", path_text(4))
        assert cli.main(["center", "--tree", f4]) == 0
        assert capsys.readouterr().out == "edge 2 3\n"

    def test_rootify_output(self, tmp_path, capsys):
        f = write(tmp_path, "p4.txt", path_text(4))
        assert cli.main(["rootify", "--tree", f]) == 0
        assert (capsys.readouterr().out
                == "n 5\n1 2\n2 5\n3 4\n3 5\nroot 5\n")


class TestMoments:
    def test_json_report(self, capsys):
        assert cli.main(["moments", "--pattern", "edge", "--n", "4",
                         "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["mean"] == "3/2"
        assert rec["second_moment"] == "3/1"
        assert rec["chebyshev_zero_bound"] == "1/3"
        assert rec["p"] == 1

    def test_text_report(self, capsys):
        assert cli.main(["moments", "--pattern", "cherry", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "mean                 5/12" in out
        assert "chebyshev_zero_bound 11/5" in out

    def test_below_domain_exits_two(self, capsys):
        assert cli.main(["moments", "--pattern", "cherry", "--n", "5"]) \
            == cli.INPUT_ERROR
        assert "n >= 6" in capsys.readouterr().err


class TestVerify:
    def test_single_n_passes(self, capsys):
        assert cli.main(["verify", "--pattern", "edge", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "labelled_count" in out

    def test_json_payload(self, capsys):
        assert cli.main(["verify", "--pattern", "edge", "--n", "4",
                         "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["passed"] is True
        assert rec["labelled_count"]["equal"] is True
        names = [c["name"] for c in rec["moments"][0]["checks"]]
        assert "tuple_probability" in names
        assert "zero_probability_bound" in names

    def test_range_of_n(self, capsys):
        assert cli.main(["verify", "--pattern", "edge", "--n-max", "5"]) == 0
        out = capsys.readouterr().out
        assert "n=3" in out
        assert "n=5" in out

    def test_skipped_checks_are_labelled(self, capsys):
        assert cli.main(["verify", "--pattern", "cherry", "--n", "5"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_failure_exits_three(self, monkeypatch, capsys):
        bad = MomentVerification(cherry(), 6, (FormulaCheck(
            "tuple_probability", Fraction(1), Fraction(2), "fail"),))
        monkeypatch.setattr(cli, "verify_moments",
                            lambda *a, **k: bad)
        assert cli.main(["verify", "--pattern", "cherry", "--n", "6"]) \
            == cli.VERIFY_FAILURE
        assert "VERIFICATION FAILED" in capsys.readouterr().out

    def test_failure_with_out_still_writes_the_report(self, monkeypatch,
                                                      tmp_path, capsys):
        bad = MomentVerification(cherry(), 6, (FormulaCheck(
            "tuple_probability", Fraction(1), Fraction(2), "fail"),))
        monkeypatch.setattr(cli, "verify_moments",
                            lambda *a, **k: bad)
        out = tmp_path / "report.txt"
        assert cli.main(["verify", "--pattern", "cherry", "--n", "6",
                         "--out", str(out)]) == cli.VERIFY_FAILURE
        assert capsys.readouterr().out == ""
        assert "VERIFICATION FAILED" in out.read_text()

    def test_bad_range_exits_two(self, capsys):
        assert cli.main(["verify", "--pattern", "cherry", "--n-max", "3"]) \
            == cli.INPUT_ERROR


class TestMcAndConverge:
    def test_mc_json_matches_the_library(self, capsys):
        assert cli.main(["mc", "--pattern", "cherry", "--n", "10",
                         "--samples", "200", "--seed", "7", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        direct = estimate_pattern_stats(cherry(), 10, 200, seed=7)
        assert rec == direct.to_dict()

    def test_mc_text_output(self, capsys):
        assert cli.main(["mc", "--pattern", "edge", "--n", "6",
                         "--samples", "100", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "p_hat" in out
        assert "mean_hat" in out

    def test_converge_csv(self, capsys):
        assert cli.main(["converge", "--pattern", "cherry",
                         "--n-list", "4,6", "--samples", "50",
                         "--seed", "2", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ("n,samples,hits_ge1,p_hat,ci_low,ci_high,"
                            "mean_hat,stderr_mean,exact_mean,cheb_bound")
        assert len(lines) == 3
        assert lines[1].startswith("4,50,")

    def test_converge_table(self, capsys):
        assert cli.main(["converge", "--pattern", "edge",
                         "--n-list", "5,8", "--samples", "40",
                         "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "exact_mean" in out
        assert len(out.strip().split("\n")) == 3

    def test_bad_n_list_exits_two(self, capsys):
        assert cli.main(["converge", "--pattern", "edge",
                         "--n-list", "4,x", "--samples", "10",
                         "--seed", "1"]) == cli.INPUT_ERROR


def assert_one_line_input_error(rc, captured):
    assert rc == cli.INPUT_ERROR
    assert captured.out == ""
    assert captured.err.startswith("treepatterns: ")
    assert captured.err.count("\n") == 1


class TestInputErrors:
    def test_verify_far_past_the_cap_exits_two(self, capsys):
        rc = cli.main(["verify", "--pattern", "cherry", "--n", "2000"])
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert "cap" in captured.err
        assert len(captured.err) < 200

    def test_verify_n_max_past_the_cap_sweeps_nothing(self, capsys,
                                                       monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept below an out-of-range --n-max")

        monkeypatch.setattr(cli, "verify_moments", no_sweep)
        monkeypatch.setattr(cli, "verify_labelled_count", no_sweep)
        # An --n-max too large to list every n up to it is refused alike.
        big = 10 ** 20
        for tail, err in [
            (["--n-max", "6", "--cap", "5"],
             "n = 6 exceeds the enumeration cap 5 (6**4 trees)"),
            (["--n-max", str(big)],
             f"n = {big} exceeds the enumeration cap 9 "
             f"({big}**{big - 2} trees)"),
        ]:
            rc = cli.main(["verify", "--pattern", "edge", *tail])
            captured = capsys.readouterr()
            assert_one_line_input_error(rc, captured)
            assert captured.err == f"treepatterns: {err}\n"

    def test_verify_below_p_plus_two_sweeps_nothing(self, capsys,
                                                     monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept below the first verifiable n")

        monkeypatch.setattr(cli, "verify_moments", no_sweep)
        monkeypatch.setattr(cli, "verify_labelled_count", no_sweep)
        rc = cli.main(["verify", "--pattern", "star3", "--n", "4"])
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert captured.err == ("treepatterns: verification needs "
                                "n >= p + 2 = 5, got n = 4\n")

    def test_verify_refuses_a_pattern_of_more_than_seven_vertices(
            self, capsys):
        # The labelled-count check enumerates trees on p + 1 vertices.
        rc = cli.main(["verify", "--pattern", "path8@end", "--n", "9"])
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert captured.err == ("treepatterns: pattern size 8 exceeds the "
                                "rooted enumeration cap 7\n")
        assert "Traceback" not in captured.err

    def test_verify_n_with_n_max_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--pattern", "edge", "--n", "4",
                      "--n-max", "5"])
        assert exc.value.code == cli.USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("treepatterns verify: error: argument "
                                "--n-max: not allowed with argument --n\n")

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_gen_without_vertices_exits_two(self, capsys, n):
        rc = cli.main(["gen", "--n", n, "--seed", "1"])
        assert_one_line_input_error(rc, capsys.readouterr())

    @pytest.mark.parametrize("command, n_args", [
        ("mc", ["--n", "10"]),
        ("converge", ["--n-list", "10,20"]),
    ])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exit_two(self, capsys, command, n_args,
                                          samples):
        rc = cli.main([command, "--pattern", "cherry", *n_args,
                       "--samples", samples, "--seed", "1"])
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert "samples must be positive" in captured.err

    def test_negative_n_moments_exit_two(self, capsys):
        rc = cli.main(["moments", "--pattern", "cherry", "--n", "-5"])
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert captured.err == ("treepatterns: mean pattern count needs "
                                "n >= 4, got n = -5\n")

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "{n}"],
        ["mc", "--pattern", "edge", "--n", "{n}", "--samples", "1",
         "--workers", "1"],
        ["mc", "--pattern", "edge", "--n", "{n}", "--samples", "1",
         "--workers", "2"],
        ["converge", "--pattern", "edge", "--n-list", "10,{n}",
         "--samples", "1"],
    ], ids=["gen", "mc-w1", "mc-w2", "converge"])
    def test_n_past_the_sampler_range_exits_two(self, capsys, monkeypatch,
                                               argv):
        # The sampler draws from 1..n only for n <= 2**64; mc and converge
        # refuse a larger n before the first sample or pool.
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        n = "100000000000000000000000"
        rc = cli.main([a.format(n=n) for a in argv] + ["--seed", "1"])
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert captured.err == ("treepatterns: n must be in 1..2**64, "
                                f"got {n}\n")

    def test_moments_past_the_digit_ceiling_exit_two_at_once(self, capsys):
        start = time.perf_counter()
        rc = cli.main(["moments", "--pattern", "edge", "--n", "1000000000"])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert captured.err == (
            "treepatterns: n = 1000000000 exceeds the exact-path ceiling: "
            "n**(n - 2) would have more than 500000 digits\n")

    @pytest.mark.parametrize("n_list", [",", ",,", ""])
    def test_empty_n_list_exits_two(self, capsys, n_list):
        rc = cli.main(["converge", "--pattern", "cherry", "--n-list", n_list,
                       "--samples", "5", "--seed", "1"])
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert captured.err == f"treepatterns: bad --n-list {n_list!r}\n"

    def test_out_of_memory_exits_two_without_a_traceback(self, capsys,
                                                         monkeypatch):
        # A huge --n can exhaust memory in any command; stand in for it.
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "estimate_pattern_stats", exhausted)
        rc = cli.main(["mc", "--pattern", "edge", "--n", "100000000",
                       "--samples", "1", "--seed", "1"])
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert captured.err == "treepatterns: out of memory\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["encode", "{f}"],
        ["count", "--tree", "{f}", "--pattern", "edge"],
        ["count", "--tree", "{t}", "--pattern", "{f}"],
    ], ids=["encode", "count-tree", "count-pattern"])
    def test_non_utf8_file_exits_two(self, argv, tmp_path, capsys):
        f = tmp_path / "bin.txt"
        f.write_bytes(b"\xff\n")
        t = write(tmp_path, "t.txt", path_text(3))
        rc = cli.main([a.format(f=f, t=t) for a in argv])
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert captured.err == f"treepatterns: {str(f)!r} is not UTF-8 text\n"

    def test_non_utf8_stdin_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(b"\xff\n"), encoding="utf-8", errors="strict"))
        rc = cli.main(["decode", "-"])
        captured = capsys.readouterr()
        assert_one_line_input_error(rc, captured)
        assert captured.err == "treepatterns: stdin is not UTF-8 text\n"


class TestUsageErrors:
    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--n", "5"])
        assert exc.value.code == cli.USAGE_ERROR

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == cli.USAGE_ERROR

    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == cli.USAGE_ERROR


@pytest.mark.parametrize("command",
                         ["count", "moments", "verify", "mc", "converge"])
def test_pattern_help_lists_the_builtin_names(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    # argparse wraps the help to the terminal width.
    assert BUILTIN_PATTERN_HELP in " ".join(capsys.readouterr().out.split())


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def console_script_target():
    """The ``module:function`` that ``[project.scripts]`` declares."""
    line = re.search(r'^treepatterns\s*=\s*"([^"]+)"\s*$',
                     PYPROJECT.read_text(), re.M)
    return line.group(1)


def child_env():
    """The environment with this treepatterns importable in a subprocess."""
    env = dict(os.environ)
    src = str(Path(treepatterns.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    return env


class TestConsoleScript:
    GEN = ["gen", "--n", "6", "--seed", "9", "--out", "t.txt"]

    def test_installed_entry_point(self, tmp_path):
        # Start the declared target the way pip's generated wrapper does,
        # so the test needs no install and no executable on PATH.
        module, function = console_script_target().split(":")
        wrapper = (f"import sys; from {module} import {function}; "
                   f"sys.exit({function}())")
        run = subprocess.run(
            [sys.executable, "-c", wrapper, *self.GEN],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert tree_from_text((tmp_path / "t.txt").read_text()).n == 6

    def test_module_entry_point(self, tmp_path):
        run = subprocess.run(
            [sys.executable, "-m", "treepatterns", *self.GEN],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert tree_from_text((tmp_path / "t.txt").read_text()).n == 6


def test_cli_import_loads_no_pool_modules():
    # A one-process run, which every default CLI call is, starts no pool,
    # so importing the command line must not load the pool modules.
    probe = "import sys; {}print('concurrent.futures' in sys.modules)"

    def loaded(imports):
        run = subprocess.run([sys.executable, "-c", probe.format(imports)],
                             env=child_env(), capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return run.stdout.strip() == "True"

    if loaded(""):
        pytest.skip("the bare interpreter already loads concurrent.futures")
    assert not loaded("import treepatterns.cli; ")


MC_RUN = ["mc", "--pattern", "cherry", "--n", "40", "--samples", "60",
          "--seed", "7"]


def run_fresh(argv, cwd):
    """``run_case``'s record of argv, from a new ``python -m treepatterns``
    process."""
    run = subprocess.run([sys.executable, "-m", "treepatterns", *argv],
                         cwd=cwd, env=child_env(), capture_output=True,
                         text=True)
    return {"argv": argv, "exit": run.returncode, "stdout": run.stdout,
            "stderr": run.stderr}


class TestParserReuse:
    """``main`` builds its parser once per process, and no call leaks
    into the next."""

    @pytest.mark.parametrize("calls", [
        [["verify", "--pattern", "edge", "--n", "4", "--n-max", "5"],
         ["verify", "--pattern", "edge", "--n", "4"]],
        [["moments", "--pattern", "cherry", "--n", "12", "--json"],
         ["moments", "--pattern", "cherry", "--n", "12"]],
        [["gen", "--n", "9", "--seed", "4", "--out", "t.txt"],
         ["gen", "--n", "9", "--seed", "4"]],
        [[*MC_RUN, "--workers", "2"], MC_RUN],
    ], ids=["usage-error-then-verify", "json-then-text", "out-then-stdout",
            "workers-then-default"])
    def test_each_call_matches_a_fresh_process(self, calls, tmp_path,
                                               monkeypatch):
        workers = []

        def recording(pat, n, samples, seed, workers_arg):
            workers.append(workers_arg)
            return estimate_pattern_stats(pat, n, samples, seed, workers_arg)

        monkeypatch.setattr(cli, "estimate_pattern_stats", recording)
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        for argv in calls:
            assert run_case(argv) == run_fresh(argv, fresh)
            # Files the call wrote, byte for byte.
            assert ({f.name: f.read_bytes() for f in here.iterdir()}
                    == {f.name: f.read_bytes() for f in fresh.iterdir()})
        # mc prints the same tallies for any worker count, so check the
        # count it ran with.
        if workers:
            assert workers == [2, 1]

    def test_three_calls_parse_with_one_parser(self, monkeypatch, capsys):
        parsers = []
        parse_args = cli._Parser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", recording)
        for n in ("12", "13", "14"):
            assert cli.main(["moments", "--pattern", "cherry", "--n", n]) == 0
        assert len(parsers) == 3
        assert all(p is cli.build_parser() for p in parsers)
