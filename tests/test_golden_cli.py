"""Frozen CLI output: stdout, stderr and exit code of fixed runs, byte for byte.

The expected values live in golden_cli.json next to this file.  They pin
the text, JSON and CSV formats and the exit codes of every command, so a
refactor that changes any byte of them fails here.  Regenerate them only
for an intended format change, and review the diff:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from treepatterns import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

# Input files, written to the working directory of every run.
FILES = {
    # Holds every counted shape: a pendant path4 at 2, a cherry at 6 and
    # a star3 at 9.
    "host.txt": ("n 14\n1 2\n2 3\n3 4\n4 5\n1 6\n6 7\n6 8\n1 9\n9 10\n"
                 "9 11\n9 12\n1 13\n13 14\n"),
    "seq.txt": "n 9\n3 2 2 4 8 4 9\n",
    "vee.txt": "n 3\n1 2\n1 3\nroot 1\n",
    "bad.txt": "nope\n",
    "comment.txt": "# no header, no entries\n",
}

MC = ["--pattern", "cherry", "--n", "40", "--samples", "300", "--seed", "7"]
CONVERGE = ["converge", "--pattern", "cherry", "--n-list", "4,6,50,700",
            "--samples", "60", "--seed", "2"]

CASES = {
    "gen": ["gen", "--n", "12", "--seed", "3"],
    "encode": ["encode", "host.txt"],
    "decode": ["decode", "seq.txt"],
    **{f"count-{p}{suffix}": ["count", "--tree", "host.txt", "--pattern", p,
                              *flags]
       for p in ("edge", "cherry", "star3", "path4@end")
       for suffix, flags in (("", []), ("-json", ["--json"]))},
    "count-pattern-file": ["count", "--tree", "host.txt",
                           "--pattern", "vee.txt"],
    "aut": ["aut", "--tree", "host.txt"],
    "aut-root": ["aut", "--tree", "host.txt", "--root", "9"],
    "center": ["center", "--tree", "host.txt"],
    "rootify": ["rootify", "--tree", "host.txt"],
    **{f"moments-{p}-{n}{suffix}": ["moments", "--pattern", p, "--n", str(n),
                                    *flags]
       for p in ("cherry", "star3")
       for n in (12, 201)
       for suffix, flags in (("", []), ("-json", ["--json"]))},
    "verify-n-max-7": ["verify", "--pattern", "cherry", "--n-max", "7"],
    "verify-n-max-7-json": ["verify", "--pattern", "cherry", "--n-max", "7",
                            "--json"],
    "verify-7-workers-2": ["verify", "--pattern", "star3", "--n", "7",
                           "--workers", "2"],
    "mc-workers-1": ["mc", *MC, "--workers", "1"],
    "mc-workers-2": ["mc", *MC, "--workers", "2"],
    "mc-json": ["mc", *MC, "--json"],
    "converge": CONVERGE,
    "converge-csv": [*CONVERGE, "--csv"],
    # Invalid input: exit 2 with one line on stderr.
    "decode-malformed": ["decode", "bad.txt"],
    "decode-empty": ["decode", "comment.txt"],
    "encode-missing-file": ["encode", "absent.txt"],
    "verify-past-cap": ["verify", "--pattern", "cherry", "--n", "2000"],
    "verify-n-max-past-cap": ["verify", "--pattern", "edge", "--n-max", "6",
                              "--cap", "5"],
    "verify-below-p-plus-two": ["verify", "--pattern", "star3", "--n", "4"],
    "verify-bad-range": ["verify", "--pattern", "cherry", "--n-max", "3"],
    "gen-zero": ["gen", "--n", "0", "--seed", "1"],
    "gen-negative": ["gen", "--n", "-4", "--seed", "1"],
    "mc-zero-samples": ["mc", *MC[:4], "--samples", "0", "--seed", "1"],
    "converge-negative-samples": ["converge", "--pattern", "cherry",
                                  "--n-list", "10,20", "--samples", "-5",
                                  "--seed", "1"],
    "converge-past-ceiling": ["converge", "--pattern", "edge", "--n-list",
                              "10,300000", "--samples", "2", "--seed", "1"],
    "converge-bad-n-list": ["converge", "--pattern", "edge", "--n-list",
                            "4,x", "--samples", "10", "--seed", "1"],
    "converge-empty-n-list": ["converge", "--pattern", "cherry", "--n-list",
                              ",", "--samples", "5", "--seed", "1"],
    "moments-below-domain": ["moments", "--pattern", "star3", "--n", "3"],
    "bad-pattern-name": ["moments", "--pattern", "path4@mid", "--n", "9"],
    # Usage errors: exit 1.
    "verify-n-with-n-max": ["verify", "--pattern", "edge", "--n", "4",
                            "--n-max", "5"],
}


def run_case(argv: list[str]) -> dict:
    """Run the CLI in-process on argv; return its exit code and streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_frozen(name, golden, tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(
    name for name, rec in json.loads(GOLDEN.read_text()).items()
    if rec["exit"] == 0))
def test_out_file_gets_the_stdout_bytes(name, golden, tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    got = run_case([*CASES[name], "--out", "o.txt"])
    assert got["stdout"] == ""
    assert (tmp_path / "o.txt").read_bytes() \
        == golden[name]["stdout"].encode("utf-8")
    assert got["exit"] == golden[name]["exit"]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            records = {name: run_case(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(here)
    json.dump(records, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
