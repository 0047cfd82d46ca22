"""Byte-identity of the command line: the exit code, stdout and stderr of a
fixed list of commands, each pinned in tests/golden.json.

A change that alters one of these outputs on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and the diff of golden.json shows each output it changed.  Commands run in
process, with the help width pinned to 80 columns;
stdout and stderr are kept as lists of lines, line ends included.
"""

import contextlib
import io
import json
import os
import pathlib
from unittest import mock

import pytest

from lefpath import cli

GOLDEN = pathlib.Path(__file__).with_name("golden.json")

_README = [
    "hilbert 5 2",
    "poly 5",
    "hessian 5 3 --det",
    "hessian 5 3 --det --paths",
    "lattice 5 3 dvd-count",
    "lattice 5 4 lgv-check",
    "lattice 4 2 involution-check",
    "report 5",
    "scan --m 2..20 --mode lefschetz --format csv",
    "scan --m 3..7 --mode hilbert --n 2..2 --format csv",
]

COMMANDS = list(dict.fromkeys([
    *_README,
    *(f"report {m}{fmt}" for m in (5, 6) for fmt in ("", " --format json")),
    *(
        f"scan --mode {mode} --m 2..7{' --n 2..3' if mode in ('hilbert', 'partitions') else ''}"
        f" --format {fmt}"
        for mode in ("hilbert", "lefschetz", "lattice", "catalan", "partitions")
        for fmt in ("table", "csv", "json")
    ),
    *(f"lattice 5 3 {action}" for action in ("count", "lgv-check", "dvd-count")),
    "lattice 4 2 involution-check",
    *(f"hessian 5 3{flags}" for flags in ("", " --det", " --det --paths")),
    "poly 3",
    "poly 3 --format json",
    "hilbert 5 2",
    # bad input: exit 2
    "report 1",
    "lattice 3 9 count",
    # retired options
    "hilbert 5 2 --closed-form",
    "hilbert 5 3 --closed-form",
    "hessian 5 3 --point 1 -1 --det",
]))


def outcome(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(command.split())
        except SystemExit as exc:  # argparse rejected the input
            code = exc.code
    return {
        "exit": code,
        "stdout": out.getvalue().splitlines(keepends=True),
        "stderr": err.getvalue().splitlines(keepends=True),
    }


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_holds_each_command_once(expected):
    assert list(expected) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_the_pinned_bytes(expected, command):
    assert outcome(command) == expected[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: outcome(c) for c in COMMANDS}, indent=1) + "\n")
