"""CLI surface: exact output strings, exit codes, formats, determinism."""

import json
import math
import os
import subprocess
import sys
import time

import pytest
from conftest import (
    all_systems,
    enumerate_systems,
    flipped_paths,
    hankel_window,
    involution_phi,
    involution_seam,
    is_doubly_vertex_disjoint,
    is_vertex_disjoint,
)

from lefpath import algebra, cli, hilbert, lattice, lefschetz, partitions
from lefpath.exact import ExactMatrix


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_command(capsys):
    code, out, _ = run(capsys, "hilbert", "5", "2")
    assert code == 0
    assert out == "1 1 2 2 3 2 3 2 3 2 2 1 1\n"


def test_hilbert_trivial(capsys):
    code, out, _ = run(capsys, "hilbert", "1", "3")
    assert code == 0 and out == "1\n"


def test_hilbert_closed_form(capsys):
    code, out, _ = run(capsys, "hilbert", "3", "2", "--closed-form")
    assert code == 0
    assert out == "1 1 2 1 2 1 1\n"


def test_hilbert_closed_form_mismatch_exits_1_on_one_line(capsys, monkeypatch):
    # a closed form that parts from the series prints nothing on stdout and
    # one prefixed MISMATCH line on stderr
    real = hilbert.hilbert_m2_closed
    monkeypatch.setattr(hilbert, "hilbert_m2_closed", lambda m, i: real(m, i) + (i == 2))
    assert run(capsys, "hilbert", "3", "2", "--closed-form") == (
        1,
        "",
        "lefpath hilbert: MISMATCH: closed form (1, 1, 3, 1, 2, 1, 1)"
        " != series (1, 1, 2, 1, 2, 1, 1)\n",
    )


def test_hilbert_closed_form_needs_n2(capsys, monkeypatch):
    # rejected at the parser, before the series is computed
    def refuse(m, n):
        raise AssertionError("hilbert_series ran")

    monkeypatch.setattr(cli.hilbert, "hilbert_series", refuse)
    error = _bad_input_error(capsys, ["hilbert", "3", "3", "--closed-form"])
    assert "n = 2" in error


def test_hessian_det(capsys):
    code, out, _ = run(capsys, "hessian", "5", "3", "--det")
    assert code == 0
    assert out == "-5/20736\n"  # = -125/518400 in lowest terms


def test_hessian_det_paths(capsys):
    code, out, _ = run(capsys, "hessian", "5", "3", "--det", "--paths")
    assert code == 0 and out == "-125\n"


def test_hessian_det_zero(capsys):
    code, out, _ = run(capsys, "hessian", "5", "4", "--det")
    assert code == 0 and out == "0\n"


def test_hessian_matrix_rendering(capsys):
    code, out, _ = run(capsys, "hessian", "2", "0")
    assert code == 0 and out == "[1/3]\n"


def test_hessian_rank(capsys):
    code, out, _ = run(capsys, "hessian", "5", "4", "--rank", "--paths")
    assert code == 0 and out == "2\n"


def test_lattice_dvd_count(capsys):
    code, out, _ = run(capsys, "lattice", "5", "3", "dvd-count")
    assert code == 0
    assert out.splitlines()[0] == "N=125 sign=-1 det=-125 OK"


def test_lattice_lgv_check(capsys):
    # m = 1: A(1, 2) is one-dimensional, one source on its own target
    for m, i, expected in [
        ("5", "4", "signed_sum=0 det=0 OK\n"),
        ("1", "0", "signed_sum=1 det=1 OK\n"),
    ]:
        code, out, _ = run(capsys, "lattice", m, i, "lgv-check")
        assert code == 0
        assert out == expected, m


def test_lattice_dvd_count_flags_rule_mismatch(capsys):
    # the rule's range is m >= 2 and i <= m-1; at m = 1 the flag names both
    # bounds, since (1, 0) has i <= m-1 but lies outside it
    rule = "the rule (det != 0 <=> 2*h_i <= m) is only reliable for"
    for m, i, first, h2, reach in [
        ("5", "6", "N=1 sign=-1 det=-1", 6, "i <= m-1"),
        ("1", "0", "N=1 sign=+1 det=1", 2, "m >= 2 and i <= m-1"),
    ]:
        code, out, _ = run(capsys, "lattice", m, i, "dvd-count")
        assert code == 0  # flags are findings, not failures
        assert out == (
            f"{first} OK (nonvanishing rule mismatch flagged)\n"
            f"FLAG: nonvanishing rule disagrees at (m,i)=({m},{i}): "
            f"{first.split()[-1]} but 2*h_i={h2} vs m={m}; {rule} {reach}\n"
        ), m
    assert not lefschetz.path_routes(1, [0])[0].in_rule_range


def test_window_commands_sweep_past_the_scans_cut_off(capsys):
    # the lattice scan sweeps to m = 12; the window commands sweep any window
    # under STATE_BUDGET, so m = 16 keeps its sweep
    assert cli._SCAN_SWEEP_MAX < 16
    assert run(capsys, "lattice", "16", "8", "dvd-count") == (
        0,
        "N=78337696403036138673274880 sign=+1 det=78337696403036138673274880 OK\n",
        "",
    )
    assert run(capsys, "lattice", "16", "12", "lgv-check") == (
        0,
        "signed_sum=-3554718602051584 det=-3554718602051584 OK\n",
        "",
    )


def test_lattice_involution_check(capsys):
    code, out, _ = run(capsys, "lattice", "4", "2", "involution-check")
    assert code == 0
    assert "involution=OK" in out and "signed_sum_over_N=0" in out


def test_lattice_count(capsys):
    code, out, _ = run(capsys, "lattice", "5", "3", "count")
    assert code == 0
    assert "[275 75; 75 20]" in out


# the whole stdout of the commands that print matrices, byte for byte (the
# determinants are pinned by test_hessian_det and test_hessian_det_paths)
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["hessian", "5", "3"], "[55/144 5/48; 5/48 1/36]\n"),
        (
            ["lattice", "5", "3", "count"],
            "sources: [(0, 0), (1, 1)]\ntargets: [(8, 4), (7, 3)]\n[275 75; 75 20]\n",
        ),
    ],
)
def test_golden_stdout(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


def test_golden_dual_generator_coefficients(capsys):
    code, out, _ = run(capsys, "poly", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["dual_generator"] == [
        {"a": 6, "b": 0, "coeff": "1/80"},
        {"a": 4, "b": 1, "coeff": "1/8"},
        {"a": 2, "b": 2, "coeff": "1/4"},
    ]


def test_poly_text(capsys):
    code, out, _ = run(capsys, "poly", "5")
    assert code == 0
    assert "relation: e1^5 - 5*e1^3*e2 + 5*e1*e2^2" in out


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["results"]["relation"] == [
        {"a": 2, "b": 0, "coeff": "1"},
        {"a": 0, "b": 1, "coeff": "-2"},
    ]


def test_report_even_m_all_pass(capsys):
    code, out, _ = run(capsys, "report", "4")
    assert code == 0
    assert "max_sl_degree=4" in out
    assert "FLAG" not in out


def test_report_odd_m_flags_discrepancy(capsys):
    code, out, _ = run(capsys, "report", "5")
    assert code == 0  # the flag is a finding, not an error
    assert "max_sl_degree=3" in out
    assert "FLAG: odd m" in out


def test_report_json_schema(capsys):
    code, out, _ = run(capsys, "report", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "report"
    assert payload["results"]["hlp"] is True
    assert len(payload["results"]["degrees"]) == 5
    assert payload["verified_hessian_equals_path_matrix"] is True


REPORT_COLUMNS = [
    "i", "h", "det_sign", "rank", "window_min", "sl", "hlp",
    "chrr_expected", "chrr", "hrr_expected", "hrr",
]


def test_report_column_names_are_pinned(capsys):
    code, out, _ = run(capsys, "report", "5", "--format", "json")
    assert code == 0
    for degree in json.loads(out)["results"]["degrees"]:
        assert list(degree) == REPORT_COLUMNS
    code, out, _ = run(capsys, "scan", "--mode", "lefschetz", "--m", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].split(",") == ["m", *REPORT_COLUMNS]


def test_scan_hilbert_csv(capsys):
    code, out, _ = run(
        capsys, "scan", "--m", "3..7", "--mode", "hilbert", "--n", "2..2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,socle_degree,unimodal,first_violation_index"
    unimodal = {line.split(",")[0]: line.split(",")[3] for line in lines[1:]}
    assert unimodal == {"3": "False", "4": "True", "5": "False", "6": "True", "7": "False"}


def test_scan_hilbert_builds_each_series_once(capsys, monkeypatch):
    calls, series = [], hilbert.hilbert_series

    def counted(m, n):
        calls.append((m, n))
        return series(m, n)

    monkeypatch.setattr(hilbert, "hilbert_series", counted)
    code, _, _ = run(
        capsys, "scan", "--mode", "hilbert", "--m", "2..5", "--n", "1..3", "--jobs", "1"
    )
    assert code == 0
    assert sorted(calls) == [(m, n) for m in range(2, 6) for n in range(1, 4)]


def test_scan_lefschetz_counts_blocks(capsys):
    code, out, _ = run(
        capsys, "scan", "--m", "2..6", "--mode", "lefschetz", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    ms = {line.split(",")[0] for line in lines[1:]}
    assert ms == {"2", "3", "4", "5", "6"}


def test_scan_json_payload(capsys):
    code, out, _ = run(
        capsys, "scan", "--m", "2..4", "--mode", "catalan", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_checks_pass"] is True
    assert [r["m"] for r in payload["results"]] == [2, 3, 4]


def _refuse_float(text):
    raise AssertionError(f"float in the JSON output: {text}")


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "13"],
        ["poly", "6"],
        ["scan", "--mode", "hilbert", "--m", "2..6", "--n", "2..4"],
        ["scan", "--mode", "lefschetz", "--m", "2..8"],
        ["scan", "--mode", "lattice", "--m", "2..5"],
        ["scan", "--mode", "catalan", "--m", "2..6"],
        ["scan", "--mode", "partitions", "--m", "2..5", "--n", "2..3"],
    ],
)
def test_json_output_has_no_floats(capsys, argv):
    # exact arithmetic end to end: one float anywhere fails the parse
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    json.loads(out, parse_float=_refuse_float)


def test_scan_partitions_mode(capsys):
    code, out, _ = run(
        capsys, "scan", "--m", "2..4", "--n", "1..3", "--mode", "partitions",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3 * 3
    assert all(line.split(",")[2] == "True" for line in lines[1:])


def test_scan_deterministic_across_jobs(capsys):
    _, single, _ = run(
        capsys, "scan", "--m", "2..5", "--mode", "lattice", "--format", "csv",
        "--jobs", "1",
    )
    _, parallel, _ = run(
        capsys, "scan", "--m", "2..5", "--mode", "lattice", "--format", "csv",
        "--jobs", "3",
    )
    assert single == parallel


def test_lattice_scan_rows_equal_single_degree_verdicts(capsys):
    # the scan shares one pass per basis range; each row must still be the
    # verdict of its own degree
    code, out, _ = run(
        capsys, "scan", "--m", "2..5", "--mode", "lattice", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["results"]
    assert [(r["m"], r["i"]) for r in rows] == [
        (m, i) for m in range(2, 6) for i in range(3 * (m - 1) // 2 + 1)
    ]
    for row in rows:
        (v,) = lefschetz.path_routes(row["m"], [row["i"]])
        assert row == {
            "m": v.m,
            "i": v.i,
            "h": v.h,
            "det": v.det,
            "predicted_sign": v.predicted_sign,
            "n_doubly": v.n_doubly,
            "count_matches_det": v.count_matches_det,
            "nonvanishing_rule_agrees": v.nonvanishing_rule_agrees,
            "in_rule_range": v.in_rule_range,
        }


def test_scan_output_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys, "scan", "--m", "2..3", "--mode", "hilbert", "--format", "csv",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("m,n,socle_degree")


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "3"],
        ["scan", "--m", "2..3", "--mode", "hilbert"],
        ["poly", "3", "--format", "json"],
    ],
)
@pytest.mark.parametrize("where", ["missing-dir/out.txt", "."])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, where):
    # exit 1 means a violated equality; an output file that cannot be opened
    # is reported on one error line, with no traceback
    target = tmp_path / where
    code, out, err = run(capsys, *argv, "--output", str(target))
    reason = "Is a directory" if where == "." else "No such file or directory"
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"lefpath {argv[0]}: error: cannot write --output {target}: {reason}"
    ]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_failed_write_exits_2_before_the_flag_lines(capsys):
    argv = ["scan", "--mode", "lattice", "--m", "2..5", "--format", "csv"]
    code, out, err = run(capsys, *argv, "--output", "/dev/full")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "lefpath scan: error: cannot write --output /dev/full: No space left on device"
    ]


def test_unwritable_output_fails_before_computing(tmp_path, capsys, monkeypatch):
    def refuse(m):
        raise AssertionError("property_report ran")

    monkeypatch.setattr(lefschetz, "property_report", refuse)
    target = tmp_path / "missing-dir" / "out.txt"
    code, out, err = run(capsys, "report", "150", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"lefpath report: error: cannot write --output {target}: No such file or directory"
    ]


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a scan with --jobs above 1 loads concurrent.futures.process
    probe = "import sys, lefpath.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (0, "False\n")


def _loaded_after(argv: list[str], modules: list[str]) -> str:
    """The last stdout line of a fresh process that runs the CLI on argv:
    "loaded: [...]", the given modules it imported."""
    probe = (
        "import sys\n"
        "from lefpath import cli\n"
        "try:\n"
        "    cli.main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        f"print('loaded:', [m for m in {modules!r} if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "4", "2", "involution-check"],
        ["lattice", "5", "3", "count"],
        ["hessian", "5", "3", "--paths", "--det"],
        ["--help"],
    ],
)
def test_path_commands_leave_the_algebraic_route_unloaded(argv):
    # the path commands and the help never import these modules
    algebraic = ["lefpath.algebra", "lefpath.catalan", "lefpath.lefschetz", "lefpath.partitions"]
    assert _loaded_after(argv, algebraic) == "loaded: []"


# the oracle modules, and the fractions (with decimal) that exact loads
_ORACLES = ["lefpath.algebra", "lefpath.exact", "fractions"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (
            ["--help"],
            ["dataclasses", "inspect", "fractions", "json", "csv", "lefpath.exact", "lefpath.lattice"],
        ),
        (
            ["lattice", "6", "2", "involution-check"],
            ["dataclasses", "fractions", "json", "csv", "lefpath.exact"],
        ),
        (["scan", "--mode", "hilbert", "--m", "2..3"], ["lefpath.lattice"]),
        (["report", "5", "--format", "json"], _ORACLES),
        (["scan", "--mode", "lefschetz", "--m", "2..5"], _ORACLES),
        (["scan", "--mode", "lattice", "--m", "2..5"], _ORACLES),
        (["lattice", "5", "3", "dvd-count"], _ORACLES),
        (
            ["scan", "--mode", "catalan", "--m", "2..3"],
            ["lefpath.algebra", "lefpath.lefschetz", "lefpath.exact", "fractions", "decimal"],
        ),
        (
            ["scan", "--mode", "partitions", "--m", "2..3", "--n", "1..3"],
            ["fractions", "decimal", "lefpath.exact", "lefpath.algebra"],
        ),
    ],
    ids=[
        "help",
        "involution-check",
        "scan-hilbert",
        "report",
        "scan-lefschetz",
        "scan-lattice",
        "dvd-count",
        "scan-catalan",
        "scan-partitions",
    ],
)
def test_commands_load_only_what_they_run(argv, modules):
    # the records are NamedTuples, json and csv load in the formats that
    # write them, only path_matrix reads exact, the verdicts and the path
    # route read no oracle module, the catalan scan reads hilbert's
    # sequences, not algebra's polynomials, over ints that need no exact, and
    # the partitions scan checks the degree formula in integers
    assert _loaded_after(argv, modules) == "loaded: []"


@pytest.mark.parametrize("mode", sorted(cli._SCAN_MODES))
def test_scan_tasks_import_no_module_past_their_mode(mode):
    # cmd_scan imports a mode's modules before the pool forks, so that no
    # worker compiles one: its task must need no other lefpath module
    probe = (
        "import importlib, sys\n"
        "from lefpath import cli\n"
        f"task, _, _, modules = cli._SCAN_MODES[{mode!r}]\n"
        "for name in modules:\n"
        "    importlib.import_module('lefpath.' + name)\n"
        "before = set(sys.modules)\n"
        "task((3, 2))\n"
        "print('new:', sorted(m for m in set(sys.modules) - before if m.startswith('lefpath')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (0, "new: []\n")


def test_records_hash_and_compare_over_their_fields():
    # the records are NamedTuples: equal fields give equal records with equal
    # hashes, one changed field an unequal record, and no field is assignable
    report = lefschetz.property_report(4)
    records = [
        hilbert.hilbert_series(3, 2),
        hilbert.unimodality_record(hilbert.hilbert_series(3, 2)),
        lattice.vertex_sets(4, 2),
        next(enumerate_systems(4, 2)),
        lefschetz.path_routes(4, [2])[0],
        report.verdicts[2],
        report.claim_flags[0],
        report,
        lefschetz.signature_crosscheck(4, 2),
    ]
    for record in records:
        copy = type(record)(*record)
        assert copy == record and hash(copy) == hash(record)
        first = record._fields[0]
        assert record._replace(**{first: -1}) != record
        with pytest.raises(AttributeError):
            setattr(record, first, -1)
    assert len({type(r) for r in records}) == 9
    bare = lefschetz.PropertyReport(*report[:6])
    assert bare.claim_flags == ()


def test_failed_verification_sets_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(lattice, "transfer_counts", lambda m, indices: (999, 0))
    code, out, _ = run(capsys, "lattice", "5", "3", "lgv-check")
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize("off", [(1, 0), (0, 1)], ids=["signed", "n"])
@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "5", "3", "lgv-check"],
        ["lattice", "5", "3", "dvd-count"],
        ["scan", "--mode", "lattice", "--m", "5", "--format", "json"],
    ],
    ids=["lgv-check", "dvd-count", "scan"],
)
def test_a_sweep_off_by_one_fails_every_path_route_view(capsys, monkeypatch, off, argv):
    # the record's one ok covers signed == det and det == (-1)^flo(h) N: a
    # sweep whose signed sum or whose N is off by one fails each command
    real = lattice.transfer_counts

    def tampered(m, indices):
        signed, n_doubly = real(m, indices)
        return signed + off[0], n_doubly + off[1]

    monkeypatch.setattr(lattice, "transfer_counts", tampered)
    monkeypatch.delenv("LEFPATH_JOBS", raising=False)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    if argv[0] == "scan":
        assert json.loads(out)["all_checks_pass"] is False
    else:
        assert "MISMATCH" in out.splitlines()[0]


@pytest.mark.parametrize("action", ["lgv-check", "dvd-count"])
def test_tampered_moment_fails_the_path_route(capsys, monkeypatch, action):
    # the path route reads the report's determinant, and the report checks
    # its moments first: one Hankel moment off by one (a_2 of m = 5, read at
    # degree 3) stops the command on one MISMATCH line, before any output
    real = lefschetz.dual_numerator
    monkeypatch.setattr(
        lefschetz, "dual_numerator", lambda mm, n: real(mm, n) + (mm == 5 and n == 2)
    )
    code, out, err = run(capsys, "lattice", "5", "3", action)
    assert code == 1 and out == ""
    assert err == "lefpath lattice: MISMATCH: moments of m = 5 break the relation f_m o F_m = 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--mode", "lattice", "--m", "2..20", "--format", "json"],
        ["lattice", "7", "2", "lgv-check"],
        ["lattice", "7", "2", "dvd-count"],
        ["report", "40"],
        ["scan", "--mode", "lefschetz", "--m", "2..30", "--format", "json"],
    ],
)
def test_path_route_runs_no_elimination_and_builds_no_path_matrix(capsys, monkeypatch, argv):
    # the verdicts and the determinant come off the report's Hankel minors,
    # with no elimination, and the report checks its moments with no path
    # matrix and no contraction Hessian; the path matrix stays an oracle
    # for hessian --paths and lattice count, Bareiss for hessian --det and
    # --rank, the contraction Hessian for hessian without --paths
    eliminations, matrices, hessians = [], [], []
    real_pivots, real_path_matrix = ExactMatrix._pivots, lattice.path_matrix
    real_hessian = algebra.hessian

    def pivots(self):
        eliminations.append(self.rows)
        return real_pivots(self)

    def path_matrix(m, i):
        matrices.append((m, i))
        return real_path_matrix(m, i)

    def hessian(m, i, point=(1, 0)):
        hessians.append((m, i))
        return real_hessian(m, i, point)

    monkeypatch.setattr(ExactMatrix, "_pivots", pivots)
    monkeypatch.setattr(lattice, "path_matrix", path_matrix)
    monkeypatch.setattr(algebra, "hessian", hessian)
    monkeypatch.delenv("LEFPATH_JOBS", raising=False)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert eliminations == [] and matrices == [] and hessians == []
    assert run(capsys, "hessian", "5", "3", "--paths", "--det") == (0, "-125\n", "")
    assert eliminations == [((275, 75), (75, 20))] and matrices == [(5, 3)]  # the spies are live
    assert run(capsys, "hessian", "5", "3", "--det") == (0, "-5/20736\n", "")
    assert hessians == [(5, 3)]


def test_lattice_scan_fills_the_transfer_counts_to_m12(capsys):
    code, out, _ = run(capsys, "scan", "--mode", "lattice", "--m", "12..13", "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert {r["m"] for r in rows} == {12, 13}
    for row in rows:
        if row["m"] == 12:
            assert row["count_matches_det"] is True
            assert row["predicted_sign"] * row["n_doubly"] == row["det"]
        else:
            assert row["n_doubly"] is None and row["count_matches_det"] is None


@pytest.mark.parametrize("action", ["dvd-count", "lgv-check"])
def test_transfer_sweep_past_its_budget_exits_2_fast(capsys, action):
    started = time.perf_counter()
    code, out, err = run(capsys, "lattice", "30", "20", action)
    assert time.perf_counter() - started < 10
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"lefpath lattice: error: budget exceeded: over {lattice.STATE_BUDGET} states at (30, 20)"
    ]


def test_involution_check_past_its_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(lattice, "SYSTEM_BUDGET", 10)
    code, out, err = run(capsys, "lattice", "4", "2", "involution-check")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "lefpath lattice: error: budget exceeded: over 10 systems at (4, 2)"
    ]


def test_involution_check_past_its_path_budget_exits_2_fast(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "lattice", "20", "20", "involution-check")
    assert time.perf_counter() - started < 10
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"lefpath lattice: error: budget exceeded: over {lattice.PATH_BUDGET} paths at (20, 20)"
    ]


def test_first_window_past_the_path_budget_exits_2(capsys):
    # (9, 6)'s cells hold 677,409 paths, past the 131,072 of the budget
    assert run(capsys, "lattice", "9", "6", "involution-check") == (
        2, "", "lefpath lattice: error: budget exceeded: over 131072 paths at (9, 6)\n"
    )


def test_partition_walk_past_its_budget_exits_2_fast(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "scan", "--mode", "partitions", "--m", "40", "--n", "12")
    assert time.perf_counter() - started < 10
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"lefpath scan: error: budget exceeded: over {partitions.PARTITION_BUDGET} leaf visits"
        " at (40, 12)"
    ]


def _identity(phi):
    return lambda system: system


def _wrong_sign_image(phi):
    # the image's paths under the system's own, unswapped permutation
    return lambda system: phi(system)._replace(permutation=system.permutation)


def _same_paths_negated(phi):
    # the system's own paths under a transposed permutation: the opposite
    # sign, but not the permutation the paths' ends give
    def fake(system):
        perm = system.permutation
        return system._replace(permutation=(perm[1], perm[0]) + perm[2:])

    return fake


def _pairs_with_crossing_systems(phi):
    # first and its true partner each swapped with a system of crossing paths
    # (and crossing flips) of the opposite sign: still a sign-reversing
    # involution, but two images leave the vertex-disjoint systems
    first = next(
        s
        for s in enumerate_systems(4, 2)
        if not is_doubly_vertex_disjoint(s)
    )
    partner = phi(first)
    crossing = [
        s
        for s in all_systems(4, 2)
        if not is_vertex_disjoint(s)
        and not is_vertex_disjoint(s._replace(paths=flipped_paths(s)))
    ]
    bad_first = next(s for s in crossing if s.sign == partner.sign)
    bad_partner = next(s for s in crossing if s.sign == first.sign)
    swap = {first: bad_first, bad_first: first, partner: bad_partner, bad_partner: partner}
    return lambda system: swap.get(system) or phi(system)


def _later_member_elsewhere(phi):
    # agrees with phi except on the later member of the first pair, which it
    # sends to another system of N: the pair is checked from its first member
    # only, so that check must call phi on the later member
    n_set = [s for s in enumerate_systems(4, 2) if not is_doubly_vertex_disjoint(s)]
    later = phi(n_set[0])
    other = next(s for s in n_set if s not in (n_set[0], later))
    return lambda system: other if system == later else phi(system)


def _pairs_of_equal_sign(phi):
    # two systems of N of one sign swapped, and their true partners swapped:
    # images in N that map back, but without the sign reversal
    n_set = [s for s in enumerate_systems(4, 2) if not is_doubly_vertex_disjoint(s)]
    first, second = [s for s in n_set if s.sign == n_set[0].sign][:2]
    swap = {first: second, second: first, phi(first): phi(second), phi(second): phi(first)}
    return lambda system: swap.get(system) or phi(system)


@pytest.mark.parametrize(
    "fake",
    [
        _identity,
        _wrong_sign_image,
        _same_paths_negated,
        _pairs_with_crossing_systems,
        _later_member_elsewhere,
        _pairs_of_equal_sign,
    ],
)
def test_involution_check_catches_a_broken_involution(capsys, monkeypatch, fake):
    monkeypatch.setattr(lattice, "_involution", involution_seam(fake(involution_phi)))
    code, out, _ = run(capsys, "lattice", "4", "2", "involution-check")
    assert code == 1
    assert out.endswith("involution=MISMATCH\n")


@pytest.mark.parametrize("jobs, tasks, workers", [(5000, 2, 2), (2, 7, 2), (3, 3, 3)])
def test_pool_starts_no_more_workers_than_tasks(monkeypatch, jobs, tasks, workers):
    # fork starts every worker at the first submit, so the pool is sized by
    # the tasks too; the fake pool starts no process
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return map(func, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    assert cli._map_tasks(lambda t: t * t, list(range(tasks)), jobs) == [t * t for t in range(tasks)]
    assert sizes == [workers]


def test_jobs_default_env(monkeypatch):
    scan = ["scan", "--mode", "hilbert", "--m", "2"]
    monkeypatch.setenv("LEFPATH_JOBS", "4")
    assert cli.build_parser().parse_args(scan).jobs == 4
    monkeypatch.delenv("LEFPATH_JOBS")
    assert cli.build_parser().parse_args(scan).jobs == 1


def _bad_input_error(capsys, argv) -> str:
    """Run argv, which must exit 2 with one error line and no output;
    return that line."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "Traceback" not in captured.err
    return errors[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "hilbert", "--m", "x"],
        ["--mode", "hilbert", "--m", "5..2"],
        ["--mode", "hilbert", "--m", "2..3", "--jobs", "0"],
        ["--mode", "partitions", "--m", "2", "--n", "0..1"],
        ["--mode", "lefschetz", "--m", "1..3"],
        ["--mode", "lefschetz", "--m", "2..3", "--n", "2"],
    ],
)
def test_scan_bad_input_exits_2_with_one_error_line(capsys, argv):
    error = _bad_input_error(capsys, ["scan", *argv])
    assert error.startswith("lefpath scan: error: argument")


@pytest.mark.parametrize(
    "argv",
    [
        ["hessian", "1", "0"],
        ["report", "0"],
        ["report", "1"],
        ["poly", "1"],
        ["hilbert", "5", "0"],
        ["lattice", "3", "9", "count"],
        ["hilbert", "5", "3", "--closed-form"],
        ["hessian", "5", "3", "--paths", "--point", "1", "0"],
    ],
)
def test_bad_positional_input_exits_2_with_one_error_line(capsys, argv):
    error = _bad_input_error(capsys, argv)
    assert error.startswith(f"lefpath {argv[0]}: error: argument")


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_jobs_env_fails_only_scan(capsys, monkeypatch, value):
    monkeypatch.setenv("LEFPATH_JOBS", value)
    assert run(capsys, "hilbert", "3", "2") == (0, "1 1 2 1 2 1 1\n", "")
    error = _bad_input_error(capsys, ["scan", "--mode", "hilbert", "--m", "2"])
    assert error.startswith("lefpath scan: error: argument --jobs")


def test_report_crosscheck_mismatch_exits_1(capsys, monkeypatch):
    # the one-walker count to the target (8, 4) of m = 5, s = 0, off by one
    real = lattice.target_path_counts

    def tampered(m):
        counts = real(m)
        counts[0] += m == 5
        return counts

    monkeypatch.setattr(lattice, "target_path_counts", tampered)
    line = "MISMATCH: moments of m = 5 differ from the path counts to (2m-2-s, m-1-s)\n"
    assert run(capsys, "report", "5") == (1, "", "lefpath report: " + line)
    assert run(capsys, "report", "5", "--format", "json") == (1, "", "lefpath report: " + line)


@pytest.mark.parametrize("m", [5, 13])
def test_tampered_moment_fails_the_crosscheck(capsys, monkeypatch, m):
    # one Hankel moment off by one: the verdicts read it, and the report's
    # relation check refuses it before any command prints
    real = lefschetz.dual_numerator

    def tampered(mm, n):
        return real(mm, n) + (mm == m and n == 2)

    monkeypatch.setattr(lefschetz, "dual_numerator", tampered)
    monkeypatch.delenv("LEFPATH_JOBS", raising=False)
    line = f"MISMATCH: moments of m = {m} break the relation f_m o F_m = 0\n"
    assert run(capsys, "report", str(m)) == (1, "", "lefpath report: " + line)
    argv = ["scan", "--mode", "lefschetz", "--m", str(m), "--format", "json"]
    assert run(capsys, *argv) == (1, "", "lefpath scan: " + line)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "8"],
        ["report", "8", "--format", "json"],
        ["scan", "--mode", "lefschetz", "--m", "8"],
        ["lattice", "8", "10", "dvd-count"],
    ],
)
def test_window_the_wall_cannot_settle_exits_1_on_one_line(capsys, monkeypatch, argv):
    # a_2 of m = 8 off by one puts a zero divisor under the 4 x 4 window at
    # degree 10: the report raises there, and every command reading it exits 1
    # on one MISMATCH line, with nothing on stdout and no traceback
    real = lefschetz.dual_numerator
    monkeypatch.setattr(
        lefschetz, "dual_numerator", lambda mm, n: real(mm, n) + (mm == 8 and n == 2)
    )
    monkeypatch.delenv("LEFPATH_JOBS", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"lefpath {argv[0]}: MISMATCH: ") and err.count("\n") == 1
    assert "(8, 10)" in err and "Traceback" not in err


@pytest.mark.parametrize("degree", range(7))
def test_tampered_contraction_hessian_fails_the_crosscheck(capsys, monkeypatch, degree):
    # one entry of one degree's contraction Hessian off by one: the report
    # builds no contraction Hessian, so its output stays the same, and the
    # oracle's own cross-check, the closed-form compare of
    # tests/test_algebra.py::test_hessian_equals_closed_form, fails
    argv = ["scan", "--mode", "lefschetz", "--m", "5", "--format", "json"]
    monkeypatch.delenv("LEFPATH_JOBS", raising=False)
    before = run(capsys, "report", "5"), run(capsys, *argv)
    real, calls = algebra.hessian, []

    def tampered(m, i, point=(1, 0)):
        calls.append((m, i))
        matrix = real(m, i, point)
        if i != degree:
            return matrix
        rows = [list(row) for row in matrix.rows]
        rows[-1][-1] += 1
        return ExactMatrix(rows)

    monkeypatch.setattr(algebra, "hessian", tampered)
    lefschetz._property_report.cache_clear()
    assert (run(capsys, "report", "5"), run(capsys, *argv)) == before
    assert before[0][0] == 0 and calls == []
    scale = math.factorial(3 * 5 - 3 - 2 * degree)
    assert algebra.hessian(5, degree).scaled(scale) != hankel_window(5, degree)
    assert real(5, degree).scaled(scale) == hankel_window(5, degree)


@pytest.mark.parametrize("m", [5, 13])
def test_crosscheck_reads_every_basis_start(capsys, monkeypatch, m):
    # b off by one at s = 2 start, the corner (p, q) = (start, start) of any
    # single basis start's windows, fails the report's moment check
    real = lefschetz.hankel_moments(m)
    starts = sorted({hilbert.basis_range(m, i).start for i in range(3 * (m - 1) // 2 + 1)})
    for start in starts:
        b = real[: 2 * start] + (real[2 * start] + 1,) + real[2 * start + 1 :]
        monkeypatch.setattr(lefschetz, "hankel_moments", lambda mm, b=b: b)
        lefschetz._property_report.cache_clear()
        code, out, err = run(capsys, "report", str(m))
        assert (code, out) == (1, ""), start
        assert err == f"lefpath report: MISMATCH: moments of m = {m} break the relation f_m o F_m = 0\n"


def test_common_mode_tamper_fails_the_report(capsys, monkeypatch):
    # dual_numerator(5, 2) off by one: the path matrix is a window of the
    # row DP, which shares no formula with it, so the two windows part, and
    # the moment check's relation sees the change
    real_numerator = lefschetz.dual_numerator
    monkeypatch.setattr(
        lefschetz, "dual_numerator", lambda mm, n: real_numerator(mm, n) + (mm == 5 and n == 2)
    )
    assert lattice.path_matrix(5, 3) != hankel_window(5, 3)
    line = "MISMATCH: moments of m = 5 break the relation f_m o F_m = 0\n"
    assert run(capsys, "report", "5") == (1, "", "lefpath report: " + line)


@pytest.mark.parametrize("m, k", [(2, 1), (5, 0), (5, 1), (5, 2), (8, 4), (13, 6)])
def test_tampered_relation_coefficient_fails_the_relation_alone(capsys, monkeypatch, m, k):
    # the relation reads c_coeff and the moments; the path counts read
    # neither, so only the relation can see a wrong coefficient
    real = hilbert.c_coeff
    monkeypatch.setattr(hilbert, "c_coeff", lambda mm, kk: real(mm, kk) + ((mm, kk) == (m, k)))
    b = lefschetz.hankel_moments(m)
    assert lattice.target_path_counts(m)[: len(b)] == list(b[:m])
    line = f"MISMATCH: moments of m = {m} break the relation f_m o F_m = 0\n"
    assert run(capsys, "report", str(m)) == (1, "", "lefpath report: " + line)


@pytest.mark.parametrize("s", range(6))
def test_tampered_path_count_fails_the_path_check_alone(capsys, monkeypatch, s):
    # one one-walker count of m = 6 off by one: the relation does not read
    # the counts, so only the path check can see it
    real = lattice.target_path_counts

    def tampered(m):
        counts = real(m)
        counts[s] += m == 6
        return counts

    monkeypatch.setattr(lattice, "target_path_counts", tampered)
    b = lefschetz.hankel_moments(6)
    assert hilbert.relation_residues(6, b[5::-1]) == [1, 0, 0, 0, 0, 0]
    line = "MISMATCH: moments of m = 6 differ from the path counts to (2m-2-s, m-1-s)\n"
    assert run(capsys, "report", "6") == (1, "", "lefpath report: " + line)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "5"],
        ["report", "5", "--format", "json"],
        ["scan", "--mode", "lefschetz", "--m", "4..5", "--jobs", "1"],
        ["scan", "--mode", "lefschetz", "--m", "4..5", "--jobs", "2"],
        ["lattice", "5", "3", "dvd-count"],
    ],
)
def test_moment_check_failure_exits_1_on_one_line(capsys, monkeypatch, argv):
    # a_2 of m = 5 off by one: the wall settles every window, the moment
    # check does not pass, and every command reading the report exits 1 on
    # one MISMATCH line with nothing on stdout, the pool's workers included
    real = lefschetz.dual_numerator
    monkeypatch.setattr(
        lefschetz, "dual_numerator", lambda mm, n: real(mm, n) + (mm == 5 and n == 2)
    )
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"lefpath {argv[0]}: MISMATCH: moments of m = 5 break the relation f_m o F_m = 0\n"


def test_moment_check_at_the_smallest_m(capsys, monkeypatch):
    # m = 2: b = (a_1, a_0) = (2, 1), though its one window reads b_0 alone;
    # m = 1: b = (a_0,) = (1,), which the lattice commands and the lattice
    # scan read through the report
    assert lefschetz.hankel_moments(2) == (2, 1)
    assert lefschetz.hankel_moments(1) == (1,)
    assert run(capsys, "report", "2")[0] == 0
    assert run(capsys, "lattice", "1", "0", "dvd-count")[0] == 0
    assert run(capsys, "scan", "--mode", "lattice", "--m", "1..3", "--format", "json")[0] == 0
    real = lefschetz.hankel_moments
    for m, tampered in [(2, (3, 1)), (1, (2,))]:

        def patched(mm, m=m, tampered=tampered):
            return tampered if mm == m else real(mm)

        monkeypatch.setattr(lefschetz, "hankel_moments", patched)
        lefschetz._property_report.cache_clear()
        with pytest.raises(ArithmeticError, match=f"moments of m = {m} break the relation"):
            lefschetz.property_report(m)
    code, out, err = run(capsys, "lattice", "1", "0", "dvd-count")
    assert (code, out) == (1, "")
    assert err == "lefpath lattice: MISMATCH: moments of m = 1 break the relation f_m o F_m = 0\n"
    code, out, err = run(capsys, "scan", "--mode", "lattice", "--m", "1..3", "--format", "json")
    assert (code, out) == (1, "")
    assert err == "lefpath scan: MISMATCH: moments of m = 1 break the relation f_m o F_m = 0\n"


def test_json_output_is_streamed_in_blocks(capsys, tmp_path):
    argv = ["scan", "--mode", "lefschetz", "--m", "2..20", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload))
    assert chunks > 2 * cli._JSON_BLOCK  # the payload spans several blocks
    assert out == json.dumps(payload, indent=2) + "\n"
    target = tmp_path / "scan.json"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_text() == out
