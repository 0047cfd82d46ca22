"""Command-line surface: single queries, verification suites, range scans.

Conventions shared by all subcommands:

* rationals print exactly as "p/q" (plain "p" for integers), never decimal;
* exit 0: every verified equality held; 1: one was violated, or an exact
  identity failed inside the arithmetic, such as a report's moment checks
  (one "MISMATCH:" line on stderr);
  2: bad input, a computation past its budget, or an output that cannot be
  written (the --output file, or stdout on a full device, a closed pipe or a
  closed descriptor), on one "error:" line.  "FLAG:" lines report findings
  (claim/computation mismatches), never the exit code;
* scans partition work across --jobs workers (default from LEFPATH_JOBS)
  and merge results in key order, so output bytes are identical for any
  worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import importlib
import io
import itertools
import os
import sys
from typing import TYPE_CHECKING, Optional

from . import BudgetExceeded, hilbert

# Only hilbert loads with this module; every other module, and the json and
# csv formats, load in the command that reads them, so that `--help` compiles
# none of them and `lattice m i involution-check` only lattice.
if TYPE_CHECKING:
    from . import lefschetz

SCHEMA_VERSION = 1


def _parse_range(text: str) -> range:
    """"2..20" -> range(2, 21); "5" -> range(5, 6); only nonempty, values >= 1."""
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer or A..B range: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    if values.start < 1:
        raise argparse.ArgumentTypeError(f"need values >= 1, got {text!r}")
    return values


def _range_arg(text: str) -> str:
    """argparse type: validate a range, keep its text for the JSON inputs."""
    _parse_range(text)
    return text


def _at_least(low: int):
    """argparse type: an integer of at least ``low``."""

    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"need an integer >= {low}, got {text!r}")
        return int(text)

    return integer


class _DegreeArg(argparse.Action):
    """The positional degree i, checked against the m parsed before it."""

    def __call__(self, parser, namespace, value, option_string=None):
        try:
            hilbert.check_degree(namespace.m, value)
        except ValueError as exc:
            raise argparse.ArgumentError(self, str(exc))
        setattr(namespace, self.dest, value)


def _map_tasks(func, tasks, jobs: int):
    # fork starts every worker at the first submit, however few the tasks,
    # and workers past the core count only wait for a core
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [func(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # only a parallel scan pays for it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, tasks))


_JSON_BLOCK = 4096  # encoder chunks per write; stdout may be unbuffered


class OutputError(Exception):
    """stdout or the --output file could not be opened or written."""


@contextlib.contextmanager
def _open_output(output: Optional[str]):
    """Yield the one write function of a command, to stdout or to the --output
    file.  main opens the file before the command computes, so that an
    unwritable path fails first; an OSError from opening, writing, flushing
    or closing either one raises OutputError, and nothing else does."""
    where = f"--output {output}" if output else "stdout"

    def guarded(io, *args):
        try:
            return io(*args)
        except OSError as exc:
            if not output:
                # Python flushes stdout again at exit: what the failed write
                # left in its buffer goes to /dev/null, not to a second error
                with open(os.devnull, "w") as devnull:
                    os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise OutputError(f"cannot write {where}: {exc.strerror}") from None

    fh = guarded(open, output, "w") if output else sys.stdout
    if fh is None:  # the process started with stdout closed
        raise OutputError(f"cannot write stdout: {os.strerror(errno.EBADF)}")

    def write(text: str) -> None:
        guarded(fh.write, text)
        guarded(fh.flush)  # a failed write stops the command at that write

    try:
        yield write
    finally:
        if output:
            guarded(fh.close)


def _emit_json(args, inputs: dict, results, **trailing) -> None:
    """Write the envelope {schema_version, command, inputs, results,
    **trailing} as json.dumps(indent=2) + "\\n", a block of chunks at a time."""
    import json

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "results": results,
        **trailing,
    }
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while block := "".join(itertools.islice(chunks, _JSON_BLOCK)):
        args.write(block)
    args.write("\n")


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


# -- hilbert ------------------------------------------------------------------


def cmd_hilbert(args) -> int:
    if args.closed_form and args.n != 2:
        args.error(f"argument --closed-form: only defined for n = 2, got n = {args.n}")
    h = hilbert.hilbert_series(args.m, args.n)
    if args.closed_form:
        closed = hilbert.hilbert_m2_closed_coeffs(args.m)
        if closed != h.coeffs:
            raise ArithmeticError(f"closed form {closed} != series {h.coeffs}")
    args.write(" ".join(str(c) for c in h.coeffs) + "\n")
    return 0


# -- poly ---------------------------------------------------------------------


def cmd_poly(args) -> int:
    from . import algebra

    relation = algebra.f_m(args.m)
    dual = algebra.dual_generator(args.m)
    if args.format == "json":
        results = {"relation": relation.to_json_terms(), "dual_generator": dual.to_json_terms()}
        _emit_json(args, {"m": args.m}, results)
    else:
        args.write(
            f"relation: {relation.to_text()}\ndual generator: {dual.to_text()}\n"
        )
    return 0


# -- hessian ------------------------------------------------------------------


def cmd_hessian(args) -> int:
    if args.paths:
        from . import lattice

        matrix = lattice.path_matrix(args.m, args.i)
    else:
        from . import algebra

        point = (args.point[0], args.point[1]) if args.point else (1, 0)
        matrix = algebra.hessian(args.m, args.i, point)
    if args.det:
        args.write(f"{matrix.det()}\n")
    if args.rank:
        args.write(f"{matrix.rank()}\n")
    if not (args.det or args.rank):
        args.write(f"{matrix}\n")
    return 0


# -- lattice ------------------------------------------------------------------


def _nonvanishing_flag(verdict) -> Optional[str]:
    if verdict.nonvanishing_rule_agrees:
        return None
    reach = "i <= m-1" if verdict.m >= 2 else "m >= 2 and i <= m-1"
    return (
        f"FLAG: nonvanishing rule disagrees at (m,i)=({verdict.m},{verdict.i}): "
        f"det={verdict.det} but 2*h_i={2 * verdict.h} vs m={verdict.m}; "
        f"the rule (det != 0 <=> 2*h_i <= m) is only reliable for {reach}"
    )


def cmd_lattice(args) -> int:
    m, i = args.m, args.i
    if args.action in ("lgv-check", "dvd-count"):
        from . import lefschetz

        (route,) = lefschetz.path_routes(m, [i])
        verdict = "OK" if route.ok else "MISMATCH"
        if args.action == "lgv-check":
            args.write(f"signed_sum={route.signed_sum} det={route.det} {verdict}\n")
        else:
            flag = _nonvanishing_flag(route)
            suffix = " (nonvanishing rule mismatch flagged)" if flag else ""
            args.write(f"N={route.n_doubly} sign={route.predicted_sign:+d} "
                       f"det={route.det} {verdict}{suffix}\n")
            if flag:
                args.write(flag + "\n")
        return 0 if route.ok else 1
    from . import lattice

    if args.action == "count":
        matrix, w = lattice.path_matrix(m, i), lattice.window(m, hilbert.basis_range(m, i))
        args.write(f"sources: {list(w.sources)}\ntargets: {list(w.targets)}\n{matrix}\n")
        return 0
    if args.action == "involution-check":
        size, signed, ok = lattice.check_involution(m, i)
        ok = ok and signed == 0
        args.write(
            f"|N|={size} signed_sum_over_N={signed} "
            f"involution={'OK' if ok else 'MISMATCH'}\n"
        )
        return 0 if ok else 1
    raise AssertionError(f"unhandled action {args.action}")


# -- report -------------------------------------------------------------------

# the report's columns, each mapped to the lefschetz.DegreeVerdict attribute it reads
_REPORT_COLUMNS = {
    "i": "i",
    "h": "h",
    "det_sign": "det_sign",
    "rank": "rank",
    "window_min": "window_min",
    "sl": "sl_pass",
    "hlp": "hlp_pass",
    "chrr_expected": "chrr_expected_sign",
    "chrr": "chrr_pass",
    "hrr_expected": "hrr_expected_sign",
    "hrr": "hrr_pass",
}


def _verdict_row(v: lefschetz.DegreeVerdict) -> list:
    return [getattr(v, attr) for attr in _REPORT_COLUMNS.values()]


def _report_table(report: lefschetz.PropertyReport) -> str:
    lines = [
        f"A(m,2) with m={report.m}: socle degree {report.socle_degree}",
        "  i  h  det  rank  window  SL   HLP  cHRR(exp)  cHRR  HRR(exp)  HRR",
    ]
    for v in report.verdicts:
        lines.append(
            f"{v.i:>3}{v.h:>3}{v.det_sign:>+5}{v.rank:>6}{v.window_min:>8}"
            f"{'yes' if v.sl_pass else 'no':>5}{'yes' if v.hlp_pass else 'no':>5}"
            f"{v.chrr_expected_sign:>+10}{'yes' if v.chrr_pass else 'no':>6}"
            f"{v.hrr_expected_sign:>+9}{'yes' if v.hrr_pass else 'no':>5}"
        )
    lines.append(
        f"summary: max_sl_degree={report.max_sl_degree} hlp={report.hlp} "
        f"max_chrr_degree={report.max_chrr_degree}"
    )
    lines += _claim_flags(report)
    return "\n".join(lines) + "\n"


def _claim_flags(report: lefschetz.PropertyReport, prefix: str = "") -> list[str]:
    """One FLAG line per claim the report disagrees with."""
    return [
        f"FLAG: {prefix}{f.claim} | expected {f.expected} | computed {f.computed}"
        for f in report.claim_flags
        if not f.agrees
    ]


def _report_json(report: lefschetz.PropertyReport) -> dict:
    return {
        "m": report.m,
        "socle_degree": report.socle_degree,
        "degrees": [
            dict(zip(_REPORT_COLUMNS, _verdict_row(v)))
            for v in report.verdicts
        ],
        "max_sl_degree": report.max_sl_degree,
        "hlp": report.hlp,
        "max_chrr_degree": report.max_chrr_degree,
        "flags": [f._asdict() for f in report.claim_flags],
    }


def cmd_report(args) -> int:
    from . import lefschetz

    report = lefschetz.property_report(args.m)
    if args.format == "json":
        _emit_json(
            args,
            {"m": args.m},
            _report_json(report),
            verified_hessian_equals_path_matrix=True,  # a failed check raised above
        )
    else:
        args.write(_report_table(report))
    return 0


# -- scan ---------------------------------------------------------------------


def _scan_hilbert_task(key: tuple[int, int]) -> dict:
    m, n = key
    h = hilbert.hilbert_series(m, n)
    record = hilbert.unimodality_record(h)
    closed_ok = n != 2 or h.coeffs == hilbert.hilbert_m2_closed_coeffs(m)
    return {"rows": [list(record)], "ok": closed_ok, "flags": []}


def _scan_lefschetz_task(key: tuple[int, int]) -> dict:
    from . import lefschetz

    (m, _) = key
    report = lefschetz.property_report(m)
    rows = [[m, *_verdict_row(v)] for v in report.verdicts]
    return {"rows": rows, "ok": True, "flags": _claim_flags(report, f"m={m}: ")}


# the lattice scan's columns, each a lefschetz.PathRoute attribute of that name
_LATTICE_COLUMNS = [
    "m",
    "i",
    "h",
    "det",
    "predicted_sign",
    "n_doubly",
    "count_matches_det",
    "nonvanishing_rule_agrees",
    "in_rule_range",
]


# the largest m whose lattice scan sweeps (m = 12's nine windows take about
# 0.06 s, m = 16's twelve 1.6 s); past it the rows hold the report's det only
_SCAN_SWEEP_MAX = 12


def _scan_lattice_task(key: tuple[int, int]) -> dict:
    from . import lefschetz

    m, _ = key
    degrees = range(hilbert.flo(3 * (m - 1)) + 1)
    routes = lefschetz.path_routes(m, degrees, sweep=m <= _SCAN_SWEEP_MAX)
    rows = [[getattr(route, column) for column in _LATTICE_COLUMNS] for route in routes]
    flags = [flag for flag in map(_nonvanishing_flag, routes) if flag]
    return {"rows": rows, "ok": all(route.ok is not False for route in routes), "flags": flags}


def _scan_catalan_task(key: tuple[int, int]) -> dict:
    from . import catalan

    m, _ = key
    order = 20
    power_ok = catalan.catalan_power(m, order) == catalan.catalan_series(order).pow(m)
    recip = catalan.catalan_power_reciprocal(m, order)
    head_ok = all(
        recip[n] == (-1) ** n * hilbert.c_coeff(m, n)
        for n in range(min(order, hilbert.flo(m)) + 1)
    )
    identity_ok = catalan.check_identity_zero(m)
    ok = power_ok and head_ok and identity_ok
    return {"rows": [[m, power_ok, head_ok, identity_ok]], "ok": ok, "flags": []}


def _scan_partitions_task(key: tuple[int, int]) -> dict:
    from . import partitions

    m, n = key
    gf = partitions.partition_gf(m, n)
    count_ok = sum(gf) == m**n
    gf_ok = gf == hilbert.hilbert_series(m, n).coeffs
    degree_ok = partitions.degree_formula_matches_hessian(m) if (n == 2 and m >= 2) else None
    ok = count_ok and gf_ok and degree_ok is not False
    return {"rows": [[m, n, count_ok, gf_ok, degree_ok]], "ok": ok, "flags": []}


# mode: (task, CSV header, whether it reads --n, the modules its tasks import)
_SCAN_MODES = {
    "hilbert": (_scan_hilbert_task, list(hilbert.UnimodalityRecord._fields), True, ()),
    "lefschetz": (_scan_lefschetz_task, ["m", *_REPORT_COLUMNS], False, ("lefschetz",)),
    "lattice": (_scan_lattice_task, _LATTICE_COLUMNS, False, ("lefschetz",)),
    "catalan": (
        _scan_catalan_task,
        ["m", "power_closed_form_ok", "reciprocal_head_ok", "identity_zero_ok"],
        False,
        ("catalan",),
    ),
    "partitions": (
        _scan_partitions_task,
        ["m", "n", "count_ok", "gf_matches_hilbert", "degree_formula_ok"],
        True,
        ("lattice", "partitions"),
    ),
}


def cmd_scan(args) -> int:
    task_func, header, uses_n, modules = _SCAN_MODES[args.mode]
    if args.n and not uses_n:
        args.error(f"argument --n: the {args.mode} mode does not read --n")
    m_range = _parse_range(args.m)
    if args.mode == "lefschetz" and m_range.start < 2:
        args.error(f"argument --m: the lefschetz mode needs m >= 2, got {args.m!r}")
    n_range = _parse_range(args.n) if args.n else range(2, 3)
    if uses_n:
        keys = [(m, n) for m in m_range for n in n_range]
    else:
        keys = [(m, 0) for m in m_range]
    for name in modules:  # loaded here once, so that no pool worker compiles them
        importlib.import_module(f"{__package__}.{name}")
    results = _map_tasks(task_func, keys, args.jobs)

    rows = [row for result in results for row in result["rows"]]
    flags = [flag for result in results for flag in result["flags"]]
    all_ok = all(result["ok"] for result in results)

    if args.format == "csv":
        args.write(_csv_text(header, rows))
        for flag in flags:
            print(flag, file=sys.stderr)
    elif args.format == "json":
        _emit_json(
            args,
            {"mode": args.mode, "m": args.m, "n": args.n, "jobs": args.jobs},
            [dict(zip(header, row)) for row in rows],
            flags=flags,
            all_checks_pass=all_ok,
        )
    else:
        widths = [
            max(len(str(h)), max((len(str(r[k])) for r in rows), default=0))
            for k, h in enumerate(header)
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for row in rows:
            lines.append(
                "  ".join(
                    str("" if v is None else v).ljust(w) for v, w in zip(row, widths)
                )
            )
        lines.extend(flags)
        args.write("\n".join(lines) + "\n")
    return 0 if all_ok else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefpath",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hilbert = sub.add_parser(
        "hilbert", help="Hilbert function of A(m, n), one coefficient per degree"
    )
    p_hilbert.add_argument("m", type=_at_least(1))
    p_hilbert.add_argument("n", type=_at_least(1))
    p_hilbert.add_argument(
        "--closed-form",
        action="store_true",
        help="use the n=2 closed form and cross-check it against the series",
    )
    p_hilbert.set_defaults(func=cmd_hilbert, error=p_hilbert.error)

    p_poly = sub.add_parser(
        "poly", help="print the degree-m relation and the dual generator"
    )
    p_poly.add_argument("m", type=_at_least(2))
    p_poly.add_argument("--format", choices=["text", "json"], default="text")
    p_poly.add_argument("--output", help="write to file instead of stdout")
    p_poly.set_defaults(func=cmd_poly)

    p_hessian = sub.add_parser(
        "hessian", help="degree-i pairing matrix of the dual generator"
    )
    p_hessian.add_argument("m", type=_at_least(2))
    p_hessian.add_argument("i", type=int, action=_DegreeArg)
    p_hessian.add_argument("--det", action="store_true", help="print the determinant")
    p_hessian.add_argument("--rank", action="store_true", help="print the rank")
    source = p_hessian.add_mutually_exclusive_group()
    source.add_argument(
        "--paths",
        action="store_true",
        help="print the integer path matrix ((3m-3-2i)! times the pairing matrix)",
    )
    source.add_argument(
        "--point",
        nargs=2,
        type=int,
        metavar=("C1", "C2"),
        help="evaluation point, default 1 0 (C2 != 0 is not a Lefschetz evaluation)",
    )
    p_hessian.set_defaults(func=cmd_hessian)

    p_lattice = sub.add_parser(
        "lattice", help="lattice-path checks for the degree-i matrix"
    )
    p_lattice.add_argument("m", type=_at_least(1))
    p_lattice.add_argument("i", type=int, action=_DegreeArg)
    p_lattice.add_argument(
        "action",
        choices=["count", "lgv-check", "dvd-count", "involution-check"],
    )
    p_lattice.set_defaults(func=cmd_lattice)

    p_report = sub.add_parser(
        "report", help="per-degree Lefschetz verdicts for A(m, 2)"
    )
    p_report.add_argument("m", type=_at_least(2))
    p_report.add_argument("--format", choices=["table", "json"], default="table")
    p_report.add_argument("--output", help="write to file instead of stdout")
    p_report.set_defaults(func=cmd_report)

    p_scan = sub.add_parser(
        "scan",
        help="range scans; CSV columns match the per-mode headers shown in --help",
        description=(
            "Scan modes and their CSV columns:\n"
            + "\n".join(
                f"  {mode}: {', '.join(header)}"
                for mode, (_, header, _, _) in _SCAN_MODES.items()
            )
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_scan.add_argument(
        "--m", required=True, type=_range_arg, help="range A..B (inclusive) or single value"
    )
    p_scan.add_argument(
        "--n", type=_range_arg, help="range A..B for hilbert/partitions scans (default 2)"
    )
    p_scan.add_argument(
        "--mode", required=True, choices=sorted(_SCAN_MODES.keys())
    )
    p_scan.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_scan.add_argument("--output", help="write to file instead of stdout")
    p_scan.add_argument(
        "--jobs",
        type=_at_least(1),
        default=os.environ.get("LEFPATH_JOBS", "1"),
        help="worker count (default from LEFPATH_JOBS, else 1)",
    )
    p_scan.set_defaults(func=cmd_scan, error=p_scan.error)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _open_output(getattr(args, "output", None)) as args.write:
            return args.func(args)
    except (BudgetExceeded, OutputError) as exc:
        print(f"lefpath {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"lefpath {args.command}: MISMATCH: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
