"""The benchmark's workloads, their seeded inputs and their reference outputs.

Each workload is a fixed list of invocations run one after another (closed
loop, one client).  ``--seed`` picks one of a workload's seeded choices and
nothing else; the program only ever sees the resulting command lines.  The
seeded choices are the members of the ranges named for each workload whose
measured cost is within a few percent of each other, so that the run-to-run
spread across seeds stays below the benchmark's bounds.

A step's output is checked against ``references/<workload>.json``.  The
references hold the columns that exist at the commit that generated them;
a later change may add columns and still pass, while a changed value, a
missing column, a nonzero exit or a timeout counts as a failed check.
"""

from __future__ import annotations

import json
import random
from typing import Callable
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "references"


@dataclass(frozen=True)
class Step:
    """One invocation: ``cli`` runs the lefpath CLI, ``lib`` a library check."""

    kind: str
    args: tuple[str, ...]
    jobs: int = 1

    @property
    def key(self) -> str:
        return " ".join((self.kind,) + self.args)


def cli(*args: str, jobs: int = 1) -> Step:
    return Step("cli", tuple(args), jobs)


def lib(name: str, m: int) -> Step:
    return Step("lib", (name, str(m)))


def _verdicts(m: int):
    # The algebraic route at scale: exact rank/det of every pairing matrix,
    # the closed-form cross-check, and a --jobs 2 scan whose tasks arrive in
    # ascending m, so the heaviest task comes last.
    return {"M": m}, [
        cli("report", str(m), "--format", "json"),
        cli("scan", "--mode", "lefschetz", "--m", "2..36", "--jobs", "2",
            "--format", "json", jobs=2),
    ]


def _paths(pair):
    # The combinatorial route: path and system enumeration, disjointness
    # tests, flips and the involution.  Every matrix is at most 3x3.
    first, second = pair
    return {"I": [first, second]}, [
        cli("scan", "--mode", "lattice", "--m", "2..6", "--format", "json"),
        cli("lattice", "6", str(first), "involution-check"),
        cli("lattice", "6", str(second), "involution-check"),
    ]


def _oracles(m: int):
    # The independent oracles: congruence signatures of small matrices with
    # quadratic re-runs of lower degrees, contraction Hessians, the
    # restricted-partition model (peak memory) and the Catalan and Hilbert
    # identities.
    return {"M": m}, [
        lib("sigx", m),
        lib("hessian-dets", 24),
        cli("scan", "--mode", "partitions", "--m", "2..6", "--n", "2..7", "--format", "json"),
        cli("scan", "--mode", "catalan", "--m", "2..40", "--format", "json"),
        cli("scan", "--mode", "hilbert", "--m", "2..40", "--n", "2..6", "--format", "json"),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    choices: tuple
    build: Callable

    def pick(self, seed: int):
        """(recorded inputs, steps) for a seed."""
        choice = self.choices[random.Random(seed).randrange(len(self.choices))]
        return self.build(choice)

    def all_steps(self) -> list[Step]:
        """Every step any seed can produce, in first-seen order."""
        seen: dict[str, Step] = {}
        for choice in self.choices:
            for step in self.build(choice)[1]:
                seen.setdefault(step.key, step)
        return list(seen.values())


WORKLOADS = {
    w.name: w
    for w in (
        # report M costs about 7% more per step in M over 52..60.
        Workload("verdicts", (55, 56), _verdicts),
        # two I in 2..5 whose involution checks together cost the same.
        Workload("paths", ((2, 4), (3, 5)), _paths),
        # signature_crosscheck sweeps at M in 24..28 cost 1.3 s to 4.3 s;
        # those at 26 and 27 agree within the machine's noise.
        Workload("oracles", (26, 27), _oracles),
    )
}


# -- checking outputs ------------------------------------------------------------

# Echo of the command line and the format version: not results.
_NOT_RESULTS = ("schema_version", "command", "inputs")


def parse_output(text: str):
    """Comparable form of a step's stdout: the JSON payload without its echo
    of the inputs, or the ``key=value`` tokens of a text report."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        tokens = {}
        for word in text.split():
            key, sep, value = word.partition("=")
            if sep:
                tokens[key] = value
        return tokens
    if isinstance(payload, dict):
        for key in _NOT_RESULTS:
            payload.pop(key, None)
    return payload


def matches(expected, actual) -> bool:
    """True iff ``actual`` holds everything in ``expected``: dict keys may be
    added, list lengths and every scalar (with its type) must agree."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            key in actual and matches(value, actual[key])
            for key, value in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(map(matches, expected, actual))
        )
    return type(expected) is type(actual) and expected == actual


def load_references(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def check(reference, exit_code: int, stdout: str) -> bool:
    """One check: exit code 0 and the output holds the stored reference."""
    return reference is not None and exit_code == 0 and matches(reference, parse_output(stdout))
