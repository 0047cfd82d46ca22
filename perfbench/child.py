"""One benchmark invocation, run in its own process.

    python3 perfbench/child.py [--trace-out FILE] cli ARGS...
    python3 perfbench/child.py [--trace-out FILE] lib NAME M

``cli`` runs ``lefpath.cli.main(ARGS)``; the untraced benchmark passes run
``python3 -m lefpath.cli ARGS`` instead, and this form exists so that a
traced pass can wrap the modules first.  ``lib`` runs a library check that
has no CLI command and prints its results as JSON.  With ``--trace-out``
the lefpath modules are wrapped by ``spans.install`` before anything runs,
and the spans are written to FILE when the process exits.
"""

from __future__ import annotations

import json
import sys

import spans


def lib_sigx(m: int) -> dict:
    """signature_crosscheck(m, i) for every degree i of A(m, 2)."""
    from lefpath import hilbert, lefschetz

    degrees = []
    for i in range(hilbert.flo(hilbert.socle_degree(m, 2)) + 1):
        r = lefschetz.signature_crosscheck(m, i)
        degrees.append(
            {
                "i": r.i,
                "applicable": r.applicable,
                "signature": r.signature,
                "expected_complex_sum": r.expected_complex_sum,
                "agrees": r.agrees,
            }
        )
    return {"m": m, "degrees": degrees}


def lib_hessian_dets(m: int) -> dict:
    """det of the contraction Hessian hessian(m, i) for every degree i."""
    from lefpath import algebra, hilbert

    dets = [
        {"i": i, "det": str(algebra.hessian(m, i).det())}
        for i in range(hilbert.flo(3 * (m - 1)) + 1)
    ]
    return {"m": m, "degrees": dets}


LIB = {"sigx": lib_sigx, "hessian-dets": lib_hessian_dets}


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]
    tracer = spans.Tracer() if trace_out else None
    try:
        if tracer is not None:
            spans.install(tracer)
        if kind == "cli":
            from lefpath import cli

            return cli.main(rest)
        if kind == "lib":
            name, m = rest
            print(json.dumps(LIB[name](int(m)), indent=1))
            return 0
        raise SystemExit(f"unknown invocation kind {kind!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
