"""Restricted partitions whose generating function is the Hilbert series.

Members of the family P(m, n) have parts of size at most n, each size
repeated at most m-1 times.  Encoding a partition by its multiplicity
vector (j_1, ..., j_n), 0 <= j_k <= m-1, makes the m^n count and the
generating-function identity structural: partition_gf counts the family
by size one multiplicity vector at a time, and the partitions scan compares
it with hilbert_series.  The degree formula for the socle pairing
cross-checks the single entry of the degree-0 path matrix, the path count
from (0, 0) to (2m-2, m-1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lattice import count_paths


def partition_gf(m: int, n: int) -> tuple[int, ...]:
    """Size-k counts of the restricted partition family.

    Counts by walking every multiplicity vector individually (m^n leaf
    visits), deliberately avoiding the polynomial product that produces the
    Hilbert series, so the two stay independent cross-checks.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    counts = [0] * (n * (n + 1) * (m - 1) // 2 + 1)

    def visit(size: int, total: int) -> None:
        if size == 1:
            for j in range(m):
                counts[total + j] += 1
            return
        for j in range(m):
            visit(size - 1, total + size * j)

    visit(n, 0)
    return tuple(counts)


def degree_formula(m: int, n: int) -> Fraction:
    """Scalar relating the top power of the weight-1 generator to the socle:

    m^C(n,2) * (C(n+1,2)(m-1))! * 1! 2! ... (n-1)! / ((m-1)! (2m-1)! ... (nm-1)!).
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    numerator = Fraction(m) ** math.comb(n, 2) * math.factorial(
        math.comb(n + 1, 2) * (m - 1)
    )
    for k in range(1, n):
        numerator *= math.factorial(k)
    denominator = 1
    for k in range(1, n + 1):
        denominator *= math.factorial(k * m - 1)
    return numerator / denominator


def degree_formula_matches_hessian(m: int) -> bool:
    """True iff the n = 2 degree formula equals the degree-0 path count."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    return degree_formula(m, 2) == count_paths((0, 0), (2 * m - 2, m - 1))

