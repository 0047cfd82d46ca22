"""Restricted partitions whose generating function is the Hilbert series.

Members of the family P(m, n) have parts of size at most n, each size
repeated at most m-1 times.  Encoding a partition by its multiplicity
vector (j_1, ..., j_n), 0 <= j_k <= m-1, makes the m^n count and the
generating-function identity structural: partition_gf counts the family
by size from the multiplicity vectors, walked in two halves, and the
partitions scan compares it with hilbert_series.  The degree formula for
the socle pairing cross-checks the single entry of the degree-0 path
matrix, the path count from (0, 0) to (2m-2, m-1) (lattice's row DP).
"""

from __future__ import annotations

import math

from . import BudgetExceeded
from .lattice import target_path_counts


PARTITION_BUDGET = 2**20  # leaf visits per half of partition_gf's walk


def _walk(m: int, first: int, last: int) -> list[int]:
    """Size counts of the vectors (j_first, ..., j_last), 0 <= j_k < m, leaf by leaf."""
    counts = [0] * ((first + last) * (last - first + 1) // 2 * (m - 1) + 1)

    def visit(size: int, total: int) -> None:
        if size == first:
            for d in range(total, total + first * m, first):
                counts[d] += 1
            return
        for j in range(m):
            visit(size - 1, total + size * j)

    visit(last, 0)
    return counts


def partition_gf(m: int, n: int) -> tuple[int, ...]:
    """Size-k counts of the restricted partition family.

    Walks the multiplicity vectors of the part sizes 1..n//2 and, apart,
    of n//2+1..n, leaf by leaf (m^(n//2) + m^(n-n//2) visits, at most
    PARTITION_BUDGET per half, checked before any walk), and joins the two
    size tables: a vector (j_1, ..., j_n) is the pair of its halves, its
    size the sum of theirs.  No factor 1 + t^k + ... + t^(k(m-1)) of the
    Hilbert series is formed, so the two stay independent cross-checks.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    if m ** (n - n // 2) > PARTITION_BUDGET:
        raise BudgetExceeded(f"budget exceeded: over {PARTITION_BUDGET} leaf visits at ({m}, {n})")
    low = _walk(m, 1, n // 2) if n > 1 else [1]  # n = 1 has no low half
    high = _walk(m, n // 2 + 1, n)
    counts = [0] * (len(high) + len(low) - 1)
    for t, c in enumerate(high):
        for d, e in enumerate(low):
            counts[t + d] += c * e
    return tuple(counts)


def _degree_formula_terms(m: int, n: int) -> tuple[int, int]:
    """The degree formula's integer numerator and denominator, unreduced: the
    scalar relating the top power of the weight-1 generator to the socle,

    m^C(n,2) * (C(n+1,2)(m-1))! * 1! 2! ... (n-1)! / ((m-1)! (2m-1)! ... (nm-1)!).
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    numerator = m ** math.comb(n, 2) * math.factorial(math.comb(n + 1, 2) * (m - 1))
    numerator *= math.prod(map(math.factorial, range(1, n)))
    return numerator, math.prod(math.factorial(k * m - 1) for k in range(1, n + 1))


def degree_formula_matches_hessian(m: int) -> bool:
    """True iff the n = 2 degree formula equals the degree-0 path count,
    target_path_counts(m)[0], the row DP's count to (2m-2, m-1)."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    numerator, denominator = _degree_formula_terms(m, 2)
    return numerator == denominator * target_path_counts(m)[0]
