"""Hilbert series of A(m, n), their unimodality, and A(m, 2)'s integer sequences.

The series is the polynomial product prod_{i=1..n} (1 + t^i + ... + t^{(m-1)i}),
built one factor at a time as the telescoped quotient (1 - t^{mi}) / (1 - t^i).
For n = 2 there is also a closed form built from halved floors; both routes
are kept separate so they can cross-check each other.  The integers of f_m
and F_m (c_coeff, dual_numerator, relation_residues) serve every module.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional, Sequence


def flo(x: int) -> int:
    """floor(x / 2)."""
    return x // 2


def flo_star(x: int) -> int:
    """max(0, floor(x / 2))."""
    return max(0, x // 2)


def socle_degree(m: int, n: int) -> int:
    """Top nonzero degree of A(m, n): n(n+1)(m-1)/2."""
    return n * (n + 1) * (m - 1) // 2


class HilbertFunction(NamedTuple):
    """Coefficient sequence of the Hilbert series of A(m, n)."""

    m: int
    n: int
    coeffs: tuple[int, ...]

    @property
    def socle_degree(self) -> int:
        return len(self.coeffs) - 1


def hilbert_series(m: int, n: int) -> HilbertFunction:
    """Hilbert function of A(m, n), exact: each factor 1 + t^i + ... + t^{(m-1)i}
    multiplies in telescoped, as (1 - t^{mi}) / (1 - t^i), so that
    new[d] = old[d] - old[d - mi] + new[d - i]: O(len) per factor."""
    if m < 1 or n < 1:
        raise ValueError(f"hilbert_series needs m, n >= 1, got ({m}, {n})")
    coeffs = [1]
    for i in range(1, n + 1):
        coeffs += [0] * ((m - 1) * i)
        for d in range(len(coeffs) - 1, m * i - 1, -1):  # times 1 - t^{mi}
            coeffs[d] -= coeffs[d - m * i]
        for d in range(i, len(coeffs)):  # over 1 - t^i
            coeffs[d] += coeffs[d - i]
    return HilbertFunction(m, n, tuple(coeffs))


def check_degree(m: int, i: int) -> None:
    """Reject a degree outside [0, flo(3(m-1))], the lower half of A(m, 2)."""
    top = flo(3 * (m - 1))
    if not 0 <= i <= top:
        raise ValueError(f"degree {i} outside [0, {top}] for m={m}")


def basis_range(m: int, i: int) -> range:
    """The p of the degree-i basis e1^(i-2p) e2^p of A(m, 2): flo*(i+2-m)..flo(i)."""
    return range(flo_star(i + 2 - m), flo(i) + 1)


def hilbert_m2_closed(m: int, i: int) -> int:
    """Closed form for dim A(m, 2)_i: flo(i+2) - flo*(i+2-m) - flo*(i+2-2m).

    The third term is subtracted: adding it instead fails against the
    series already at m = 5, i = 10 (6 - 3 + 1 = 4 vs the true
    coefficient 2).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if not 0 <= i <= 3 * (m - 1):
        raise ValueError(f"degree {i} outside [0, {3 * (m - 1)}] for m={m}")
    return flo(i + 2) - flo_star(i + 2 - m) - flo_star(i + 2 - 2 * m)


def first_violation_index(seq: Sequence[int]) -> Optional[int]:
    """Index of the first dip that rises again later; None if unimodal.

    A "dip" at j means seq[j] < seq[j-1] with some seq[k] > seq[j] for k > j.
    One pass from the right, against the largest term seen so far.
    """
    found, top = None, seq[-1] if seq else None  # top: the largest of seq[j + 1:]
    for j in range(len(seq) - 2, 0, -1):
        x = seq[j]
        if x < top and x < seq[j - 1]:
            found = j
        if x > top:
            top = x
    return found


class UnimodalityRecord(NamedTuple):
    m: int
    n: int
    socle_degree: int
    unimodal: bool
    first_violation_index: Optional[int]


def unimodality_record(h: HilbertFunction) -> UnimodalityRecord:
    violation = first_violation_index(h.coeffs)
    return UnimodalityRecord(h.m, h.n, h.socle_degree, violation is None, violation)


def _exact_quotient(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{what} is not an integer: {numerator}/{denominator}")
    return quotient


def c_coeff(m: int, k: int) -> int:
    """Presentation coefficient (m/(m-k)) * C(m-k, k); 0 outside 0 <= k <= flo(m)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if k < 0 or k > flo(m):
        return 0
    return _exact_quotient(m * comb(m - k, k), m - k, f"c_coeff({m}, {k})")


def relation_residues(m: int, a: Sequence[int]) -> list[int]:
    """[x^j] (sum_k (-1)^k c_coeff(m, k) x^k)(sum_n a_n x^n) for j < len(a).
    For a_n the numerators of F_m these are 1, then 0 for 1 <= j <= m-1:
    f_m o F_m = 0 at E1^(2j-1) E2^(m-1-j), times (2j-1)! (m-1-j)!."""
    c = [(-1) ** k * c_coeff(m, k) for k in range(min(flo(m), len(a) - 1) + 1)]
    return [sum(ck * a[j - k] for k, ck in enumerate(c[: j + 1])) for j in range(len(a))]


def dual_numerator(m: int, n: int) -> int:
    """(m/(m+2n)) * C(m+2n, n), the integer numerator of a dual-generator term."""
    top = m + 2 * n
    return _exact_quotient(m * comb(top, n), top, f"dual_numerator({m}, {n})")
