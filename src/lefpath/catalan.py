"""Catalan generating-function machinery.

Powers of the Catalan series C(x) carry the dual-generator numerators;
reciprocal powers carry the presentation coefficients with alternating
signs.  The coefficient identity [x^i](C^m * C^-m) = 0 is exactly the
statement that the degree-m relation annihilates the dual generator, so it
is exposed as hilbert's relation residues, all of one m read in one pass.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .hilbert import dual_numerator, flo, relation_residues


class TruncatedSeries:
    """Power series truncated at a fixed order, over the ints: any other
    coefficient (a float, a Fraction, a bool) is rejected."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        if len(coeffs) == 0:
            raise ValueError("series needs at least the constant coefficient")
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(f"series coefficients are ints, got {c!r}")
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Product truncated to the smaller order."""
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(out)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the same order (constant term +-1, the
        units of the ints)."""
        inv0 = self.coeffs[0]
        if inv0 not in (1, -1):
            raise ValueError(f"series with constant term {inv0} has no integer reciprocal")
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = sum(self.coeffs[k] * out[n - k] for k in range(1, n + 1))
            out.append(-inv0 * acc)
        return TruncatedSeries(out)

    def pow(self, exponent: int) -> "TruncatedSeries":
        """self^exponent by repeated squaring."""
        if exponent < 0:
            raise ValueError(f"need exponent >= 0, got {exponent}")
        result, square = TruncatedSeries([1] + [0] * self.order), self
        while exponent:
            if exponent & 1:
                result = result.mul(square)
            exponent >>= 1
            square = square.mul(square)
        return result


def catalan_number(n: int) -> int:
    """n-th Catalan number C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return comb(2 * n, n) // (n + 1)


def catalan_series(order: int) -> TruncatedSeries:
    return TruncatedSeries([catalan_number(n) for n in range(order + 1)])


def catalan_power(m: int, order: int) -> TruncatedSeries:
    """C(x)^m by the closed form [x^n] = (m/(m+2n)) * C(m+2n, n)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")
    return TruncatedSeries([dual_numerator(m, n) for n in range(order + 1)])


def catalan_power_reciprocal(m: int, order: int) -> TruncatedSeries:
    """1 / C(x)^m by series inversion.

    Coefficients 0..flo(m) equal (-1)^n c_coeff(m, n); the tail beyond
    flo(m) is exposed as computed, with no closed form attached.
    """
    return catalan_power(m, order).reciprocal()


def check_identity_zero(m: int) -> bool:
    """True iff sum_{k=0}^{i} (-1)^k c_coeff(m, k) * dual_numerator(m, i-k) == 0
    for every 1 <= i <= flo(m): the relation residues at x^i of
    C(x)^m * C(x)^-m, all read in one pass (vacuous at m = 1).  Every report
    already checks these residues, and all of j < m, in
    lefschetz._check_moments; this is the catalan scan's column."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    residues = relation_residues(m, [dual_numerator(m, n) for n in range(flo(m) + 1)])
    return not any(residues[1:])
