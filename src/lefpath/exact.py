"""One exact coercion and exact symmetric matrices.

Every matrix the workbench builds is a symmetric pairing form, so an
ExactMatrix is a square symmetric tuple of tuples of ints and Fractions, each
kept as as_exact gives it; other input raises.  Its det, rank and signature
come from one memoised fraction-free (Bareiss) elimination by congruences of
an integer copy, cleared by the lcm of the denominators: an oracle beside the
verdicts' number wall (lefschetz), for ``hessian``, path matrices and tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


def as_exact(value) -> int | Fraction:
    """An int stays an int (a bool its int), a Fraction a Fraction; else TypeError."""
    if type(value) is int or isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"exact arithmetic only: got {type(value).__name__}")


class ExactMatrix:
    """Square symmetric matrix of exact rationals with exact det / rank / signature."""

    __slots__ = ("rows", "_elimination")

    def __init__(self, rows: Iterable[Iterable]):
        table = tuple(tuple(as_exact(e) for e in row) for row in rows)
        if not table or any(len(row) != len(table) for row in table):
            raise ValueError("matrix must be square with at least one row")
        if tuple(zip(*table)) != table:
            raise ValueError("matrix must be symmetric")
        self.rows = table
        self._elimination = None

    @property
    def nrows(self) -> int:
        return len(self.rows)

    ncols = nrows  # square

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self) -> str:
        """[a b; c d]: rows joined by "; ", each entry as "p/q" or "p"."""
        return "[" + "; ".join(" ".join(map(str, row)) for row in self.rows) + "]"

    def __repr__(self) -> str:
        return f"ExactMatrix{self}"

    def scaled(self, factor) -> "ExactMatrix":
        c = as_exact(factor)
        return ExactMatrix(tuple(tuple(c * e for e in row) for row in self.rows))

    def _pivots(self) -> tuple[tuple[int, ...], int]:
        """One fraction-free (Bareiss) elimination, memoised: (pivots, L).

        The entries are cleared by the matrix-wide lcm L of their
        denominators.  The elimination applies congruences A -> E^T A E with
        det E = +-1 only: a symmetric swap of row and column k with those of
        the first later nonzero diagonal entry, or, when the remaining
        diagonal is zero, row_r += row_c with col_r += col_c, whose new
        diagonal entry is 2 * a_rc != 0.  So pivot k is the (k+1)-th leading
        principal minor of a matrix congruent to L * self with its determinant.
        """
        if self._elimination is not None:
            return self._elimination
        L = math.lcm(*(e.denominator for row in self.rows for e in row))
        m = [[e.numerator * (L // e.denominator) for e in row] for row in self.rows]
        n = len(m)
        pivots: list[int] = []
        prev = 1
        for k in range(n):
            r = next((i for i in range(k, n) if m[i][i]), None)
            if r is None:
                cell = next(
                    ((i, j) for j in range(k, n) for i in range(k, n) if m[i][j]),
                    None,
                )
                if cell is None:
                    break
                r, c = cell
                for j in range(k, n):
                    m[r][j] += m[c][j]
                for row in m[k:]:
                    row[r] += row[c]
            if r != k:
                m[k], m[r] = m[r], m[k]
                for row in m[k:]:
                    row[k], row[r] = row[r], row[k]
            pivot = m[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    q, rem = divmod(m[i][j] * pivot - m[i][k] * m[k][j], prev)
                    if rem:
                        raise ArithmeticError("Bareiss exact division failed")
                    m[i][j] = q
            pivots.append(pivot)
            prev = pivot
        self._elimination = (tuple(pivots), L)
        return self._elimination

    def det(self) -> Fraction:
        """Exact determinant: last pivot / L^n at full rank, else 0."""
        pivots, L = self._pivots()
        if len(pivots) < self.nrows:
            return Fraction(0)
        return Fraction(pivots[-1], L**self.nrows)

    def rank(self) -> int:
        """Exact rank over the rationals: the number of pivots."""
        return len(self._pivots()[0])

    def signature(self) -> int:
        """(#positive - #negative eigenvalues).

        The pivots are the nonzero leading principal minors d_1, ..., d_r of
        a matrix congruent to L * self whose remaining Schur complement is
        zero, so the Sylvester-Jacobi count sum_k sign(d_{k-1} * d_k), with
        d_0 = 1, is the signature; no eigenvalues are ever computed.
        """
        minors = (1,) + self._pivots()[0]
        return sum(1 if a * b > 0 else -1 for a, b in zip(minors, minors[1:]))

