"""Shared fixtures and the cofactor determinant oracle."""

from fractions import Fraction
from typing import Sequence

import pytest

from lefpath import lefschetz
from lefpath.exact import as_exact


@pytest.fixture(autouse=True)
def fresh_property_reports():
    """property_report is memoised on m; a test that patches what a report is
    built from must not read one built before the patch, or leave one behind."""
    lefschetz._property_report.cache_clear()
    yield
    lefschetz._property_report.cache_clear()


def det_cofactor(rows: Sequence[Sequence]) -> Fraction:
    """Independent determinant oracle: recursive cofactor expansion.

    Exponential; only for cross-checking small matrices in tests.
    """
    table = [[as_exact(e) for e in row] for row in rows]
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError("cofactor oracle requires a square matrix")
    if n == 1:
        return table[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in table[1:]]
        term = table[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total
