"""Catalan powers, reciprocals, and the vanishing coefficient identity."""

from fractions import Fraction

import pytest

from lefpath.catalan import (
    TruncatedSeries,
    catalan_number,
    catalan_power,
    catalan_power_reciprocal,
    catalan_series,
    check_identity_zero,
)
from lefpath.hilbert import c_coeff, dual_numerator, flo, relation_residues


def catalan_by_recurrence(top: int) -> list[int]:
    """Independent oracle: C_{n+1} = sum_k C_k C_{n-k}."""
    values = [1]
    for n in range(top):
        values.append(sum(values[k] * values[n - k] for k in range(n + 1)))
    return values


def test_catalan_numbers():
    assert catalan_number(0) == 1
    assert catalan_number(4) == 14
    assert catalan_number(10) == 16796
    assert [catalan_number(n) for n in range(12)] == catalan_by_recurrence(11)


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan_number(-1)


def test_power_examples():
    assert catalan_power(1, 4).coeffs == (1, 1, 2, 5, 14)
    assert catalan_power(5, 4).coeffs == (1, 5, 20, 75, 275)
    assert catalan_power(3, 2).coeffs == (1, 3, 9)


@pytest.mark.parametrize("m", range(1, 11))
def test_power_closed_form_equals_repeated_product(m):
    assert catalan_power(m, 20) == catalan_series(20).pow(m)


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        catalan_series(5).pow(-1)
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1]).pow(-3)


@pytest.mark.parametrize(
    "series",
    [catalan_series(12), TruncatedSeries([2, -1, 0, 3]), TruncatedSeries([-1, 1, 0])],
)
def test_pow_equals_repeated_mul(series):
    product = TruncatedSeries([1] + [0] * series.order)
    for e in range(13):
        assert series.pow(e).coeffs == product.coeffs
        product = product.mul(series)


def test_integer_series_stay_integer():
    assert all(type(c) is int for c in catalan_series(20).pow(40).coeffs)
    assert all(type(c) is int for c in catalan_power(7, 20).mul(catalan_series(20)).coeffs)
    with pytest.raises(TypeError):
        TruncatedSeries([1, 0.5])
    with pytest.raises(TypeError):
        TruncatedSeries([Fraction(1, 2), 3])


@pytest.mark.parametrize("m", range(1, 41))
def test_reciprocal_holds_no_float(m):
    # the constant term is 1, so every coefficient stays an int
    assert all(type(c) is int for c in catalan_power_reciprocal(m, 20).coeffs)


def test_reciprocal_needs_a_unit_constant():
    # 1/(2 + x) has no integer coefficients; -1 is the other unit
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1]).reciprocal()
    assert TruncatedSeries([-1, 1]).reciprocal().coeffs == (-1, -1)


def test_reciprocal_heads():
    assert catalan_power_reciprocal(5, 2).coeffs == (1, -5, 5)
    assert catalan_power_reciprocal(2, 1).coeffs == (1, -2)
    assert catalan_power_reciprocal(7, 0).coeffs == (1,)


@pytest.mark.parametrize("m", range(1, 11))
def test_reciprocal_head_matches_alternating_relation_coeffs(m):
    recip = catalan_power_reciprocal(m, 20)
    for n in range(flo(m) + 1):
        assert recip[n] == (-1) ** n * c_coeff(m, n)


@pytest.mark.parametrize("m", range(1, 11))
def test_power_times_reciprocal_is_one(m):
    product = catalan_power(m, 20).mul(catalan_power_reciprocal(m, 20))
    assert product.coeffs == (1,) + (0,) * 20


def _residue(m, i):
    """The relation residue at x^i alone, from the numerators a_0..a_i."""
    return relation_residues(m, [dual_numerator(m, n) for n in range(i + 1)])[i]


def test_identity_zero_small_cases():
    assert _residue(5, 1) == 0  # 5 - 5*1 = 0
    assert _residue(5, 2) == 0  # 20 - 25 + 5 = 0
    assert _residue(2, 1) == 0  # 2 - 2 = 0
    assert check_identity_zero(5) and check_identity_zero(2)
    assert check_identity_zero(1)  # flo(1) = 0: no residue to read


@pytest.mark.parametrize("m", range(2, 61))
def test_identity_zero_full_range(m):
    # the one pass agrees with the residues read one degree at a time
    assert all(_residue(m, i) == 0 for i in range(1, flo(m) + 1))
    assert check_identity_zero(m)


def test_identity_reads_the_relation_residue(monkeypatch):
    # one presentation coefficient off by one breaks the identity there
    from lefpath import hilbert

    real = hilbert.c_coeff
    monkeypatch.setattr(hilbert, "c_coeff", lambda m, k: real(m, k) + ((m, k) == (5, 2)))
    assert _residue(5, 1) == 0 and _residue(5, 2) != 0
    assert not check_identity_zero(5)
    # the top coefficient off by one, at every m
    monkeypatch.setattr(hilbert, "c_coeff", lambda m, k: real(m, k) + (k == flo(m)))
    for m in range(2, 61):
        assert _residue(m, flo(m)) != 0 and not check_identity_zero(m), m


def test_identity_range_errors():
    with pytest.raises(ValueError):
        check_identity_zero(0)
    with pytest.raises(ValueError):
        check_identity_zero(-3)


def test_series_arithmetic_basics():
    s = TruncatedSeries([1, 2, 3])
    assert s.mul(TruncatedSeries([1, 1, 0])).coeffs == (1, 3, 5)
    assert s.reciprocal().mul(s).coeffs == (1, 0, 0)
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1]).reciprocal()
    with pytest.raises(ValueError):
        TruncatedSeries([])
