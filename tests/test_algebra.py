"""Relation/dual-generator construction, contraction, and Hessians."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefpath import algebra
from lefpath.algebra import (
    DUAL_SIDE,
    OPERATOR_SIDE,
    GradedPoly,
    contract,
    dual_generator,
    f_m,
    hessian,
)
from lefpath.exact import ExactMatrix
from lefpath.hilbert import (
    basis_range,
    c_coeff,
    check_degree,
    dual_numerator,
    flo,
    hilbert_m2_closed,
    relation_residues,
)
from lefpath.lefschetz import property_report

from conftest import (
    annihilator_check,
    hankel_window,
    hessian_per_entry,
    is_homogeneous,
    verify_f_recursion,
    verify_power_sum,
    weighted_degree,
)


def test_c_coeff_values():
    assert c_coeff(5, 1) == 5
    assert c_coeff(5, 2) == 5
    assert c_coeff(5, 3) == 0
    assert c_coeff(5, -1) == 0
    assert c_coeff(1, 0) == 1
    assert c_coeff(2, 1) == 2


def test_f_m_examples():
    assert f_m(5) == GradedPoly(OPERATOR_SIDE, {(5, 0): 1, (3, 1): -5, (1, 2): 5})
    assert f_m(1) == GradedPoly(OPERATOR_SIDE, {(1, 0): 1})
    assert f_m(2) == GradedPoly(OPERATOR_SIDE, {(2, 0): 1, (0, 1): -2})
    assert f_m(5).to_text() == "e1^5 - 5*e1^3*e2 + 5*e1*e2^2"


def test_dual_generator_numerators():
    assert [dual_numerator(5, n) for n in range(5)] == [1, 5, 20, 75, 275]
    # (3/5)*C(5,1) = 3 and (3/7)*C(7,2) = 9
    assert [dual_numerator(3, n) for n in range(3)] == [1, 3, 9]


def test_dual_generator_m2():
    # term n=0: E1*E2/(1! 1!); term n=1: 2*E1^3/(3! 0!) = E1^3/3
    assert dual_generator(2) == GradedPoly(
        DUAL_SIDE, {(1, 1): 1, (3, 0): Fraction(1, 3)}
    )


def test_dual_generator_is_homogeneous():
    for m in range(2, 10):
        F = dual_generator(m)
        assert is_homogeneous(F)
        assert weighted_degree(F) == 3 * (m - 1)
        assert len(F.terms) == m


def test_dual_generator_rejects_small_m():
    with pytest.raises(ValueError):
        dual_generator(1)


def test_contract_hand_example():
    # e1^2 o (E1^3/3) = 2 E1 and 2 e2 o (E1 E2) = 2 E1 cancel
    assert contract(f_m(2), dual_generator(2)).is_zero()


def test_contract_e2_power_kills_dual():
    for m in range(2, 8):
        op = GradedPoly.monomial(OPERATOR_SIDE, 0, m)
        assert contract(op, dual_generator(m)).is_zero()


def test_contract_identity_operator():
    F = dual_generator(4)
    one = GradedPoly.monomial(OPERATOR_SIDE, 0, 0)
    assert contract(one, F) == F


def test_contract_monomial_factorials():
    # e1 e2 o E1^2 E2^2 = 2 * 2 * E1 E2
    op = GradedPoly.monomial(OPERATOR_SIDE, 1, 1)
    F = GradedPoly.monomial(DUAL_SIDE, 2, 2)
    assert contract(op, F) == GradedPoly(DUAL_SIDE, {(1, 1): 4})


def test_contract_side_checking():
    with pytest.raises(ValueError):
        contract(dual_generator(2), dual_generator(2))


@pytest.mark.parametrize("m", range(2, 13))
def test_annihilator(m):
    assert annihilator_check(m)


@given(st.integers(2, 9).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(-50, 50), min_size=m, max_size=m))
))
@settings(max_examples=40, deadline=None)
def test_relation_residues_are_the_contraction(case):
    # for any numerators a_n in F = sum_n a_n E1^(m+2n-1) E2^(m-n-1) / (..)!,
    # the residue at j is (2j-1)! (m-1-j)! times f_m o F at E1^(2j-1) E2^(m-1-j)
    m, a = case
    F = GradedPoly(DUAL_SIDE, {
        (m + 2 * n - 1, m - n - 1): Fraction(a[n], math.factorial(m + 2 * n - 1) * math.factorial(m - n - 1))
        for n in range(m)
    })
    image = contract(f_m(m), F).terms
    residues = relation_residues(m, a)
    for j in range(1, m):
        scale = math.factorial(2 * j - 1) * math.factorial(m - 1 - j)
        assert image.get((2 * j - 1, m - 1 - j), 0) * scale == residues[j]
    assert residues[0] == a[0]


def test_relation_residues_fix_the_moments():
    # the numerators of F_m give 1, 0, ..., 0 through j = m-1, past flo(m)
    for m in range(1, 61):
        a = [dual_numerator(m, n) for n in range(m)]
        assert relation_residues(m, a) == [1] + [0] * (m - 1), m
    assert relation_residues(5, [1, 5, 20, 75, 275]) == [1, 0, 0, 0, 0]
    assert relation_residues(5, [1, 5, 20, 75, 276]) == [1, 0, 0, 0, 1]


@pytest.mark.parametrize("m", range(3, 21))
def test_f_recursion(m):
    assert verify_f_recursion(m)


def test_recursion_detects_tampering():
    # mutating one coefficient must break the polynomial identity
    m = 6
    good = f_m(m + 2)
    bad = good + GradedPoly.monomial(OPERATOR_SIDE, m, 1)
    multiplier = GradedPoly(OPERATOR_SIDE, {(2, 0): 1, (0, 1): -2})
    e2_sq = GradedPoly.monomial(OPERATOR_SIDE, 0, 2)
    rhs = multiplier * f_m(m) - e2_sq * f_m(m - 2)
    assert good == rhs and bad != rhs


@pytest.mark.parametrize("m", range(1, 21))
def test_power_sum(m):
    assert verify_power_sum(m)


def _monomial_basis(m, i):
    """Exponents (i - 2p, p) of the degree-i basis e1^(i-2p) e2^p."""
    return tuple((i - 2 * p, p) for p in basis_range(m, i))


def test_monomial_basis_examples():
    assert _monomial_basis(5, 3) == ((3, 0), (1, 1))
    assert _monomial_basis(5, 0) == ((0, 0),)
    assert _monomial_basis(5, 6) == ((4, 1), (2, 2), (0, 3))


def test_monomial_basis_counts_match_hilbert():
    for m in range(2, 13):
        for i in range(flo(3 * (m - 1)) + 1):
            assert len(basis_range(m, i)) == hilbert_m2_closed(m, i)


def test_monomial_basis_range_error():
    with pytest.raises(ValueError):
        check_degree(5, 10)


def test_hessian_worked_example():
    expected = ExactMatrix([[275, 75], [75, 20]]).scaled(
        Fraction(1, math.factorial(6))
    )
    assert hessian(5, 3) == expected
    assert hankel_window(5, 3) == ExactMatrix([[275, 75], [75, 20]])


def test_hessian_degree_zero():
    assert hessian(2, 0) == ExactMatrix([[Fraction(1, 3)]])


def test_hessian_singular_degree():
    assert hessian(5, 4).det() == 0


def test_hessian_closed_form_with_vanishing_binomials():
    # (3m-3-2i)! = 0! = 1 at (5, 6); lower-index overflow zeroes the corner
    assert hankel_window(5, 6) == ExactMatrix([[20, 5, 1], [5, 1, 0], [1, 0, 0]])
    assert hessian(5, 6) == hankel_window(5, 6)


def test_hessian_closed_form_m4():
    # (4/10)C(10,3) = 48, (4/8)C(8,2) = 14, (4/6)C(6,1) = 4
    assert hankel_window(4, 2) == ExactMatrix([[48, 14], [14, 4]])


@pytest.mark.parametrize("m", range(2, 13))
def test_hessian_equals_closed_form(m):
    # the closed form: (3m-3-2i)! times the pairing matrix is the Hankel window
    for i in range(flo(3 * (m - 1)) + 1):
        scale = math.factorial(3 * m - 3 - 2 * i)
        assert hessian(m, i).scaled(scale) == hankel_window(m, i)


def test_hessian_range_error():
    with pytest.raises(ValueError):
        hessian(5, 7)
    with pytest.raises(ValueError):
        hankel_window(5, -1)


@pytest.mark.parametrize("c", [2, -1])
def test_hessian_scaling_covariance(c):
    # any other Lefschetz element c*e1 scales the degree-i matrix by
    # c^(3m-3-2i), so its rank and whether its det vanishes are e1's
    for m in (3, 4, 5):
        for i in range(flo(3 * (m - 1)) + 1):
            at_c, base = hessian_per_entry(m, i, (c, 0)), hessian(m, i)
            assert at_c == base.scaled(Fraction(c) ** (3 * m - 3 - 2 * i))
            assert at_c.rank() == base.rank()


@pytest.mark.parametrize("point", [(1, 0), (3, 0), (Fraction(1, 2), 0), (Fraction(-3, 7), 0)])
@pytest.mark.parametrize("m", range(2, 8))
def test_hessian_matches_per_entry_contraction(m, point):
    # the oracle contracts the unscaled Fraction generator once per entry and
    # evaluates each contraction whole at (c1, 0), so it also checks the
    # (3m-3)! scaling and that hessian reads the E1^(3m-3-2i) coefficient
    c1 = Fraction(point[0])
    for i in range(flo(3 * (m - 1)) + 1):
        assert hessian(m, i).scaled(c1 ** (3 * m - 3 - 2 * i)) == hessian_per_entry(m, i, point)


def test_hessian_contracts_once_per_anti_diagonal(monkeypatch):
    operators = []

    def counted(op, dual):
        operators.append(next(iter(op.terms)))
        return contract(op, dual)

    monkeypatch.setattr(algebra, "contract", counted)
    for m in (5, 9):
        for i in range(flo(3 * (m - 1)) + 1):
            operators.clear()
            h = len(basis_range(m, i))
            assert hessian(m, i).nrows == h
            assert len(operators) == len(set(operators)) == 2 * h - 1


def test_graded_poly_keeps_ints_and_rejects_floats():
    ints = GradedPoly(DUAL_SIDE, {(2, 1): 3, (0, 2): -1})
    fractions = GradedPoly(DUAL_SIDE, {(2, 1): Fraction(3), (0, 2): Fraction(-1)})
    assert all(type(c) is int for c in ints.terms.values())
    assert all(type(c) is Fraction for c in fractions.terms.values())
    assert ints == fractions and hash(ints) == hash(fractions)
    op = GradedPoly(OPERATOR_SIDE, {(1, 0): 2, (0, 1): 5})
    contracted = contract(op, ints)
    assert contracted == GradedPoly(DUAL_SIDE, {(1, 1): 12, (2, 0): 15, (0, 1): -10})
    assert all(type(c) is int for c in contracted.terms.values())
    with pytest.raises(TypeError):
        GradedPoly(DUAL_SIDE, {(2, 1): 3.0})
    with pytest.raises(TypeError):
        ints.scaled(0.5)


@pytest.mark.parametrize("m", [13, 24, 40])
def test_hessian_matches_report_past_the_crosscheck(m):
    # test_hessian_equals_closed_form compares Hessians with the windows for
    # m <= 12; past it, each scaled determinant against the report's
    verdicts = property_report(m).verdicts
    for i in range(flo(3 * (m - 1)) + 1):
        h = len(basis_range(m, i))
        scale = math.factorial(3 * m - 3 - 2 * i) ** h
        assert hessian(m, i).det() * scale == verdicts[i].det


_small_exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
_op_polys = st.dictionaries(_small_exponents, st.integers(-4, 4), max_size=3).map(
    lambda terms: GradedPoly(OPERATOR_SIDE, terms)
)
_dual_polys = st.dictionaries(_small_exponents, st.integers(-4, 4), max_size=3).map(
    lambda terms: GradedPoly(DUAL_SIDE, terms)
)


@settings(max_examples=80)
@given(_op_polys, _op_polys, _dual_polys, st.integers(-3, 3), st.integers(-3, 3))
def test_contract_is_bilinear(f, g, F, alpha, beta):
    combined = contract(f.scaled(alpha) + g.scaled(beta), F)
    split = contract(f, F).scaled(alpha) + contract(g, F).scaled(beta)
    assert combined == split


@settings(max_examples=80)
@given(_op_polys)
def test_contract_degree_drop(op):
    F = dual_generator(5)
    result = contract(op, F)
    if not result.is_zero() and is_homogeneous(op) and not op.is_zero():
        assert weighted_degree(result) == weighted_degree(F) - weighted_degree(op)


def test_json_terms_rendering():
    assert f_m(2).to_json_terms() == [
        {"a": 2, "b": 0, "coeff": "1"},
        {"a": 0, "b": 1, "coeff": "-2"},
    ]
