"""Exact kernel: the coercion, determinant, rank, signature, and the binomial test helper.

Determinants are cross-checked against recursive cofactor expansion and
signatures against a Descartes-rule oracle on the exact characteristic
polynomial (a symmetric matrix has an all-real spectrum).
The report's verdicts are checked against Bareiss elimination of their
windows.
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import binomial, det_cofactor, hankel_window
from hypothesis import given, settings
from hypothesis import strategies as st

from lefpath import lefschetz
from lefpath.algebra import hessian
from lefpath.exact import ExactMatrix, as_exact
from lefpath.hilbert import basis_range
from lefpath.lattice import path_matrix


# -- binomial -----------------------------------------------------------------


def test_binomial_direct_product():
    # 13*12*11*10 / 24 = 715
    assert binomial(13, 4) == 13 * 12 * 11 * 10 // 24 == 715


def test_binomial_edges():
    assert binomial(5, 0) == 1
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(-2, 0) == 0


@given(st.integers(0, 40), st.integers(0, 40))
def test_binomial_pascal(n, k):
    if 0 < k <= n:
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


# -- coercion -----------------------------------------------------------------


def test_as_exact_keeps_ints_and_fractions_and_rejects_the_rest():
    assert type(as_exact(7)) is int and type(as_exact(True)) is int and as_exact(True) == 1
    assert type(as_exact(Fraction(3))) is Fraction
    for inexact in (1.0, "1", None):
        with pytest.raises(TypeError):
            as_exact(inexact)
    # a path matrix keeps its int entries, and so does its scaled copy
    matrix = path_matrix(5, 3)
    assert all(type(e) is int for row in matrix.scaled(2).rows for e in row)
    assert all(type(e) is int for row in matrix.rows for e in row)
    assert type(ExactMatrix([[Fraction(1, 2)]]).rows[0][0]) is Fraction
    with pytest.raises(TypeError):
        ExactMatrix([[0.5]])


# -- determinant --------------------------------------------------------------


def test_det_worked_example():
    assert ExactMatrix([[275, 75], [75, 20]]).det() == -125


def test_det_identity():
    assert ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).det() == 1


def test_det_cofactor_last_row():
    # expansion along the last row (1, 0, 0): +1 * det [[5, 1], [1, 0]] = -1
    m = [[20, 5, 1], [5, 1, 0], [1, 0, 0]]
    assert det_cofactor(m) == -1
    assert ExactMatrix(m).det() == -1


def test_det_rational_entries():
    m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]])
    assert m.det() == Fraction(1, 10) - Fraction(1, 9)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [4, 5, 6]],
        [[1, 2, 3], [2, 4, 6]],
        [],
        [[]],
        [[1, 2], [3, 4]],
    ],
    ids=["non_square", "rectangular_rank_1", "empty", "empty_row", "non_symmetric"],
)
def test_rejects_all_but_square_symmetric_rows(rows):
    with pytest.raises(ValueError):
        ExactMatrix(rows)


def _mirror(upper: list[list[int]], zero_diagonal: bool = False) -> list[list[int]]:
    """The symmetric table whose upper triangle is upper's."""
    n = len(upper)
    return [
        [0 if i == j and zero_diagonal else upper[min(i, j)][max(i, j)] for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=150)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.booleans(),
        )
    )
)
def test_det_matches_cofactor_oracle(case):
    # half the draws have a zero diagonal, whose first pivot comes from the
    # row_r += row_c congruence
    upper, zero_diagonal = case
    rows = _mirror(upper, zero_diagonal)
    assert ExactMatrix(rows).det() == det_cofactor(rows)


# -- printing -----------------------------------------------------------------


@given(st.fractions())
def test_entries_print_as_p_over_q(x):
    # every printed rational is "p/q" in lowest terms, or "p" for an integer
    text = f"{x.numerator}/{x.denominator}" if x.denominator != 1 else f"{x.numerator}"
    assert str(ExactMatrix([[x]])) == f"[{text}]"


def test_matrix_prints_rows_separated_by_semicolons():
    matrix = ExactMatrix([[275, Fraction(-3, 4)], [Fraction(-3, 4), 0]])
    assert str(matrix) == "[275 -3/4; -3/4 0]"
    assert repr(matrix) == "ExactMatrix[275 -3/4; -3/4 0]"


# -- rank ---------------------------------------------------------------------


def test_rank_examples():
    # det vanishes (cofactor oracle) while the minor [[20, 5], [5, 1]] = -5 != 0
    singular = [[275, 75, 20], [75, 20, 5], [20, 5, 1]]
    assert det_cofactor(singular) == 0
    assert det_cofactor([[20, 5], [5, 1]]) == -5
    assert ExactMatrix(singular).rank() == 2
    assert ExactMatrix([[0, 0], [0, 0]]).rank() == 0
    assert ExactMatrix([[int(i == j) for j in range(4)] for i in range(4)]).rank() == 4


# -- signature ----------------------------------------------------------------


def _char_poly_coeffs(m: ExactMatrix) -> list[Fraction]:
    """Coefficients of det(t I - m), leading first, by Faddeev-LeVerrier:
    M_k = m M_(k-1) + c_(k-1) I and c_k = -tr(m M_k) / k, from M_0 = 0 and
    c_0 = 1; no determinant is taken."""
    a, n = m.rows, m.nrows
    coeffs = [Fraction(1)]
    power = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        power = [
            [
                sum(a[i][l] * power[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        coeffs.append(-sum(a[i][l] * power[l][i] for i in range(n) for l in range(n)) / k)
    return coeffs


def _sign_changes(coeffs) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signature_descartes(m: ExactMatrix) -> int:
    """Descartes-rule signature oracle; exact because a symmetric matrix has
    an all-real spectrum."""
    coeffs = _char_poly_coeffs(m)
    pos = _sign_changes(coeffs)
    neg = _sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])
    return pos - neg


def test_signature_examples():
    # 2x2 symmetric with negative determinant: one eigenvalue each sign
    assert ExactMatrix([[275, 75], [75, 20]]).signature() == 0
    assert ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]]).signature() == 1
    assert ExactMatrix([[0, 1], [1, 0]]).signature() == 0


def test_zero_diagonal_congruence_keeps_the_signature():
    # the first pivot comes from row_r += row_c with col_r += col_c; adding
    # the rows alone keeps det and rank, but gives signature -2 here
    rows = [
        [0, 0, -3, 2, 3],
        [0, 0, 3, -2, 1],
        [-3, 3, 0, 0, 1],
        [2, -2, 0, 0, -3],
        [3, 1, 1, -3, 0],
    ]
    m = ExactMatrix(rows)
    assert m.signature() == signature_descartes(m) == 0
    assert m.rank() == 4


def test_signature_zero_matrix():
    assert ExactMatrix([[0, 0], [0, 0]]).signature() == 0


def _symmetric(entries: list[list[int]]) -> ExactMatrix:
    return ExactMatrix(_mirror(entries))


@settings(max_examples=200)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_signature_matches_descartes_oracle(rows):
    m = _symmetric(rows)
    assert m.signature() == signature_descartes(m)


@settings(max_examples=200)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_signature_parity_when_nondegenerate(rows):
    m = _symmetric(rows)
    if m.det() != 0:
        assert m.signature() % 2 == m.nrows % 2


# -- one elimination for det, rank and signature ------------------------------


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def _congruent_diagonal(draw):
    """(D, P^T D P) with D integer diagonal and P unit-triangular times a
    permutation, hence unimodular."""
    n = draw(st.integers(1, 6))
    diag = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    lower = [
        [1 if i == j else (draw(st.integers(-3, 3)) if j < i else 0) for j in range(n)]
        for i in range(n)
    ]
    perm = draw(st.permutations(range(n)))
    p = _matmul(lower, [[int(perm[i] == j) for j in range(n)] for i in range(n)])
    d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return diag, _matmul(_matmul([list(col) for col in zip(*p)], d), p)


@settings(max_examples=300)
@given(_congruent_diagonal())
def test_congruent_diagonal_det_rank_signature(case):
    diag, rows = case
    m = ExactMatrix(rows)
    assert m.signature() == sum(d > 0 for d in diag) - sum(d < 0 for d in diag)
    assert m.rank() == sum(d != 0 for d in diag)
    assert m.det() == math.prod(diag)


def _rank_by_minors(rows) -> int:
    """Independent rank oracle: the largest k with a nonzero k x k minor."""
    nr, nc = len(rows), len(rows[0])
    for k in range(min(nr, nc), 0, -1):
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                if det_cofactor([[rows[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


@settings(max_examples=150)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda pq: st.lists(
            st.lists(st.integers(-3, 3), min_size=pq[1], max_size=pq[1]),
            min_size=pq[0],
            max_size=pq[0],
        )
    )
)
def test_zero_diagonal_block_is_hyperbolic(b):
    # [[0, B], [B^T, 0]] has a zero diagonal, so its first pivot comes from
    # the row_r += row_c congruence; its eigenvalues pair up as +-sigma.
    p, q = len(b), len(b[0])
    rows = [[0] * p + list(row) for row in b]
    rows += [list(col) + [0] * q for col in zip(*b)]
    m = ExactMatrix(rows)
    assert m.signature() == 0
    assert m.rank() == 2 * _rank_by_minors(b)


def test_rational_hessian_matches_integer_path_matrix():
    for m in range(2, 11):
        for i in range(3 * (m - 1) // 2 + 1):
            rational = hessian(m, i)
            integer = path_matrix(m, i)
            assert rational.rank() == integer.rank()
            assert rational.signature() == integer.signature()
            scale = math.factorial(3 * m - 3 - 2 * i) ** integer.nrows
            assert integer.det() == scale * rational.det()


def test_hankel_window_equals_path_matrix():
    for m in range(2, 41):
        for i in range(3 * (m - 1) // 2 + 1):
            assert hankel_window(m, i) == path_matrix(m, i), (m, i)


def _elimination_verdict(v, window):
    """v with every field that depends on det, rank and signature recomputed
    by one Bareiss elimination of its window."""
    det, rank = window.det(), window.rank()
    sign = (det > 0) - (det < 0)
    assert type(v.det) is int and det.denominator == 1, v.i
    return v._replace(
        det=det.numerator,
        det_sign=sign,
        rank=rank,
        signature=window.signature(),
        sl_pass=det != 0,
        hlp_pass=rank == v.window_min,
        chrr_pass=det != 0 and sign == v.chrr_expected_sign,
        hrr_pass=det != 0 and sign == v.hrr_expected_sign,
    )


def test_report_verdicts_equal_elimination_verdicts():
    # every degree for 1 <= m <= 60: the verdict equals the one Bareiss on the
    # window gives, with every field that depends on det, rank and signature
    # recomputed; det is the exact integer determinant, not only its sign
    for m in range(1, 61):
        for v in lefschetz.property_report(m).verdicts:
            if v.i == 0 or basis_range(m, v.i) != basis_range(m, v.i - 1):
                window = hankel_window(m, v.i)
            assert v == _elimination_verdict(v, window), (m, v.i)
