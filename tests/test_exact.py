"""Exact kernel: binomials, determinant, rank, signature, the number wall.

Determinants are cross-checked against recursive cofactor expansion and
signatures against a Descartes-rule oracle on the exact characteristic
polynomial (a symmetric matrix has an all-real spectrum).
The number wall's Hankel minors and the verdicts read from them are checked
against Bareiss elimination, and the leading-minor law that lets the wall
settle every window of A(m, 2) is checked on every basis start.
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import det_cofactor, hankel_window
from hypothesis import given, settings
from hypothesis import strategies as st

from lefpath import lefschetz
from lefpath.algebra import hessian
from lefpath.exact import ExactMatrix, binomial
from lefpath.hilbert import basis_range, flo
from lefpath.lattice import path_matrix
from lefpath.lefschetz import hankel_moments, hankel_wall


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


# -- number wall ---------------------------------------------------------------


@st.composite
def _wall_cases(draw):
    """A sequence and a few (offset, depth) pairs.  The sequence has random
    entries, small or some forced to zero, which put zero divisors inside
    the wall, or is a sum of a few geometric sequences, whose Hankel
    matrices have low rank.  An offset two below a forced zero divides by it
    from W(n, 3) on."""
    size, zeros = draw(st.integers(0, 14)), []
    if draw(st.booleans()):
        bound = draw(st.sampled_from([1, 9]))
        seq = draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size))
        places = st.integers(0, max(size - 1, 0))
        zeros = draw(st.lists(places, min_size=min(size, 1), max_size=min(size, 3)))
        for t in zeros:
            seq[t] = 0
    else:
        terms = draw(
            st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=max(size // 2, 0))
        )
        seq = [sum(c * x**t for c, x in terms) for t in range(size)]
    offsets = draw(st.lists(st.integers(0, size + 1), unique=True, min_size=1, max_size=3))
    return seq, {n: draw(st.integers(1, 7)) for n in offsets + [t - 2 for t in zeros if t >= 2]}


def _hankel_block(seq, n, h):
    return [[seq[n + p + q] if n + p + q < len(seq) else 0 for q in range(h)] for p in range(h)]


@settings(max_examples=300)
@given(_wall_cases())
def test_hankel_minors_match_elimination(case):
    # each list holds true minors, nonzero but perhaps the last; at size
    # h <= len the rank is h (h-1 at a zero minor), and Sylvester-Jacobi on
    # the nonzero minors gives the signature
    seq, depths = case
    minors = hankel_wall(seq, depths)
    assert set(minors) == set(depths)
    for n, found in minors.items():
        assert len(found) <= depths[n] and None not in found and 0 not in found[:-1]
        for h in range(1, len(found) + 1):
            rows = _hankel_block(seq, n, h)
            block = ExactMatrix(rows)
            assert block.det() == found[h - 1], (n, h)
            rank = h if found[h - 1] else h - 1
            assert block.rank() == rank
            jacobi = [1] + found[:rank]
            assert block.signature() == sum(
                1 if a * b > 0 else -1 for a, b in zip(jacobi, jacobi[1:])
            )
            if h <= 5:
                assert det_cofactor(rows) == found[h - 1]


@settings(max_examples=300)
@given(_wall_cases())
def test_wall_stops_early_only_behind_a_zero_divisor(case):
    # a list short of its depth with no zero at its end stops before a minor
    # the wall could not compute: one whose recurrence divides, at some
    # level, by a zero minor W(n', j), n' >= n+2, inside the computed region
    seq, depths = case
    size = max((s + 1 for s, x in enumerate(seq) if x), default=0)
    for n, found in hankel_wall(seq, depths).items():
        r = len(found)
        if r == depths[n] or found[-1:] == [0]:
            continue
        divisors = [
            ExactMatrix(_hankel_block(seq, m, j)).det()
            for j in range(1, r)
            for m in range(n + 2, n + 2 * (r + 1 - j) + 1)
            if m + j < size
        ]
        assert 0 in divisors, (n, found)


def test_wall_examples():
    # the structural tail: past seq's trailing zeros W(0, 2) = -2^2 and
    # W(0, 3) = 0, with no division at all
    assert hankel_wall([1, 2, 0, 0, 0], {0: 3}) == {0: [1, -4, 0]}
    # W(0, 3) divides by W(2, 1) = 0: offset 0 stops before it, and offset 2
    # at its zero W(2, 1); the true W(0, 3) is -2
    assert hankel_wall([1, 1, 0, 1, 1], {0: 3, 2: 3}) == {0: [1, -1], 2: [0]}
    assert ExactMatrix(_hankel_block([1, 1, 0, 1, 1], 0, 3)).det() == -2
    # twice the exchange matrix, one entry past the other lists' first zeros
    assert hankel_wall([0, 0, 2, 0, 0], {0: 3, 1: 2, 2: 3}) == {0: [0], 1: [0], 2: [2, 0]}
    assert hankel_wall([], {0: 2, 3: 1}) == {0: [0], 3: [0]}


def _raises_past_the_wall(monkeypatch, moments, degree):
    """The report of m = 5 over a patched sequence b, padded with zeros to the
    7 terms its windows read (offsets 0 and 2 are its two basis starts),
    raises at the first degree whose window the wall cannot settle."""

    def patched(m):
        return tuple(moments) + (0,) * (7 - len(moments))

    monkeypatch.setattr(lefschetz, "hankel_moments", patched)
    assert len(basis_range(5, 4)) == 3
    with pytest.raises(ArithmeticError, match=rf"at \(m, i\) = \(5, {degree}\):"):
        lefschetz.property_report(5)


def test_verdict_falls_back_past_a_zero_minor(monkeypatch):
    # all-ones sequence, the moments of no A(m, 2): H_1 = 1, H_2 = 0 on both
    # starts, so the rank rules stop at size 2 and the first size-3 window
    # (degree 4) raises; elimination gives the block det 0, rank 1, signature 1
    assert hankel_wall([1] * 5, {0: 3, 2: 3}) == {0: [1, 0], 2: [1, 0]}
    _raises_past_the_wall(monkeypatch, [1] * 5, 4)
    ones = ExactMatrix([[1] * 3] * 3)
    assert (ones.det(), ones.rank(), ones.signature()) == (0, 1, 1)


def test_fallback_keeps_the_exact_determinant(monkeypatch):
    # H_1 = 0 on start 0, so its first window of size 2 (degree 2) raises;
    # elimination keeps twice the 3 x 3 exchange matrix's integer
    # determinant -8, not only its sign
    _raises_past_the_wall(monkeypatch, [0, 0, 2, 0, 0], 2)
    exchange = ExactMatrix([[0, 0, 2], [0, 2, 0], [2, 0, 0]])
    det = exchange.det()
    assert (det, det.denominator, exchange.rank(), exchange.signature()) == (-8, 1, 3, 1)


def test_zero_divisor_sends_the_start_to_elimination(monkeypatch):
    # b = (1, 1, 0, 1, 1): W(0, 3) divides by W(2, 1) = 0, so the degree-4
    # window (size 3 on start 0) raises; test_wall_examples has its
    # determinant -2 by elimination
    _raises_past_the_wall(monkeypatch, [1, 1, 0, 1, 1], 4)


def test_wall_settles_every_window_of_the_moments():
    # the law behind the report's one path: on every basis start of A(m, 2),
    # W(2lo, k) != 0 iff 2k <= m or 2lo + k = m (the anti-triangular tail),
    # so each start's minors, kept through the first zero, cover its largest
    # window, and no window is left for elimination
    for m in range(2, 61):
        depths = {}
        for i in range(flo(3 * (m - 1)) + 1):
            ps = basis_range(m, i)
            depths[2 * ps.start] = max(depths.get(2 * ps.start, 0), len(ps))
        for n, found in hankel_wall(hankel_moments(m), depths).items():
            assert len(found) == depths[n], (m, n)
            for k, minor in enumerate(found, 1):
                assert (minor != 0) == (2 * k <= m or n + k == m), (m, n, k)


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
