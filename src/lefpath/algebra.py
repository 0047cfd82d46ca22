"""Weighted bivariate polynomials, the differentiation pairing, and Hessians.

Two sides share one sparse representation keyed by exponent pairs (a, b)
with weighted degree a + 2b:

* operator side, variables ``e1`` (weight 1) and ``e2`` (weight 2) -- these
  act on the dual side by partial differentiation;
* dual side, variables ``E1``/``E2`` -- carriers of the dual socle
  polynomial whose annihilator presents the algebra A(m, 2).

The degree-i pairing matrices (higher Hessians) of the dual polynomial are
what the Lefschetz verdicts are read from.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

from .exact import ExactMatrix, as_exact, binomial
from .hilbert import basis_range, check_degree, flo

OPERATOR_SIDE = "op"
DUAL_SIDE = "dual"
_VAR_NAMES = {OPERATOR_SIDE: ("e1", "e2"), DUAL_SIDE: ("E1", "E2")}


class GradedPoly:
    """Sparse polynomial in two variables of weights 1 and 2.

    ``terms`` maps exponent pairs (a, b) to nonzero rational coefficients;
    the weighted degree of a term is a + 2b.
    """

    __slots__ = ("side", "terms")

    def __init__(self, side: str, terms: Mapping[tuple[int, int], object]):
        if side not in _VAR_NAMES:
            raise ValueError(f"unknown side {side!r}")
        cleaned: dict[tuple[int, int], Fraction] = {}
        for (a, b), coeff in terms.items():
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in term ({a}, {b})")
            c = as_exact(coeff)
            if c != 0:
                cleaned[(a, b)] = c
        self.side = side
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, side: str, a: int, b: int, coeff=1) -> "GradedPoly":
        return cls(side, {(a, b): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def weighted_degree(self) -> int:
        """Largest weighted degree among the terms (-1 for the zero poly)."""
        if not self.terms:
            return -1
        return max(a + 2 * b for a, b in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {a + 2 * b for a, b in self.terms}
        return len(degrees) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedPoly)
            and self.side == other.side
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.side, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _require_same_side(self, other: "GradedPoly") -> None:
        if self.side != other.side:
            raise ValueError("cannot mix operator-side and dual-side polynomials")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._require_same_side(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        return GradedPoly(self.side, terms)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "GradedPoly":
        c = as_exact(factor)
        return GradedPoly(self.side, {key: c * v for key, v in self.terms.items()})

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._require_same_side(other)
        terms: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return GradedPoly(self.side, terms)

    def evaluate(self, c1, c2) -> Fraction:
        x, y = as_exact(c1), as_exact(c2)
        return sum(
            (c * x**a * y**b for (a, b), c in self.terms.items()), Fraction(0)
        )

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Terms ordered by decreasing first exponent, then increasing second."""
        return iter(sorted(self.terms.items(), key=lambda kv: (-kv[0][0], kv[0][1])))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        v1, v2 = _VAR_NAMES[self.side]
        pieces = []
        for (a, b), coeff in self.sorted_terms():
            factors = []
            if a == 1:
                factors.append(v1)
            elif a > 1:
                factors.append(f"{v1}^{a}")
            if b == 1:
                factors.append(v2)
            elif b > 1:
                factors.append(f"{v2}^{b}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def to_json_terms(self) -> list[dict]:
        return [
            {"a": a, "b": b, "coeff": format_rational(c)}
            for (a, b), c in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        return f"GradedPoly({self.side!r}, {self.to_text()})"


def format_rational(value: Fraction) -> str:
    """Render exactly: "p/q", or just "p" for integers.  Never decimal."""
    value = as_exact(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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
    return _exact_quotient(m * binomial(m - k, k), m - k, f"c_coeff({m}, {k})")


def f_m(m: int) -> GradedPoly:
    """Degree-m relation sum_k (-1)^k c_coeff(m, k) e1^(m-2k) e2^k."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    terms = {
        (m - 2 * k, k): (-1) ** k * c_coeff(m, k) for k in range(flo(m) + 1)
    }
    return GradedPoly(OPERATOR_SIDE, terms)


def dual_numerator(m: int, n: int) -> int:
    """(m/(m+2n)) * C(m+2n, n), the integer numerator of a dual-generator term."""
    top = m + 2 * n
    return _exact_quotient(m * binomial(top, n), top, f"dual_numerator({m}, {n})")


def dual_generator(m: int) -> GradedPoly:
    """Dual socle polynomial of A(m, 2), homogeneous of weighted degree 3(m-1).

    Term n (0 <= n <= m-1) is
    dual_numerator(m, n) * E1^(m+2n-1) E2^(m-n-1) / ((m+2n-1)! (m-n-1)!).
    """
    if m < 2:
        raise ValueError(f"dual generator needs m >= 2, got {m}")
    terms = {}
    for n in range(m):
        a = m + 2 * n - 1
        b = m - n - 1
        terms[(a, b)] = Fraction(
            dual_numerator(m, n), math.factorial(a) * math.factorial(b)
        )
    return GradedPoly(DUAL_SIDE, terms)


def contract(op: GradedPoly, dual: GradedPoly) -> GradedPoly:
    """Apply an operator polynomial to a dual polynomial by differentiation.

    Monomial action: e1^a e2^b sends E1^A E2^B to
    (A!/(A-a)!) (B!/(B-b)!) E1^(A-a) E2^(B-b), zero if a > A or b > B.
    """
    if op.side != OPERATOR_SIDE or dual.side != DUAL_SIDE:
        raise ValueError("contract expects (operator side, dual side)")
    terms: dict[tuple[int, int], Fraction] = {}
    for (a, b), c_op in op.terms.items():
        for (A, B), c_dual in dual.terms.items():
            if a > A or b > B:
                continue
            key = (A - a, B - b)
            factor = math.perm(A, a) * math.perm(B, b)
            terms[key] = terms.get(key, Fraction(0)) + c_op * c_dual * factor
    return GradedPoly(DUAL_SIDE, terms)


def annihilator_check(m: int) -> bool:
    """True iff both defining relations kill the dual generator.

    Checks f_m(e1, e2) o F = 0 and e2^m o F = 0 as full symbolic
    contractions, not just point evaluations.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    F = dual_generator(m)
    e2_power = GradedPoly.monomial(OPERATOR_SIDE, 0, m)
    return contract(f_m(m), F).is_zero() and contract(e2_power, F).is_zero()


def verify_f_recursion(m: int) -> bool:
    """Check f_{m+2} = (e1^2 - 2 e2) f_m - e2^2 f_{m-2}, plus the equivalent
    coefficient recursion c_{m+2,k} = c_{m,k} + 2 c_{m,k-1} - c_{m-2,k-2}."""
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    lhs = f_m(m + 2)
    multiplier = GradedPoly(OPERATOR_SIDE, {(2, 0): 1, (0, 1): -2})
    e2_sq = GradedPoly.monomial(OPERATOR_SIDE, 0, 2)
    rhs = multiplier * f_m(m) - e2_sq * f_m(m - 2)
    if lhs != rhs:
        return False
    return all(
        c_coeff(m + 2, k) == c_coeff(m, k) + 2 * c_coeff(m, k - 1) - c_coeff(m - 2, k - 2)
        for k in range(flo(m + 2) + 1)
    )


def _roots_substitution(f: GradedPoly) -> dict[tuple[int, int], Fraction]:
    """Expand f(e1, e2) at e1 = x + y, e2 = x y as a dict {(i, j): coeff}."""
    result: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in f.terms.items():
        # (x + y)^a * (xy)^b
        for t in range(a + 1):
            key = (t + b, a - t + b)
            result[key] = result.get(key, Fraction(0)) + c * binomial(a, t)
    return {key: v for key, v in result.items() if v != 0}


def verify_power_sum(m: int) -> bool:
    """True iff f_m(x + y, x y) = x^m + y^m as an exact bivariate identity."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    expanded = _roots_substitution(f_m(m))
    return expanded == {(m, 0): Fraction(1), (0, m): Fraction(1)}


def hessian(m: int, i: int, eval_point: tuple = (1, 0)) -> ExactMatrix:
    """Degree-i pairing matrix of the dual generator, entries evaluated at a point.

    Entry (p, q) is (e1^(2i-2s) e2^s o F_m), s = p + q, evaluated at
    (E1, E2) = eval_point, over the degree-i monomial basis: one contraction
    per anti-diagonal s, shared by its entries.  The Lefschetz
    evaluation point is (c1, 0): the degree-1 component is spanned by e1
    alone, so linear forms are c1*e1.  A nonzero second coordinate is
    allowed for experimentation but is not a Lefschetz evaluation.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    check_degree(m, i)
    c1, c2 = eval_point
    F = dual_generator(m)
    ps = basis_range(m, i)
    anti_diagonal = {
        s: contract(GradedPoly.monomial(OPERATOR_SIDE, 2 * i - 2 * s, s), F).evaluate(c1, c2)
        for s in range(2 * ps.start, 2 * ps.stop - 1)
    }
    return ExactMatrix([[anti_diagonal[p + q] for q in ps] for p in ps])


def hankel_moments(m: int) -> tuple[int, ...]:
    """b_s = a_(m-1-s), a_n = dual_numerator(m, n), 0 for s >= m, up to the
    largest p + q of any basis range: every degree's window reads this one."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    stop = basis_range(m, flo(3 * (m - 1))).stop
    return tuple(dual_numerator(m, m - 1 - s) if s < m else 0 for s in range(2 * stop - 1))


def hankel_window(m: int, i: int) -> ExactMatrix:
    """(3m-3-2i)! * hessian(m, i, (1, 0)): the integer Hankel window
    [[b_(p+q)]] of hankel_moments(m), p and q over basis_range(m, i)."""
    check_degree(m, i)
    b, ps = hankel_moments(m), basis_range(m, i)
    return ExactMatrix([[b[p + q] for q in ps] for p in ps])
