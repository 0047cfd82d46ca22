"""Weighted bivariate polynomials, the differentiation pairing, and Hessians.

Two sides share one sparse representation keyed by exponent pairs (a, b)
with weighted degree a + 2b:

* operator side, variables ``e1`` (weight 1) and ``e2`` (weight 2) -- these
  act on the dual side by partial differentiation;
* dual side, variables ``E1``/``E2`` -- carriers of the dual socle
  polynomial whose annihilator presents the algebra A(m, 2).

The degree-i pairing matrices (higher Hessians) of the dual polynomial are
the verdicts' independent oracle; f_m's and F_m's integers come from hilbert.
Coefficients pass exact.as_exact: an int stays int through sums, products and
contractions (the Hessian divides once per anti-diagonal), a Fraction a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

from .exact import ExactMatrix, as_exact
from .hilbert import _exact_quotient, basis_range, c_coeff, check_degree, dual_numerator, flo

OPERATOR_SIDE = "op"
DUAL_SIDE = "dual"
_VAR_NAMES = {OPERATOR_SIDE: ("e1", "e2"), DUAL_SIDE: ("E1", "E2")}


class GradedPoly:
    """Sparse polynomial in two variables of weights 1 and 2.

    ``terms`` maps exponent pairs (a, b) to nonzero exact coefficients, int
    coefficients kept int and Fraction ones Fraction (floats are rejected);
    the weighted degree of a term is a + 2b.
    """

    __slots__ = ("side", "terms")

    def __init__(self, side: str, terms: Mapping[tuple[int, int], object]):
        if side not in _VAR_NAMES:
            raise ValueError(f"unknown side {side!r}")
        cleaned: dict[tuple[int, int], int | Fraction] = {}
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
            terms[key] = terms.get(key, 0) + c
        return GradedPoly(self.side, terms)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "GradedPoly":
        c = as_exact(factor)
        return GradedPoly(self.side, {key: c * v for key, v in self.terms.items()})

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._require_same_side(other)
        terms: dict[tuple[int, int], int | Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return GradedPoly(self.side, terms)

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[tuple[int, int], int | Fraction]]:
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
            {"a": a, "b": b, "coeff": str(c)}
            for (a, b), c in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        return f"GradedPoly({self.side!r}, {self.to_text()})"


def f_m(m: int) -> GradedPoly:
    """Degree-m relation sum_k (-1)^k c_coeff(m, k) e1^(m-2k) e2^k."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    terms = {
        (m - 2 * k, k): (-1) ** k * c_coeff(m, k) for k in range(flo(m) + 1)
    }
    return GradedPoly(OPERATOR_SIDE, terms)


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
    terms: dict[tuple[int, int], int | Fraction] = {}
    for (a, b), c_op in op.terms.items():
        for (A, B), c_dual in dual.terms.items():
            if a > A or b > B:
                continue
            key = (A - a, B - b)
            factor = math.perm(A, a) * math.perm(B, b)
            terms[key] = terms.get(key, 0) + c_op * c_dual * factor
    return GradedPoly(DUAL_SIDE, terms)


def hessian(m: int, i: int) -> ExactMatrix:
    """Degree-i pairing matrix of the dual generator at the Lefschetz element e1.

    Entry (p, q) is the E1^(3m-3-2i) coefficient of e1^(2i-2s) e2^s o F_m,
    s = p + q, over the degree-i monomial basis: one contraction per
    anti-diagonal s, shared by its entries.  The coefficient is the
    contraction evaluated at (E1, E2) = (1, 0).  The degree-1 component is
    spanned by e1 alone, so any other linear form c1*e1 only scales the entry
    by c1^(3m-3-2i).  The contraction runs over integers on D * F_m,
    D = (3m-3)!, a multiple of every term's a! b!, and each anti-diagonal
    divides by D once.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    check_degree(m, i)
    D = math.factorial(3 * m - 3)
    F = GradedPoly(DUAL_SIDE, {
        key: _exact_quotient(c.numerator * D, c.denominator, "(3m-3)! * F_m")
        for key, c in dual_generator(m).terms.items()
    })
    ps, e1_power = basis_range(m, i), (3 * m - 3 - 2 * i, 0)
    anti_diagonal = {}
    for s in range(2 * ps.start, 2 * ps.stop - 1):
        contraction = contract(GradedPoly.monomial(OPERATOR_SIDE, 2 * i - 2 * s, s), F)
        anti_diagonal[s] = Fraction(contraction.terms.get(e1_power, 0), D)
    return ExactMatrix([[anti_diagonal[p + q] for q in ps] for p in ps])
