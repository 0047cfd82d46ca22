"""Shared fixtures and the test-side oracles: the cofactor determinant, the
Hilbert series by direct multiplication, the quadratic violation scan, the
unimodality test, the restricted partition family listed member by member,
the weighted degree and the presentation checks (annihilation, the f_m
recursion, the power-sum identity), the per-entry contraction Hessian, the
path predicates production does not need (a path's vertex list, the height
above the shifted diagonal, a system's flips and its vertex- and doubly-
vertex-disjointness), the reflection across the shifted diagonal, the flip
by primitive-segment surgery, the unpruned and the collision-pruned system
enumerations, and the involution check from both members of every pair."""

from fractions import Fraction
from itertools import accumulate, product
from typing import Iterator, NamedTuple, Optional, Sequence

import pytest

from lefpath import lattice, lefschetz
from lefpath.algebra import OPERATOR_SIDE, GradedPoly, c_coeff, contract, dual_generator, f_m
from lefpath.exact import ExactMatrix, as_exact, binomial
from lefpath.hilbert import basis_range, flo
from lefpath.lattice import LatticePath, PathSystem, Point, enumerate_paths, vertex_sets


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


def hilbert_series_product(m: int, n: int) -> tuple[int, ...]:
    """Independent Hilbert-series oracle: multiply out each factor
    1 + t^i + ... + t^{(m-1)i} term by term, O(len * m) per factor."""
    coeffs = [1]
    for i in range(1, n + 1):
        factor_degree = (m - 1) * i
        out = [0] * (len(coeffs) + factor_degree)
        for d, c in enumerate(coeffs):
            for step in range(0, factor_degree + 1, i):
                out[d + step] += c
        coeffs = out
    return tuple(coeffs)


def first_violation_rescan(seq: Sequence[int]) -> Optional[int]:
    """Independent violation oracle: at every dip, rescan the rest for a rise."""
    for j in range(1, len(seq)):
        if seq[j] < seq[j - 1] and any(seq[k] > seq[j] for k in range(j + 1, len(seq))):
            return j
    return None


def is_unimodal(seq: Sequence[int]) -> bool:
    """True iff seq weakly increases to some peak, then weakly decreases."""
    if len(seq) == 0:
        raise ValueError("empty sequence")
    k = 0
    while k + 1 < len(seq) and seq[k + 1] >= seq[k]:
        k += 1
    while k + 1 < len(seq) and seq[k + 1] <= seq[k]:
        k += 1
    return k == len(seq) - 1


def _from_multiplicities(mults: tuple[int, ...]) -> tuple[int, ...]:
    """Partition with mults[k-1] parts of size k, parts decreasing."""
    parts: list[int] = []
    for size in range(len(mults), 0, -1):
        parts.extend([size] * mults[size - 1])
    return tuple(parts)


def enumerate_restricted(m: int, n: int) -> list[tuple[int, ...]]:
    """All partitions with parts <= n, each part repeated < m times.

    Ordered by size, then by decreasing-lexicographic part tuples; the
    count is exactly m^n.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    members = [
        _from_multiplicities(mults) for mults in product(range(m), repeat=n)
    ]
    members.sort(key=lambda parts: (sum(parts), tuple(-p for p in parts)))
    return members


def weighted_degree(poly: GradedPoly) -> int:
    """Largest weighted degree a + 2b among the terms (-1 for the zero poly)."""
    return max((a + 2 * b for a, b in poly.terms), default=-1)


def is_homogeneous(poly: GradedPoly) -> bool:
    return len({a + 2 * b for a, b in poly.terms}) <= 1


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


def hessian_per_entry(m: int, i: int, eval_point: tuple) -> ExactMatrix:
    """Independent Hessian oracle: one contraction of the dual generator per
    entry (p, q), by the operator e1^(2i-2p-2q) e2^(p+q)."""
    c1, c2 = eval_point
    F, ps = dual_generator(m), basis_range(m, i)

    def entry(p: int, q: int) -> Fraction:
        op = GradedPoly.monomial(OPERATOR_SIDE, 2 * i - 2 * p - 2 * q, p + q)
        return contract(op, F).evaluate(c1, c2)

    return ExactMatrix([[entry(p, q) for q in ps] for p in ps])


def vertices(path: LatticePath) -> tuple[Point, ...]:
    """The path's vertices in order, from its start to its end."""
    x, y = path.start
    norths = accumulate((s == "N" for s in path.steps), initial=0)
    return tuple((x + k - n, y + n) for k, n in enumerate(norths))


def shifted_offset(point: Point, m: int) -> int:
    """y - (x - (m - 1)): zero on the shifted diagonal, positive above."""
    x, y = point
    return y - x + m - 1


def flipped_paths(system: PathSystem) -> tuple[LatticePath, ...]:
    return tuple(lattice._fold(p) for p in system.paths)


def is_vertex_disjoint(system: PathSystem) -> bool:
    return not lattice._shared(p.mask for p in system.paths)


def is_doubly_vertex_disjoint(system: PathSystem) -> bool:
    return is_vertex_disjoint(system) and not lattice._shared(
        p.mask for p in flipped_paths(system)
    )


def reflect(point: Point, m: int) -> Point:
    """Reflection across the shifted diagonal y = x - (m - 1)."""
    x, y = point
    return (y + m - 1, x - m + 1)


def is_upper(path: LatticePath, m: int) -> bool:
    """True iff no vertex lies strictly below the shifted diagonal."""
    return all(shifted_offset(v, m) >= 0 for v in vertices(path))


class PathDecomposition(NamedTuple):
    """Split of a path at its shifted-diagonal touches.

    ``initial`` runs from the start to the first touch; each later piece
    touches the shifted diagonal exactly at its two endpoints and is tagged
    "upper" or "lower" by where its interior lies.
    """

    initial: LatticePath
    segments: tuple[tuple[LatticePath, str], ...]


def primitive_segments(path: LatticePath, m: int) -> PathDecomposition:
    """Decompose a path ending on the shifted diagonal y = x - (m - 1)."""
    if shifted_offset(path.end, m) != 0:
        raise ValueError(f"path must end on the shifted diagonal, ends at {path.end}")
    verts = vertices(path)
    touches = [k for k, v in enumerate(verts) if shifted_offset(v, m) == 0]
    segments = tuple(
        # one step off the line decides the side; interiors never re-touch
        (LatticePath(verts[lo], path.steps[lo:hi]), "upper" if path.steps[lo] == "N" else "lower")
        for lo, hi in zip(touches, touches[1:])
    )
    return PathDecomposition(LatticePath(path.start, path.steps[: touches[0]]), segments)


def flip_by_segments(path: LatticePath, m: int) -> LatticePath:
    """Independent flip oracle: the paper's surgery, swapping N and E on each
    lower primitive segment and keeping every other piece."""
    decomposition = primitive_segments(path, m)
    swap = str.maketrans("NE", "EN")
    rebuilt = [decomposition.initial.steps]
    for piece, side in decomposition.segments:
        rebuilt.append(piece.steps.translate(swap) if side == "lower" else piece.steps)
    return LatticePath(path.start, "".join(rebuilt))


def all_systems(m: int, i: int) -> Iterator[PathSystem]:
    """Every path system of degree i, unpruned, in enumerate_systems order:
    source k takes each unused target ascending, then each path in lex order."""
    vs = vertex_sets(m, i)

    def extend(paths: tuple, perm: tuple) -> Iterator[PathSystem]:
        k = len(perm)
        if k == len(vs.sources):
            yield PathSystem(m, i, paths, perm)
            return
        for q in range(len(vs.sources)):
            if q not in perm:
                for path in enumerate_paths(vs.sources[k], vs.targets[q]):
                    yield from extend(paths + (path,), perm + (q,))

    return extend((), ())


def collision_pruned_systems(m: int, i: int) -> Iterator[PathSystem]:
    """The vertex-disjoint systems in enumerate_systems order, with fresh
    paths per cell and pruned on collisions with the chosen paths only: a
    path through a later source or an unused target still opens a subtree."""
    vs = vertex_sets(m, i)
    cells = [[enumerate_paths(s, t) for t in vs.targets] for s in vs.sources]
    chosen: list[LatticePath] = []
    used: list[int] = []

    def extend(k: int, occupied: int) -> Iterator[PathSystem]:
        if k == len(cells):
            yield PathSystem(m, i, tuple(chosen), tuple(used))
            return
        for q in range(len(cells)):
            if q in used:
                continue
            used.append(q)
            for path in cells[k][q]:
                if path.mask & occupied:
                    continue
                chosen.append(path)
                yield from extend(k + 1, occupied | path.mask)
                chosen.pop()
            used.pop()

    return extend(0, 0)


def involution_both_sides(m: int, i: int) -> tuple[int, int, bool]:
    """Involution oracle: (|N|, signed sum over N, ok) from the collision-pruned
    enumeration, running involution_phi from both members of every pair (four
    calls a pair), with ok as in check_involution."""
    ends = {t: q for q, t in enumerate(vertex_sets(m, i).targets)}
    size = signed = 0
    ok = True
    for system in collision_pruned_systems(m, i):
        if is_doubly_vertex_disjoint(system):
            continue
        size += 1
        signed += system.sign
        if ok:
            image = lattice.involution_phi(system)
            ok = (
                image.permutation == tuple(ends.get(p.end) for p in image.paths)
                and image.sign == -system.sign
                and is_vertex_disjoint(image)
                and not is_doubly_vertex_disjoint(image)
                and lattice.involution_phi(image) == system
            )
    return size, signed, ok
