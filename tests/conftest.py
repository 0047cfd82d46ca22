"""Shared fixtures and the test-side oracles: binomials that vanish out of
range, the cofactor determinant, the Hilbert series by direct
multiplication, the quadratic violation scan, the unimodality test, the
restricted partition family listed member by member and counted by size in
one walk over every multiplicity vector, the weighted degree and the
presentation checks (annihilation, the f_m recursion, the power-sum
identity), the per-entry contraction Hessian, the
integer Hankel window that the elimination oracle reads, the path object
model that checks the involution check's table and involution
independently (LatticePath with its column-major vertex mask, the flip by
one walk, PathSystem, the pruned system enumeration and involution_phi on
systems), the path predicates production does not need (a path's vertex
list, the height above the shifted diagonal, a system's flips and its
vertex- and doubly-vertex-disjointness), the reflection across the
shifted diagonal, the flip by primitive-segment surgery, the unpruned and
the collision-pruned system enumerations, the involution check from both
members of every pair, and the adapter that runs a map of PathSystems in
place of the check's involution on its table entries."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, isqrt
from typing import Iterator, NamedTuple, Optional, Sequence

import pytest

from lefpath import lefschetz
from lefpath.algebra import (
    OPERATOR_SIDE,
    GradedPoly,
    contract,
    dual_generator,
    f_m,
)
from lefpath.exact import ExactMatrix, as_exact
from lefpath.hilbert import basis_range, c_coeff, check_degree, flo
from lefpath.lattice import Point, perm_sign, vertex_sets
from lefpath.lefschetz import hankel_moments


@pytest.fixture(autouse=True)
def fresh_property_reports():
    """property_report is memoised on m; a test that patches what a report is
    built from must not read one built before the patch, or leave one behind."""
    lefschetz._property_report.cache_clear()
    yield
    lefschetz._property_report.cache_clear()


def binomial(n: int, k: int) -> int:
    """C(n, k), with value 0 whenever k < 0, k > n, or n < 0.

    The out-of-range convention is load-bearing: terms built from binomials
    with a negative lower index must vanish, matching the empty sums they
    stand for.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


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


def partition_gf_full_walk(m: int, n: int) -> tuple[int, ...]:
    """Independent oracle for partition_gf: size counts of the family from
    every multiplicity vector (j_1, ..., j_n) in one walk, m^n leaf visits."""
    counts = [0] * (n * (n + 1) * (m - 1) // 2 + 1)

    def visit(size: int, total: int) -> None:
        if size == 1:
            for j in range(m):
                counts[total + j] += 1
            return
        for j in range(m):
            visit(size - 1, total + size * j)

    visit(n, 0)
    return tuple(counts)


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


def hankel_window(m: int, i: int) -> ExactMatrix:
    """(3m-3-2i)! * hessian(m, i, (1, 0)): the integer Hankel window
    [[b_(p+q)]] of hankel_moments(m), 0 past s = m-1, p and q over
    basis_range(m, i)."""
    check_degree(m, i)
    b, ps = hankel_moments(m) + (0,) * m, basis_range(m, i)
    return ExactMatrix([[b[p + q] for q in ps] for p in ps])


# -- the path object model: oracle for the check's path table and involution --

_SWAP = str.maketrans("NE", "EN")


def _bit(point: Point) -> int:
    """Mask bit of a vertex (x, y), 0 <= y <= x: x(x+1)/2 + y."""
    x, y = point
    return x * (x + 1) // 2 + y


class LatticePath:
    """NE lattice path staying weakly below the main diagonal.

    Immutable; ``steps`` is a string over {"N", "E"}.  ``mask`` holds one
    bit per vertex (see _bit), so an E step moves the bit up by the new x and
    an N step by 1.  The flip and the touches of the shifted diagonal are
    filled in by _fold on first use.
    """

    __slots__ = ("start", "steps", "end", "mask", "_hash", "_flipped", "_touches")

    def __init__(self, start: Point, steps: str):
        x, y = start
        if not 0 <= y <= x:
            raise ValueError(f"start {start} lies outside the subdiagonal region")
        bit = _bit(start)
        mask = 1 << bit
        for s in steps:
            if s == "E":
                x += 1
                bit += x
            elif s == "N":
                y += 1
                bit += 1
                if y > x:
                    raise ValueError(f"path leaves the subdiagonal region at {(x, y)}")
            else:
                raise ValueError(f"invalid step {s!r}")
            mask |= 1 << bit
        self._fill(start, steps, (x, y), mask)

    def _fill(self, start: Point, steps: str, end: Point, mask: int) -> LatticePath:
        """Set the fields from a walk made already: checked, or valid by construction."""
        self.start, self.steps, self.end, self.mask = start, steps, end, mask
        self._hash, self._flipped = hash((start, steps)), None
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticePath) and (self.start, self.steps) == (other.start, other.steps)

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        return f"LatticePath({self.start}, {self.steps!r})"


def _reachable(source: Point, target: Point) -> bool:
    """Whether any path joins a source on y = x to a target below it."""
    a, a2 = source
    if a != a2:
        raise ValueError(f"source {source} must lie on the diagonal y = x")
    b, c = target
    if c > b:
        raise ValueError(f"target {target} lies above the diagonal")
    return c >= a and b >= a


def enumerate_paths(source: Point, target: Point) -> list[LatticePath]:
    """All subdiagonal NE paths from source to target, steps in lex order
    (E before N), as many as the cell's path_matrix entry; the system
    enumeration tabulates one list per (source, target) cell.  The walk keeps
    each path's mask as it goes (see LatticePath), so no path is walked twice."""
    found: list[LatticePath] = []
    if not _reachable(source, target):
        return found
    (a, _), (b, c) = source, target
    end = (b, c)

    def walk(x: int, y: int, steps: str, bit: int, mask: int) -> None:
        if x == b and y == c:
            found.append(LatticePath.__new__(LatticePath)._fill(source, steps, end, mask))
        if x < b:
            walk(x + 1, y, steps + "E", bit + x + 1, mask | 1 << (bit + x + 1))
        if y < min(c, x):
            walk(x, y + 1, steps + "N", bit + 1, mask | 1 << (bit + 1))

    bit = _bit(source)
    walk(a, a, "", bit, 1 << bit)
    return found


def _fold(path: LatticePath) -> LatticePath:
    """The flip: reflect every lower primitive segment across the shifted
    diagonal y = x - (m - 1) through the path's end (which fixes m).

    The path splits at its touches of the shifted diagonal into an initial
    piece, which starts on the main diagonal and never goes below the line,
    and primitive segments, each wholly above or wholly below it.  The steps
    with an end strictly below the line are exactly those of the lower
    segments; reflection (x, y) -> (y + m - 1, x - m + 1) fixes the segment
    endpoints and swaps N and E, so the result is an upper path with the
    same endpoints.  Upper paths are fixed points, so folding the flip
    returns it.  The flip is kept on the path with the indices of its
    vertices on the line; reflected vertices land strictly above it, so the
    flip touches it at the same indices.  One walk gives the flip's steps,
    its mask (as in LatticePath) and the touches.
    """
    if path._flipped is None:
        (x, y), (x_end, y_end) = path.start, path.end
        height = y - x + x_end - y_end  # the start's height above the line
        bit = _bit(path.start)
        mask, steps, touches = 1 << bit, [], [0] if height == 0 else []
        for k, s in enumerate(path.steps, 1):
            north = s == "N"
            up = (height < 0 or height == 0 and not north) != north  # the flip steps N
            steps.append("N" if up else "E")
            x += not up
            bit += 1 if up else x
            mask |= 1 << bit
            height += 1 if north else -1
            if height == 0:
                touches.append(k)
        steps = "".join(steps)
        flipped = path
        if steps != path.steps:
            flipped = LatticePath.__new__(LatticePath)._fill(path.start, steps, path.end, mask)
        flipped._flipped = path._flipped = flipped
        flipped._touches = path._touches = tuple(touches)
    return path._flipped


class PathSystem(NamedTuple):
    """Paths joining each source k to target permutation[k]."""

    m: int
    i: int
    paths: tuple[LatticePath, ...]
    permutation: tuple[int, ...]

    @property
    def sign(self) -> int:
        return perm_sign(self.permutation)


def _shared(masks) -> int:
    """The bits set in two or more of the masks, in one pass."""
    seen = shared = 0
    for mask in masks:
        shared |= seen & mask
        seen |= mask
    return shared


def _northern_most(mask: int) -> Point:
    """The northern-most, then eastern-most vertex of a nonzero mask.  Bits
    run column by column (see _bit), so the top bit left is the top vertex
    of the eastern-most column left; columns are read from the east until
    none left can reach above the best row."""
    best_x = best_y = -1
    while mask:
        b = mask.bit_length() - 1
        x = (isqrt(8 * b + 1) - 1) // 2
        if x <= best_y:
            break
        base = x * (x + 1) // 2
        if b - base > best_y:
            best_x, best_y = x, b - base
        mask &= (1 << base) - 1
    return best_x, best_y


@lru_cache(maxsize=2)
def _cells(m: int, i: int) -> list[list[dict[str, LatticePath]]]:
    """Per (source, target) cell, its paths keyed by steps in lex order: the
    enumeration walks them and the involution's surgery looks its paths up."""
    vs = vertex_sets(m, i)
    return [[{p.steps: p for p in enumerate_paths(s, t)} for t in vs.targets] for s in vs.sources]


def enumerate_systems(m: int, i: int) -> Iterator[PathSystem]:
    """Stream the vertex-disjoint path systems of degree i, in deterministic
    order: built one source at a time, targets ascending and paths in lex
    order.  Every source and target vertex starts occupied, and a path joins
    only if it misses the occupied vertices other than its own two ends, so a
    collision, or a later source or unused target on it, prunes its subtree."""
    vs = vertex_sets(m, i)
    cells = [[[(p.mask, p) for p in cell.values()] for cell in row] for row in _cells(m, i)]
    ends = [[1 << _bit(s) | 1 << _bit(t) for t in vs.targets] for s in vs.sources]
    h = len(cells)
    chosen: list[LatticePath] = []
    used: list[int] = []

    def extend(k: int, occupied: int) -> Iterator[PathSystem]:
        if k == h:
            yield PathSystem(m, i, tuple(chosen), tuple(used))
            return
        for q in range(h):
            if q in used:
                continue
            used.append(q)
            blocked = occupied ^ ends[k][q]
            for mask, path in cells[k][q]:
                if mask & blocked:
                    continue
                chosen.append(path)
                yield from extend(k + 1, occupied | mask)
                chosen.pop()
            used.pop()

    return extend(0, sum(ends[k][k] for k in range(h)))



def involution_phi(system: PathSystem) -> PathSystem:
    """Sign-reversing involution on vertex-disjoint, not doubly-disjoint systems.

    Locates the northern-most-then-eastern-most vertex where two flipped
    paths meet, swaps everything after it (surgery done on the pieces that
    the reflection exchanges, so each of the two new paths keeps its own
    side of the crossing), and transposes the two targets.
    """
    m = system.m
    if _shared([p.mask for p in system.paths]):
        raise ValueError("involution defined only on vertex-disjoint systems")
    flips = [_fold(p).mask for p in system.paths]
    crossings = _shared(flips)
    if not crossings:
        raise ValueError("system is doubly vertex disjoint; involution undefined")
    x, y = _northern_most(crossings)
    bit = 1 << _bit((x, y))
    meeting = [k for k, mask in enumerate(flips) if mask & bit]
    if len(meeting) != 2:
        raise ValueError(f"more than two paths meet at {(x, y)}; system outside the domain")
    # a flip passes (x, y) where its path does, or where its path passes the
    # mirror point below the line; the paths are disjoint, so one of each
    up, lo = meeting if system.paths[meeting[0]].mask & bit else meeting[::-1]
    p_lo, p_up = system.paths[lo], system.paths[up]

    # each path meets the anti-diagonal of the crossing and its mirror once:
    # cut there, and again at the path's next touch of the shifted diagonal
    # (the folds above filled in the touches)
    j_lo, j_up = x + y - sum(p_lo.start), x + y - sum(p_up.start)
    e_lo = p_lo._touches[bisect_right(p_lo._touches, j_lo)]
    e_up = p_up._touches[bisect_right(p_up._touches, j_up)]
    perm = list(system.permutation)
    perm[lo], perm[up] = perm[up], perm[lo]
    # both new paths run from a source to a target: look them up in their cells
    cells = _cells(m, system.i)
    new_lo = cells[lo][perm[lo]].get(
        p_lo.steps[:j_lo] + p_up.steps[j_up:e_up].translate(_SWAP) + p_up.steps[e_up:]
    )
    new_up = cells[up][perm[up]].get(
        p_up.steps[:j_up] + p_lo.steps[j_lo:e_lo].translate(_SWAP) + p_lo.steps[e_lo:]
    )
    if new_lo is None or new_up is None:
        raise ValueError("surgery misses the swapped targets; system outside the domain")
    paths = list(system.paths)
    paths[lo], paths[up] = new_lo, new_up
    return PathSystem(m, system.i, tuple(paths), tuple(perm))


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
    return tuple(_fold(p) for p in system.paths)


def is_vertex_disjoint(system: PathSystem) -> bool:
    return not _shared(p.mask for p in system.paths)


def is_doubly_vertex_disjoint(system: PathSystem) -> bool:
    return is_vertex_disjoint(system) and not _shared(
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
            image = involution_phi(system)
            ok = (
                image.permutation == tuple(ends.get(p.end) for p in image.paths)
                and image.sign == -system.sign
                and is_vertex_disjoint(image)
                and not is_doubly_vertex_disjoint(image)
                and involution_phi(image) == system
            )
    return size, signed, ok


# -- the check's table entries and the oracle's systems ------------------------


def row_major_mask(points, m: int) -> int:
    """The check's vertex mask: bit y(2m-1) + x for each vertex (x, y)."""
    return sum(1 << y * (2 * m - 1) + x for x, y in set(points))


def entry_of(path: LatticePath, m: int, q: int) -> tuple:
    """The check's table entry of an oracle path to target q."""
    flipped = _fold(path)
    return (
        row_major_mask(vertices(path), m),
        row_major_mask(vertices(flipped), m),
        path.steps,
        path._touches,
        q,
    )


def system_of(m: int, i: int, entries, perm) -> PathSystem:
    """The oracle's system of the check's entries, in source order."""
    sources = vertex_sets(m, i).sources
    return PathSystem(m, i, tuple(LatticePath(s, e[2]) for s, e in zip(sources, entries)), tuple(perm))


def involution_seam(fake):
    """A stand-in for lattice._involution that runs ``fake``, a map of oracle
    PathSystems, on the check's entries; each image path's entry names the
    target the path ends at, whatever permutation the image claims."""

    def involution(m: int, i: int):
        targets = vertex_sets(m, i).targets

        def phi(entries, perm, crossings):
            image = fake(system_of(m, i, entries, perm))
            entries = tuple(entry_of(p, m, targets.index(p.end)) for p in image.paths)
            return entries, image.permutation

        return phi

    return involution
