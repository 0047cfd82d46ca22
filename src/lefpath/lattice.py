"""Subdiagonal NE lattice paths, path systems, flips, and signed counts.

Paths live in the induced subgraph of Z^2 on {(x, y) : y <= x} with North
and East steps.  Row vertices sit on the main diagonal y = x, column
vertices on the shifted diagonal y = x - (m - 1).  The degree-i weighted
path matrix reproduces the degree-i pairing matrix of the dual generator
(up to the factorial scale).  Its determinant, which the verdicts read off
the number wall of lefschetz.property_report, is recomputed here two
independent ways: as a signed sum over vertex-disjoint path systems, and
as a signed count of doubly-vertex-disjoint systems obtained after a
sign-reversing cancellation.  Both counts come from one transfer sweep over
the anti-diagonals x + y = s, holding at most STATE_BUDGET states.  The
involution check enumerates the systems one by one, at most SYSTEM_BUDGET,
from one table of cell paths that its surgery also reads, and checks each
pair of systems once.  A path carries its vertex set as one integer mask
and keeps its flip, so disjointness, pruning and crossings are bitwise: one
pass over a system's masks (_shared) gives the vertices two paths share.
The determinant the path route is compared with comes from the lefschetz
report, loaded only by check_dvd_theorem; exact is read only by path_matrix.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import comb, isqrt
from typing import TYPE_CHECKING, Iterator, Literal, NamedTuple, Optional

from . import BudgetExceeded
from .hilbert import basis_range, check_degree, flo

if TYPE_CHECKING:
    from .exact import ExactMatrix

Point = tuple[int, int]

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


def count_paths(source: Point, target: Point) -> int:
    """Number of subdiagonal NE paths from (a, a) to (b, c).

    Closed form ((b - c + 1)/(b + c - 2a + 1)) * C(b + c - 2a + 1, c - a);
    zero when the target is unreachable (c < a or b < a).
    """
    if not _reachable(source, target):
        return 0
    (a, _), (b, c) = source, target
    n = b + c - 2 * a + 1
    count, remainder = divmod((b - c + 1) * comb(n, c - a), n)
    if remainder:
        raise ArithmeticError(f"path count {source} -> {target} is not an integer")
    return count


def enumerate_paths(source: Point, target: Point) -> list[LatticePath]:
    """All subdiagonal NE paths from source to target, steps in lex order
    (E before N).  There are count_paths(source, target) of them; the system
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


class VertexSets(NamedTuple):
    """Row vertices on y = x and column vertices on y = x - (m - 1)."""

    m: int
    i: int
    sources: tuple[Point, ...]
    targets: tuple[Point, ...]


@lru_cache(maxsize=16)
def vertex_sets(m: int, i: int) -> VertexSets:
    """Sources (p, p) and targets (2m-2-q, m-1-q), p and q over the degree-i
    basis index range (memoised: the involution reads them for every system)."""
    check_degree(m, i)
    indices = basis_range(m, i)
    sources = tuple((p, p) for p in indices)
    targets = tuple((2 * m - 2 - q, m - 1 - q) for q in indices)
    return VertexSets(m, i, sources, targets)


def path_matrix(m: int, i: int) -> ExactMatrix:
    """Integer matrix of path counts; equals (3m-3-2i)! times the evaluated
    degree-i pairing matrix."""
    from .exact import ExactMatrix  # the one reader of exact on the path route

    vs = vertex_sets(m, i)
    return ExactMatrix(
        [[count_paths(s, t) for t in vs.targets] for s in vs.sources]
    )


# -- flips ------------------------------------------------------------------


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


# -- path systems -----------------------------------------------------------


@lru_cache(maxsize=None)  # at most h! permutations per degree
def perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1 :])
    return -1 if inversions % 2 else 1


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


# Systems an involution check may visit: every degree of m <= 7 fits (the most
# is 338,884 at (7, 4)); past it the check stops.
SYSTEM_BUDGET = 2**19


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


# Live states a transfer sweep may hold: every window of m <= 16 fits (the
# peak is 924 at m = 12 and 12,870 at m = 16); past it the sweep stops.
STATE_BUDGET = 2**14


def transfer_counts(m: int, i: int) -> tuple[int, int]:
    """(signed count of vertex-disjoint systems, N(i, m)) from one sweep over
    the anti-diagonals s = x + y; a path meets each in one vertex, and disjoint
    paths keep their order.  A state, the walkers' increasing x on s, maps to
    its (signed, doubly) counts.  Source p enters at (p, p), the least x on
    s = 2p, if free; on s = 3m-3-2q target q's vertex must be taken, and its
    walker leaves with sign (-1)^j, j the walkers before it: each entered and
    leaves later, and all sources are in by then (2p <= 3m-3-2q).  Flips are
    disjoint iff the folds (x, or s-x+m-1 below the shifted diagonal) differ
    on every s.  Walkers step last first: E to x+1, or N if y+1 <= x."""
    check_degree(m, i)
    ps = basis_range(m, i)
    x_max, y_max, last = 2 * m - 2 - ps.start, m - 1 - ps.start, 3 * m - 3 - 2 * ps.start
    enter = {2 * p: p for p in ps}
    leave = {3 * m - 3 - 2 * q: 2 * m - 2 - q for q in ps}
    states, walkers = {(): (1, 1)}, 0
    for s in range(2 * ps.start, last + 1):
        if s in enter:
            p, walkers = enter[s], walkers + 1
            states = {(p,) + xs: v for xs, v in states.items() if not xs or xs[0] > p}
        fold, target, kept = s + m - 1, leave.get(s), {}
        for xs, (signed, doubly) in states.items():
            if doubly and len({x if 2 * x <= fold else fold - x for x in xs}) < walkers:
                doubly = 0
            if target is not None:
                if target not in xs:
                    continue
                j = xs.index(target)
                xs, signed = xs[:j] + xs[j + 1 :], -signed if j % 2 else signed
            kept[xs] = (signed, doubly)
        states, walkers = kept, walkers - (target is not None)
        for k in reversed(range(walkers if s < last else 0)):
            moved: dict[tuple[int, ...], tuple[int, int]] = {}
            for xs, (signed, doubly) in states.items():
                x = xs[k]
                steps = [xs] if 2 * x > s and s - x < y_max else []
                if x < x_max and (k + 1 == walkers or xs[k + 1] > x + 1):
                    steps.append(xs[:k] + (x + 1,) + xs[k + 1 :])
                for key in steps:
                    a, b = moved.get(key, (0, 0))
                    moved[key] = (a + signed, b + doubly)
            states = moved
            if len(states) > STATE_BUDGET:
                raise BudgetExceeded(f"budget exceeded: over {STATE_BUDGET} states at ({m}, {i})")
    return states.get((), (0, 0))


# -- the sign-reversing involution ------------------------------------------


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


def check_involution(m: int, i: int) -> tuple[int, int, bool]:
    """Stream the vertex-disjoint systems of degree i and check involution_phi
    on the set N of those not doubly vertex disjoint: (|N|, signed sum over
    N, ok), where ok says every image has the permutation its paths' ends
    give and the opposite sign, is in N, and maps back.  Each pair is checked
    once, from its first member; the image waits, keyed by its paths (which
    fix it), until the enumeration reaches it.  Past a failure, only counts.
    """
    ends = {t: q for q, t in enumerate(vertex_sets(m, i).targets)}
    size, signed, ok = 0, 0, True
    pending: set[tuple[LatticePath, ...]] = set()
    for visited, system in enumerate(enumerate_systems(m, i), 1):
        if visited > SYSTEM_BUDGET:
            raise BudgetExceeded(f"budget exceeded: over {SYSTEM_BUDGET} systems at ({m}, {i})")
        if not _shared([_fold(p).mask for p in system.paths]):  # doubly disjoint
            continue
        size += 1
        sign = system.sign
        signed += sign
        if system.paths in pending:
            pending.remove(system.paths)
        elif ok:
            image = involution_phi(system)
            paths = image.paths
            # the image is vertex disjoint and not doubly so: implied once it
            # is reached, but checked here so a failure shows at this system
            ok = (
                image.permutation == tuple([ends.get(p.end) for p in paths])
                and image.sign == -sign
                and not _shared([p.mask for p in paths])
                and _shared([_fold(p).mask for p in paths])
                and involution_phi(image) == system
            )
            pending.add(paths)
    return size, signed, ok and not pending


# -- determinant adjudication -------------------------------------------------


class DvdVerdict(NamedTuple):
    """Determinant vs doubly-disjoint count, plus the nonvanishing rule."""

    m: int
    i: int
    h: int
    det: int
    predicted_sign: int
    signed_sum: Optional[int]
    n_doubly: Optional[int]
    count_matches_det: Optional[bool]
    nonvanishing_rule_agrees: bool

    @property
    def in_rule_range(self) -> bool:
        return self.m >= 2 and self.i <= self.m - 1


def check_dvd_theorem(
    m: int, i: int, mode: Literal["sweep", "det_only"] = "sweep"
) -> DvdVerdict:
    """Compare det(path matrix), the report's exact window determinant
    (lefschetz.degree_verdict, off the number wall), against
    (-1)^flo(h_i) * N(i, m), and record whether (det != 0) matches
    (2 h_i <= m).

    The nonvanishing rule can genuinely disagree with the determinant (it
    does at (m, i) = (5, 6), where det = -1 yet 2 h_i = 6 > 5); the verdict
    reports the disagreement instead of raising.  Computation shows the
    rule reliable only for m >= 2 and i <= m - 1, where the basis range
    starts at 0; ``in_rule_range`` exposes that region.  The sweep mode reads
    N and the signed (Lindstrom-Gessel-Viennot) sum from one transfer sweep,
    so it compares the two routes with no elimination and no path matrix.
    """
    from . import lefschetz  # the algebraic route, which the other checks never load

    if mode not in ("sweep", "det_only"):
        raise ValueError(f"unknown mode {mode!r}")
    verdict = lefschetz.degree_verdict(m, i)
    h, det = verdict.h, verdict.det
    predicted_sign = -1 if flo(h) % 2 else 1
    signed = n_doubly = matches = None
    if mode == "sweep":
        signed, n_doubly = transfer_counts(m, i)
        matches = det == predicted_sign * n_doubly
    return DvdVerdict(
        m=m, i=i, h=h, det=det, predicted_sign=predicted_sign, signed_sum=signed,
        n_doubly=n_doubly, count_matches_det=matches,
        nonvanishing_rule_agrees=(det != 0) == (2 * h <= m),
    )
