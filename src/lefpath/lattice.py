"""Subdiagonal NE lattice paths, path systems, flips, and signed enumeration.

Paths live in the induced subgraph of Z^2 on {(x, y) : y <= x} with North
and East steps.  Row vertices sit on the main diagonal y = x, column
vertices on the shifted diagonal y = x - (m - 1).  The degree-i weighted
path matrix reproduces the degree-i pairing matrix of the dual generator
(up to the factorial scale), and its determinant is recomputed here two
independent ways: as a signed sum over vertex-disjoint path systems, and
as a signed count of doubly-vertex-disjoint systems obtained after a
sign-reversing cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Optional

from .exact import ExactMatrix, binomial
from .hilbert import basis_range, check_degree, flo, hilbert_m2_closed

Point = tuple[int, int]

SystemFilter = Literal["all", "vertex_disjoint", "doubly_vertex_disjoint"]


def reflect(point: Point, m: int) -> Point:
    """Reflection across the shifted diagonal y = x - (m - 1)."""
    x, y = point
    return (y + m - 1, x - m + 1)


def shifted_offset(point: Point, m: int) -> int:
    """y - (x - (m - 1)): zero on the shifted diagonal, positive above."""
    x, y = point
    return y - x + m - 1


class LatticePath:
    """NE lattice path staying weakly below the main diagonal.

    Immutable; ``steps`` is a string over {"N", "E"}.
    """

    def __init__(self, start: Point, steps: str):
        x, y = start
        if y > x:
            raise ValueError(f"start {start} lies above the diagonal")
        verts = [start]
        for s in steps:
            if s == "E":
                x += 1
            elif s == "N":
                y += 1
            else:
                raise ValueError(f"invalid step {s!r}")
            if y > x:
                raise ValueError(f"path leaves the subdiagonal region at {(x, y)}")
            verts.append((x, y))
        self.start = start
        self.steps = steps
        self._vertices = tuple(verts)
        self.vertex_set = frozenset(verts)

    @property
    def end(self) -> Point:
        return self._vertices[-1]

    def vertices(self) -> tuple[Point, ...]:
        return self._vertices

    def __len__(self) -> int:
        return len(self.steps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticePath)
            and self.start == other.start
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.start, self.steps))

    def __repr__(self) -> str:
        return f"LatticePath({self.start}, {self.steps!r})"

    def to_dict(self) -> dict:
        return {"start": list(self.start), "steps": self.steps}


def count_paths(source: Point, target: Point) -> int:
    """Number of subdiagonal NE paths from (a, a) to (b, c).

    Closed form ((b - c + 1)/(b + c - 2a + 1)) * C(b + c - 2a + 1, c - a);
    zero when the target is unreachable (c < a or b < a).
    """
    a, a2 = source
    if a != a2:
        raise ValueError(f"source {source} must lie on the diagonal y = x")
    b, c = target
    if c > b:
        raise ValueError(f"target {target} lies above the diagonal")
    if c < a or b < a:
        return 0
    n = b + c - 2 * a + 1
    count, remainder = divmod((b - c + 1) * binomial(n, c - a), n)
    assert remainder == 0
    return count


def enumerate_paths(source: Point, target: Point) -> list[LatticePath]:
    """All subdiagonal NE paths from source to target, steps in lex order
    (E before N).  Brute-force oracle for count_paths; small instances only."""
    a, a2 = source
    if a != a2:
        raise ValueError(f"source {source} must lie on the diagonal y = x")
    b, c = target
    if c > b:
        raise ValueError(f"target {target} lies above the diagonal")
    found: list[LatticePath] = []
    if c < a or b < a:
        return found
    acc: list[str] = []

    def walk(x: int, y: int) -> None:
        if x == b and y == c:
            found.append(LatticePath(source, "".join(acc)))
            return
        if x < b:
            acc.append("E")
            walk(x + 1, y)
            acc.pop()
        if y < c and y + 1 <= x:
            acc.append("N")
            walk(x, y + 1)
            acc.pop()

    walk(a, a)
    return found


@dataclass(frozen=True)
class VertexSets:
    """Row vertices on y = x and column vertices on y = x - (m - 1)."""

    m: int
    i: int
    sources: tuple[Point, ...]
    targets: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.sources)


def vertex_sets(m: int, i: int) -> VertexSets:
    """Sources (p, p) and targets (2m-2-q, m-1-q), p and q over the degree-i
    basis index range."""
    check_degree(m, i)
    indices = basis_range(m, i)
    sources = tuple((p, p) for p in indices)
    targets = tuple((2 * m - 2 - q, m - 1 - q) for q in indices)
    return VertexSets(m, i, sources, targets)


def path_matrix(m: int, i: int) -> ExactMatrix:
    """Integer matrix of path counts; equals (3m-3-2i)! times the evaluated
    degree-i pairing matrix."""
    vs = vertex_sets(m, i)
    return ExactMatrix(
        [[count_paths(s, t) for t in vs.targets] for s in vs.sources]
    )


# -- flips ------------------------------------------------------------------


@dataclass(frozen=True)
class PathDecomposition:
    """Split of a path at its shifted-diagonal touches.

    ``initial`` runs from the start to the first touch; each later piece
    touches the shifted diagonal exactly at its two endpoints and is tagged
    "upper" or "lower" by where its interior lies.
    """

    initial: LatticePath
    segments: tuple[tuple[LatticePath, str], ...]


def _touch_indices(path: LatticePath, m: int) -> list[int]:
    return [
        k for k, v in enumerate(path.vertices()) if shifted_offset(v, m) == 0
    ]


def primitive_segments(path: LatticePath, m: int) -> PathDecomposition:
    """Decompose a path ending on the shifted diagonal y = x - (m - 1)."""
    if shifted_offset(path.end, m) != 0:
        raise ValueError(
            f"path must end on the shifted diagonal y = x - {m - 1}, ends at {path.end}"
        )
    touches = _touch_indices(path, m)
    first = touches[0]
    verts = path.vertices()
    initial = LatticePath(path.start, path.steps[:first])
    segments = []
    for lo, hi in zip(touches, touches[1:]):
        piece = LatticePath(verts[lo], path.steps[lo:hi])
        # one step off the line decides the side; interiors never re-touch
        side = "upper" if path.steps[lo] == "N" else "lower"
        segments.append((piece, side))
    return PathDecomposition(initial, tuple(segments))


def is_upper(path: LatticePath, m: int) -> bool:
    """True iff no vertex lies strictly below the shifted diagonal."""
    return all(shifted_offset(v, m) >= 0 for v in path.vertices())


def _swap_steps(steps: str) -> str:
    return steps.translate(str.maketrans("NE", "EN"))


def flip(path: LatticePath, m: int) -> LatticePath:
    """Reflect every lower primitive segment across the shifted diagonal.

    Reflection (x, y) -> (y + m - 1, x - m + 1) fixes the segment endpoints
    and swaps N and E steps, so the result is an upper path with the same
    endpoints.  Upper paths are fixed points; applying flip twice returns
    the once-flipped path.
    """
    decomposition = primitive_segments(path, m)
    rebuilt = [decomposition.initial.steps]
    for piece, side in decomposition.segments:
        rebuilt.append(_swap_steps(piece.steps) if side == "lower" else piece.steps)
    return LatticePath(path.start, "".join(rebuilt))


# -- path systems -----------------------------------------------------------


def perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for k in range(len(perm))
        for l in range(k + 1, len(perm))
        if perm[k] > perm[l]
    )
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class PathSystem:
    """Paths joining each source k to target permutation[k], with sign."""

    m: int
    i: int
    paths: tuple[LatticePath, ...]
    permutation: tuple[int, ...]
    sign: int

    def flipped_paths(self) -> tuple[LatticePath, ...]:
        return tuple(flip(p, self.m) for p in self.paths)

    def is_vertex_disjoint(self) -> bool:
        return _pairwise_disjoint(self.paths)

    def is_doubly_vertex_disjoint(self) -> bool:
        return self.is_vertex_disjoint() and _pairwise_disjoint(self.flipped_paths())

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "i": self.i,
            "paths": [p.to_dict() for p in self.paths],
            "permutation": list(self.permutation),
            "sign": self.sign,
        }


def _pairwise_disjoint(paths) -> bool:
    seen: set[Point] = set()
    for p in paths:
        if not seen.isdisjoint(p.vertex_set):
            return False
        seen |= p.vertex_set
    return True


def enumerate_systems(
    m: int, i: int, system_filter: SystemFilter = "vertex_disjoint"
) -> Iterator[PathSystem]:
    """Stream all path systems passing the filter, in deterministic order.

    Systems are built one source at a time (targets ascending, paths in lex
    order); for the disjointness filters the occupancy check prunes every
    partial system, which keeps m <= 6 instances fast despite the raw
    product sizes.
    """
    if system_filter not in ("all", "vertex_disjoint", "doubly_vertex_disjoint"):
        raise ValueError(f"unknown filter {system_filter!r}")
    vs = vertex_sets(m, i)
    h = len(vs)
    check_disjoint = system_filter != "all"
    check_flipped = system_filter == "doubly_vertex_disjoint"
    paths_between = [
        [enumerate_paths(s, t) for t in vs.targets] for s in vs.sources
    ]
    flipped_between = None
    if check_flipped:
        flipped_between = [
            [[flip(p, m) for p in cell] for cell in row] for row in paths_between
        ]

    chosen: list[LatticePath] = []
    chosen_flipped: list[LatticePath] = []
    used: list[int] = []

    def extend(k: int) -> Iterator[PathSystem]:
        if k == h:
            perm = tuple(used)
            yield PathSystem(m, i, tuple(chosen), perm, perm_sign(perm))
            return
        for q in range(h):
            if q in used:
                continue
            for idx, path in enumerate(paths_between[k][q]):
                if check_disjoint and any(
                    not path.vertex_set.isdisjoint(c.vertex_set) for c in chosen
                ):
                    continue
                if check_flipped:
                    fpath = flipped_between[k][q][idx]
                    if any(
                        not fpath.vertex_set.isdisjoint(c.vertex_set)
                        for c in chosen_flipped
                    ):
                        continue
                    chosen_flipped.append(fpath)
                chosen.append(path)
                used.append(q)
                yield from extend(k + 1)
                used.pop()
                chosen.pop()
                if check_flipped:
                    chosen_flipped.pop()

    return extend(0)


def lgv_signed_sum(m: int, i: int) -> int:
    """Signed count of vertex-disjoint path systems (all path weights 1)."""
    return sum(s.sign for s in enumerate_systems(m, i, "vertex_disjoint"))


def count_doubly_disjoint(m: int, i: int) -> int:
    """N(i, m): number of doubly-vertex-disjoint path systems."""
    return sum(1 for _ in enumerate_systems(m, i, "doubly_vertex_disjoint"))


def doubly_multiplicity_view(
    m: int, i: int
) -> list[tuple[tuple[LatticePath, ...], int]]:
    """Group doubly-disjoint systems by their flipped (all-upper) system.

    Returns (flipped paths, multiplicity) pairs in deterministic order; the
    multiplicities sum to N(i, m).  Display aid only.
    """
    groups: dict[tuple[LatticePath, ...], int] = {}
    for system in enumerate_systems(m, i, "doubly_vertex_disjoint"):
        key = system.flipped_paths()
        groups[key] = groups.get(key, 0) + 1
    return sorted(
        groups.items(), key=lambda kv: tuple((p.start, p.steps) for p in kv[0])
    )


# -- the sign-reversing involution ------------------------------------------


def involution_phi(system: PathSystem) -> PathSystem:
    """Sign-reversing involution on vertex-disjoint, not doubly-disjoint systems.

    Locates the northern-most-then-eastern-most vertex where two flipped
    paths meet, swaps everything after it (surgery done on the pieces that
    the reflection exchanges, so each of the two new paths keeps its own
    side of the crossing), and transposes the two targets.
    """
    m = system.m
    if not system.is_vertex_disjoint():
        raise ValueError("involution defined only on vertex-disjoint systems")
    flipped = system.flipped_paths()
    seen: dict[Point, list[int]] = {}
    for k, fp in enumerate(flipped):
        for v in fp.vertex_set:
            seen.setdefault(v, []).append(k)
    crossings = [v for v, ks in seen.items() if len(ks) > 1]
    if not crossings:
        raise ValueError("system is doubly vertex disjoint; involution undefined")
    c = max(crossings, key=lambda v: (v[1], v[0]))
    if len(seen[c]) != 2:
        raise ValueError(f"more than two paths meet at {c}; system outside the domain")
    k1, k2 = seen[c]

    c_mirror = reflect(c, m)
    through_mirror = [k for k in (k1, k2) if c_mirror in system.paths[k].vertex_set]
    through_point = [k for k in (k1, k2) if c in system.paths[k].vertex_set]
    if len(through_mirror) != 1 or len(through_point) != 1:
        raise ValueError(
            f"crossing at {c} is not a lower/upper pair; system outside the domain"
        )
    lo, up = through_mirror[0], through_point[0]
    p_lo, p_up = system.paths[lo], system.paths[up]

    def cut_points(path: LatticePath, vertex: Point) -> tuple[int, int]:
        j = path.vertices().index(vertex)
        seg_end = next(t for t in _touch_indices(path, m) if t > j)
        return j, seg_end

    j_lo, e_lo = cut_points(p_lo, c_mirror)
    j_up, e_up = cut_points(p_up, c)

    new_lo = LatticePath(
        p_lo.start,
        p_lo.steps[:j_lo] + _swap_steps(p_up.steps[j_up:e_up]) + p_up.steps[e_up:],
    )
    new_up = LatticePath(
        p_up.start,
        p_up.steps[:j_up] + _swap_steps(p_lo.steps[j_lo:e_lo]) + p_lo.steps[e_lo:],
    )

    paths = list(system.paths)
    paths[lo], paths[up] = new_lo, new_up
    perm = list(system.permutation)
    perm[lo], perm[up] = perm[up], perm[lo]
    assert new_lo.end == vertex_sets(m, system.i).targets[perm[lo]]
    assert new_up.end == vertex_sets(m, system.i).targets[perm[up]]
    return PathSystem(m, system.i, tuple(paths), tuple(perm), -system.sign)


# -- determinant adjudication -------------------------------------------------


@dataclass(frozen=True)
class DvdVerdict:
    """Determinant vs doubly-disjoint count, plus the nonvanishing rule."""

    m: int
    i: int
    h: int
    det: int
    predicted_sign: int
    n_doubly: Optional[int]
    count_matches_det: Optional[bool]
    nonvanishing_rule_agrees: bool
    in_rule_range: bool


def check_dvd_theorem(
    m: int, i: int, mode: Literal["enumerate", "det_only"] = "enumerate"
) -> DvdVerdict:
    """Compare det(path matrix) against (-1)^flo(h_i) * N(i, m), and record
    whether (det != 0) matches (2 h_i <= m).

    The nonvanishing rule can genuinely disagree with the determinant (it
    does at (m, i) = (5, 6), where det = -1 yet 2 h_i = 6 > 5); the verdict
    reports the disagreement instead of raising.  Computation shows the
    rule reliable only for i <= m - 1, where the basis index range starts
    at 0; ``in_rule_range`` exposes that region.
    """
    check_degree(m, i)
    det = path_matrix(m, i).det()
    assert det.denominator == 1
    det_int = det.numerator
    h = hilbert_m2_closed(m, i)
    predicted_sign = -1 if flo(h) % 2 else 1
    n_doubly = None
    matches = None
    if mode == "enumerate":
        n_doubly = count_doubly_disjoint(m, i)
        matches = det_int == predicted_sign * n_doubly
    elif mode != "det_only":
        raise ValueError(f"unknown mode {mode!r}")
    agrees = (det_int != 0) == (2 * h <= m)
    return DvdVerdict(
        m=m,
        i=i,
        h=h,
        det=det_int,
        predicted_sign=predicted_sign,
        n_doubly=n_doubly,
        count_matches_det=matches,
        nonvanishing_rule_agrees=agrees,
        in_rule_range=i <= m - 1,
    )
