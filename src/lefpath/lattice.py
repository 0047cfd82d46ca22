"""Subdiagonal NE lattice paths, their counts, and the path route's checks.

Paths live in the induced subgraph of Z^2 on {(x, y) : y <= x} with North
and East steps.  Row vertices sit on the main diagonal y = x, column
vertices on the shifted diagonal y = x - (m - 1).  The degree-i weighted
path matrix reproduces the degree-i pairing matrix of the dual generator (up
to the factorial scale).  A Window, built by window, fixes where a window's
sources and targets sit; every box and anti-diagonal is read off them.  The
matrix's entries are read off one walker's row DP, target_path_counts: it is
the window [b_(p+q)] of the counts to the targets.  Its determinant, which
the verdicts read off the number wall of lefschetz.property_report, is
recomputed here two independent ways: as a signed sum over vertex-disjoint
path systems, and as a signed count of doubly-vertex-disjoint systems
obtained after a sign-reversing cancellation.  Both counts come from one
transfer sweep over the anti-diagonals x + y = s, holding at most
STATE_BUDGET states.  The involution check enumerates the systems one by
one, at most SYSTEM_BUDGET, in one recursive pass over a per-window table of
plain tuples (_table, at most PATH_BUDGET paths, counted before any walk)
that its surgery also reads, and checks each pair of systems once, the image
waiting under its masks in target order.  A table entry holds the vertex
sets of a path, of its flip and of its fold as integer masks, one bit
y(2m-1) + x per vertex (x, y), so disjointness, pruning and crossings are
bitwise, the northern-most-then-eastern-most crossing is the top bit, and
the surgery cuts bit ranges.  No path or system object is built.  The
module is path combinatorics only: it imports no lefschetz, whose
path_routes compares these counts with the report's determinants, and
exact is read only by path_matrix.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import BudgetExceeded
from .hilbert import basis_range, check_degree

if TYPE_CHECKING:
    from .exact import ExactMatrix

Point = tuple[int, int]


def target_path_counts(m: int) -> list[int]:
    """Paths from (0, 0) to each target (2m-2-s, m-1-s), s < m, under y <= x:
    one walker's row DP, with no closed form, row y counting to x = y..2m-2."""
    row, counts = [1] + [0] * (2 * m - 2), []  # row -1: the walker at (0, 0)
    for y in range(m):
        for x in range(y + 1, 2 * m - 1):  # row[y] stays: (y-1, y) lies above y = x
            row[x] += row[x - 1]
        counts.append(row[y + m - 1])
    return counts[::-1]


class Window(NamedTuple):
    """Sources (p, p) on y = x and targets (2m-2-q, m-1-q) on y = x - (m-1), p
    and q over a contiguous range in 0..m-1 (degree i's is basis_range(m, i)).
    The rest is read off the vertices: the box (x_max, y_max) is targets[0],
    the least target x targets[-1][0], and a vertex's anti-diagonal x + y."""

    m: int
    indices: range
    sources: tuple[Point, ...]
    targets: tuple[Point, ...]


def window(m: int, indices: range) -> Window:
    """The window over indices, a nonempty contiguous range in 0..m-1: the one
    place that says where a window's ends sit."""
    ps = indices
    if not ps or ps.step != 1 or ps.start < 0 or ps.stop > m:
        raise ValueError(f"need a nonempty contiguous index range in 0..{m - 1}, got {ps}")
    return Window(m, ps, tuple((p, p) for p in ps), tuple((2 * m - 2 - q, m - 1 - q) for q in ps))


def _window(w: Window) -> list[list[int]]:
    """Paths from each source (p, p) to each target q: those from (0, 0) to
    (2m-2-s, m-1-s), s = p + q, moved up the diagonal, so the window
    [b_(p+q)] of target_path_counts(m), 0 past s = m-1."""
    b, ps = target_path_counts(w.m) + [0] * w.m, w.indices
    return [[b[p + q] for q in ps] for p in ps]


def path_matrix(m: int, i: int) -> ExactMatrix:
    """Integer matrix of path counts, the _window of the row DP on degree i's
    window; equals (3m-3-2i)! times the evaluated degree-i pairing matrix."""
    from .exact import ExactMatrix  # the one reader of exact on the path route

    check_degree(m, i)
    return ExactMatrix(_window(window(m, basis_range(m, i))))


# -- the involution's path table --------------------------------------------


# A cell path as the involution check holds it: (mask, flip_mask, fold_mask);
# see _table.  Its cell, not the entry, names its target.
Entry = tuple[int, int, int]


@lru_cache(maxsize=2)
def _table(w: Window) -> tuple[list[list[list[Entry]]], list[list[dict[int, Entry]]]]:
    """The window's cell paths a vertex-disjoint system can use: per (source,
    target) cell, the paths that miss every other source and target, in lex
    order of steps (E before N), and the same entries keyed by mask.  The
    enumeration walks the lists and the involution's surgery looks its new
    paths up in the dicts.  An entry's masks hold bit y(2m-1) + x for each
    vertex (x, y) of the path, of its flip and of its fold.

    The flip keeps the vertices on or above the shifted diagonal
    y = x - (m - 1), on which every target lies, and reflects those below,
    (x, y) -> (y + m - 1, x - m + 1); the fold keeps those on or below and
    reflects those above.  One walk per source builds each path of its row
    with both; it keeps the fold m - 1 rows up and then drops the mirror
    points below row 0, which come before any cut of the surgery.  It stays
    in the box under targets[0], ends at the first target it reaches and
    never steps onto another source.
    """
    m, ps = w.m, w.indices
    width, (x_max, y_max), x_min = 2 * m - 1, w.targets[0], w.targets[-1][0]
    below = (m - 1) * width
    walk: list[list[list[Entry]]] = []
    for x0, y0 in w.sources:
        row: list[list[Entry]] = [[] for _ in ps]

        def step(x, y, height, mask, flip_mask, fold_mask):
            vertex, mirror = y * width + x, (x - m + 1) * width + y + m - 1
            mask |= 1 << vertex
            flip_mask |= 1 << (vertex if height >= 0 else mirror)
            fold_mask |= 1 << below + (vertex if height <= 0 else mirror)
            if height == 0 and x >= x_min:
                row[x_max - x].append((mask, flip_mask, fold_mask >> below))
                return
            if x < x_max:
                step(x + 1, y, height - 1, mask, flip_mask, fold_mask)
            if y < y_max and (y + 1 < x or y + 1 == x >= ps.stop):
                step(x, y + 1, height + 1, mask, flip_mask, fold_mask)

        step(x0, y0, m - 1, 0, 0, 0)
        walk.append(row)
    return walk, [[{entry[0]: entry for entry in cell} for cell in row] for row in walk]


# Live states a transfer sweep may hold: every window of m <= 16 fits (the
# peak is 924 at m = 12 and 12,870 at m = 16); past it the sweep stops.
STATE_BUDGET = 2**14


def transfer_counts(m: int, indices: range) -> tuple[int, int]:
    """(signed count of vertex-disjoint systems, N) over window(m, indices),
    from one sweep over the anti-diagonals s = x + y, the first source's to
    the first target's, in the box under that target; a path meets each in
    one vertex, and disjoint paths keep their order.  A state, the walkers'
    increasing x on s, maps to its (signed, doubly) counts.  A source enters
    at its vertex, the least x on its s, if free, so the walkers hold the
    sources in reverse order; on a target's s its vertex must be taken, and
    its walker leaves with sign (-1)^j, j the walkers before it plus the
    sources not yet in (later sources whose targets leave later:
    inversions).  A last source above the box reaches no target: a zero row.
    Flips are disjoint iff the folds (x, or s-x+m-1 below the shifted
    diagonal) differ on every s.  Walkers step last first: E to x+1, or N if
    y+1 <= x."""
    w = window(m, indices)
    ps, (x_max, y_max) = w.indices, w.targets[0]
    if ps[-1] > y_max:
        return 0, 0
    enter = {x + y: x for x, y in w.sources}
    leave = {x + y: x for x, y in w.targets}
    states, walkers, waiting, last = {(): (1, 1)}, 0, len(ps), x_max + y_max
    for s in range(sum(w.sources[0]), last + 1):
        if s in enter:
            p, walkers, waiting = enter[s], walkers + 1, waiting - 1
            states = {(p,) + xs: v for xs, v in states.items() if not xs or xs[0] > p}
        fold, target, kept = s + m - 1, leave.get(s), {}
        for xs, (signed, doubly) in states.items():
            if doubly and len({x if 2 * x <= fold else fold - x for x in xs}) < walkers:
                doubly = 0
            if target is not None:
                if target not in xs:
                    continue
                j = xs.index(target)
                xs, signed = xs[:j] + xs[j + 1 :], -signed if (j + waiting) % 2 else signed
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
                raise BudgetExceeded(f"budget exceeded: over {STATE_BUDGET} states")
    return states.get((), (0, 0))


# -- the sign-reversing involution ------------------------------------------

# Paths in a window's cells, counted before any walk, past which an
# involution check stops at once: every degree of m <= 8 fits (the most is
# 108,808 at (8, 6)).  The walk keeps only a fraction of them (see _table).
PATH_BUDGET = 2**17

# Systems an involution check may visit: every degree of m <= 7 fits (the most
# is 338,884 at (7, 4)); past it the check stops.
SYSTEM_BUDGET = 2**19

# A system as the involution check holds it: its entries in source order and
# its permutation.
System = tuple[tuple[Entry, ...], tuple[int, ...]]


@lru_cache(maxsize=None)  # at most h! permutations per degree
def perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1 :])
    return -1 if inversions % 2 else 1


def _graft(head: int, cut: int, tail: int, tail_cut: int, reflected: int) -> int:
    """head below its cut, then tail's piece from tail_cut (cut's mirror) to
    its next touch of the line as reflected (tail's flip or fold) holds it,
    then tail; the touch is the first bit past tail_cut that the two share."""
    shared = tail & reflected & -tail_cut
    touch = shared & -shared
    return head & (cut - 1) | reflected & (2 * touch - 1) & -cut | tail & -2 * touch


def _involution(w: Window) -> Callable[[tuple[Entry, ...], tuple[int, ...], int], System]:
    """The sign-reversing involution on the window's systems that are vertex
    disjoint but not doubly so, as a function of a system's entries in source
    order, its permutation and the vertices where two of its flips meet; it
    returns the image's (entries, permutation).

    It locates the northern-most-then-eastern-most crossing, the top bit of
    the crossings, swaps everything after it (surgery done on the pieces that
    the reflection exchanges, so each of the two new paths keeps its own side
    of the crossing), and transposes the two targets.  Bits rise along a
    path, its flip and its fold, so _graft builds each new path of bit ranges.
    """
    width, cells = 2 * w.m - 1, _table(w)[1]

    def phi(entries, perm, crossings):
        top = crossings.bit_length() - 1
        bit = 1 << top
        meeting = [k for k, entry in enumerate(entries) if entry[1] & bit]
        y, x = divmod(top, width)
        if len(meeting) != 2:
            raise ArithmeticError(f"more than two paths meet at {(x, y)}; system outside the domain")
        # a flip passes (x, y) where its path does, or where its path passes
        # the mirror point below the line; the paths are disjoint, so one of each
        up, lo = meeting if entries[meeting[0]][0] & bit else meeting[::-1]
        mask_up, _, fold_up = entries[up]
        mask_lo, flip_lo, _ = entries[lo]
        mirror = 1 << (x - w.m + 1) * width + y + w.m - 1
        # both new paths run from a source to a target: look them up in their cells
        new_lo = cells[lo][perm[up]].get(_graft(mask_lo, mirror, mask_up, bit, fold_up))
        new_up = cells[up][perm[lo]].get(_graft(mask_up, bit, mask_lo, mirror, flip_lo))
        if new_lo is None or new_up is None:
            raise ArithmeticError("surgery misses the swapped targets; system outside the domain")
        image, new = list(entries), list(perm)
        image[lo], image[up], new[lo], new[up] = new_lo, new_up, perm[up], perm[lo]
        return tuple(image), tuple(new)

    return phi


def check_involution(m: int, i: int) -> tuple[int, int, bool]:
    """Enumerate the vertex-disjoint systems of degree i and check the
    involution (_involution) on the set N of those not doubly vertex
    disjoint: (|N|, signed sum over N, ok), where ok says every image has the
    opposite sign and crossing flips, maps back, and is reached.

    The systems are built one source at a time, targets ascending and paths
    in lex order, from the _table lists, with no path or system object; the
    recursion carries the chosen paths' vertices, the union of their flips
    and the vertices where two of those meet.  A path joins only if it
    misses the chosen paths, so a collision prunes its subtree; the table
    holds no path through another source or target, so a later source or an
    unused target is never on one.  A system is doubly disjoint iff its
    flips' overlap is 0.  Each pair of N is checked once, from its first
    member; the image waits, keyed by its masks in target order, until the
    enumeration reaches it, as it does only if the image is in N under the
    permutation its paths' ends give (each mask holds its source's bit, so
    the key fixes the permutation).  A surgery that leaves the table
    raises ArithmeticError.  Past a failure, only counts.  The check stops
    before any walk past PATH_BUDGET cell paths, and past SYSTEM_BUDGET
    vertex-disjoint systems.
    """
    check_degree(m, i)
    w = window(m, basis_range(m, i))
    if sum(map(sum, _window(w))) > PATH_BUDGET:
        raise BudgetExceeded(f"budget exceeded: over {PATH_BUDGET} paths at ({m}, {i})")
    walk = _table(w)[0]
    phi, budget, h = _involution(w), SYSTEM_BUDGET, len(walk)
    size = signed = visited = 0
    ok = True
    pending: set[tuple[int, ...]] = set()
    chosen: list[Entry] = []
    used: list[int] = []

    def extend(k: int, occupied: int, flips: int, overlap: int) -> None:
        nonlocal size, signed, visited, ok
        for q in range(h):
            if q in used:
                continue
            fits = [entry for entry in walk[k][q] if not entry[0] & occupied]
            if k + 1 < h:
                used.append(q)
                for entry in fits:
                    chosen.append(entry)
                    extend(k + 1, occupied | entry[0], flips | entry[1], overlap | flips & entry[1])
                    chosen.pop()
                used.pop()
                continue
            if not fits:
                continue
            visited += len(fits)
            if visited > budget:
                raise BudgetExceeded(f"budget exceeded: over {budget} systems at ({m}, {i})")
            perm, slots = (*used, q), [0] * h
            for target, e in zip(used, chosen):
                slots[target] = e[0]
            sign = perm_sign(perm)
            for entry in fits:
                crossings = overlap | flips & entry[1]
                if not crossings:  # doubly disjoint
                    continue
                size += 1
                signed += sign
                slots[q] = entry[0]
                key = tuple(slots)
                if key in pending:
                    pending.remove(key)
                elif ok:
                    system = (*chosen, entry)
                    image, image_perm = phi(system, perm, crossings)
                    # the image's crossings, which its own surgery reads
                    seen = crossed = 0
                    image_slots = [0] * h
                    for target, (mask, flip_mask, _) in zip(image_perm, image):
                        crossed |= seen & flip_mask
                        seen |= flip_mask
                        image_slots[target] = mask
                    ok = (
                        perm_sign(image_perm) == -sign
                        and crossed != 0
                        and phi(image, image_perm, crossed) == (system, perm)
                    )
                    pending.add(tuple(image_slots))

    extend(0, 0, 0, 0)
    return size, signed, ok and not pending
