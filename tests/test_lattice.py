"""Path counting, enumeration, flips, disjoint systems, and the involution."""

import re
import time
from itertools import combinations, permutations
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    LatticePath,
    PathSystem,
    _flip,
    _northern_most,
    _shared,
    all_systems,
    collision_pruned_systems,
    degree_window,
    enumerate_paths,
    entry_of,
    enumerate_systems,
    flip_by_segments,
    folded_vertices,
    flipped_paths,
    involution_both_sides,
    involution_phi,
    involution_seam,
    is_doubly_vertex_disjoint,
    is_upper,
    is_vertex_disjoint,
    primitive_segments,
    reflect,
    row_major_mask,
    shifted_offset,
    table_lacking_an_image_path,
    vertices,
)

from lefpath import lattice

from lefpath.exact import ExactMatrix
from lefpath.hilbert import basis_range, dual_numerator, flo, hilbert_m2_closed
from lefpath.lattice import (
    check_involution,
    path_matrix,
    transfer_counts,
    window,
)
from lefpath.lefschetz import path_routes


def all_instances(max_m):
    for m in range(2, max_m + 1):
        for i in range(flo(3 * (m - 1)) + 1):
            yield m, i


def window_sweep(m, i):
    """The transfer sweep over degree i's window."""
    return transfer_counts(m, basis_range(m, i))


def route(m, i, sweep=True):
    """The path-route record at (m, i)."""
    (record,) = path_routes(m, [i], sweep)
    return record


def all_paths(max_m):
    """(m, path) for every path of every window of m <= max_m."""
    for m, i in all_instances(max_m):
        w = degree_window(m, i)
        for s in w.sources:
            for t in w.targets:
                for p in enumerate_paths(s, t):
                    yield m, p


def vertex_disjoint(paths):
    """Set-based disjointness, independent of the path masks."""
    return len({v for p in paths for v in vertices(p)}) == sum(len(vertices(p)) for p in paths)


# -- paths and counting ---------------------------------------------------------


def test_path_validation():
    p = LatticePath((0, 0), "EEN")
    assert p.end == (2, 1)
    assert vertices(p) == ((0, 0), (1, 0), (2, 0), (2, 1))
    p = LatticePath((2, 1), "ENNE")  # off the diagonal
    assert (p.end, vertices(p)) == ((4, 3), ((2, 1), (3, 1), (3, 2), (3, 3), (4, 3)))
    assert vertices(LatticePath((3, 3), "")) == ((3, 3),)
    with pytest.raises(ValueError):
        LatticePath((0, 0), "N")
    with pytest.raises(ValueError):
        LatticePath((0, 1), "")
    with pytest.raises(ValueError):
        LatticePath((3, -1), "")  # below the x-axis: no vertex bit
    with pytest.raises(ValueError):
        LatticePath((0, 0), "X")


def test_mask_has_one_bit_per_vertex():
    for _, p in all_paths(5):
        assert bin(p.mask).count("1") == len(vertices(p))
        bits = 0
        for x, y in vertices(p):
            bits |= 1 << (x * (x + 1) // 2 + y)
        assert p.mask == bits


def test_target_path_counts_match_the_closed_form():
    # the one-walker row DP against the ballot numbers m C(3m-2-2s, m-1-s) /
    # (3m-2-2s) = dual_numerator(m, m-1-s), to every target
    assert lattice.target_path_counts(1) == [1]
    assert lattice.target_path_counts(5) == [275, 75, 20, 5, 1]
    for m in range(1, 31):
        expected = [dual_numerator(m, m - 1 - s) for s in range(m)]
        assert lattice.target_path_counts(m) == expected, m


def test_enumerate_examples():
    assert [p.steps for p in enumerate_paths((0, 0), (2, 1))] == ["EEN", "ENE"]
    assert [p.steps for p in enumerate_paths((0, 0), (0, 0))] == [""]
    assert len(enumerate_paths((1, 1), (7, 3))) == 20
    assert enumerate_paths((3, 3), (5, 1)) == enumerate_paths((3, 3), (1, 1)) == []
    with pytest.raises(ValueError):
        enumerate_paths((1, 0), (3, 2))  # source off the diagonal
    with pytest.raises(ValueError):
        enumerate_paths((0, 0), (1, 2))  # target above it


def test_enumeration_matches_count_everywhere():
    # every path matrix entry, the zero ones past s = p + q = m-1 included
    for m, i in all_instances(5):
        w = degree_window(m, i)
        counts = [[len(enumerate_paths(s, t)) for t in w.targets] for s in w.sources]
        assert path_matrix(m, i).rows == tuple(map(tuple, counts)), (m, i)


def test_enumeration_is_sorted_and_unique():
    paths = [p.steps for p in enumerate_paths((0, 0), (6, 3))]
    assert paths == sorted(paths)
    assert len(set(paths)) == len(paths)


# -- windows and path matrix ----------------------------------------------------


def test_window_examples():
    w = window(5, basis_range(5, 3))
    assert w == (5, range(0, 2), ((0, 0), (1, 1)), ((8, 4), (7, 3)))
    w = window(5, basis_range(5, 4))
    assert w.sources == ((0, 0), (1, 1), (2, 2))
    assert w.targets == ((8, 4), (7, 3), (6, 2))
    w = window(5, basis_range(5, 6))
    assert w.sources == ((1, 1), (2, 2), (3, 3))
    assert w.targets == ((7, 3), (6, 2), (5, 1))


def test_window_sizes_and_lines():
    for m, i in all_instances(8):
        w = window(m, basis_range(m, i))
        assert len(w.sources) == len(w.targets) == hilbert_m2_closed(m, i)
        assert all(x == y for x, y in w.sources)
        assert all(y == x - (m - 1) for x, y in w.targets)


def test_window_vertices_give_what_each_reader_derived_from_the_range():
    # the box, the least target x, the anti-diagonals and the zero-row test
    # the readers take off the vertices equal the expressions of (m, range)
    # they wrote before, on every contiguous range of m <= 12
    for m in range(1, 13):
        for lo in range(m):
            for hi in range(lo + 1, m + 1):
                ps = range(lo, hi)
                w = window(m, ps)
                assert (w.m, w.indices) == (m, ps)
                assert w.sources == tuple((p, p) for p in ps)
                assert w.targets == tuple((2 * m - 2 - q, m - 1 - q) for q in ps)
                assert w.targets[0] == (2 * m - 2 - lo, m - 1 - lo)
                assert w.targets[-1][0] == 2 * m - 2 - lo - len(ps) + 1
                assert [x + y for x, y in w.sources] == [2 * p for p in ps]
                assert [x + y for x, y in w.targets] == [3 * m - 3 - 2 * q for q in ps]
                assert (ps[-1] > w.targets[0][1]) == (ps[-1] + lo > m - 1)


def test_window_range_error():
    for ps in [range(3, 3), range(0, 4, 2), range(-1, 2), range(3, 6)]:
        text = f"need a nonempty contiguous index range in 0..4, got {ps}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            window(5, ps)
    # the degree-i readers check the degree before they build its window
    for reader in (path_matrix, check_involution, degree_window):
        with pytest.raises(ValueError, match="^degree 7 outside \\[0, 6\\] for m=5$"):
            reader(5, 7)


def test_path_matrix_examples():
    assert path_matrix(5, 3).rows == ((275, 75), (75, 20))
    assert path_matrix(5, 6).rows == ((20, 5, 1), (5, 1, 0), (1, 0, 0))
    assert path_matrix(4, 2).rows == ((48, 14), (14, 4))


# -- primitive segments and flips -----------------------------------------------


def test_primitive_segments_horizontal():
    # first shifted-diagonal touch is the endpoint itself
    path = LatticePath((1, 1), "EEEE")
    decomposition = primitive_segments(path, 5)
    assert decomposition.initial == path
    assert decomposition.segments == ()


def test_primitive_segments_strictly_above():
    # strictly above the shifted diagonal until the endpoint: initial only
    path = LatticePath((0, 0), "EE")
    decomposition = primitive_segments(path, 3)
    assert decomposition.initial == path and decomposition.segments == ()


def test_primitive_segments_needs_endpoint_on_line():
    with pytest.raises(ValueError):
        primitive_segments(LatticePath((0, 0), "ENENEENN"), 5)


def test_primitive_segments_with_lower_piece():
    path = LatticePath((0, 0), "EEEE" + "EEEENNNN")
    decomposition = primitive_segments(path, 5)
    assert decomposition.initial == LatticePath((0, 0), "EEEE")
    assert len(decomposition.segments) == 1
    piece, side = decomposition.segments[0]
    assert side == "lower"
    assert piece.start == (4, 0) and piece.end == (8, 4)


def test_flip_fixes_upper_paths():
    upper = LatticePath((0, 0), "ENENE")  # bounces along y = x - 1
    assert is_upper(upper, 2)
    assert _flip(upper) == upper


def test_flip_reflects_lower_segment():
    path = LatticePath((0, 0), "EEEEEEEENNNN")
    flipped = _flip(path)
    assert flipped == LatticePath((0, 0), "EEEENNNNEEEE")
    assert flipped.start == path.start and flipped.end == path.end
    assert is_upper(flipped, 5)


def test_flip_is_idempotent_and_fixes_exactly_uppers():
    for m, p in all_paths(4):
        once = _flip(p)
        assert is_upper(once, m)
        assert _flip(once) == once
        assert (once == p) == is_upper(p, m)
        assert once.start == p.start and once.end == p.end


def test_reflection_is_an_involution():
    for point in [(3, 0), (5, 2), (8, 4), (1, 1)]:
        assert reflect(reflect(point, 5), 5) == point


def test_double_reflection_restores_lower_segments():
    # un-reflecting the reflected pieces recovers the original path
    path = LatticePath((0, 0), "EEEEEEEENNNN")
    decomposition = primitive_segments(path, 5)
    flipped = _flip(path)
    redecomposed = primitive_segments(flipped, 5)
    assert redecomposed.initial == decomposition.initial
    for (orig, side), (new, _) in zip(
        decomposition.segments, redecomposed.segments
    ):
        if side == "lower":
            assert new.steps == orig.steps.translate(str.maketrans("NE", "EN"))


# -- systems ---------------------------------------------------------------------


def test_doubly_counts_match_worked_example():
    assert window_sweep(5, 3)[1] == 125
    assert window_sweep(5, 4)[1] == 0
    assert window_sweep(5, 6)[1] == 1


def test_unique_doubly_system_at_5_6():
    (system,) = [s for s in enumerate_systems(5, 6) if is_doubly_vertex_disjoint(s)]
    # three horizontal paths at y = 1, 2, 3, pairing sources to reversed targets
    assert [p.start for p in system.paths] == [(1, 1), (2, 2), (3, 3)]
    assert [p.steps for p in system.paths] == ["EEEE", "EEEE", "EEEE"]
    assert system.permutation == (2, 1, 0)
    assert system.sign == -1


def test_lgv_examples():
    assert window_sweep(5, 3)[0] == -125
    assert window_sweep(5, 4)[0] == 0
    assert window_sweep(2, 0)[0] == 2


def test_lgv_matches_determinant_exhaustively():
    for m, i in all_instances(5):
        det = path_matrix(m, i).det()
        assert window_sweep(m, i)[0] == det


def test_doubly_systems_reverse_order():
    for m, i in all_instances(5):
        h = hilbert_m2_closed(m, i)
        reversal = tuple(reversed(range(h)))
        expected_sign = -1 if flo(h) % 2 else 1
        for system in enumerate_systems(m, i):
            if not is_doubly_vertex_disjoint(system):
                continue
            assert system.permutation == reversal
            assert system.sign == expected_sign


def test_dvd_theorem_exhaustively():
    for m, i in all_instances(5):
        verdict = route(m, i)
        assert verdict.count_matches_det and verdict.ok
        assert verdict.signed_sum == verdict.det
        assert verdict.det == verdict.predicted_sign * verdict.n_doubly or (
            verdict.det == 0 and verdict.n_doubly == 0
        )


def test_dvd_verdict_fields():
    v = route(5, 3)
    assert (v.det, v.predicted_sign, v.signed_sum, v.n_doubly) == (-125, -1, -125, 125)
    assert v.count_matches_det and v.nonvanishing_rule_agrees and v.ok
    v = route(5, 4)
    assert (v.det, v.signed_sum, v.n_doubly) == (0, 0, 0)
    assert v.nonvanishing_rule_agrees and v.ok
    v = route(5, 6)
    assert (v.det, v.n_doubly, v.count_matches_det, v.ok) == (-1, 1, True, True)
    assert not v.nonvanishing_rule_agrees  # det != 0 yet 2*h = 6 > 5
    assert not v.in_rule_range
    # the rule's range starts at m = 2: at (1, 0), det = 1 yet 2*h = 2 > 1
    v = route(1, 0)
    assert not v.nonvanishing_rule_agrees and not v.in_rule_range
    assert route(2, 1).in_rule_range


def test_route_without_its_sweep_reads_the_det_only():
    v = route(5, 3, sweep=False)
    assert v.n_doubly is None and v.count_matches_det is None
    assert v.signed_sum is None and v.ok is None
    assert v.det == -125
    assert v == route(5, 3)._replace(signed_sum=None, n_doubly=None, count_matches_det=None, ok=None)


def test_routes_share_one_record_per_basis_range(monkeypatch):
    # degrees on one basis range read one window and one sweep; each record
    # is still its own degree's
    swept = []
    real = lattice.transfer_counts
    monkeypatch.setattr(lattice, "transfer_counts", lambda m, ps: swept.append(ps) or real(m, ps))
    for m in range(1, 9):
        degrees = range(flo(3 * (m - 1)) + 1)
        swept.clear()
        routes = path_routes(m, degrees)
        assert [r.i for r in routes] == list(degrees)
        assert swept == list(dict.fromkeys(basis_range(m, i) for i in degrees))
        assert routes == [route(m, i) for i in degrees]
        assert all(r.ok for r in routes)


def test_pruned_enumeration_equals_filtered_brute_force():
    # set-based disjointness on every unpruned system, same systems, same
    # order; the mask predicates agree with it, and the transfer sweep gives
    # the oracle's signed sum and doubly count
    for m, i in all_instances(5):
        everything = list(all_systems(m, i))
        disjoint = [s for s in everything if vertex_disjoint(s.paths)]
        doubly = [s for s in disjoint if vertex_disjoint(flipped_paths(s))]
        assert [is_vertex_disjoint(s) for s in everything] == [
            vertex_disjoint(s.paths) for s in everything
        ]
        assert list(enumerate_systems(m, i)) == disjoint
        assert [s for s in enumerate_systems(m, i) if is_doubly_vertex_disjoint(s)] == doubly
        assert window_sweep(m, i) == (sum(s.sign for s in disjoint), len(doubly))


def test_transfer_counts_equal_the_enumeration_oracle_at_m6():
    # past m = 5 the unpruned enumeration is too large; the pruned one,
    # checked system by system with set-based disjointness, is the oracle
    for i in range(flo(3 * 5) + 1):
        disjoint = list(enumerate_systems(6, i))
        assert all(vertex_disjoint(s.paths) for s in disjoint)
        doubly = [s for s in disjoint if vertex_disjoint(flipped_paths(s))]
        assert window_sweep(6, i) == (sum(s.sign for s in disjoint), len(doubly))


def test_transfer_counts_equal_determinant_and_sign_law_to_m12():
    # every window of m <= 12: the signed sum is det, and (-1)^flo(h_i) N = det
    for m, i in all_instances(12):
        det = path_matrix(m, i).det()
        signed, n_doubly = window_sweep(m, i)
        assert signed == det, (m, i)
        assert (-1) ** flo(hilbert_m2_closed(m, i)) * n_doubly == det, (m, i)


def test_transfer_counts_examples():
    assert window_sweep(1, 0) == (1, 1)  # one source on its own target
    assert window_sweep(5, 3) == (-125, 125)
    assert window_sweep(6, 6) == (-2, 2)
    assert window_sweep(7, 0) == (9996, 9996)
    assert window_sweep(7, 2) == (-124852, 124852)
    assert window_sweep(7, 6) == (0, 0)


# (m, [signed per degree]) for every degree of m <= 10, N = |signed|
_SWEPT = {
    1: [1],
    2: [2, 2],
    3: [9, 9, 0, 1],
    4: [48, 48, -4, -4, -1],
    5: [275, 275, -125, -125, 0, -5, -1],
    6: [1638, 1638, -3861, -3861, -8, -8, -2, -2],
    7: [9996, 9996, -124852, -124852, -2401, -2401, 0, -49, 0, -1],
    8: [62016, 62016, -4217088, -4217088, -491776, -491776, 16, 16, 4, 4, 1],
    9: [389367, 389367, -147637809, -147637809, -95128668, -95128668, 59049, 59049, 0, 729, 0,
        9, 1],
    10: [2466750, 2466750, -5320748125, -5320748125, -18563432250, -18563432250, 91864525,
         91864525, 32, 32, 8, 8, 2, 2],
}


def test_transfer_counts_pin_every_degree_to_m10():
    for m, signed in _SWEPT.items():
        assert [window_sweep(m, i) for i in range(flo(3 * (m - 1)) + 1)] == [
            (s, abs(s)) for s in signed
        ], m


def test_transfer_counts_signed_sum_is_det_on_every_contiguous_range():
    # any range of sources and targets in 0..m-1, not only a basis range:
    # sources that enter after a target leaves, and a last source that
    # reaches no target (a zero row)
    for m in range(1, 9):
        b = lattice.target_path_counts(m) + [0] * m
        for start in range(m):
            for stop in range(start + 1, m + 1):
                ps = range(start, stop)
                det = ExactMatrix([[b[p + q] for q in ps] for p in ps]).det()
                assert transfer_counts(m, ps)[0] == det, (m, ps)


def test_transfer_counts_reject_a_range_outside_the_window():
    for ps in [range(0), range(3, 3), range(3, 6), range(-1, 2), range(0, 4, 2)]:
        with pytest.raises(ValueError):
            transfer_counts(5, ps)
    assert transfer_counts(5, range(4, 5)) == (0, 0)  # (4, 4) reaches no target


def test_transfer_sweep_stops_at_its_state_budget(monkeypatch):
    # m <= 16 fits the budget; a larger window fails fast instead of growing
    started = time.perf_counter()
    with pytest.raises(lattice.BudgetExceeded, match="budget exceeded"):
        window_sweep(30, 20)
    assert time.perf_counter() - started < 10
    monkeypatch.setattr(lattice, "STATE_BUDGET", 34)  # m = 7 peaks at 35
    with pytest.raises(lattice.BudgetExceeded):
        window_sweep(7, 6)
    assert window_sweep(6, 4) == (-8, 8)  # peaks at 20


def test_check_involution_counts_n_and_cancels():
    for m, i in all_instances(5):
        systems = list(enumerate_systems(m, i))
        n_set = [s for s in systems if not is_doubly_vertex_disjoint(s)]
        assert check_involution(m, i) == (len(n_set), 0, True)


def test_check_involution_equals_the_both_sides_oracle():
    # each pair checked once, from its first member, gives what checking it
    # from both members gives, at every degree of m <= 6 and at (7, 8),
    # whose N has 22 systems
    for m, i in [*all_instances(6), (7, 8)]:
        assert check_involution(m, i) == involution_both_sides(m, i), (m, i)
    assert check_involution(7, 8) == (22, 0, True)


def test_check_surgery_gives_the_oracle_images():
    # the check's bit-range surgery and the oracle's step-string surgery are
    # two derivations of one map: on every system of N, at every degree of
    # m <= 6, they give the same image paths and permutation
    for m, i in all_instances(6):
        phi = lattice._involution(degree_window(m, i))
        for system in enumerate_systems(m, i):
            if is_doubly_vertex_disjoint(system):
                continue
            entries = tuple(entry_of(p, m) for p in system.paths)
            image = involution_phi(system)
            assert phi(entries, system.permutation, _shared(e[1] for e in entries)) == (
                tuple(entry_of(p, m) for p in image.paths),
                image.permutation,
            ), (m, i, system)


def test_path_table_holds_the_oracle_paths_and_flips():
    # every cell of every degree of m <= 6: the entries are the oracle's
    # paths that miss the window's other sources and targets, in lex order,
    # each with its row-major vertex set, its flip's, and its fold's (its
    # upper vertices reflected, none below row 0), keyed by mask
    for m, i in all_instances(6):
        width, w = 2 * m - 1, degree_window(m, i)
        ends = set(w.sources) | set(w.targets)
        walk, lookup = lattice._table(w)

        def decode(mask):
            return {(b % width, b // width) for b in range(mask.bit_length()) if mask >> b & 1}

        for k, s in enumerate(w.sources):
            for q, t in enumerate(w.targets):
                oracle = [
                    p for p in enumerate_paths(s, t) if not set(vertices(p)) & (ends - {s, t})
                ]
                assert [tuple(map(decode, entry)) for entry in walk[k][q]] == [
                    (set(vertices(p)), set(vertices(_flip(p))), set(folded_vertices(p, m)))
                    for p in oracle
                ], (m, i, k, q)
                assert lookup[k][q] == {entry[0]: entry for entry in walk[k][q]}


def test_involution_check_stops_at_its_path_budget(monkeypatch):
    # the table's size is known before any walk: windows past the budget
    # stop at once, however many paths their cells hold
    for m, i in [(20, 20), (9, 6)]:
        started = time.perf_counter()
        with pytest.raises(
            lattice.BudgetExceeded, match=f"over {lattice.PATH_BUDGET} paths at \\({m}, {i}\\)"
        ):
            check_involution(m, i)
        assert time.perf_counter() - started < 1
    # (4, 2)'s cells hold 48 + 14 + 14 + 4 = 80 paths
    monkeypatch.setattr(lattice, "PATH_BUDGET", 79)
    with pytest.raises(lattice.BudgetExceeded, match="over 79 paths at \\(4, 2\\)"):
        check_involution(4, 2)
    monkeypatch.setattr(lattice, "PATH_BUDGET", 80)
    assert check_involution(4, 2) == involution_both_sides(4, 2)


def test_path_budget_figures():
    # the path counts that the involution check sums before any walk: every
    # degree of m <= 8 fits the budget, the most at (8, 6), and (9, 6) does not
    def cell_paths(m, i):
        return sum(map(sum, path_matrix(m, i).rows))

    most = max(all_instances(8), key=lambda mi: cell_paths(*mi))
    assert (most, cell_paths(*most)) == ((8, 6), 108_808)
    assert cell_paths(8, 6) <= lattice.PATH_BUDGET < cell_paths(9, 6) == 677_409


def test_dead_vertex_pruning_keeps_the_systems_and_their_order():
    for i in range(flo(3 * 5) + 1):
        assert list(enumerate_systems(6, i)) == list(collision_pruned_systems(6, i)), i


def test_involution_check_stops_at_its_system_budget(monkeypatch):
    # (4, 2) visits 24 vertex-disjoint systems
    monkeypatch.setattr(lattice, "SYSTEM_BUDGET", 23)
    with pytest.raises(lattice.BudgetExceeded, match="over 23 systems at \\(4, 2\\)"):
        check_involution(4, 2)
    monkeypatch.setattr(lattice, "SYSTEM_BUDGET", 24)
    assert check_involution(4, 2) == involution_both_sides(4, 2)


def test_check_involution_needs_every_image_reached(monkeypatch):
    # an enumeration that never reaches the image of the first system of N
    # leaves that image pending, and the check fails: the table the
    # enumeration walks lacks a path of the image that the first system does
    # not use, while the surgery still finds it in the lookup
    systems = list(enumerate_systems(4, 2))
    first = next(s for s in systems if not is_doubly_vertex_disjoint(s))
    image = involution_phi(first)
    k = next(k for k, (a, b) in enumerate(zip(first.paths, image.paths)) if a != b)
    walk, lookup = lattice._table(degree_window(4, 2))
    walk = [list(map(list, row)) for row in walk]
    cell = walk[k][image.permutation[k]]
    cell.remove(lookup[k][image.permutation[k]][row_major_mask(vertices(image.paths[k]), 4)])
    monkeypatch.setattr(lattice, "_table", lambda w: (walk, lookup))
    assert check_involution(4, 2)[2] is False


def test_check_involution_raises_on_a_surgery_that_leaves_the_table(monkeypatch):
    # the lookup lacks a path of the first system's image that the walk
    # keeps: the surgery finds no entry for it, a failed identity
    table = table_lacking_an_image_path(4, 2)
    monkeypatch.setattr(lattice, "_table", lambda w: table)
    with pytest.raises(
        ArithmeticError, match="^surgery misses the swapped targets; system outside the domain$"
    ):
        check_involution(4, 2)


def test_the_seam_runs_the_true_involution_as_the_check_does(monkeypatch):
    # control for the fakes run through involution_seam: the oracle's true
    # involution, given table entries by entry_of and its claimed
    # permutation in the pending key, passes at every degree of m <= 5
    monkeypatch.setattr(lattice, "_involution", involution_seam(involution_phi))
    for m, i in all_instances(5):
        result = check_involution(m, i)
        assert result == involution_both_sides(m, i) and result[2] is True, (m, i)


def test_check_involution_needs_the_permutation_the_ends_give(monkeypatch):
    # images under a 3-cycle of the true permutation keep the sign and map
    # back: the permutation rides in the pending key, and the enumeration
    # reaches the image's paths only under the permutation their ends give,
    # so the claimed one stays pending
    phi = involution_phi
    targets = degree_window(5, 4).targets

    def fake(system):
        true = system._replace(
            permutation=tuple(targets.index(p.end) for p in system.paths)
        )
        if system != true:
            return phi(true)
        image = phi(system)
        perm = image.permutation
        return image._replace(permutation=perm[1:] + perm[:1])

    monkeypatch.setattr(lattice, "_involution", involution_seam(fake))
    assert check_involution(5, 4)[2] is False


def test_surgery_returns_the_enumerated_paths():
    # the involution's new paths are the cell paths the enumeration walks
    cell_paths = {id(p) for s in enumerate_systems(5, 4) for p in s.paths}
    for system in enumerate_systems(5, 4):
        if not is_doubly_vertex_disjoint(system):
            assert {id(p) for p in involution_phi(system).paths} <= cell_paths


def test_flipped_vertices_are_those_of_the_flip():
    # the flip is the paper's segment surgery, and it reflects exactly the
    # vertices strictly below the shifted diagonal
    for m, p in all_paths(5):
        flipped = _flip(p)
        assert flipped == flip_by_segments(p, m)
        assert vertices(flipped) == tuple(
            reflect(v, m) if shifted_offset(v, m) < 0 else v for v in vertices(p)
        )


def test_walk_built_paths_and_flips_match_the_checked_constructor():
    # enumerate_paths and _flip build their paths in their own walks; every
    # cell path of m <= 6, and its flip, carries what the checked walk of
    # LatticePath(start, steps) gives, and the path its touches of the line
    for m in range(1, 7):
        cells = set()
        for i in range(flo(3 * (m - 1)) + 1):
            w = degree_window(m, i)
            cells.update((s, t) for s in w.sources for t in w.targets)
        for s, t in cells:
            for p in enumerate_paths(s, t):
                for built in (p, _flip(p)):
                    checked = LatticePath(built.start, built.steps)
                    assert built == checked and built.end == t
                    assert (built.mask, built.end, hash(built)) == (
                        checked.mask, checked.end, hash(checked)
                    )
                assert p._touches == tuple(
                    k for k, v in enumerate(vertices(p)) if shifted_offset(v, m) == 0
                )


def test_enumerate_systems_all_filter():
    # raw count is the permanent-style sum of products of path counts
    total = sum(1 for _ in all_systems(3, 2))
    w = path_matrix(3, 2).rows
    assert total == w[0][0] * w[1][1] + w[0][1] * w[1][0]


# -- the involution ---------------------------------------------------------------


@pytest.mark.parametrize("m,i", [(4, 2), (5, 4)])
def test_involution_on_all_of_n(m, i):
    systems = list(enumerate_systems(m, i))
    n_set = {s for s in systems if not is_doubly_vertex_disjoint(s)}
    assert sum(s.sign for s in n_set) == 0
    for system in n_set:
        image = involution_phi(system)
        assert image in n_set
        assert image.sign == -system.sign
        assert involution_phi(image) == system


def test_involution_rejects_doubly_disjoint():
    (system,) = [s for s in enumerate_systems(5, 6) if is_doubly_vertex_disjoint(s)]
    with pytest.raises(ValueError):
        involution_phi(system)


def test_involution_rejects_non_disjoint():
    crossing = next(
        s for s in all_systems(5, 4) if not is_vertex_disjoint(s)
    )
    with pytest.raises(ValueError):
        involution_phi(crossing)


def test_involution_rejects_a_wrong_permutation():
    # the surgery's ends miss the targets of the swapped permutation; the
    # rejection is an error, not an assert that python -O would drop
    system = next(
        s
        for s in enumerate_systems(4, 2)
        if not is_doubly_vertex_disjoint(s)
    )
    reversed_system = system._replace(permutation=system.permutation[::-1])
    with pytest.raises(ValueError, match="outside the domain"):
        involution_phi(reversed_system)


def test_involution_cuts_at_the_northern_most_crossing():
    # the flips meet at (6, 1)..(6, 5) and (7, 2): the cut is at (6, 5), the
    # northern-most crossing, not at (7, 2), the eastern-most
    starts = [(0, 0), (1, 1), (2, 2), (3, 3)]
    steps = ["EEEEEEEEEEEENNNNNN", "EEEEEEEEENNN", "EEEEEEEN", "EEENNEEEEE"]
    perm = (0, 2, 3, 1)
    system = PathSystem(7, 6, tuple(map(LatticePath, starts, steps)), perm)
    flips = [vertices(p) for p in flipped_paths(system)]
    crossings = {v for a in range(4) for b in range(a) for v in set(flips[a]) & set(flips[b])}
    assert crossings == {(6, 1), (6, 2), (6, 3), (6, 4), (6, 5), (7, 2)}
    image = involution_phi(system)
    assert [p.steps for p in image.paths] == [
        "EEEEEEEEEEENNNNN",
        "EEEEEEEEENNN",
        "EEEEEEEN",
        "EEENNNEEEEEE",
    ]
    assert (image.permutation, image.sign) == ((1, 2, 3, 0), -1)


# -- the involution's bitwise helpers, against the formulas they replace -----------


@settings(max_examples=300)
@given(st.lists(st.integers(0, 255), max_size=6))
def test_shared_is_the_or_of_the_pairwise_ands(masks):
    pairwise = 0
    for a, b in combinations(masks, 2):
        pairwise |= a & b
    assert _shared(masks) == _shared(iter(masks)) == pairwise


_vertices = st.integers(0, 16).flatmap(lambda x: st.tuples(st.just(x), st.integers(0, x)))


@settings(max_examples=300)
@given(st.sets(_vertices, min_size=1, max_size=40))
def test_northern_most_vertex_is_the_max_over_the_bits(vertices):
    mask = sum(1 << (x * (x + 1) // 2 + y) for x, y in vertices)
    bits = [b for b, c in enumerate(bin(mask)[:1:-1]) if c == "1"]
    y, x = max((b - x * (x + 1) // 2, x) for b in bits for x in [(isqrt(8 * b + 1) - 1) // 2])
    assert _northern_most(mask) == (x, y) == max(vertices, key=lambda v: (v[1], v[0]))


def test_memoised_perm_sign_is_the_inversion_parity():
    for n in range(6):
        for perm in permutations(range(n)):
            inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
            expected = -1 if inversions % 2 else 1
            assert lattice.perm_sign(perm) == lattice.perm_sign(perm) == expected
