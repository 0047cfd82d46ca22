"""Per-degree verdicts, full reports, claim flags, signature checks, and
the number wall: its Hankel minors are checked against Bareiss elimination,
and the leading-minor law that lets it settle every window of A(m, 2) on
every basis start."""

import pytest
from conftest import det_cofactor
from hypothesis import find, given, settings
from hypothesis import strategies as st

from lefpath import lefschetz
from lefpath.exact import ExactMatrix
from lefpath.hilbert import basis_range, dual_numerator, flo
from lefpath.lefschetz import (
    complex_hrr_expected_sign,
    degree_verdict,
    hankel_moments,
    hankel_wall,
    hrr_expected_sign,
    property_report,
    signature_crosscheck,
)


def test_expected_sign_laws():
    assert [complex_hrr_expected_sign(i) for i in range(8)] == [
        1, 1, -1, -1, -1, -1, 1, 1,
    ]
    assert [hrr_expected_sign(i) for i in range(6)] == [1, -1, -1, 1, 1, -1]


def test_degree_verdict_m5_i3():
    v = degree_verdict(5, 3)
    assert v.det == -125 and v.det_sign == -1 and v.sl_pass
    assert v.chrr_expected_sign == -1 and v.chrr_pass
    assert v.h == 2 and v.primitive_dim == 0


def test_degree_verdict_m5_i4():
    v = degree_verdict(5, 4)
    assert v.det_sign == 0 and not v.sl_pass
    assert v.rank == 2 and v.window_min == 2 and v.hlp_pass
    assert v.primitive_dim == 1


def test_degree_verdict_m4_i2():
    v = degree_verdict(4, 2)
    assert v.det_sign == -1
    assert v.chrr_expected_sign == -1 and v.chrr_pass


def test_degree_verdict_range_error():
    with pytest.raises(ValueError):
        degree_verdict(5, 7)


@pytest.mark.parametrize("m", range(2, 21))
def test_report_verdicts_equal_single_degree_verdicts(m):
    # degree_verdict reads the memoised report, the one reader of the kernel,
    # and rejects a degree outside [0, flo(d)] rather than index the report
    report = property_report(m)
    top = flo(report.socle_degree)
    assert all(degree_verdict(m, i) is report.verdicts[i] for i in range(top + 1))
    for i in (-1, top + 1):
        with pytest.raises(ValueError):
            degree_verdict(m, i)


@pytest.mark.parametrize("m", [26, 27])
def test_a_degree_sweep_builds_one_report(monkeypatch, m):
    # every degree's crosscheck and verdict read one report, and the report
    # runs one number wall over its one sequence, where a report per degree
    # ran one kernel pass per degree and basis start
    real, walls = lefschetz.hankel_wall, []

    def counted(seq, starts, depth):
        walls.append(seq)
        return real(seq, starts, depth)

    monkeypatch.setattr(lefschetz, "hankel_wall", counted)
    for i in range(flo(3 * (m - 1)) + 1):
        signature_crosscheck(m, i)
        degree_verdict(m, i)
    assert lefschetz._property_report.cache_info().misses == 1
    assert walls == [hankel_moments(m)]


def test_report_m4():
    report = property_report(4)
    assert report.socle_degree == 9
    assert report.max_sl_degree == 4 == flo(9)
    assert report.hlp
    assert report.max_chrr_degree == 4
    assert all(flag.agrees for flag in report.claim_flags)


def test_report_m5():
    report = property_report(5)
    assert not report.verdicts[4].sl_pass
    assert all(report.verdicts[i].sl_pass for i in range(4))
    assert report.max_sl_degree == 3 == 5 - 2
    assert report.hlp
    disagreements = [f for f in report.claim_flags if not f.agrees]
    assert len(disagreements) == 1
    assert "m-1" in disagreements[0].claim


def test_report_m1():
    # A(1, 2) is the field: one moment, one 1 x 1 window, det = rank = 1
    assert hankel_moments(1) == (1,)
    report = property_report(1)
    assert report.socle_degree == 0
    (v,) = report.verdicts
    assert (v.i, v.h, v.det, v.det_sign, v.rank, v.signature) == (0, 1, 1, 1, 1, 1)
    assert report.max_sl_degree == 0 and report.hlp
    with pytest.raises(ValueError):
        property_report(0)
    with pytest.raises(ValueError):
        hankel_moments(0)


def test_report_m2():
    report = property_report(2)
    assert report.socle_degree == 3
    assert report.max_sl_degree == 1 == flo(3)
    assert report.max_chrr_degree == 1


@pytest.mark.parametrize("m", range(2, 21, 2))
def test_even_m_strong_lefschetz_and_determinant_signs(m):
    """Even m: every determinant is nonzero with sign (-1)^flo(h_i), the sign
    of the doubly-disjoint count.  The rotating law (-1)^flo(flo(i+2)) agrees
    with that exactly while h_i = flo(i+2), i.e. before the Hilbert plateau;
    past the plateau the sign freezes and the rotating law diverges (first at
    (m, i) = (6, 6), where the determinant is -2)."""
    for v in property_report(m).verdicts:
        assert v.sl_pass
        assert v.det_sign == (-1 if flo(v.h) % 2 else 1)
        if v.h == flo(v.i + 2):
            assert v.det_sign == complex_hrr_expected_sign(v.i)


@pytest.mark.parametrize("m", range(6, 21, 2))
def test_even_m_rotating_sign_law_flagged_past_plateau(m):
    """The claim "complex sign law at every degree" is checked, not assumed:
    for even m >= 6 it fails once the plateau outruns the rotation, and the
    report flags it.  First disagreement at i = 2k*, k* the smallest odd
    k >= m/2."""
    report = property_report(m)
    k_star = m // 2 if (m // 2) % 2 else m // 2 + 1
    assert report.max_chrr_degree == 2 * k_star - 1 < flo(3 * (m - 1))
    chrr_flags = [f for f in report.claim_flags if "complex" in f.claim]
    assert chrr_flags and not chrr_flags[0].agrees


def test_even_m4_rotating_sign_law_holds_everywhere():
    # short socle range: the plateau never outruns the rotation for m = 2, 4
    for m in (2, 4):
        report = property_report(m)
        assert all(v.chrr_pass for v in report.verdicts)
        assert report.max_chrr_degree == flo(3 * (m - 1))


@pytest.mark.parametrize("m", range(2, 21))
def test_hlp_everywhere(m):
    assert property_report(m).hlp


@pytest.mark.parametrize("m", range(3, 20, 2))
def test_odd_m_fails_exactly_at_m_minus_1(m):
    report = property_report(m)
    assert report.max_sl_degree == m - 2
    assert not report.verdicts[m - 1].sl_pass


@pytest.mark.parametrize("m", range(3, 21, 2))
def test_middle_degree_pairing_nondegenerate(m):
    # even socle degree: the middle Lefschetz matrix is the intersection
    # pairing itself, which is nondegenerate
    d = 3 * (m - 1)
    assert d % 2 == 0
    v = degree_verdict(m, d // 2)
    assert v.rank == v.h


def test_signature_crosscheck_examples():
    check = signature_crosscheck(4, 2)
    assert check.applicable and check.signature == 0 and check.expected_complex_sum == 0
    check = signature_crosscheck(5, 3)
    assert check.applicable and check.signature == 0 and check.agrees
    for m in (3, 6, 9):
        check = signature_crosscheck(m, 0)
        assert check.signature == 1 and check.expected_complex_sum == 1


def test_signature_crosscheck_not_applicable():
    check = signature_crosscheck(5, 5)  # strong Lefschetz already failed at 4
    assert not check.applicable
    assert check.signature is None and check.agrees is None


@pytest.mark.parametrize("m", range(2, 13))
def test_signature_matches_complex_sum_everywhere_applicable(m):
    for i in range(flo(3 * (m - 1)) + 1):
        check = signature_crosscheck(m, i)
        if check.applicable:
            assert check.agrees


def test_primitive_dims_at_most_one_under_strong_lefschetz():
    # dim P_i = h_i - h_{i-1} is meaningful through one degree past the
    # strong-Lefschetz ceiling; there it never exceeds one
    for m in range(2, 16):
        report = property_report(m)
        for v in report.verdicts:
            if v.i <= report.max_sl_degree + 1:
                assert v.primitive_dim in (0, 1)


def test_report_moments_are_the_one_sequence():
    # b_s = a_(m-1-s) for s < m, unpadded (the wall pads it with zeros up to
    # 2 flo(flo(3(m-1))), the largest p + q of any degree's window): the
    # windows of every degree read this tuple
    for m in range(1, 41):
        report = property_report(m)
        b = hankel_moments(m)
        assert len(b) == m
        assert b == tuple(dual_numerator(m, m - 1 - s) for s in range(m))
        hash(report)  # the frozen report stays hashable


# -- number wall ---------------------------------------------------------------


@st.composite
def _wall_cases(draw):
    """A sequence, a few starts and one depth.  The sequence has random
    entries, small or some forced to zero, which put zero divisors inside
    the wall, or is a sum of a few geometric sequences, whose Hankel
    matrices have low rank.  A start two below a forced zero divides by it
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
    starts = draw(st.lists(st.integers(0, size + 1), unique=True, min_size=1, max_size=3))
    starts = sorted(set(starts) | {t - 2 for t in zeros if t >= 2})
    return seq, starts, draw(st.integers(1, 7))


def _hankel_block(seq, n, h):
    return [[seq[n + p + q] if n + p + q < len(seq) else 0 for q in range(h)] for p in range(h)]


def _zero_divisors(seq, depth):
    """The entries W(n, k), 3 <= k <= depth, n + k < L (seq[L-1] the last
    nonzero term), that the wall divides by W(n+2, k-2), in the wall's
    order, whose divisor elimination finds to be 0."""
    size = max((s + 1 for s, x in enumerate(seq) if x), default=0)
    return [
        (n, k)
        for k in range(3, depth + 1)
        for n in range(size - k)
        if ExactMatrix(_hankel_block(seq, n + 2, k - 2)).det() == 0
    ]


@settings(max_examples=300)
@given(_wall_cases())
def test_hankel_minors_match_elimination(case):
    # the wall raises, naming the first, exactly when elimination finds a
    # zero divisor in its rows 2..depth; otherwise each list holds true
    # minors, running to depth or to its first zero, at size h <= len the
    # rank is h (h-1 at a zero minor), and Sylvester-Jacobi on the nonzero
    # minors gives the signature
    seq, starts, depth = case
    zero_divisors = _zero_divisors(seq, depth)
    if zero_divisors:
        n, k = zero_divisors[0]
        message = rf"^number wall: W\({n}, {k}\) divides by W\({n + 2}, {k - 2}\) = 0$"
        with pytest.raises(ArithmeticError, match=message):
            hankel_wall(seq, starts, depth)
        return
    minors = hankel_wall(seq, starts, depth)
    assert list(minors) == starts
    for n, found in minors.items():
        assert 0 not in found[:-1] and (len(found) == depth or found[-1] == 0)
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
    # a list short of the depth stops at a zero minor, which elimination
    # confirms; a recurrence that would divide by a zero minor does not cut
    # its list short but raises, naming the first such entry
    seq, starts, depth = case
    zero_divisors = _zero_divisors(seq, depth)
    try:
        minors = hankel_wall(seq, starts, depth)
    except ArithmeticError as err:
        assert zero_divisors, err
        n, k = zero_divisors[0]
        assert str(err) == f"number wall: W({n}, {k}) divides by W({n + 2}, {k - 2}) = 0"
        return
    assert not zero_divisors
    for n, found in minors.items():
        r = len(found)
        if r < depth:
            assert found[-1] == 0 and ExactMatrix(_hankel_block(seq, n, r)).det() == 0, (n, found)


@pytest.mark.parametrize("divides_by_zero", [True, False])
def test_wall_cases_yield_both_outcomes(divides_by_zero):
    # the strategy reaches walls with and without a zero divisor
    find(_wall_cases(), lambda case: bool(_zero_divisors(case[0], case[2])) == divides_by_zero)


def test_wall_examples():
    # the structural tail: past seq's trailing zeros W(0, 2) = -2^2 and
    # W(0, 3) = 0, with no division at all
    assert hankel_wall([1, 2, 0, 0, 0], [0], 3) == {0: [1, -4, 0]}
    # W(0, 3) divides by W(2, 1) = 0, so a wall of depth 3 raises; at depth 2
    # the wall computes no third row, and start 2 stops at its zero W(2, 1);
    # the true W(0, 3) is -2
    with pytest.raises(ArithmeticError, match=r"^number wall: W\(0, 3\) divides by W\(2, 1\) = 0$"):
        hankel_wall([1, 1, 0, 1, 1], [0, 2], 3)
    assert hankel_wall([1, 1, 0, 1, 1], [0, 2], 2) == {0: [1, -1], 2: [0]}
    assert ExactMatrix(_hankel_block([1, 1, 0, 1, 1], 0, 3)).det() == -2
    # twice the exchange matrix, one entry past the other lists' first zeros
    assert hankel_wall([0, 0, 2, 0, 0], [0, 1, 2], 3) == {0: [0], 1: [0], 2: [2, 0]}
    assert hankel_wall([], [0, 3], 2) == {0: [0], 3: [0]}
    assert hankel_wall([1], [0], 1) == {0: [1]}


def _raises_past_the_wall(monkeypatch, moments, message):
    """The report of m = 5 over a patched sequence b of 5 terms (its basis
    starts are offsets 0 and 2, its largest window 3 x 3) raises
    ArithmeticError with the message."""
    monkeypatch.setattr(lefschetz, "hankel_moments", lambda m: tuple(moments))
    assert len(basis_range(5, 4)) == 3
    with pytest.raises(ArithmeticError, match=message):
        lefschetz.property_report(5)


def test_verdict_falls_back_past_a_zero_minor(monkeypatch):
    # all-ones sequence, the moments of no A(m, 2): H_1 = 1, H_2 = 0 on both
    # starts, so the rank rules stop at size 2 and the first size-3 window
    # (degree 4) raises; elimination gives the block det 0, rank 1, signature 1
    assert hankel_wall([1] * 5, [0, 2], 3) == {0: [1, 0], 2: [1, 0]}
    _raises_past_the_wall(monkeypatch, [1] * 5, r"no 3 x 3 window at \(m, i\) = \(5, 4\):")
    ones = ExactMatrix([[1] * 3] * 3)
    assert (ones.det(), ones.rank(), ones.signature()) == (0, 1, 1)


def test_fallback_keeps_the_exact_determinant(monkeypatch):
    # H_1 = 0 on start 0, so its first window of size 2 (degree 2) raises;
    # elimination keeps twice the 3 x 3 exchange matrix's integer
    # determinant -8, not only its sign
    _raises_past_the_wall(monkeypatch, [0, 0, 2, 0, 0], r"no 2 x 2 window at \(m, i\) = \(5, 2\):")
    exchange = ExactMatrix([[0, 0, 2], [0, 2, 0], [2, 0, 0]])
    det = exchange.det()
    assert (det, det.denominator, exchange.rank(), exchange.signature()) == (-8, 1, 3, 1)


def test_zero_divisor_sends_the_start_to_elimination(monkeypatch):
    # b = (1, 1, 0, 1, 1): W(0, 3), which the degree-4 window (size 3 on
    # start 0) reads, divides by W(2, 1) = 0, so the wall raises, naming the
    # entry; test_wall_examples has its determinant -2 by elimination
    _raises_past_the_wall(
        monkeypatch, [1, 1, 0, 1, 1], r"^number wall: W\(0, 3\) divides by W\(2, 1\) = 0$"
    )


def test_wall_settles_every_window_of_the_moments():
    # the law behind the report's one path: on every basis start of A(m, 2),
    # W(2lo, k) != 0 iff 2k <= m or 2lo + k = m (the anti-triangular tail),
    # so the wall of the report's depth meets no zero divisor, and each
    # start's minors, kept through the first zero, cover its largest window
    for m in range(2, 61):
        largest = {}
        for i in range(flo(3 * (m - 1)) + 1):
            ps = basis_range(m, i)
            largest[2 * ps.start] = max(largest.get(2 * ps.start, 0), len(ps))
        depth = max(largest.values())
        for n, found in hankel_wall(hankel_moments(m), largest, depth).items():
            assert largest[n] <= len(found) <= depth, (m, n)
            for k, minor in enumerate(found, 1):
                assert (minor != 0) == (2 * k <= m or n + k == m), (m, n, k)
