"""Per-degree verdicts, full reports, claim flags, and signature checks."""

import pytest

from lefpath import lefschetz
from lefpath.hilbert import dual_numerator, flo
from lefpath.lefschetz import (
    complex_hrr_expected_sign,
    degree_verdict,
    hankel_moments,
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

    def counted(seq, depths):
        walls.append(seq)
        return real(seq, depths)

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
    # b_s = a_(m-1-s), 0 for s >= m, through 2 flo(flo(3(m-1))), the largest
    # p + q of any degree's window: the windows of every degree read this tuple
    for m in range(1, 41):
        report = property_report(m)
        b = hankel_moments(m)
        assert len(b) == 2 * flo(flo(3 * (m - 1))) + 1, m
        assert b == tuple(dual_numerator(m, m - 1 - s) if s < m else 0 for s in range(len(b)))
        hash(report)  # the frozen report stays hashable
