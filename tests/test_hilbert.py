"""Hilbert series, the n = 2 closed form, and unimodality."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefpath.hilbert import (
    first_violation_index,
    flo,
    hilbert_m2_closed,
    hilbert_m2_closed_coeffs,
    hilbert_series,
    socle_degree,
    unimodality_record,
)

from conftest import first_violation_rescan, hilbert_series_product, is_unimodal


def test_series_m5():
    assert hilbert_series(5, 2).coeffs == (1, 1, 2, 2, 3, 2, 3, 2, 3, 2, 2, 1, 1)


def test_series_m1():
    assert hilbert_series(1, 3).coeffs == (1,)


def test_series_m3_hand_expansion():
    # (1 + t + t^2)(1 + t^2 + t^4) expanded by hand
    assert hilbert_series(3, 2).coeffs == (1, 1, 2, 1, 2, 1, 1)


@pytest.mark.parametrize("m", range(1, 13))
@pytest.mark.parametrize("n", range(1, 6))
def test_series_matches_direct_product(m, n):
    h = hilbert_series(m, n)
    assert h.coeffs == hilbert_series_product(m, n)
    assert all(type(c) is int for c in h.coeffs)


def test_series_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_series(0, 2)
    with pytest.raises(ValueError):
        hilbert_series(2, 0)


def test_closed_form_values():
    assert hilbert_m2_closed(5, 10) == 6 - 3 - 1 == 2
    assert hilbert_m2_closed(5, 0) == 1
    assert hilbert_m2_closed(5, 4) == 3


def test_closed_form_range_errors():
    with pytest.raises(ValueError):
        hilbert_m2_closed(5, 13)
    with pytest.raises(ValueError):
        hilbert_m2_closed(5, -1)


@pytest.mark.parametrize("m", range(2, 51))
def test_closed_form_equals_series(m):
    assert hilbert_m2_closed_coeffs(m) == hilbert_series(m, 2).coeffs


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("n", range(1, 9))
def test_palindrome_and_total(m, n):
    h = hilbert_series(m, n)
    d = h.socle_degree
    assert d == socle_degree(m, n)
    assert h.coeffs[0] == h.coeffs[d] == 1
    assert all(h.coeffs[k] == h.coeffs[d - k] for k in range(d + 1))
    assert sum(h.coeffs) == m**n


def test_unimodal_examples():
    assert is_unimodal(hilbert_series(4, 2).coeffs)
    assert hilbert_series(4, 2).coeffs == (1, 1, 2, 2, 2, 2, 2, 2, 1, 1)
    assert not is_unimodal((1, 1, 2, 1, 2, 1, 1))
    assert is_unimodal((1,))
    assert is_unimodal((2, 2, 1, 1))
    assert not is_unimodal((5, 1, 0, 1))


def test_unimodal_rejects_empty():
    with pytest.raises(ValueError):
        is_unimodal(())


@pytest.mark.parametrize("m", range(2, 31))
def test_middle_plateau_structure(m):
    """Even m: the peak value m/2 repeats m+2 times; odd m = 2m'-1: the middle
    m terms alternate m', m'-1, ..., m'."""
    coeffs = hilbert_series(m, 2).coeffs
    if m % 2 == 0:
        peak = m // 2
        assert coeffs.count(peak) == m + 2
        first = coeffs.index(peak)
        assert all(c == peak for c in coeffs[first : first + m + 2])
    else:
        mp = (m + 1) // 2
        d = len(coeffs) - 1
        middle = coeffs[(d - m + 1) // 2 : (d - m + 1) // 2 + m]
        expected = tuple(mp if k % 2 == 0 else mp - 1 for k in range(m))
        assert middle == expected


def test_scan_unimodality():
    records = [unimodality_record(hilbert_series(m, 2)) for m in range(2, 7)]
    assert [(r.m, r.unimodal) for r in records] == [
        (2, True),
        (3, False),
        (4, True),
        (5, False),
        (6, True),
    ]
    m3 = next(r for r in records if r.m == 3)
    assert m3.first_violation_index == 3
    assert m3.socle_degree == 6
    for n in range(1, 11):
        assert unimodality_record(hilbert_series(2, n)).unimodal


def test_violation_index_consistency():
    for m in range(2, 21):
        coeffs = hilbert_series(m, 2).coeffs
        violation = first_violation_index(coeffs)
        assert (violation is None) == is_unimodal(coeffs)


@settings(max_examples=400)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=10))
@example([3])  # length 1
@example([2, 2, 2])  # one plateau
@example([1, 3, 3, 2, 2, 3])  # a dip onto a plateau that rises again
@example([1, 2, 3, 1])  # a dip at the last index
@example([3, 1, 2, 1])  # a dip at the last index after a violation
@example([3, 2, 1, 2])  # the first dip never recovers, the second does
def test_violation_index_matches_rescan(seq):
    found = first_violation_index(seq)
    assert found == first_violation_rescan(seq)
    assert (found is None) == is_unimodal(seq)


def test_violation_index_examples():
    assert first_violation_index([]) is None
    assert first_violation_index([3, 2, 1, 2]) == 2
    assert first_violation_index([2, 1, 1, 2]) == 1


def test_unimodality_record_reads_one_series():
    record = unimodality_record(hilbert_series(3, 2))
    assert (record.m, record.n, record.socle_degree) == (3, 2, 6)
    assert (record.unimodal, record.first_violation_index) == (False, 3)


def test_flo_helpers():
    assert flo(5) == 2
    assert flo(-1) == -1
    assert flo(4) == 2
