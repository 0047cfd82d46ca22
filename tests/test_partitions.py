"""Restricted partition family, its generating function, and the degree formula."""

import pytest

from lefpath import BudgetExceeded, partitions
from lefpath.hilbert import hilbert_series
from lefpath.lattice import path_matrix
from lefpath.partitions import (
    PARTITION_BUDGET,
    _degree_formula_terms,
    degree_formula_matches_hessian,
    partition_gf,
)

from conftest import enumerate_restricted, partition_gf_full_walk


def test_family_3_2_exact_list():
    assert enumerate_restricted(3, 2) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (2, 1),
        (2, 2),
        (2, 1, 1),
        (2, 2, 1),
        (2, 2, 1, 1),
    ]


def test_family_edge_cases():
    assert enumerate_restricted(1, 5) == [()]
    assert enumerate_restricted(2, 2) == [(), (1,), (2,), (2, 1)]


def test_family_membership_constraints():
    for parts in enumerate_restricted(4, 3):
        assert all(p <= 3 for p in parts)
        assert all(parts.count(size) <= 3 for size in set(parts))
        assert tuple(sorted(parts, reverse=True)) == parts


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_family_count_is_m_to_the_n(m, n):
    assert len(enumerate_restricted(m, n)) == m**n


def test_gf_values():
    assert partition_gf(3, 2) == (1, 1, 2, 1, 2, 1, 1)
    assert partition_gf(1, 4) == (1,)
    assert partition_gf(5, 2) == (1, 1, 2, 2, 3, 2, 3, 2, 3, 2, 2, 1, 1)


@pytest.mark.parametrize("m", range(1, 11))
@pytest.mark.parametrize("n", range(1, 11))
def test_gf_matches_hilbert_series(m, n):
    assert partition_gf(m, n) == hilbert_series(m, n).coeffs


@pytest.mark.parametrize("m", range(1, 11))
def test_gf_equals_the_full_walk(m):
    # the two half-walks joined by size count what one walk over every
    # multiplicity vector counts, for every n with m^n <= 10^6 (n <= 20 at m = 1)
    for n in range(1, 21):
        if m**n <= 10**6:
            assert partition_gf(m, n) == partition_gf_full_walk(m, n), (m, n)


@pytest.mark.parametrize("split", ["n//2 in both halves", "n//2 in neither half"])
def test_a_tampered_split_fails(monkeypatch, split):
    # the low half walks 1..n//2 and the high half n//2+1..n: moving the
    # seam by one size either way changes every count's total from m^n
    real = partitions._walk

    def tampered(m, first, last):
        if split == "n//2 in both halves" and first > 1:
            return real(m, first - 1, last)
        if split == "n//2 in neither half" and first == 1:
            return real(m, 1, last - 1) if last > 1 else [1]
        return real(m, first, last)

    monkeypatch.setattr(partitions, "_walk", tampered)
    for m in range(2, 5):
        for n in range(2, 7):
            assert partition_gf(m, n) != partition_gf_full_walk(m, n), (m, n)


def test_gf_past_its_budget_raises_before_any_walk(monkeypatch):
    walks = []

    def stub(m, first, last):
        walks.append((first, last))
        return [1]

    monkeypatch.setattr(partitions, "_walk", stub)
    with pytest.raises(BudgetExceeded, match=rf"over {PARTITION_BUDGET} leaf visits at \(40, 12\)"):
        partition_gf(40, 12)
    assert walks == []
    # the larger half, n - n//2 sizes, may hold exactly the budget
    assert PARTITION_BUDGET == 2**20
    assert partition_gf(2, 40) == partition_gf(1024, 4) == (1,)
    assert walks == [(1, 20), (21, 40), (1, 2), (3, 4)]
    for m, n in [(2, 41), (1025, 4), (1025, 3)]:
        with pytest.raises(BudgetExceeded):
            partition_gf(m, n)
    assert len(walks) == 4


def test_degree_formula_values():
    # the terms' quotient: 2 * 3! * 1! / (1! * 3!) = 2, 5 * 12! / (4! * 9!) = 5 * 55 = 275
    for (m, n), value in {(2, 2): 2, (5, 2): 275, (7, 1): 1, (4, 1): 1}.items():
        numerator, denominator = _degree_formula_terms(m, n)
        assert numerator == value * denominator, (m, n)


@pytest.mark.parametrize("m", range(2, 31))
def test_degree_formula_matches_socle_entry(m):
    assert degree_formula_matches_hessian(m)
    numerator, denominator = _degree_formula_terms(m, 2)
    assert numerator == denominator * path_matrix(m, 0).rows[0][0]
