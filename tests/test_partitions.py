"""Restricted partition family, its generating function, and the degree formula."""

from fractions import Fraction

import pytest

from lefpath.hilbert import hilbert_series
from lefpath.lattice import path_matrix
from lefpath.partitions import (
    degree_formula,
    degree_formula_matches_hessian,
    partition_gf,
)

from conftest import enumerate_restricted


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


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("n", range(1, 9))
def test_gf_matches_hilbert_series(m, n):
    assert partition_gf(m, n) == hilbert_series(m, n).coeffs


def test_degree_formula_values():
    # 2 * 3! * 1! / (1! * 3!) = 2
    assert degree_formula(2, 2) == 2
    # 5 * 12! / (4! * 9!) = 5 * 55 = 275
    assert degree_formula(5, 2) == 275
    assert degree_formula(7, 1) == 1
    assert degree_formula(4, 1) == 1


def test_degree_formula_is_exact_rational():
    assert isinstance(degree_formula(3, 3), Fraction)


@pytest.mark.parametrize("m", range(2, 31))
def test_degree_formula_matches_socle_entry(m):
    assert degree_formula_matches_hessian(m)
    assert degree_formula(m, 2) == path_matrix(m, 0).rows[0][0]
