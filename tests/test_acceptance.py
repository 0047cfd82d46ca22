"""Acceptance suite: every criterion checked at exact (zero) tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import math
from fractions import Fraction

from lefpath.algebra import f_m, hessian
from lefpath.catalan import (
    catalan_power,
    catalan_power_reciprocal,
    catalan_series,
    check_identity_zero,
)
from lefpath.exact import ExactMatrix
from lefpath.hilbert import (
    basis_range,
    c_coeff,
    dual_numerator,
    flo,
    hilbert_m2_closed,
    hilbert_series,
    relation_residues,
)
from lefpath.lattice import path_matrix, transfer_counts
from lefpath.lefschetz import complex_hrr_expected_sign, path_routes, property_report
from lefpath.partitions import degree_formula_matches_hessian, partition_gf

from conftest import (
    annihilator_check,
    enumerate_restricted,
    enumerate_systems,
    involution_phi,
    is_doubly_vertex_disjoint,
    is_unimodal,
    verify_f_recursion,
    verify_power_sum,
)


def _verdict(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}")
    assert ok, f"criterion {num:02d} failed: {description}"


def test_criterion_01_hilbert():
    ok = hilbert_series(5, 2).coeffs == (1, 1, 2, 2, 3, 2, 3, 2, 3, 2, 2, 1, 1)
    for m in range(2, 51):
        coeffs = hilbert_series(m, 2).coeffs
        ok &= all(
            hilbert_m2_closed(m, i) == coeffs[i] for i in range(3 * (m - 1) + 1)
        )
        ok &= is_unimodal(coeffs) == (m % 2 == 0)
    _verdict(1, "Hilbert series, closed form (m <= 50), unimodal iff m even", ok)


def test_criterion_02_presentation():
    ok = f_m(5).terms == {(5, 0): 1, (3, 1): -5, (1, 2): 5}
    ok &= [dual_numerator(5, n) for n in range(5)] == [1, 5, 20, 75, 275]
    ok &= all(annihilator_check(m) for m in range(2, 13))
    ok &= all(verify_f_recursion(m) for m in range(3, 21))
    ok &= all(verify_power_sum(m) for m in range(1, 21))
    _verdict(2, "relation/dual generator, annihilation, recursions, power sums", ok)


def test_criterion_03_hessian_path_equivalence():
    ok = True
    for m in range(2, 13):
        for i in range(flo(3 * (m - 1)) + 1):
            scale = math.factorial(3 * m - 3 - 2 * i)
            ok &= path_matrix(m, i) == hessian(m, i).scaled(scale)
    _verdict(3, "path matrix = (3m-3-2i)! * Hessian for m <= 12", ok)


def test_criterion_04_worked_example():
    ok = path_matrix(5, 3) == ExactMatrix([[275, 75], [75, 20]])
    ok &= path_matrix(5, 3).det() == -125
    ok &= hessian(5, 3) == ExactMatrix(
        [[275, 75], [75, 20]]
    ).scaled(Fraction(1, math.factorial(6)))
    ok &= hessian(5, 4).det() == 0
    ok &= path_matrix(5, 4).rank() == 2
    _verdict(4, "worked example m=5: degree-3 matrix/det, degree-4 kernel", ok)


def test_criterion_05_lgv_oracle():
    ok = True
    for m in range(2, 6):
        for i in range(flo(3 * (m - 1)) + 1):
            ok &= transfer_counts(m, basis_range(m, i))[0] == path_matrix(m, i).det()
    _verdict(5, "signed vertex-disjoint sum = determinant for m <= 5", ok)


def test_criterion_06_doubly_disjoint_theorem():
    v53, v54 = path_routes(5, [3, 4])
    ok = (v53.n_doubly, v53.predicted_sign) == (125, -1) and v53.count_matches_det
    ok &= v54.n_doubly == 0 and v54.det == 0
    for m in range(2, 6):
        for route in path_routes(m, range(flo(3 * (m - 1)) + 1)):
            ok &= route.count_matches_det and route.ok
    for m, i in [(4, 2), (5, 4)]:
        n_set = {
            s
            for s in enumerate_systems(m, i)
            if not is_doubly_vertex_disjoint(s)
        }
        for system in n_set:
            image = involution_phi(system)
            ok &= image in n_set
            ok &= image.sign == -system.sign
            ok &= involution_phi(image) == system
    _verdict(6, "det = (-1)^flo(h) * N for m <= 5; involution on N", ok)


def test_criterion_07_nonvanishing_rule():
    ok = True
    for m in range(2, 21):
        for verdict in path_routes(m, range(min(m - 1, flo(3 * (m - 1))) + 1), sweep=False):
            ok &= verdict.nonvanishing_rule_agrees
    (counterexample,) = path_routes(5, [6], sweep=False)
    ok &= counterexample.det == -1
    ok &= 2 * counterexample.h == 6 > 5
    ok &= not counterexample.nonvanishing_rule_agrees
    ok &= not counterexample.in_rule_range
    _verdict(
        7,
        "(det != 0 <=> 2h <= m) for i <= m-1, m <= 20; (5,6) disagreement flagged",
        ok,
    )


def test_criterion_08_lefschetz_verdicts():
    """Even m <= 20: strong Lefschetz at every degree, and the complex
    Hodge-Riemann relations read off the Hilbert function; every m: rank
    equals the Hilbert window minimum; odd m: strong Lefschetz through
    degree m-2 and not at m-1, with the claim "through m-1" flagged.

    The complex relations make the degree-i pairing form definite of sign
    (-1)^j on each primitive subspace P_2j (2j <= i), so with primitive
    dimensions p_k = h_k - h_{k-1}, taken here from the series route
    (hilbert_series) rather than the closed form degree_verdict uses:
      * p_k = 0 for every odd k <= i (the premise of that sign convention;
        no sign is documented for an odd-degree primitive class),
      * det sign = (-1)^(sum of p_2j over odd j), and
      * signature = sum_j (-1)^j p_2j.
    The rotating law (-1)^flo(flo(i+2)) is the special case in which every
    P_2j is one-dimensional, i.e. h_i = flo(i+2); it is asserted only there.
    Past the Hilbert plateau it is not: at (m, i) = (6, 6), h = 1,1,2,2,3,3,3
    leaves P_0, P_2, P_4 one-dimensional and P_6 = 0, so the form is
    + on P_0, - on P_2, + on P_4 (signature 1, determinant sign -1), and the
    matrix [[110, 27, 6], [27, 6, 1], [6, 1, 0]] has determinant -2; the
    rotating law's +1 would need h_6 = 4."""
    ok = True
    first_violation = None
    for m in range(2, 21):
        report = property_report(m)
        ok &= report.hlp
        if m % 2 == 0:
            coeffs = hilbert_series(m, 2).coeffs
            primitive = [h - (coeffs[k - 1] if k else 0) for k, h in enumerate(coeffs)]
            for v in report.verdicts:
                ok &= v.sl_pass
                js = range(flo(v.i) + 1)  # the P_2j with 2j <= i
                expected_sign = (-1) ** sum(primitive[2 * j] for j in js if j % 2)
                expected_signature = sum((-1) ** j * primitive[2 * j] for j in js)
                signature = path_matrix(m, v.i).signature()
                holds = (
                    all(primitive[k] == 0 for k in range(1, v.i + 1, 2))
                    and v.det_sign == expected_sign
                    and signature == expected_signature
                )
                if v.h == flo(v.i + 2):
                    holds &= v.det_sign == complex_hrr_expected_sign(v.i)
                ok &= holds
                if not holds and first_violation is None:
                    first_violation = (
                        m,
                        v.i,
                        expected_sign,
                        v.det_sign,
                        expected_signature,
                        signature,
                    )
        else:
            ok &= report.max_sl_degree == m - 2
            ok &= not report.verdicts[m - 1].sl_pass
            ok &= any(not flag.agrees for flag in report.claim_flags)
    detail = (
        " (first violation at (m,i)=({}, {}): Hilbert-derived det sign {:+d} "
        "vs computed {:+d}, signature {} vs computed {})".format(*first_violation)
        if first_violation
        else ""
    )
    _verdict(
        8,
        "even m <= 20: SL + complex Hodge-Riemann signs from the Hilbert "
        "function; all m: HLP; odd m: fails at m-1" + detail,
        ok,
    )


def test_criterion_09_catalan():
    ok = True
    for m in range(1, 11):
        ok &= catalan_power(m, 20) == catalan_series(20).pow(m)
        recip = catalan_power_reciprocal(m, 20)
        ok &= all(
            recip[n] == (-1) ** n * c_coeff(m, n) for n in range(flo(m) + 1)
        )
    for m in range(2, 41):
        ok &= check_identity_zero(m)
        ok &= all(
            relation_residues(m, [dual_numerator(m, n) for n in range(i + 1)])[i] == 0
            for i in range(1, flo(m) + 1)
        )
    _verdict(9, "Catalan power closed form, reciprocal head, vanishing identity", ok)


def test_criterion_10_partitions():
    ok = enumerate_restricted(3, 2) == [
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
    for m in range(1, 9):
        for n in range(1, 9):
            ok &= partition_gf(m, n) == hilbert_series(m, n).coeffs
    for m in range(2, 31):
        ok &= degree_formula_matches_hessian(m)
    _verdict(10, "partition family list/GF identity; degree-formula crosscheck", ok)
