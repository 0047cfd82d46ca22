"""Per-degree Lefschetz / Hodge-Riemann verdicts for A(m, 2).

Signs and ranks come from the leading minors of the integer Hankel windows,
Bareiss deciding only past a zero minor; the report cross-check ties their
moments to the path matrix.  The factors (3m-3-2i)!, (d-2i)! > 0 between a
window and the degree-i pairing matrix change neither sign, rank, nor
signature.  The linear form is e1 (degree 1 is one-dimensional), and its
positive rescalings only rescale each pairing matrix, so no search is needed.

The Hodge-Riemann relations make the degree-i pairing form definite on
each primitive subspace P_k, k <= i (the kernel of e1^(d-2k+1) on degree k,
of dimension p_k = h_k - h_{k-1}), with a sign fixed by k: (-1)^k for the
real form, (-1)^j on P_2j for the complex form.  The determinant sign is
then (-1)^(sum of the p_k of the negative primitive subspaces).  The two
functions below are the claimed rotating laws (-1)^flo(i+1) (real) and
(-1)^flo(flo(i+2)) (complex).  They equal that law only while every
primitive subspace through degree i is one-dimensional: h_i = i+1 for the
real form, h_i = flo(i+2) with no odd-degree primitive class for the
complex one.  Past the Hilbert plateau they differ from it, and the
reports show them as the claims they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import hankel_moments, hankel_window
from .exact import hankel_minors
from .hilbert import basis_range, flo, hilbert_m2_closed, socle_degree


def _sign(value) -> int:
    return 0 if value == 0 else (1 if value > 0 else -1)


def complex_hrr_expected_sign(i: int) -> int:
    """Claimed rotating law (-1)^flo(flo(i+2)) for the complex form."""
    return -1 if flo(flo(i + 2)) % 2 else 1


def hrr_expected_sign(i: int) -> int:
    """Claimed rotating law (-1)^flo(i+1) for the real form."""
    return -1 if flo(i + 1) % 2 else 1


@dataclass(frozen=True)
class DegreeVerdict:
    """Exact verdict for one Lefschetz map of A(m, 2)."""

    i: int
    h: int
    det_sign: int
    rank: int
    window_min: int
    primitive_dim: int
    sl_pass: bool
    hlp_pass: bool
    chrr_expected_sign: int
    chrr_pass: bool
    hrr_expected_sign: int
    hrr_pass: bool


@dataclass(frozen=True)
class ClaimFlag:
    """Comparison of a claimed property against the computed one."""

    claim: str
    expected: str
    computed: str
    agrees: bool


@dataclass(frozen=True)
class PropertyReport:
    """Verdicts for A(m, 2), with the Hankel moments the kernel read: one
    (degree, moments) pair per basis start, at that start's largest window,
    whose leading blocks are the windows of every other degree on it."""

    m: int
    socle_degree: int
    verdicts: tuple[DegreeVerdict, ...]
    max_sl_degree: int
    hlp: bool
    max_chrr_degree: int
    claim_flags: tuple[ClaimFlag, ...] = field(default_factory=tuple)
    moments: tuple[tuple[int, tuple[int, ...]], ...] = field(default_factory=tuple)


def degree_verdict(m: int, i: int) -> DegreeVerdict:
    """Verdict at degree i from the leading minors of the exact integer
    Hankel window, which the report cross-check ties to the path matrix."""
    return _verdict(m, i, hankel_minors(hankel_moments(m, i)))


def _verdict(m: int, i: int, minors: list[int]) -> DegreeVerdict:
    """With minors H_1..H_r != 0 on its basis start, the h x h window has
    det H_h and rank h if h <= r, det 0 and rank r if h = r+1; else Bareiss."""
    d = socle_degree(m, 2)
    h, r = hilbert_m2_closed(m, i), len(minors)
    if h <= r:
        det_sign, rank = _sign(minors[h - 1]), h
    elif h == r + 1:
        det_sign, rank = 0, r
    else:
        window = hankel_window(m, i)
        det_sign, rank = _sign(window.det()), window.rank()
    window_min = min(hilbert_m2_closed(m, j) for j in range(i, d - i + 1))
    h_prev = hilbert_m2_closed(m, i - 1) if i > 0 else 0
    sl_pass = det_sign != 0
    chrr_expected = complex_hrr_expected_sign(i)
    hrr_expected = hrr_expected_sign(i)
    return DegreeVerdict(
        i=i,
        h=h,
        det_sign=det_sign,
        rank=rank,
        window_min=window_min,
        primitive_dim=h - h_prev,
        sl_pass=sl_pass,
        hlp_pass=rank == window_min,
        chrr_expected_sign=chrr_expected,
        chrr_pass=sl_pass and det_sign == chrr_expected,
        hrr_expected_sign=hrr_expected,
        hrr_pass=sl_pass and det_sign == hrr_expected,
    )


def _max_prefix_degree(verdicts, predicate) -> int:
    """Largest r with predicate true for all degrees <= r (-1 if none)."""
    r = -1
    for v in verdicts:
        if not predicate(v):
            break
        r = v.i
    return r


def property_report(m: int) -> PropertyReport:
    """Full verdict sweep for A(m, 2) with claim comparisons.

    The claims checked (never assumed): even m gives the strong Lefschetz
    property and the complex sign law at every degree; every m gives rank
    equal to the Hilbert window minimum; odd m is claimed strong-Lefschetz
    through degree m-1, while computation says it fails exactly there.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    d = socle_degree(m, 2)
    top = flo(d)
    ranges = [basis_range(m, i) for i in range(top + 1)]
    largest = {ps.start: i for i, ps in sorted(enumerate(ranges), key=lambda e: len(e[1]))}
    moments = tuple((i, tuple(hankel_moments(m, i))) for i in sorted(largest.values()))
    minors = {ranges[i].start: hankel_minors(a) for i, a in moments}
    verdicts = [_verdict(m, i, minors[ps.start]) for i, ps in enumerate(ranges)]
    max_sl = _max_prefix_degree(verdicts, lambda v: v.sl_pass)
    max_chrr = _max_prefix_degree(verdicts, lambda v: v.chrr_pass)
    hlp = all(v.hlp_pass for v in verdicts)

    flags = []
    if m % 2 == 0:
        flags.append(
            ClaimFlag(
                claim="even m: strong Lefschetz at every degree",
                expected=f"max_sl_degree={top}",
                computed=f"max_sl_degree={max_sl}",
                agrees=max_sl == top,
            )
        )
        flags.append(
            ClaimFlag(
                claim="even m: complex Hodge-Riemann sign law at every degree",
                expected=f"max_chrr_degree={top}",
                computed=f"max_chrr_degree={max_chrr}",
                agrees=max_chrr == top,
            )
        )
    else:
        flags.append(
            ClaimFlag(
                claim="odd m: strong Lefschetz through degree m-1",
                expected=f"max_sl_degree>={m - 1}",
                computed=f"max_sl_degree={max_sl}",
                agrees=max_sl >= m - 1,
            )
        )
    flags.append(
        ClaimFlag(
            claim="rank of every Lefschetz map equals the Hilbert window minimum",
            expected="hlp=True",
            computed=f"hlp={hlp}",
            agrees=hlp,
        )
    )
    return PropertyReport(
        m=m,
        socle_degree=d,
        verdicts=tuple(verdicts),
        max_sl_degree=max_sl,
        hlp=hlp,
        max_chrr_degree=max_chrr,
        claim_flags=tuple(flags),
        moments=moments,
    )


@dataclass(frozen=True)
class SignatureCrosscheck:
    m: int
    i: int
    applicable: bool
    signature: Optional[int]
    expected_complex_sum: Optional[int]
    agrees: Optional[bool]


def signature_crosscheck(m: int, i: int) -> SignatureCrosscheck:
    """Exact signature vs the alternating sum of even first differences.

    The comparison sum_{j=0}^{flo(i)} (-1)^j (h_2j - h_{2j-1}) is meaningful
    only while all lower-degree Lefschetz maps are isomorphisms; outside
    that range the record is marked not applicable rather than an error.
    """
    applicable = all(degree_verdict(m, j).sl_pass for j in range(i + 1))
    if not applicable:
        return SignatureCrosscheck(m, i, False, None, None, None)
    signature = hankel_window(m, i).signature()
    expected = 0
    for j in range(flo(i) + 1):
        h_even = hilbert_m2_closed(m, 2 * j)
        h_odd = hilbert_m2_closed(m, 2 * j - 1) if 2 * j - 1 >= 0 else 0
        expected += (-1) ** j * (h_even - h_odd)
    return SignatureCrosscheck(m, i, True, signature, expected, signature == expected)
