"""Per-degree Lefschetz / Hodge-Riemann verdicts for A(m, 2).

property_report is the one reader of the Hankel kernel, which lives here:
each window is [b_(p+q)] over one sequence b (hankel_moments), one number
wall over b (hankel_wall) gives the leading minors on every basis start, and
each window's determinant, rank and signature come off them.  A window the
wall cannot settle, or a b that fails its check against the relation
f_m o F_m = 0 and the lattice path counts, raises ArithmeticError;
degree_verdict, signature_crosscheck and path_routes, which compares the
two routes, read the report.  No oracle module (algebra, exact) is
imported: only hilbert and lattice, which imports nothing from here.
The factors (3m-3-2i)!, (d-2i)! > 0 between a window and the degree-i
pairing matrix change neither sign, rank, nor signature.  The linear form
is e1 (degree 1 is one-dimensional), and its positive rescalings only
rescale each pairing matrix, so no search is needed.

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

from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from . import BudgetExceeded, lattice
from .hilbert import (
    basis_range, check_degree, dual_numerator, flo, hilbert_m2_closed, relation_residues, socle_degree
)


def _sign(value) -> int:
    return 0 if value == 0 else (1 if value > 0 else -1)


def complex_hrr_expected_sign(i: int) -> int:
    """Claimed rotating law (-1)^flo(flo(i+2)) for the complex form."""
    return -1 if flo(flo(i + 2)) % 2 else 1


def hrr_expected_sign(i: int) -> int:
    """Claimed rotating law (-1)^flo(i+1) for the real form."""
    return -1 if flo(i + 1) % 2 else 1


class DegreeVerdict(NamedTuple):
    """Exact verdict for one Lefschetz map of A(m, 2)."""

    i: int
    h: int
    det: int
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
    signature: int


class ClaimFlag(NamedTuple):
    """Comparison of a claimed property against the computed one."""

    claim: str
    expected: str
    computed: str
    agrees: bool


class PropertyReport(NamedTuple):
    """Verdicts for A(m, 2), read off the windows of hankel_moments(m)."""

    m: int
    socle_degree: int
    verdicts: tuple[DegreeVerdict, ...]
    max_sl_degree: int
    hlp: bool
    max_chrr_degree: int
    claim_flags: tuple[ClaimFlag, ...] = ()


def hankel_moments(m: int) -> tuple[int, ...]:
    """b_s = a_(m-1-s), a_n = dual_numerator(m, n), 0 for s >= m, up to the
    largest p + q of any basis range: every degree's window reads this one."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    stop = basis_range(m, flo(3 * (m - 1))).stop
    return tuple(dual_numerator(m, m - 1 - s) if s < m else 0 for s in range(2 * stop - 1))


def hankel_wall(seq: Sequence[int], depths: Mapping[int, int]) -> dict[int, list[int]]:
    """Leading minors W(n, 1..depths[n]) of [seq[n + p + q]] (zero-padded),
    through the first zero one, from one number wall: W(n, 0) = 1,
    W(n, 1) = seq[n], W(n, k+1) W(n+2, k-1) = W(n, k) W(n+2, k) - W(n+1, k)^2
    (Desnanot-Jacobi).  With seq[L-1] the last nonzero term, W(n, k) = 0 at
    n + k > L and the anti-triangular (-1)^(k(k-1)/2) seq[L-1]^k at n + k = L.
    An entry with divisor 0 is unknown (None), as is any computed from one; a
    list stops before its first unknown minor.  Two rows are kept."""
    size = max((s + 1 for s, x in enumerate(seq) if x), default=0)
    width = max([size, *depths]) + 3
    older, row = [1] * width, [seq[n] if n < size else 0 for n in range(width)]
    minors: dict[int, list[int]] = {n: [] for n in depths}
    live = {n for n, depth in depths.items() if depth > 0}
    for k in range(1, max(depths.values(), default=0) + 1):
        for n in live:
            if row[n] is not None:
                minors[n].append(row[n])
        live = {n for n in live if row[n] not in (None, 0) and k < depths[n]}
        new: list = [0] * width
        for n in range(size - k - 1):
            if not older[n + 2] or None in row[n : n + 3]:
                new[n] = None
                continue
            new[n], rem = divmod(row[n] * row[n + 2] - row[n + 1] ** 2, older[n + 2])
            if rem:
                raise ArithmeticError("number wall: inexact division")
        if size > k:
            new[size - k - 1] = (-1) ** (k * (k + 1) // 2) * seq[size - 1] ** (k + 1)
        older, row = row, new
    return minors


def degree_verdict(m: int, i: int) -> DegreeVerdict:
    """Verdict at degree i: a view of property_report(m), the one reader of
    the Hankel kernel."""
    check_degree(m, i)
    return property_report(m).verdicts[i]


def _verdict(m: int, i: int, hs: list[int], minors: list[int]) -> DegreeVerdict:
    """From H_1, H_2, ... on its basis start, nonzero but maybe the last: an
    h x h window, h <= len(minors), has det H_h, rank h (h-1 at H_h = 0, a
    zero Schur complement) and signature sum_(k <= rank) sign(H_(k-1) H_k),
    H_0 = 1 (Sylvester-Jacobi); a larger one, which no A(m, 2) has, raises."""
    h, window_min = hs[i], min(hs[i : len(hs) - i])
    if h > len(minors):
        raise ArithmeticError(f"number wall settles no {h} x {h} window at (m, i) = ({m}, {i}): "
                              f"{len(minors)} leading minors known on its basis start")
    det = minors[h - 1]
    rank = h if det else h - 1
    jacobi = [_sign(x) for x in [1] + minors[:rank]]
    signature = sum(a * b for a, b in zip(jacobi, jacobi[1:]))
    det_sign = _sign(det)
    sl_pass = det_sign != 0
    chrr_expected = complex_hrr_expected_sign(i)
    hrr_expected = hrr_expected_sign(i)
    return DegreeVerdict(
        i=i,
        h=h,
        det=det,
        det_sign=det_sign,
        rank=rank,
        window_min=window_min,
        primitive_dim=h - (hs[i - 1] if i > 0 else 0),
        sl_pass=sl_pass,
        hlp_pass=rank == window_min,
        chrr_expected_sign=chrr_expected,
        chrr_pass=sl_pass and det_sign == chrr_expected,
        hrr_expected_sign=hrr_expected,
        hrr_pass=sl_pass and det_sign == hrr_expected,
        signature=signature,
    )


def _check_moments(m: int, b: tuple[int, ...]) -> None:
    """Raise unless b_s = a_(m-1-s) meets two sources sharing no formula with
    dual_numerator: the relation (a_0 = 1, b = 0 past s = m-1), the path counts."""
    a = (b + (1,))[m - 1 :: -1]  # only m = 2 stops b short of a_0
    if any(b[m:]) or relation_residues(m, a) != [1] + [0] * (m - 1):
        raise ArithmeticError(f"moments of m = {m} break the relation f_m o F_m = 0")
    if (lattice.target_path_counts(m) + [0] * len(b))[: len(b)] != list(b):
        raise ArithmeticError(f"moments of m = {m} differ from the path counts to (2m-2-s, m-1-s)")


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
    The frozen report is memoised on m, so a sweep over the degrees builds one.
    """
    return _property_report(m)


@lru_cache(maxsize=8)
def _property_report(m: int) -> PropertyReport:
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    d = socle_degree(m, 2)
    top = flo(d)
    ranges = [basis_range(m, i) for i in range(top + 1)]
    b = hankel_moments(m)
    # the last range on each start is its largest: stops grow with the degree
    minors = hankel_wall(b, {2 * ps.start: len(ps) for ps in ranges})
    hs = [hilbert_m2_closed(m, j) for j in range(d + 1)]
    verdicts = [_verdict(m, i, hs, minors[2 * ps.start]) for i, ps in enumerate(ranges)]
    _check_moments(m, b)  # after the wall, whose own failures name their window
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
    )


class SignatureCrosscheck(NamedTuple):
    m: int
    i: int
    applicable: bool
    signature: Optional[int]
    expected_complex_sum: Optional[int]
    agrees: Optional[bool]


def signature_crosscheck(m: int, i: int) -> SignatureCrosscheck:
    """The report's degree-i signature vs sum_(j <= flo(i)) (-1)^j p_2j, over
    the even primitive dimensions p_k = h_k - h_(k-1).  Only meaningful while
    every Lefschetz map through degree i is an isomorphism; past that the
    record is marked not applicable rather than an error."""
    check_degree(m, i)
    report = property_report(m)
    if report.max_sl_degree < i:
        return SignatureCrosscheck(m, i, False, None, None, None)
    signature = report.verdicts[i].signature
    expected = sum((-1) ** j * report.verdicts[2 * j].primitive_dim for j in range(flo(i) + 1))
    return SignatureCrosscheck(m, i, True, signature, expected, signature == expected)


class PathRoute(NamedTuple):
    """The path route at degree i against the report's determinant."""

    m: int
    i: int
    h: int
    det: int
    predicted_sign: int
    signed_sum: Optional[int]
    n_doubly: Optional[int]
    count_matches_det: Optional[bool]
    nonvanishing_rule_agrees: bool
    ok: Optional[bool]

    @property
    def in_rule_range(self) -> bool:
        return self.m >= 2 and self.i <= self.m - 1


def path_routes(m: int, degrees: Iterable[int], sweep: bool = True) -> list[PathRoute]:
    """The path route at each degree, one record built per basis range (its
    degrees share the window, det and sweep; their records differ in i).  The
    transfer sweep gives the signed (Lindstrom-Gessel-Viennot) sum and N, and
    ok holds iff signed == det == (-1)^flo(h_i) * N; with no sweep, all four
    are None.  The rule (det != 0) == (2 h_i <= m) is recorded, not raised:
    it fails at (5, 6), det = -1, and holds for m >= 2, i <= m-1 (in_rule_range).
    """
    routes: list[PathRoute] = []
    for i in degrees:
        check_degree(m, i)
        ps = basis_range(m, i)
        if routes and basis_range(m, routes[-1].i) == ps:
            routes.append(routes[-1]._replace(i=i))
            continue
        v = degree_verdict(m, i)
        sign = -1 if flo(v.h) % 2 else 1
        signed = n_doubly = matches = ok = None
        if sweep:
            try:
                signed, n_doubly = lattice.transfer_counts(m, ps)
            except BudgetExceeded as exc:
                raise BudgetExceeded(f"{exc} at ({m}, {i})") from None
            matches = v.det == sign * n_doubly
            ok = matches and signed == v.det
        rule = (v.det != 0) == (2 * v.h <= m)
        routes.append(PathRoute(m, i, v.h, v.det, sign, signed, n_doubly, matches, rule, ok))
    return routes
