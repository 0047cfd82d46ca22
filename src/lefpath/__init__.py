"""Exact-arithmetic workbench for Lefschetz properties of A(m, 2).

Builds the weighted complete intersections A(m, 2) from their dual socle
polynomials, reads strong-Lefschetz / Hodge-Riemann verdicts off exact
higher-Hessian determinants, and re-derives every determinant through
subdiagonal NE lattice-path systems, cross-validating the two routes.
"""

__version__ = "0.1.0"


class BudgetExceeded(RuntimeError):
    """A transfer sweep, an involution check or a partition walk ran past its budget."""
